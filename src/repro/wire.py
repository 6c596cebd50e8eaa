"""Typed reads of outside bytes: JSON documents and number-valued env vars.

Every document the program did not write itself — a request body, a
registry entry file, a feedback line, the rollout state file — is read
through an :class:`At`: the place of a value in its document
(``op.inputs[2]``) and the error a failed read raises.  That error is
fixed where the bytes enter (``At(ProtocolError, "request")`` for an HTTP
body, ``At(RegistryError, path)`` for a registry file), so one
``op_from_wire`` raises whichever error its boundary answers with, and no
caller re-raises one error as another.

A read checks the JSON type and returns the value unchanged, so a valid
document parses to exactly the values it gives; numbers must be finite
(``json.loads`` accepts ``NaN`` and ``Infinity``).  Range rules belong to
the value built (a ``GPUSpec`` refuses zero SMs): :meth:`At.build` raises
its ``ValueError`` as the boundary's error.  Path strings are built only
when a read fails, as request parsing is on the warm serving path.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import MISSING as _MISSING
from typing import NoReturn

__all__ = ["At", "ProtocolError", "env_number"]

#: The item type of a list of strings.
_STR = frozenset({str})
#: Integers beyond this are not finite as floats.
_FLOAT_MAX = int(sys.float_info.max)


class ProtocolError(ValueError):
    """A malformed or unserviceable request body (HTTP 400).  It lives at
    the bottom layer so that a module's refusal of a request can be one
    (``RolloutError``)."""


def _shown(value) -> str:
    """A short description of a rejected value for an error message."""
    text = repr(value)
    short = len(text) <= 40 and not isinstance(value, (list, dict))
    return text if short else type(value).__name__


def _finite(value) -> bool:
    """An int that is not a bool, or a float, and finite as a float."""
    if isinstance(value, float):
        return math.isfinite(value)
    ok = isinstance(value, int) and not isinstance(value, bool)
    return ok and -_FLOAT_MAX <= value <= _FLOAT_MAX


class At:
    """The place of a value in an outside JSON document, and the error that
    reading it raises.

    Field reads take the object and a key (``at.string(obj, "name")``).
    ``default`` makes a field optional; its "required" sentinel is the one
    ``dataclasses`` uses, so a dataclass field's default passes straight
    through.  ``null=True`` also reads an explicit JSON ``null`` as ``None``.
    """

    __slots__ = ("error", "key", "parent", "index")

    def __init__(self, error: type[Exception], key: str, parent=None, index=None):
        self.error = error
        self.key = key
        self.parent = parent
        self.index = index

    def at(self, key: str, index: int | None = None) -> At:
        """The place of field ``key`` (item ``index`` of it, if given)."""
        return At(self.error, key, self, index)

    def __str__(self) -> str:
        parts = []
        node = self
        while node is not None:
            if node.index is not None:
                parts.append(f"[{node.index}]")
            parts.append(node.key if node.parent is None else f".{node.key}")
            node = node.parent
        return "".join(reversed(parts))

    def fail(self, message: str, key: str | None = None) -> NoReturn:
        """Raise this boundary's error for this place (or its field ``key``)."""
        raise self.error(f"{self if key is None else self.at(key)} {message}")

    def build(self, make, *args, **kwargs):
        """``make(*args, **kwargs)``; its range ``ValueError`` is raised as
        this boundary's error at this place."""
        try:
            return make(*args, **kwargs)
        except ValueError as exc:
            raise self.error(f"{self}: {exc}") from exc

    # -- the value at this place ---------------------------------------------
    def object(self, value) -> dict:
        if not isinstance(value, dict):
            self.fail(f"must be a JSON object, got {_shown(value)}")
        return value

    def strings_value(self, value) -> tuple[str, ...]:
        if not isinstance(value, (list, tuple)) or not _STR.issuperset(map(type, value)):
            self.fail(f"must be a list of strings, got {_shown(value)}")
        return tuple(value)

    def named(self, value, table: dict, what: str, build):
        """``table[value]`` for a known name, ``build(obj, self)`` for an
        object: the two wire forms of a value that has presets."""
        if isinstance(value, str):
            if value not in table:
                self.fail(f"names an unknown {what} {value!r}; known: {sorted(table)}")
            return table[value]
        return build(self.object(value), self)

    # -- fields of an object read at this place --------------------------------
    def _other(self, obj: dict, key: str, value, default, null: bool, expected: str):
        """The slow path of a field read: absent, null or of the wrong type."""
        if key not in obj:
            if default is _MISSING:
                self.fail(f"is missing required field {key!r}")
            return default
        if value is None and null:
            return None
        self.fail(f"must be {expected}, got {_shown(value)}", key)

    def string(self, obj: dict, key: str, default=_MISSING, *, null=False):
        value = obj.get(key)
        if isinstance(value, str):
            return value
        return self._other(obj, key, value, default, null, "a string")

    def name(self, obj: dict, key: str, default=_MISSING, *, null=False):
        value = obj.get(key)
        if isinstance(value, str) and value:
            return value
        return self._other(obj, key, value, default, null, "a non-empty string")

    def integer(self, obj: dict, key: str, default=_MISSING, *, min=None, null=False):
        value = obj.get(key)
        if type(value) is int and (min is None or value >= min):
            return value
        expected = "an integer" if min is None else f"an integer >= {min}"
        return self._other(obj, key, value, default, null, expected)

    def number(self, obj: dict, key: str, default=_MISSING, *, null=False):
        """A finite number (int or float), returned as given."""
        value = obj.get(key)
        if math.isfinite(value) if type(value) is float else _finite(value):
            return value
        return self._other(obj, key, value, default, null, "a finite number")

    def boolean(self, obj: dict, key: str, default=_MISSING, *, null=False):
        value = obj.get(key)
        if value is True or value is False:
            return value
        return self._other(obj, key, value, default, null, "a boolean")

    def version(self, obj: dict, key: str, default=_MISSING, *, null=False):
        """A cost-model version: an int or a non-empty tag (``"1-cal-…"``)."""
        value = obj.get(key)
        if type(value) is int or (isinstance(value, str) and value):
            return value
        expected = "an integer or a non-empty version tag"
        return self._other(obj, key, value, default, null, expected)

    def mapping(self, obj: dict, key: str, default=_MISSING, *, null=False):
        value = obj.get(key)
        if isinstance(value, dict):
            return value
        return self._other(obj, key, value, default, null, "an object")

    def array(self, obj: dict, key: str, default=_MISSING, *, null=False):
        value = obj.get(key)
        if isinstance(value, (list, tuple)):
            return value
        return self._other(obj, key, value, default, null, "an array")

    def strings(self, obj: dict, key: str, default=_MISSING, *, null=False):
        """A list of strings, as a tuple."""
        value = obj.get(key)
        if isinstance(value, (list, tuple)) and _STR.issuperset(map(type, value)):
            return tuple(value)
        return self._other(obj, key, value, default, null, "a list of strings")

    def numbers(self, obj: dict, key: str, default=_MISSING, *, null=False):
        """A list of finite numbers, as a tuple."""
        value = obj.get(key)
        if isinstance(value, (list, tuple)) and all(map(_finite, value)):
            return tuple(value)
        expected = "a list of finite numbers"
        return self._other(obj, key, value, default, null, expected)

    def choice(self, obj: dict, key: str, choices, default=_MISSING, *, what=""):
        """One of ``choices``: a mapping's value for a known name, or the
        name itself for any other collection."""
        value = obj.get(key, default)
        if isinstance(value, str) and value in choices:
            return choices[value] if isinstance(choices, dict) else value
        if value is _MISSING:
            self.fail(f"is missing required field {key!r}")
        known = sorted(choices) if isinstance(choices, dict) else list(choices)
        self.fail(f"names an unknown {what or key} {_shown(value)}; known: {known}", key)


def env_number(name: str, default, kind: type = float):
    """The environment variable ``name`` read as ``kind`` (``float`` or
    ``int``); ``default`` when it is unset or blank.  A value that does not
    parse raises a ``ValueError`` naming the variable."""
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        return kind(raw)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ValueError(f"{name} must be {noun}, got {raw!r}") from None
