"""CI guard: the README's settings table and the program name the same
``REPRO_*`` variables.

A variable counts as read when its whole name is a string constant in the
program (``env_number("REPRO_FLEET_TTL_S", ...)``, ``TRACE_ENV_VAR =
"REPRO_TRACE"``); names that only appear inside longer strings (messages,
docstrings) do not.  ``REPRO_SWEEP_CAP`` is read by the benchmarks'
``conftest.py``, not by the program.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
NAME = re.compile(r"REPRO_[A-Z0-9_]+")


def _read_names(paths) -> set[str]:
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and NAME.fullmatch(node.value)
            ):
                names.add(node.value)
    return names


def _settings_table() -> set[str]:
    """Every ``REPRO_*`` name in the rows of the README's Settings table."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Settings\n", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    return {name for row in rows for name in NAME.findall(row.split("|")[1])}


PROGRAM = _read_names(sorted((ROOT / "src" / "repro").rglob("*.py")))
BENCHMARKS = _read_names([ROOT / "benchmarks" / "conftest.py"])


def test_every_variable_the_program_reads_is_in_the_settings_table():
    assert PROGRAM, "no REPRO_* variable found: the scan is broken"
    assert PROGRAM - _settings_table() == set()


def test_every_variable_the_readme_names_is_read():
    readme = set(NAME.findall((ROOT / "README.md").read_text(encoding="utf-8")))
    assert _settings_table() <= readme
    assert readme - PROGRAM - BENCHMARKS == set()
