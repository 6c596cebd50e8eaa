"""Command-line interface: regenerate any paper table or run the recipe.

Usage::

    python -m repro table1            # operator-class proportions
    python -m repro table2            # algebraic fusion
    python -m repro table3            # per-operator breakdown
    python -m repro table4            # MHA per framework
    python -m repro table5            # encoder per framework
    python -m repro optimize          # the full recipe + summary
    python -m repro optimize --batch 96 --seq 128
    python -m repro movement          # data-movement reduction report

Sweep caching and parallelism::

    python -m repro table5 --sweep-store ~/.cache/repro-sweeps --jobs 4

``--sweep-store DIR`` persists every evaluated sweep on disk (the L2 tier
under the in-process payload L1), so later invocations skip re-sweeping; the
``REPRO_SWEEP_STORE`` environment variable sets the same default.
``--jobs N`` fans cold whole-graph sweeps over N worker processes (default
serial; 0 means one per CPU).  Neither option changes any reported number —
results are bit-identical.  Every command and every daemon role
(``serve``, ``fleet serve``) takes the two the same way.

Configuration selection runs one pipeline: layered min-plus SSSP plus
batched inference.  Its scalar reference (:mod:`repro.configsel.reference`)
is not a CLI option; ``repro validate --deep`` reselects every registered
schedule through both and reports any disagreement.

Tuning as a service::

    python -m repro serve --port 8077 --sweep-store ~/.cache/repro-sweeps
    python -m repro query --url http://127.0.0.1:8077 --model encoder
    python -m repro query --url http://127.0.0.1:8077 --health

``serve`` runs the long-lived layout-recommendation daemon
(:mod:`repro.service`); ``query`` asks a running daemon for a whole-graph
tuned schedule (or its health/metrics).  The daemon shares the L2 sweep
store with every batch command, so anything a nightly run swept is served
warm.  SIGTERM drains gracefully: the daemon stops accepting, finishes
in-flight requests within ``--drain-deadline`` seconds (default 10), and
exits 0.  ``--host``, ``--port`` and ``--drain-deadline`` mean the same for
``fleet serve``.

The sharded tuning fleet::

    python -m repro fleet serve --role coordinator --port 8077
    python -m repro fleet serve --role worker --port 0 \
        --coordinator-url http://127.0.0.1:8077
    python -m repro fleet status --url http://127.0.0.1:8077

A coordinator is a full daemon plus ``POST /v1/optimize_batch`` and the
fleet membership endpoints; workers are plain daemons that register and
heartbeat (:mod:`repro.service.fleet`).  The coordinator's lease, deadline
and backoff come from ``REPRO_FLEET_*`` environment variables;
``REPRO_FAULT_SPEC`` arms the fault-injection harness (see the README's
Fleet section and its settings table).

Distributed tracing::

    python -m repro trace --capture --url http://127.0.0.1:8077 \
        --model mha --export trace.json --top 5
    python -m repro trace --trace-id <32-hex id> --url http://127.0.0.1:8077

``trace --capture`` runs one traced optimize against a daemon (set
``REPRO_TRACE=1`` on the daemon so its spans are retained), prints the
assembled span tree — against a coordinator this merges the worker-side
spans into one connected cross-process tree — and ``--export`` writes
Chrome trace-event JSON loadable in Perfetto (see the README's
Observability section).

Schedule registry::

    python -m repro register --model encoder --cap 400
    python -m repro validate --all
    python -m repro validate --digest <sha256> --deep --registry DIR

``register`` tunes a model graph and persists the schedule as a
content-addressed registry entry (:mod:`repro.registry`); ``validate``
replays the layered validator stack (:mod:`repro.validation`) over one
entry (``--digest``) or every entry (``--all``) and exits non-zero if
any fails.  ``--registry DIR`` overrides the registry location
(default: ``REPRO_SCHEDULE_REGISTRY`` or ``<sweep-store>/registry``).

Calibration & rollout::

    python -m repro report --url http://127.0.0.1:8077
    python -m repro rollout --propose --url http://127.0.0.1:8077
    python -m repro rollout --url http://127.0.0.1:8077

``report`` submits measured kernel timings to a daemon's calibration
feedback store (by default the paper's own Table III measurements);
``rollout`` inspects or drives the staged cost-model rollout — fit and
shadow-gate a candidate (``--propose``), then let canary traffic promote
it (or manually ``--promote`` / ``--rollback``).  See the README's
"Calibration & rollout" section.
"""

from __future__ import annotations

import argparse
import sys

from repro import __version__
from repro.analysis.report import (
    format_framework_table,
    format_table1,
    format_table2,
    format_table3,
)
from repro.hardware.cost_model import COST_MODEL_VERSION, CostModel
from repro.ir.dims import bert_large_dims

__all__ = ["main"]

#: Default bind/connect port of the tuning daemon.
DEFAULT_PORT = 8077


def _env(args: argparse.Namespace):
    return bert_large_dims(batch=args.batch, seq=args.seq)


def _cmd_table1(args) -> None:
    from repro.analysis.tables import table1

    print(format_table1(table1(_env(args), CostModel())))


def _cmd_table2(args) -> None:
    from repro.analysis.tables import table2

    print(format_table2(table2(_env(args), CostModel())))


def _cmd_table3(args) -> None:
    from repro.analysis.tables import table3

    rows, totals = table3(_env(args), CostModel(), cap=args.cap)
    print(format_table3(rows, totals))


def _cmd_table4(args) -> None:
    from repro.analysis.tables import table4

    print(format_framework_table(table4(_env(args), CostModel(), cap=args.cap)))


def _cmd_table5(args) -> None:
    from repro.analysis.tables import table5

    print(format_framework_table(table5(_env(args), CostModel(), cap=args.cap)))


def _cmd_optimize(args) -> None:
    from repro import optimize_encoder

    report = optimize_encoder(_env(args), cap=args.cap)
    print(report.summary())


def _cmd_roofline(args) -> None:
    from repro.hardware.roofline import graph_roofline
    from repro.transformer.graph_builder import build_encoder_graph

    graph = build_encoder_graph(qkv_fusion="qkv")
    print(f"{'operator':<24s} {'class':<26s} {'flop/B':>8s} {'ridge':>7s}  bound")
    for pt in graph_roofline(graph, _env(args)):
        bound = "memory" if pt.memory_bound else "compute"
        print(
            f"{pt.op_name:<24s} {pt.op_class.value:<26s} "
            f"{pt.intensity:8.1f} {pt.ridge:7.1f}  {bound}"
        )


def _cmd_calibrate(args) -> None:
    from repro.analysis.calibration import audit_calibration

    report = audit_calibration(_env(args), CostModel(), cap=args.cap)
    for r in report.rows:
        print(
            f"{r.label:<42s} PT {r.pt_ratio:5.2f}x   Ours {r.ours_ratio:5.2f}x"
        )
    print(
        f"geomean: PT {report.geometric_mean_ratio(side='pt'):.2f}, "
        f"Ours {report.geometric_mean_ratio(side='ours'):.2f}"
    )


def _cmd_movement(args) -> None:
    from repro.analysis.tables import data_movement_reduction_report

    r = data_movement_reduction_report(_env(args))
    print(
        f"unfused {r['unfused_mwords']:.0f} Mw -> fused {r['fused_mwords']:.0f} Mw "
        f"({100 * r['reduction_fraction']:.2f}% reduction)"
    )


def _run_daemon(service, args, *, name: str, label: str = "", join=None) -> None:
    """Run ``service`` as a daemon until SIGINT/SIGTERM, then drain and exit 0.

    The one start-up routine of ``repro serve`` and ``repro fleet serve``:
    engine warm-up on a background thread, bind, the ``listening on``
    banner, then ``join(url)`` (a worker's fleet agent; it returns the
    cleanup to run at shutdown).  The banner names the daemon ``label``
    (default ``name``).  On SIGTERM: readiness flips off
    (``/readyz`` answers 503, so fleet coordinators and load balancers
    stop routing here), the accept loop stops, in-flight requests get the
    drain deadline to finish, and the process prints ``<name>: clean
    shutdown`` on its way to exit code 0.
    """
    import signal
    import threading

    from repro.service import make_server

    service.start_warmup()
    server = make_server(service, args.host, args.port)
    host, port = server.server_address[:2]
    url = f"http://{host}:{port}"
    store = service.store
    print(
        f"{label or name} {__version__} (cost model v{COST_MODEL_VERSION}) "
        f"listening on {url}"
    )
    print(f"sweep store: {store.root if store is not None else 'disabled'}")
    cleanup = None if join is None else join(url)
    drain_deadline_s = args.drain_deadline

    def _sigterm(signum, frame):  # pragma: no cover - signal plumbing
        # One-shot: a second TERM during the shutdown path must not
        # re-enter and spoil the clean exit code.
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        service.begin_drain()
        # serve_forever blocks *this* thread; shutdown() must be called
        # from another one or the two deadlock.
        threading.Thread(target=server.shutdown, daemon=True).start()

    signal.signal(signal.SIGTERM, _sigterm)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        service.begin_drain()
    finally:
        drained = server.drain(drain_deadline_s)
        server.server_close()
        if cleanup is not None:
            cleanup()
        if not drained:
            print(
                f"{name}: drain deadline ({drain_deadline_s}s) expired with "
                f"{server.inflight()} request(s) in flight",
                file=sys.stderr,
            )
        print(f"{name}: clean shutdown")


def _cmd_serve(args) -> None:
    """Run the tuning daemon until interrupted (SIGINT/SIGTERM)."""
    from repro.service import TuningService

    _run_daemon(TuningService(warm=False), args, name="repro-tuningd")


def _cmd_query(args) -> None:
    """Query a running daemon: health, metrics, or a tuned schedule."""
    import json

    from repro.service import ServiceError, TuningClient

    client = TuningClient(args.url)
    try:
        if args.health:
            print(json.dumps(client.healthz(), indent=2, sort_keys=True))
            return
        if args.metrics:
            print(json.dumps(client.metrics(), indent=2, sort_keys=True))
            return
        resp = client.optimize(
            model=args.model,
            qkv_fusion=args.qkv_fusion,
            env=_env(args),
            cap=args.cap,
        )
    except ServiceError as exc:
        print(f"repro query: {exc}", file=sys.stderr)
        raise SystemExit(2) from exc
    print(
        f"{resp['graph']}: {resp['num_kernels']} kernels, "
        f"{resp['forward_us']:.1f} us forward + {resp['backward_us']:.1f} us "
        f"backward (cost model v{resp['cost_model_version']})"
    )
    for k in resp["kernels"]:
        label = f" [{k['kernel_label']}]" if k["kernel_label"] else ""
        print(
            f"  {k['op']:<24s}{label:<8s} {k['best']['total_us']:9.2f} us  "
            f"({k['num_configs']} configs swept)"
        )
    sel = resp.get("selection")
    if sel:
        print(
            f"selection: {sel['total_us']:.1f} us end-to-end "
            f"(chain {sel['chain_cost_us']:.1f} us, "
            f"{len(sel['transposes'])} transposes for {sel['transpose_us']:.1f} us)"
        )


def _render_trace_tree(spans: list[dict], out=None) -> None:
    """Print one trace's spans as an indented tree (children by parent_id)."""
    out = out or sys.stdout
    by_id = {s["span_id"]: s for s in spans}
    children: dict[str | None, list[dict]] = {}
    for s in spans:
        parent = s.get("parent_id")
        if parent is not None and parent not in by_id:
            parent = None  # orphan: show at the root rather than dropping it
        children.setdefault(parent, []).append(s)
    for kids in children.values():
        kids.sort(key=lambda s: s.get("start_us", 0))

    def walk(span: dict, depth: int) -> None:
        attrs = span.get("attrs") or {}
        service = attrs.get("service")
        label = f"{span['name']}" + (f" [{service}]" if service else "")
        extras = ", ".join(
            f"{k}={v}" for k, v in sorted(attrs.items()) if k != "service"
        )
        status = "" if span.get("status") == "ok" else f" status={span.get('status')}"
        print(
            f"{'  ' * depth}{label:<{max(40 - 2 * depth, 1)}s}"
            f"{span.get('dur_us', 0) / 1e3:9.2f} ms{status}"
            + (f"  ({extras})" if extras else ""),
            file=out,
        )
        for kid in children.get(span["span_id"], ()):
            walk(kid, depth + 1)

    for root in children.get(None, ()):
        walk(root, 0)


def _cmd_trace(args) -> int:
    """Fetch a distributed trace — or capture one live — and inspect it."""
    import json

    from repro import obs
    from repro.obs.export import slowest_spans, to_chrome_trace, trace_tree
    from repro.service import ServiceError, TuningClient

    client = TuningClient(args.url)
    spans: list[dict] = []
    trace_id = args.trace_id
    if args.capture:
        # Run one traced optimize: the local root span's traceparent rides
        # the request header, so server/worker spans join this trace id.
        obs.set_tracing(True)
        try:
            with obs.span("cli.capture", service="cli") as root:
                trace_id = root.trace_id
                client.optimize(
                    model=args.model,
                    qkv_fusion=args.qkv_fusion,
                    env=_env(args),
                    cap=args.cap,
                )
        except ServiceError as exc:
            print(f"repro trace: capture failed: {exc}", file=sys.stderr)
            return 2
        spans.extend(obs.get_tracer().trace(trace_id))
    if trace_id is None:
        print(
            "repro trace: pass --trace-id ID or --capture", file=sys.stderr
        )
        return 2
    try:
        remote = client.trace(trace_id)
    except ServiceError as exc:
        if not spans:
            print(f"repro trace: {exc}", file=sys.stderr)
            return 2
        print(
            f"repro trace: server has no spans for {trace_id} ({exc}); "
            "showing client-side spans only — is REPRO_TRACE=1 set on the "
            "daemon?",
            file=sys.stderr,
        )
        remote = None
    if remote is not None:
        seen = {s["span_id"] for s in spans}
        spans.extend(
            s for s in remote.get("spans", ()) if s["span_id"] not in seen
        )

    tree = trace_tree(spans)
    print(
        f"trace {trace_id}: {len(spans)} spans, "
        f"{'connected' if tree['connected'] else 'DISCONNECTED'} "
        f"({len(tree['roots'])} roots, {len(tree['orphans'])} orphans)"
    )
    _render_trace_tree(spans)
    if args.top:
        print(f"\nslowest {args.top} spans:")
        for s in slowest_spans(spans, n=args.top):
            print(f"  {s.get('dur_us', 0) / 1e3:9.2f} ms  {s['name']}")
    if args.export is not None:
        with open(args.export, "w", encoding="utf-8") as fh:
            json.dump(to_chrome_trace(spans), fh)
        print(f"\nwrote {args.export} (load in Perfetto / chrome://tracing)")
    return 0


def _cmd_fleet_serve(args) -> None:
    """Run a fleet coordinator or worker daemon until signaled."""
    from repro.service import TuningService

    if args.role == "coordinator":
        from repro.service.fleet.coordinator import FleetService

        service, join = FleetService(warm=False), None
    elif args.coordinator_url is None:
        print("repro fleet serve: a worker needs --coordinator-url", file=sys.stderr)
        raise SystemExit(2)
    else:
        service = TuningService(warm=False)

        def join(url: str):
            from repro.service.fleet.worker import WorkerAgent

            agent = WorkerAgent(
                args.coordinator_url,
                args.advertise_url or url,
                service,
                worker_id=args.worker_id,
            )
            # Name the worker's spans/metrics after its fleet identity so the
            # coordinator-assembled trace tree shows which member did the work.
            service.service_name = f"worker:{agent.worker_id}"
            agent.start()
            print(f"fleet: registering {agent.worker_id} with {args.coordinator_url}")
            return agent.stop

    _run_daemon(
        service, args, name="repro-fleetd", label=f"repro-fleetd {args.role}", join=join
    )


def _cmd_fleet_status(args) -> int:
    """Print a coordinator's fleet view: workers, health, quarantines."""
    import json

    from repro.service import ServiceError, TuningClient

    client = TuningClient(args.url, timeout=10.0)
    try:
        status = client.fleet_status()
    except ServiceError as exc:
        print(f"repro fleet status: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(status, indent=2, sort_keys=True))
    counts = status.get("counts", {})
    print(
        f"# {counts.get('ready', 0)}/{counts.get('registered', 0)} workers "
        f"ready ({counts.get('quarantined', 0)} quarantined)",
        file=sys.stderr,
    )
    return 0


def _shared_options() -> argparse.ArgumentParser:
    """The engine and daemon options of ``repro`` and ``repro fleet serve``,
    declared once (an argparse parent)."""
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes for cold whole-graph sweeps "
             "(default: serial; 0 = one per CPU)",
    )
    shared.add_argument(
        "--sweep-store", default=None, metavar="DIR",
        help="directory of the persistent sweep store "
             "(default: REPRO_SWEEP_STORE or disabled)",
    )
    daemon = shared.add_argument_group("daemon (serve / fleet serve)")
    daemon.add_argument("--host", default="127.0.0.1", help="bind address")
    daemon.add_argument(
        "--port", type=int, default=DEFAULT_PORT,
        help=f"bind port (default {DEFAULT_PORT}; 0 = ephemeral)",
    )
    daemon.add_argument(
        "--drain-deadline", type=float, default=10.0, metavar="S",
        help="SIGTERM: seconds to let in-flight requests finish (default 10)",
    )
    return shared


def _apply_engine_options(args) -> None:
    """Install ``--sweep-store`` and ``--jobs`` as the process defaults."""
    from repro.engine import set_default_jobs, set_sweep_store

    if args.sweep_store is not None:
        set_sweep_store(args.sweep_store)
    if args.jobs is not None:
        set_default_jobs(args.jobs)


def _fleet_main(argv: list[str]) -> int:
    """``repro fleet <serve|status>`` — its own parser, shared options."""
    parser = argparse.ArgumentParser(
        prog="repro fleet",
        description="Run or inspect the sharded tuning fleet.",
    )
    sub = parser.add_subparsers(dest="fleet_command", required=True)

    serve = sub.add_parser(
        "serve", parents=[_shared_options()],
        help="run a coordinator or worker daemon",
    )
    serve.add_argument(
        "--role", choices=("coordinator", "worker"), default="coordinator",
        help="what this daemon is (default: coordinator)",
    )
    serve.add_argument(
        "--coordinator-url", default=None, metavar="URL",
        help="worker: coordinator to register with (required for workers)",
    )
    serve.add_argument(
        "--worker-id", default=None, metavar="ID",
        help="worker: stable identity on the hash ring "
             "(default: a random worker-<hex> id)",
    )
    serve.add_argument(
        "--advertise-url", default=None, metavar="URL",
        help="worker: URL to announce to the coordinator "
             "(default: the bound http://host:port)",
    )
    status = sub.add_parser(
        "status", help="print a coordinator's fleet state"
    )
    status.add_argument(
        "--url", default=f"http://127.0.0.1:{DEFAULT_PORT}",
        help="base URL of a running coordinator",
    )

    args = parser.parse_args(argv)
    if args.fleet_command == "status":
        return _cmd_fleet_status(args)
    _apply_engine_options(args)
    _cmd_fleet_serve(args)
    return 0


def _resolve_registry(args):
    """The registry named by ``--registry`` or the process-active one."""
    from repro.registry import ScheduleRegistry, get_schedule_registry

    if args.registry is not None:
        return ScheduleRegistry(args.registry)
    registry = get_schedule_registry()
    if registry is None:
        print(
            "repro: no schedule registry — pass --registry DIR, set "
            "REPRO_SCHEDULE_REGISTRY, or enable a sweep store",
            file=sys.stderr,
        )
        raise SystemExit(2)
    return registry


def _cmd_register(args) -> None:
    """Tune one model graph and persist the schedule in the registry."""
    from repro.configsel.selector import select_configurations
    from repro.hardware.spec import V100
    from repro.service.protocol import OptimizeRequest, build_request_graph

    registry = _resolve_registry(args)
    req = OptimizeRequest(
        model=args.model,
        qkv_fusion=args.qkv_fusion,
        include_backward=not args.forward_only,
        fused=not args.unfused,
        env=_env(args),
        gpu=V100,
        cap=args.cap,
        seed=0x5EED,
    )
    graph = build_request_graph(req)
    sel = select_configurations(
        graph, req.env, CostModel(req.gpu), cap=args.cap, register=registry
    )
    variant = args.qkv_fusion + (", forward-only" if args.forward_only else "")
    print(f"registered {sel.registered_digest}")
    print(
        f"  {args.model} ({variant}): {sel.total_us:.1f} us end-to-end, "
        f"{len(sel.chosen)} kernels, {len(sel.transposes)} transposes"
    )
    print(f"  registry: {registry.root}")


def _cmd_validate(args) -> None:
    """Re-validate registered schedules; exit 1 if any entry fails."""
    from repro.engine import get_sweep_store
    from repro.registry import RegistryError
    from repro.validation import validate_entry

    registry = _resolve_registry(args)
    store = get_sweep_store()
    if args.digest is not None:
        digests = [args.digest]
    elif args.all:
        digests = registry.digests()
        if not digests:
            print(f"repro validate: registry at {registry.root} is empty")
            return
    else:
        print(
            "repro validate: pass --digest DIGEST or --all", file=sys.stderr
        )
        raise SystemExit(2)

    failed = 0
    for digest in digests:
        try:
            entry = registry.load(digest)
        except RegistryError as exc:
            print(f"FAIL {digest} (unloadable: {exc})")
            failed += 1
            continue
        if entry is None:
            print(f"FAIL {digest} (not found in {registry.root})")
            failed += 1
            continue
        report = validate_entry(entry, store=store, deep=args.deep)
        print(report.summary())
        if not report.ok:
            failed += 1
    print(f"{len(digests) - failed}/{len(digests)} entries valid")
    if failed:
        raise SystemExit(1)


def _cmd_report(args) -> int:
    """Submit measured timings to a daemon's calibration feedback store."""
    import json

    from repro.service import ServiceError, TuningClient

    client = TuningClient(args.url)
    if args.records is not None:
        # The daemon reads the records like any request body.
        with open(args.records, encoding="utf-8") as fh:
            records = json.load(fh)
    else:
        # Default corpus: the paper's own Table III measurements, stamped
        # with whatever cost-model version the daemon currently serves.
        from repro.calibrate import table3_corpus

        try:
            served = client.healthz().get("cost_model_version")
        except ServiceError as exc:
            print(f"repro report: {exc}", file=sys.stderr)
            raise SystemExit(2) from exc
        records = table3_corpus(served)
    try:
        resp = client.report(records)
    except ServiceError as exc:
        print(f"repro report: {exc}", file=sys.stderr)
        raise SystemExit(2) from exc
    print(
        f"accepted {resp['accepted']} record(s); store holds {resp['total']} "
        f"(corpus {resp['corpus_digest'][:12]}, "
        f"cost model v{resp['cost_model_version']})"
    )
    return 0


def _cmd_rollout(args) -> int:
    """Inspect or drive a daemon's staged cost-model rollout."""
    import json

    from repro.service import ServiceError, TuningClient

    client = TuningClient(args.url)
    try:
        if args.propose:
            params = None
            if args.params is not None:
                with open(args.params, encoding="utf-8") as fh:
                    params = json.load(fh)
            resp = client.calibrate_propose(params=params, force=args.force)
        elif args.promote:
            resp = client.rollout_action("promote")
        elif args.rollback:
            resp = client.rollout_action("rollback")
        else:
            resp = client.rollout_status()
    except ServiceError as exc:
        print(f"repro rollout: {exc}", file=sys.stderr)
        raise SystemExit(2) from exc
    print(json.dumps(resp, indent=2, sort_keys=True))
    return 0


_COMMANDS = {
    "table1": _cmd_table1,
    "table2": _cmd_table2,
    "table3": _cmd_table3,
    "table4": _cmd_table4,
    "table5": _cmd_table5,
    "optimize": _cmd_optimize,
    "movement": _cmd_movement,
    "roofline": _cmd_roofline,
    "calibrate": _cmd_calibrate,
    "serve": _cmd_serve,
    "query": _cmd_query,
    "trace": _cmd_trace,
    "register": _cmd_register,
    "validate": _cmd_validate,
    "report": _cmd_report,
    "rollout": _cmd_rollout,
}


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # ``fleet`` has subcommands of its own (serve/status), which the flat
    # single-positional parser below cannot express — dispatch it first.
    if argv and argv[0] == "fleet":
        return _fleet_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce 'Data Movement Is All You Need' (MLSys 2021).",
        parents=[_shared_options()],
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"repro {__version__} (cost model v{COST_MODEL_VERSION})",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--batch", type=int, default=8, help="mini-batch size B")
    parser.add_argument("--seq", type=int, default=512, help="sequence length L")
    parser.add_argument(
        "--cap", type=int, default=400,
        help="sampled-configuration cap for wide kernel sweeps",
    )
    service = parser.add_argument_group("tuning service (query)")
    service.add_argument(
        "--url", default=f"http://127.0.0.1:{DEFAULT_PORT}",
        help="query: base URL of a running daemon",
    )
    service.add_argument(
        "--health", action="store_true", help="query: print /healthz and exit"
    )
    service.add_argument(
        "--metrics", action="store_true", help="query: print /metrics and exit"
    )
    service.add_argument(
        "--model", choices=("mha", "encoder", "decoder"), default="encoder",
        help="query: graph to optimize",
    )
    service.add_argument(
        "--qkv-fusion", choices=("unfused", "qk", "qkv"), default="qkv",
        help="query: QKV input-projection fusion variant",
    )
    tracing = parser.add_argument_group("distributed tracing (trace)")
    tracing.add_argument(
        "--trace-id", default=None, metavar="ID",
        help="trace: fetch the stored trace with this 32-hex id",
    )
    tracing.add_argument(
        "--capture", action="store_true",
        help="trace: run one traced optimize against --url and show its "
             "trace (uses --model/--qkv-fusion/--batch/--seq/--cap)",
    )
    tracing.add_argument(
        "--export", default=None, metavar="FILE",
        help="trace: also write the trace as Chrome trace-event JSON "
             "(loadable in Perfetto or chrome://tracing)",
    )
    tracing.add_argument(
        "--top", type=int, default=0, metavar="N",
        help="trace: also list the N slowest spans",
    )
    reg = parser.add_argument_group("schedule registry (register / validate)")
    reg.add_argument(
        "--registry", default=None, metavar="DIR",
        help="directory of the schedule registry "
             "(default: REPRO_SCHEDULE_REGISTRY or <sweep-store>/registry)",
    )
    reg.add_argument(
        "--digest", default=None, metavar="SHA256",
        help="validate: check the one entry with this content digest",
    )
    reg.add_argument(
        "--all", action="store_true",
        help="validate: check every entry in the registry",
    )
    reg.add_argument(
        "--deep", action="store_true",
        help="validate: also re-select configurations through both "
             "pipelines and compare against the stored selection",
    )
    reg.add_argument(
        "--forward-only", action="store_true",
        help="register: tune the forward-only graph",
    )
    reg.add_argument(
        "--unfused", action="store_true",
        help="register: skip the paper's operator fusion",
    )
    cal = parser.add_argument_group("calibration & rollout (report / rollout)")
    cal.add_argument(
        "--records", default=None, metavar="FILE",
        help="report: JSON file with a list of feedback records "
             "(default: submit the paper's Table III corpus)",
    )
    cal.add_argument(
        "--propose", action="store_true",
        help="rollout: fit a candidate from the daemon's feedback store "
             "and shadow-gate it into canary",
    )
    cal.add_argument(
        "--params", default=None, metavar="FILE",
        help="rollout: propose these explicit efficiency params (JSON "
             "object) instead of fitting from feedback",
    )
    cal.add_argument(
        "--force", action="store_true",
        help="rollout: skip the shadow error gate when proposing",
    )
    cal.add_argument(
        "--promote", action="store_true",
        help="rollout: promote the canary candidate immediately",
    )
    cal.add_argument(
        "--rollback", action="store_true",
        help="rollout: abandon the canary candidate",
    )
    args = parser.parse_args(argv)
    _apply_engine_options(args)
    rc = _COMMANDS[args.command](args)
    return int(rc) if rc else 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
