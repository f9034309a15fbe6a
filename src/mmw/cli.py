"""Operator command line.

Exit codes: 0 success, 1 governance violation or access denial, 2 usage or
syntax problems (unreadable config, malformed query), 3 runtime failure.

`up` runs a mesh in the foreground until interrupted (or --run-seconds
elapses) and records its pid; `down` stops a mesh started that way. A read
subcommand reaches its component over the component's TCP endpoint, or with
`--ephemeral` in a mesh brought up around the single call, so CI needs no
daemon management. An in-process component and a TCP binding answer the
same calls, so each subcommand has one path and prints the same output
either way.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

from mmw.errors import AccessDeniedError, ConfigError, MeshError
from mmw.formats import render_table
from mmw.mask import FORMATS
from mmw.query.parse import parse_query
from mmw.runtime.mesh import Mesh
from mmw.runtime.protocol import TcpBinding
from mmw.runtime.topology import TopologyError, load_topology_file, validate_topology
from mmw.demo import DEFAULT_SEED, run_scenario


def _error_json(exc: Exception) -> str:
    if isinstance(exc, MeshError):
        return json.dumps(
            {
                "type": "error",
                "code": exc.code,
                "message": exc.message,
                "origin": exc.origin or "",
            }
        )
    return json.dumps({"type": "error", "code": "unavailable", "message": str(exc), "origin": ""})


def _exit_code_for(exc: Exception) -> int:
    if isinstance(exc, AccessDeniedError):
        return 1
    code = getattr(exc, "code", None)
    if code == "syntax":
        return 2
    if isinstance(exc, TopologyError):
        return 2
    return 3


def _load(config_path: str):
    if not config_path:
        raise TopologyError("--config is required")
    return load_topology_file(Path(config_path))


@contextmanager
def _open_component(args):
    """The component named by --component: the running one in a mesh brought
    up around the call with --ephemeral, else a binding to its TCP endpoint.
    The mesh goes down, or the binding closes, on exit."""
    topology = _load(args.config)
    if args.ephemeral:
        with Mesh(topology, log_dir=args.log_dir) as mesh:
            yield mesh.component(args.component)
        return
    descriptor = topology.component(args.component)
    if descriptor.endpoint.mode != "tcp":
        raise ConfigError(
            f"component {args.component!r} has no tcp endpoint; use --ephemeral"
        )
    binding = TcpBinding(descriptor.endpoint.host, descriptor.endpoint.port)
    try:
        yield binding
    finally:
        binding.close()


# --- subcommands --------------------------------------------------------------------


def cmd_validate(args) -> int:
    topology = _load(args.config)
    findings = validate_topology(topology)
    violations = [f for f in findings if f.severity == "violation"]
    warnings = [f for f in findings if f.severity == "warning"]
    for finding in findings:
        print(str(finding))
    print(f"{len(violations)} violations, {len(warnings)} warnings")
    return 1 if violations else 0


def cmd_up(args) -> int:
    topology = _load(args.config)
    mesh = Mesh(topology, log_dir=args.log_dir)
    mesh.up()
    pidfile = Path(args.pidfile or f"{args.config}.pid")
    pidfile.write_text(f"{os.getpid()}\n", encoding="utf-8")
    endpoints = ", ".join(
        f"{component_id}={host}:{port}" for component_id, (host, port) in mesh.endpoints.items()
    )
    print(f"mesh up: {len(mesh.components)} components" + (f" ({endpoints})" if endpoints else ""))
    stop = threading.Event()

    def handle_signal(signum, frame):
        stop.set()

    signal.signal(signal.SIGTERM, handle_signal)
    signal.signal(signal.SIGINT, handle_signal)
    try:
        stop.wait(timeout=args.run_seconds)
    finally:
        mesh.down()
        if pidfile.exists():
            pidfile.unlink()
        print("mesh down")
    return 0


def cmd_down(args) -> int:
    pidfile = Path(args.pidfile or f"{args.config}.pid")
    if not pidfile.exists():
        print(f"no pidfile at {pidfile}", file=sys.stderr)
        return 2
    pid = int(pidfile.read_text().strip())
    try:
        os.kill(pid, signal.SIGTERM)
    except ProcessLookupError:
        pidfile.unlink()
        print("mesh was not running; removed stale pidfile")
        return 0
    for _ in range(100):
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            break
        time.sleep(0.1)
    print(f"mesh stopped (pid {pid})")
    return 0


def cmd_query(args) -> int:
    with _open_component(args) as component:
        q = parse_query(args.query)
        if component.kind == "mask":
            text = component.serve(q, args.format, args.principal).text
        else:
            text = render_table(component.execute(q, args.principal), args.format)
    sys.stdout.write(text)
    sys.stdout.flush()
    return 0


def cmd_catalog(args) -> int:
    topology = _load(args.config)
    if not args.ephemeral:
        raise ConfigError("catalog needs --ephemeral (or query components directly)")
    with Mesh(topology, log_dir=args.log_dir) as mesh:
        print(json.dumps(mesh.catalog(), indent=2))
    return 0


def cmd_lineage(args) -> int:
    with _open_component(args) as component:
        node = component.lineage(args.relation)
    print(json.dumps(node.to_obj(), indent=2))
    return 0


def cmd_stats(args) -> int:
    with _open_component(args) as component:
        counters = component.stats()
    print(json.dumps({"component": args.component, "counters": counters}, indent=2))
    return 0


def cmd_materialize(args) -> int:
    with _open_component(args) as component:
        report = component.materialize()
    print(json.dumps(report, indent=2))
    return 0


def cmd_demo(args) -> int:
    return run_scenario(args.scenario, sys.stdout, seed=args.seed, workspace=args.workspace)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mesh",
        description="Run and query a data mesh built from mask, mediator and wrapper components.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, component=False, formats=False):
        p.add_argument("--config", help="topology document path")
        p.add_argument("--principal", default="", help="requesting principal")
        p.add_argument("--ephemeral", action="store_true", help="bring the mesh up around this call")
        p.add_argument("--log-dir", default=None, help="access-log directory")
        if component:
            p.add_argument("--component", required=True, help="component id")
        if formats:
            p.add_argument(
                "--format",
                default="pretty",
                choices=FORMATS,
                help="output format (default pretty)",
            )

    p_validate = sub.add_parser("validate", help="check a topology against governance policies")
    p_validate.add_argument("--config", required=True)
    p_validate.set_defaults(handler=cmd_validate)

    p_up = sub.add_parser("up", help="start a mesh and serve until interrupted")
    p_up.add_argument("--config", required=True)
    p_up.add_argument("--log-dir", default=None)
    p_up.add_argument("--pidfile", default=None)
    p_up.add_argument("--run-seconds", type=float, default=None)
    p_up.set_defaults(handler=cmd_up)

    p_down = sub.add_parser("down", help="stop a mesh started with up")
    p_down.add_argument("--config", required=True)
    p_down.add_argument("--pidfile", default=None)
    p_down.set_defaults(handler=cmd_down)

    p_query = sub.add_parser("query", help="run a query against a component")
    common(p_query, component=True, formats=True)
    p_query.add_argument("--query", required=True, help="query text")
    p_query.set_defaults(handler=cmd_query)

    p_catalog = sub.add_parser("catalog", help="list data products")
    common(p_catalog)
    p_catalog.set_defaults(handler=cmd_catalog)

    p_lineage = sub.add_parser("lineage", help="show where a served relation comes from")
    common(p_lineage, component=True)
    p_lineage.add_argument("--relation", required=True)
    p_lineage.set_defaults(handler=cmd_lineage)

    p_stats = sub.add_parser("stats", help="component counters")
    common(p_stats, component=True)
    p_stats.set_defaults(handler=cmd_stats)

    p_materialize = sub.add_parser("materialize", help="trigger a materializing mask refresh")
    common(p_materialize, component=True)
    p_materialize.set_defaults(handler=cmd_materialize)

    p_demo = sub.add_parser("demo", help="run an end-to-end scenario")
    p_demo.add_argument("scenario", choices=("fig7", "fig8"))
    p_demo.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_demo.add_argument("--workspace", default=None)
    p_demo.set_defaults(handler=cmd_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.handler(args)
    except Exception as exc:
        print(_error_json(exc), file=sys.stderr)
        return _exit_code_for(exc)


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
