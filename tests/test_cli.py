"""CLI behaviour: exit codes, golden output, daemon lifecycle."""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from mmw.cli import main
from mmw.demo import build_three_domain_workspace
from mmw.runtime.mesh import Mesh
from mmw.runtime.topology import load_topology_file

# Golden hash values for salt "pepper": computed with the independent FNV-1a
# oracle before the stack existed.
H_ADA = "c76e68703166a2df"
H_GRACE = "59892dc7a0743917"


def small_doc(tcp_port=None):
    return {
        "domains": ["y"],
        "components": [
            {
                "id": "y_ops",
                "kind": "wrapper",
                "domain": "y",
                "role": "operational_wrapper",
                "config": {
                    "namespace": "ops",
                    "adapter": {
                        "kind": "memory",
                        "relations": [
                            {
                                "name": "people",
                                "attributes": [
                                    {"name": "id", "type": "integer"},
                                    {"name": "name", "type": "text"},
                                ],
                                "key": ["id"],
                                "rows": [["2", "grace"], ["1", "ada"]],
                            }
                        ],
                    },
                },
            },
            {
                "id": "y_med",
                "kind": "mediator",
                "domain": "y",
                "role": "product_mediator",
                "endpoint": f"tcp 127.0.0.1:{tcp_port}" if tcp_port else "in_process",
                "config": {
                    "product": "registry",
                    "downstream": {"ops": "y_ops"},
                    "views": "CREATE VIEW names AS SELECT id, hash(name) AS name_h FROM ops.people;",
                    "salt": "pepper",
                },
            },
            {
                "id": "y_mask",
                "kind": "mask",
                "domain": "y",
                "role": "serving_mask",
                "config": {"upstream": "y_med"},
            },
        ],
        "edges": [["y_med", "y_ops"], ["y_mask", "y_med"]],
        "policies": {},
        "acl": [["analyst", "y", "*", True]],
    }


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "mesh.json"
    path.write_text(json.dumps(small_doc()), encoding="utf-8")
    return path


class TestValidate:
    def test_demo_topology_is_clean(self, tmp_path, capsys):
        topology_path = build_three_domain_workspace(tmp_path, seed=1)
        code = main(["validate", "--config", str(topology_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "0 violations, 0 warnings" in out

    def test_mask_to_wrapper_warns_exit_zero(self, tmp_path, capsys):
        document = small_doc()
        document["components"].append(
            {
                "id": "direct_mask",
                "kind": "mask",
                "domain": "y",
                "role": "serving_mask",
                "config": {"upstream": "y_ops"},
            }
        )
        document["edges"].append(["direct_mask", "y_ops"])
        path = tmp_path / "warn.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        code = main(["validate", "--config", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "0 violations, 1 warnings" in out

    def test_cross_domain_operational_edge_exits_one(self, tmp_path, capsys):
        document = small_doc()
        document["domains"].append("x")
        document["components"].append(
            {
                "id": "x_med",
                "kind": "mediator",
                "domain": "x",
                "role": "product_mediator",
                "config": {"product": "steal", "downstream": {"y": "y_ops"}},
            }
        )
        document["edges"].append(["x_med", "y_ops"])
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        assert main(["validate", "--config", str(path)]) == 1

    def test_unreadable_config_exits_two(self, tmp_path, capsys):
        assert main(["validate", "--config", str(tmp_path / "missing.json")]) == 2


class TestQuery:
    def test_golden_csv(self, config_path, capsys):
        code = main(
            [
                "query",
                "--config",
                str(config_path),
                "--ephemeral",
                "--component",
                "y_med",
                "--query",
                "SELECT * FROM registry.names",
                "--principal",
                "analyst",
                "--format",
                "csv",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert out == f"id:integer,name_h:text\n1,{H_ADA}\n2,{H_GRACE}\n"

    def test_mask_and_mediator_render_identically(self, config_path, capsys):
        argv = [
            "query", "--config", str(config_path), "--ephemeral",
            "--query", "SELECT * FROM registry.names",
            "--principal", "analyst", "--format", "csv",
        ]
        main(argv + ["--component", "y_med"])
        via_mediator = capsys.readouterr().out
        main(argv + ["--component", "y_mask"])
        via_mask = capsys.readouterr().out
        assert via_mediator == via_mask

    def test_denied_principal_exits_one_with_error_json(self, config_path, capsys):
        code = main(
            [
                "query", "--config", str(config_path), "--ephemeral",
                "--component", "y_med",
                "--query", "SELECT * FROM registry.names",
                "--principal", "stranger", "--format", "csv",
            ]
        )
        captured = capsys.readouterr()
        assert code == 1
        error = json.loads(captured.err)
        assert error["code"] == "access_denied"

    def test_malformed_query_exits_two_with_position(self, config_path, capsys):
        code = main(
            [
                "query", "--config", str(config_path), "--ephemeral",
                "--component", "y_med",
                "--query", "SELECT FROM registry.names",
                "--principal", "analyst",
            ]
        )
        captured = capsys.readouterr()
        assert code == 2
        error = json.loads(captured.err)
        assert error["code"] == "syntax"
        assert "line 1" in error["message"]

    def test_unknown_subcommand_exits_two(self, capsys):
        assert main(["mystery"]) == 2


class TestInspection:
    def test_catalog(self, config_path, capsys):
        code = main(["catalog", "--config", str(config_path), "--ephemeral"])
        out = capsys.readouterr().out
        assert code == 0
        entries = json.loads(out)
        assert entries[0]["product"] == "registry"

    def test_lineage(self, config_path, capsys):
        code = main(
            [
                "lineage", "--config", str(config_path), "--ephemeral",
                "--component", "y_med", "--relation", "names",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        node = json.loads(out)
        assert node["component"] == "y_med"
        assert node["children"][0]["component"] == "y_ops"

    def test_stats(self, config_path, capsys):
        code = main(
            ["stats", "--config", str(config_path), "--ephemeral", "--component", "y_med"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert json.loads(out)["counters"]["queries_served"] == 0

    def test_materialize(self, tmp_path, capsys):
        document = small_doc()
        document["components"].append(
            {
                "id": "store_mask",
                "kind": "mask",
                "domain": "y",
                "role": "materializing_mask",
                "config": {"upstream": "y_med", "mode": "materializing", "target": "store"},
            }
        )
        document["edges"].append(["store_mask", "y_med"])
        path = tmp_path / "mesh.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        code = main(
            ["materialize", "--config", str(path), "--ephemeral", "--component", "store_mask"]
        )
        out = capsys.readouterr().out
        assert code == 0
        report = json.loads(out)
        assert report["target_epoch"] >= 1
        assert (tmp_path / "store" / "current" / "names.csv").exists()


class TestDemos:
    def test_demo_fig7(self, capsys, tmp_path):
        code = main(["demo", "fig7", "--workspace", str(tmp_path / "w1")])
        out = capsys.readouterr().out
        assert code == 0
        assert "catalog lists 3 products: ok" in out
        assert "seed:" in out

    def test_demo_fig8(self, capsys, tmp_path):
        code = main(["demo", "fig8", "--workspace", str(tmp_path / "w2")])
        out = capsys.readouterr().out
        assert code == 0
        assert "served == materialized: ok" in out

    def test_demo_reruns_are_idempotent(self, capsys, tmp_path):
        assert main(["demo", "fig8", "--workspace", str(tmp_path / "a")]) == 0
        first = capsys.readouterr().out
        assert main(["demo", "fig8", "--workspace", str(tmp_path / "b")]) == 0
        second = capsys.readouterr().out
        strip = lambda text: [
            line for line in text.splitlines() if "workspace:" not in line
        ]
        assert strip(first) == strip(second)


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _parity_doc(tcp: bool) -> dict:
    """small_doc plus a materializing mask; with tcp, every mediator and
    mask gets an endpoint on a port the system picks."""
    document = small_doc()
    document["components"].append(
        {
            "id": "store_mask",
            "kind": "mask",
            "domain": "y",
            "role": "materializing_mask",
            "config": {"upstream": "y_med", "mode": "materializing", "target": "store"},
        }
    )
    document["edges"].append(["store_mask", "y_med"])
    if tcp:
        for component in document["components"]:
            if component["kind"] != "wrapper":
                component["endpoint"] = "tcp 127.0.0.1:0"
    return document


@pytest.fixture(params=["ephemeral", "tcp"])
def run_cli(request, tmp_path, capsys):
    """Runs one read subcommand against the parity mesh and returns (exit
    code, stdout, decoded stderr): with --ephemeral, or over TCP against the
    same mesh hosted in this process."""
    tcp = request.param == "tcp"
    path = tmp_path / "mesh.json"
    document = _parity_doc(tcp)
    path.write_text(json.dumps(document), encoding="utf-8")
    mesh = Mesh(load_topology_file(path)).up() if tcp else None
    if mesh is not None:
        # The CLI reaches each endpoint at the port it was bound to.
        for component in document["components"]:
            if component["id"] in mesh.endpoints:
                host, port = mesh.endpoints[component["id"]]
                component["endpoint"] = f"tcp {host}:{port}"
        path.write_text(json.dumps(document), encoding="utf-8")
    mode = [] if tcp else ["--ephemeral"]

    def run(subcommand, *argv):
        code = main([subcommand, "--config", str(path), *mode, *argv])
        captured = capsys.readouterr()
        return code, captured.out, json.loads(captured.err) if captured.err else None

    yield run
    if mesh is not None:
        mesh.down()


def _error(code, message, origin=""):
    return {"type": "error", "code": code, "message": message, "origin": origin}


class TestTransportParity:
    """Each read subcommand prints the same output and exits with the same
    code whether it brings the mesh up itself or reaches it over TCP."""

    QUERY = ("--query", "SELECT * FROM registry.names", "--principal", "analyst")

    def test_query_mask_csv(self, run_cli):
        assert run_cli("query", "--component", "y_mask", *self.QUERY, "--format", "csv") == (
            0, f"id:integer,name_h:text\n1,{H_ADA}\n2,{H_GRACE}\n", None
        )

    def test_query_mediator_jsonl(self, run_cli):
        assert run_cli("query", "--component", "y_med", *self.QUERY, "--format", "jsonl") == (
            0, f'{{"id":1,"name_h":"{H_ADA}"}}\n{{"id":2,"name_h":"{H_GRACE}"}}\n', None
        )

    def test_malformed_query(self, run_cli):
        message = "unexpected 'FROM' at line 1, column 8 (expected expression)"
        assert run_cli(
            "query", "--component", "y_med", "--query", "SELECT FROM registry.names"
        ) == (2, "", _error("syntax", message))

    def test_lineage(self, run_cli):
        code, out, err = run_cli("lineage", "--component", "y_med", "--relation", "names")
        assert (code, err) == (0, None)
        assert json.loads(out) == {
            "component": "y_med",
            "kind": "mediator",
            "relation": "names",
            "children": [
                {
                    "component": "y_ops",
                    "kind": "wrapper",
                    "relation": "people",
                    "via_view": "names",
                    "source": "memory:memory",
                }
            ],
        }

    def test_stats(self, run_cli):
        code, out, err = run_cli("stats", "--component", "y_med")
        assert (code, err) == (0, None)
        report = json.loads(out)
        assert report["component"] == "y_med"
        assert set(report["counters"]) == {
            "queries_served", "rows_returned", "cache_hits", "cache_misses", "errors"
        }

    def test_materialize_mask(self, run_cli, tmp_path):
        code, out, err = run_cli("materialize", "--component", "store_mask")
        assert (code, err) == (0, None)
        # Bringing the mesh up materialized once already.
        assert json.loads(out) == {
            "relations": {"names": 2},
            "rows_total": 2,
            "target_epoch": 2,
            "snapshot": str(tmp_path / "store" / "snapshots" / "000002"),
        }

    def test_materialize_mediator(self, run_cli):
        assert run_cli("materialize", "--component", "y_med") == (
            3, "", _error("protocol", "materialize requires a mask endpoint", "y_med")
        )

    def test_unknown_component(self, run_cli):
        assert run_cli("query", "--component", "nope", *self.QUERY) == (
            3, "", _error("unknown_relation", "unknown component 'nope'")
        )


class TestUpDown:
    def test_foreground_mesh_serves_tcp_then_stops(self, tmp_path):
        # The child interpreters import mmw from the source tree.
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])
        ))
        port = _free_port()
        config = tmp_path / "mesh.json"
        config.write_text(json.dumps(small_doc(tcp_port=port)), encoding="utf-8")
        pidfile = tmp_path / "mesh.pid"
        process = subprocess.Popen(
            [
                sys.executable, "-m", "mmw.cli", "up",
                "--config", str(config), "--pidfile", str(pidfile),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            deadline = time.time() + 20
            while time.time() < deadline:
                if pidfile.exists():
                    try:
                        with socket.create_connection(("127.0.0.1", port), timeout=1):
                            break
                    except OSError:
                        pass
                time.sleep(0.1)
            else:
                pytest.fail("mesh endpoint never came up")

            query = subprocess.run(
                [
                    sys.executable, "-m", "mmw.cli", "query",
                    "--config", str(config),
                    "--component", "y_med",
                    "--query", "SELECT * FROM registry.names",
                    "--principal", "analyst",
                    "--format", "csv",
                ],
                capture_output=True,
                text=True,
                timeout=30,
                env=env,
            )
            assert query.returncode == 0, query.stderr
            assert query.stdout == f"id:integer,name_h:text\n1,{H_ADA}\n2,{H_GRACE}\n"

            down = subprocess.run(
                [
                    sys.executable, "-m", "mmw.cli", "down",
                    "--config", str(config), "--pidfile", str(pidfile),
                ],
                capture_output=True,
                text=True,
                timeout=30,
                env=env,
            )
            assert down.returncode == 0, down.stderr
            assert process.wait(timeout=20) == 0
            assert not pidfile.exists()
        finally:
            if process.poll() is None:
                process.kill()
            process.communicate()  # reads and closes the output pipes

    def test_down_without_pidfile_exits_two(self, tmp_path, capsys):
        config = tmp_path / "mesh.json"
        config.write_text(json.dumps(small_doc()), encoding="utf-8")
        assert main(["down", "--config", str(config)]) == 2
