"""HTTP API and command-line client, wired end to end."""

from __future__ import annotations

import json
import time

import pytest
import requests
import yaml

from conftest import listing1_connector, wait_status
from expforge import Director, MemoryStore, builtin_registry
from expforge.cli import (
    EXIT_CONFLICT,
    EXIT_EXPERIMENT,
    EXIT_NOT_FOUND,
    EXIT_OK,
    EXIT_TRANSPORT,
    EXIT_VALIDATION,
    main as cli_main,
)
from expforge.connectors.simulated import SimulatedConnector
from expforge.errors import UnknownAssignment, UnknownExperiment, WrongPhase
from expforge.gateway import HttpGatewayClient
from expforge.manifest import load_bundled_example
from expforge.model import Status
from expforge.server import PlatformServer


@pytest.fixture
def server():
    connector = listing1_connector()
    director = Director(MemoryStore(), builtin_registry(),
                        {"sim": connector})
    platform = PlatformServer(director).start()
    yield platform
    platform.stop()


@pytest.fixture
def manifest_path(tmp_path):
    path = tmp_path / "listing1.yaml"
    path.write_text(load_bundled_example(), encoding="utf-8")
    return path


def cli(server, *args) -> int:
    return cli_main(["--endpoint", server.url, "--poll-interval", "0.05",
                     *map(str, args)])


def api(server, method: str, path: str, **kwargs) -> requests.Response:
    return requests.request(method, f"{server.url}{path}", timeout=10,
                            **kwargs)


# ---------------------------------------------------------------------------
# HTTP API surface
# ---------------------------------------------------------------------------

class TestHttpApi:
    def submit(self, server) -> str:
        doc = yaml.safe_load(load_bundled_example())
        response = api(server, "POST", "/api/v1/experiments", json=doc)
        assert response.status_code == 200, response.text
        return response.json()["experiment_id"]

    def test_submit_and_status(self, server):
        eid = self.submit(server)
        view = api(server, "GET", f"/api/v1/experiments/{eid}").json()
        assert view["status"] == "SUBMITTED"

    def test_duplicate_submit_conflicts(self, server):
        self.submit(server)
        doc = yaml.safe_load(load_bundled_example())
        response = api(server, "POST", "/api/v1/experiments", json=doc)
        assert response.status_code == 409
        assert response.json()["error"] == "DuplicateExperimentName"

    def test_unknown_experiment_404(self, server):
        assert api(server, "GET", "/api/v1/experiments/ghost").status_code \
            == 404
        assert api(server, "POST",
                   "/api/v1/experiments/ghost/deploy").status_code == 404

    def test_execute_before_deploy_409(self, server):
        eid = self.submit(server)
        response = api(server, "POST", f"/api/v1/experiments/{eid}/execute")
        assert response.status_code == 409

    def test_deploy_idempotent(self, server):
        eid = self.submit(server)
        first = api(server, "POST", f"/api/v1/experiments/{eid}/deploy")
        second = api(server, "POST", f"/api/v1/experiments/{eid}/deploy")
        assert first.status_code == 202
        assert second.status_code == 202

    def test_invalid_manifest_400(self, server):
        response = api(server, "POST", "/api/v1/experiments",
                       json={"name": "x", "bogus": True})
        assert response.status_code == 400
        assert response.json()["error"] == "ManifestError"

    def test_nodes_query_with_filters(self, server):
        response = api(server, "GET", "/api/v1/nodes",
                       params={"location": "campus"})
        nodes = response.json()["nodes"]
        assert len(nodes) == 10
        assert all(n["attributes"]["location"] == "campus" for n in nodes)

    def test_unknown_route_404(self, server):
        assert api(server, "GET", "/api/v2/everything").status_code == 404

    def test_stop_is_prompt(self):
        director = Director(MemoryStore(), builtin_registry(), {})
        platform = PlatformServer(director).start()
        assert api(platform, "GET", "/api/v2/everything").status_code == 404
        started = time.monotonic()
        platform.stop()
        assert time.monotonic() - started < 0.2

    def test_unknown_connector_400(self, server):
        response = api(server, "GET", "/api/v1/nodes",
                       params={"connector": "warp"})
        assert response.status_code == 400
        assert response.json()["error"] == "ConnectorUnavailable"

    def test_full_lifecycle_over_http(self, server):
        eid = self.submit(server)
        api(server, "POST", f"/api/v1/experiments/{eid}/deploy")
        director = server.director
        wait_status(director, eid, {Status.READY})
        api(server, "POST", f"/api/v1/experiments/{eid}/execute")
        wait_status(director, eid, {Status.FINISHED}, timeout=60)
        results = api(server, "GET",
                      f"/api/v1/experiments/{eid}/results").json()
        total = sum(len(rs) for nodes in results["pipelines"].values()
                    for rs in nodes.values())
        assert total == 43  # 3 server tasks + 20 clients x 2 tasks
        cleanup = api(server, "POST",
                      f"/api/v1/experiments/{eid}/cleanup").json()
        assert len(cleanup["cleanup"]) == 21


# ---------------------------------------------------------------------------
# gateway over HTTP
# ---------------------------------------------------------------------------

class TestGatewayHttp:
    def start_held(self, server) -> str:
        doc = {
            "name": "held-http",
            "selectors": {"one": {"take": 1, "connector": "sim"}},
            "pipelines": {"p": {"stages": [
                [{"type": "wait-flag",
                  "params": {"key": "release", "timeout_s": 30}}]]}},
            "assignments": [{"pipeline": "p", "nodes": "one"}],
            "policies": {"experiment_timeout_s": 60},
        }
        eid = api(server, "POST", "/api/v1/experiments",
                  json=doc).json()["experiment_id"]
        api(server, "POST", f"/api/v1/experiments/{eid}/deploy")
        wait_status(server.director, eid, {Status.READY})
        api(server, "POST", f"/api/v1/experiments/{eid}/execute")
        wait_status(server.director, eid, {Status.RUNNING})
        return eid

    def test_bundle_fetch_and_flags(self, server):
        eid = self.start_held(server)
        client = HttpGatewayClient(server.url)
        bundle = client.fetch_bundle(eid, "sim-000")
        assert bundle["experiment_id"] == eid

        assert client.get_flag(eid, "release") == {"set": False}
        flag = client.set_flag(eid, "release", "sim-000")
        assert flag["node_id"] == "sim-000"
        state = client.get_flag(eid, "release")
        assert state["set"] is True
        wait_status(server.director, eid, {Status.FINISHED})

    def test_wrong_phase_maps_to_conflict(self, server):
        doc = {
            "name": "phase",
            "selectors": {"one": {"take": 1}},
            "pipelines": {"p": {"stages": [[{"type": "sleep",
                                             "params": {"seconds": 0}}]]}},
            "assignments": [{"pipeline": "p", "nodes": "one"}],
        }
        eid = api(server, "POST", "/api/v1/experiments",
                  json=doc).json()["experiment_id"]
        client = HttpGatewayClient(server.url)
        with pytest.raises(WrongPhase):
            client.fetch_bundle(eid, "sim-000")

    def test_unknown_experiment_maps_to_not_found(self, server):
        client = HttpGatewayClient(server.url)
        with pytest.raises(UnknownExperiment):
            client.fetch_bundle("ghost", "sim-000")

    def test_report_and_artifact_roundtrip(self, server):
        eid = self.start_held(server)
        client = HttpGatewayClient(server.url)

        meta = client.upload_artifact(eid, "sim-000", "t.pcap", b"\x00data")
        assert meta["size"] == 5
        listed = api(server, "GET", f"/gw/v1/artifacts/{eid}").json()
        assert listed["artifacts"][0]["name"] == "t.pcap"

        report = {"experiment_id": eid, "node_id": "sim-000",
                  "results": [], "executor_version": "t"}
        assert client.deliver_report(report) in ("accepted", "duplicate")
        assert client.deliver_report(report) == "duplicate"
        wait_status(server.director, eid, {Status.FINISHED})

    def test_unassigned_node_rejected_on_the_wire(self, server):
        eid = self.start_held(server)
        client = HttpGatewayClient(server.url)
        for node_id in ("", "sim-999", ".."):
            with pytest.raises(UnknownAssignment):
                client.set_flag(eid, "release", node_id)
        with pytest.raises(UnknownAssignment):
            client.upload_artifact(eid, "sim-999", "t.pcap", b"x")
        assert client.get_flag(eid, "release") == {"set": False}
        client.set_flag(eid, "release", "sim-000")
        wait_status(server.director, eid, {Status.FINISHED})


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

class TestCli:
    def test_run_writes_results_file(self, server, manifest_path, tmp_path,
                                     capsys):
        output = tmp_path / "out.yaml"
        code = cli(server, "run", manifest_path, "--output", output)
        captured = capsys.readouterr()
        assert code == EXIT_OK, captured.err
        assert "FINISHED" in captured.out
        results = yaml.safe_load(output.read_text(encoding="utf-8"))
        assert results["status"] == "FINISHED"
        total = sum(len(rs) for nodes in results["pipelines"].values()
                    for rs in nodes.values())
        assert total == 43

    def test_status_unknown_id_exit_4(self, server, capsys):
        assert cli(server, "status", "unknown-id") == EXIT_NOT_FOUND
        assert "unknown" in capsys.readouterr().err.lower()

    def test_execute_before_deploy_exit_3(self, server, manifest_path,
                                          capsys):
        assert cli(server, "submit", manifest_path) == EXIT_OK
        eid = capsys.readouterr().out.strip()
        assert cli(server, "execute", eid) == EXIT_CONFLICT

    def test_submit_bad_manifest_exit_2(self, server, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("name: x\nbogus: {", encoding="utf-8")
        assert cli(server, "submit", bad) == EXIT_VALIDATION

    def test_missing_manifest_exit_2(self, server, tmp_path):
        assert cli(server, "submit", tmp_path / "nope.yaml") \
            == EXIT_VALIDATION

    def test_transport_error_exit_5(self, capsys):
        code = cli_main(["--endpoint", "http://127.0.0.1:9",
                         "status", "x"])
        assert code == EXIT_TRANSPORT

    def test_nodes_listing(self, server, capsys):
        assert cli(server, "nodes", "location=azure") == EXIT_OK
        out = capsys.readouterr().out
        assert "sim-000" in out
        assert out.count("\n") == 1

    def test_status_and_results_after_run(self, server, manifest_path,
                                          tmp_path, capsys):
        assert cli(server, "run", manifest_path,
                   "--output", tmp_path / "r.yaml") == EXIT_OK
        capsys.readouterr()
        assert cli(server, "status", "listing1") == EXIT_OK
        view = json.loads(capsys.readouterr().out)
        assert view["status"] == "FINISHED"
        assert view["reported_count"] == 21
        assert cli(server, "cancel", "listing1") == EXIT_CONFLICT

    def test_run_default_output_file(self, server, manifest_path, tmp_path,
                                     monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert cli(server, "run", manifest_path) == EXIT_OK
        assert (tmp_path / "listing1.results.yaml").exists()

    def test_run_wait_timeout_exit_6(self, server, tmp_path, capsys):
        doc = {
            "name": "stuck",
            "selectors": {"one": {"take": 1, "connector": "sim"}},
            "pipelines": {"p": {"stages": [
                [{"type": "wait-flag",
                  "params": {"key": "never", "timeout_s": 30}}]]}},
            "assignments": [{"pipeline": "p", "nodes": "one"}],
            "policies": {"experiment_timeout_s": 60},
        }
        path = tmp_path / "stuck.yaml"
        path.write_text(yaml.safe_dump(doc), encoding="utf-8")
        code = cli_main(["--endpoint", server.url, "--poll-interval", "0.05",
                         "--timeout", "1.0", "run", str(path),
                         "--output", str(tmp_path / "r.yaml")])
        assert code == EXIT_EXPERIMENT
        assert "timed out" in capsys.readouterr().err

    def test_run_failing_deploy_exit_6(self, make_director, tmp_path,
                                       capsys):
        from expforge.connectors.simulated import FaultModel
        connector = SimulatedConnector(
            "sim", node_count=21,
            per_node_attributes=(
                [{"location": "azure"}] + [{"location": "campus"}] * 10
                + [{"location": "cloud"}] * 10),
            fault=FaultModel(prepare_fail_prob=1.0, sleep_scale=0.01))
        director = Director(MemoryStore(), builtin_registry(),
                            {"sim": connector})
        platform = PlatformServer(director).start()
        try:
            path = tmp_path / "m.yaml"
            path.write_text(load_bundled_example(), encoding="utf-8")
            code = cli(platform, "run", path,
                       "--output", tmp_path / "r.yaml")
            assert code == EXIT_EXPERIMENT
        finally:
            platform.stop()
