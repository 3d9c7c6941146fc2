"""HTTP API and command-line client, wired end to end."""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import threading
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
from expforge.connectors.simulated import FaultModel, SimulatedConnector
from expforge.errors import (
    ExpforgeError,
    UnknownAssignment,
    UnknownExperiment,
    WrongPhase,
)
from expforge.executor import EXIT_STARTUP_ERROR, LocalRuntime, run_executor
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
    return cli_main(["--endpoint", server.url,
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

    @pytest.mark.parametrize("field, value", [
        ("timeout_s", 0), ("timeout_s", -1), ("timeout_s", "soon"),
        ("timeout_s", math.inf), ("timeout_s", math.nan),
        ("experiment_timeout_s", 0), ("experiment_timeout_s", math.inf),
        ("experiment_timeout_s", math.nan)])
    def test_bad_timeout_400(self, server, field, value):
        doc = yaml.safe_load(load_bundled_example())
        if field == "timeout_s":
            doc["pipelines"]["serve"]["stages"][0][0]["timeout_s"] = value
        else:
            doc["policies"]["experiment_timeout_s"] = value
        # json.dumps writes inf and nan as Infinity and NaN, which the
        # server's JSON parser accepts.
        response = api(server, "POST", "/api/v1/experiments",
                       data=json.dumps(doc),
                       headers={"Content-Type": "application/json"})
        assert response.status_code == 400, response.text
        assert response.json()["error"] == "ManifestError"
        assert "finite number > 0" in response.json()["message"]

    @pytest.mark.parametrize("take", [-1, "abc", 1.5, True])
    def test_bad_take_400(self, server, take):
        doc = yaml.safe_load(load_bundled_example())
        doc["selectors"]["server"]["take"] = take
        response = api(server, "POST", "/api/v1/experiments", json=doc)
        assert response.status_code == 400, response.text
        assert response.json()["error"] == "ManifestError"
        assert "take must be an integer >= 0" in response.json()["message"]

    def test_undecodable_body_400(self, server):
        response = api(server, "POST", "/api/v1/experiments", data=b"\xff",
                       headers={"Content-Type": "application/json"})
        assert response.status_code == 400, response.text
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
        assert bundle.experiment_id == eid

        assert client.get_flag(eid, "release") == {"set": False}
        flag = client.set_flag(eid, "release", "sim-000")
        assert flag["node_id"] == "sim-000"
        state = client.get_flag(eid, "release")
        assert state["set"] is True
        wait_status(server.director, eid, {Status.FINISHED})

    @pytest.mark.parametrize("tamper", ["digest", "pipeline"])
    def test_tampered_bundle_is_rejected(self, server, tmp_path, tamper):
        eid = self.start_held(server)

        class TamperingClient(HttpGatewayClient):
            def _request(self, method, path, body=None, timeout_s=None):
                payload = super()._request(method, path, body, timeout_s)
                if path.startswith("/gw/v1/bundle"):
                    if tamper == "digest":
                        payload["pipeline_digest"] = "0" * 64
                    else:
                        payload["pipeline"]["stages"][0]["tasks"][0][
                            "params"]["key"] = "other"
                return payload

        client = TamperingClient(server.url)
        code = run_executor(client.fetch_bundle(eid, "sim-000"),
                            builtin_registry(), LocalRuntime(tmp_path / "run"),
                            client, tmp_path / "spool")
        assert code == EXIT_STARTUP_ERROR
        assert server.director.gateway.fetch_bundle(
            eid, "sim-000").digest_matches()
        client.set_flag(eid, "release", "sim-000")
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

    @pytest.mark.parametrize("content_type", ["application/json",
                                              "application/octet-stream"])
    @pytest.mark.parametrize("body", [b'"x"', b"5", b"null", b'{"a":  1}',
                                      b"", b"\xff\x00"])
    def test_artifact_upload_stores_the_bytes_sent(self, server, body,
                                                   content_type):
        eid = self.start_held(server)
        response = api(server, "POST",
                       f"/gw/v1/artifacts/{eid}/sim-000?name=a.json",
                       data=body, headers={"Content-Type": content_type})
        assert response.status_code == 200, response.text
        meta = response.json()
        assert meta["digest"] == hashlib.sha256(body).hexdigest()
        assert meta["size"] == len(body)
        assert server.director.gateway.artifact_data(
            eid, "sim-000", "a.json") == body
        server.director.gateway.set_flag(eid, "release", "test")
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
        code = cli_main(["--endpoint", server.url,
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


# ---------------------------------------------------------------------------
# error answers, and the CLI's single-step commands
# ---------------------------------------------------------------------------

@contextlib.contextmanager
def serving(connector):
    director = Director(MemoryStore(), builtin_registry(), {"sim": connector})
    platform = PlatformServer(director).start()
    try:
        yield platform
    finally:
        platform.stop()


def one_node_manifest(name: str, task: dict, timeout_s: float = 60) -> dict:
    return {"name": name,
            "selectors": {"one": {"connector": "sim", "take": 1}},
            "pipelines": {"p": {"stages": [[task]]}},
            "assignments": [{"pipeline": "p", "nodes": "one"}],
            "policies": {"experiment_timeout_s": timeout_s}}


def write_manifest(tmp_path, doc: dict):
    path = tmp_path / f"{doc['name']}.yaml"
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    return path


HOLD = {"type": "wait-flag", "params": {"key": "never", "timeout_s": 30}}


class TestErrorAnswers:
    def test_validation_failure_lists_its_issues(self, server):
        doc = one_node_manifest("teleport", {"type": "teleport"})
        response = api(server, "POST", "/api/v1/experiments", json=doc)
        assert response.status_code == 400, response.text
        assert response.json()["error"] == "ValidationFailed"
        assert [i["code"] for i in response.json()["issues"]] \
            == ["unsupported-task"]

    @pytest.mark.parametrize("path", ["/api/v1/experiments", "/gw/v1/report"])
    def test_body_that_is_not_a_document_400(self, server, path):
        response = api(server, "POST", path, json=["a", "list"])
        assert response.status_code == 400, response.text
        assert response.json()["error"] == "ManifestError"

    @pytest.mark.parametrize("fault, error", [
        (ExpforgeError("store offline"), "ExpforgeError"),
        (RuntimeError("bug"), "InternalError"),
    ])
    def test_unexpected_fault_is_a_500_and_the_server_lives(
            self, server, monkeypatch, fault, error):
        def broken(experiment_id):
            raise fault

        monkeypatch.setattr(server.director, "results", broken)
        response = api(server, "GET", "/api/v1/experiments/x/results")
        assert response.status_code == 500
        assert response.json() == {"error": error, "message": str(fault)}
        assert cli(server, "results", "x") == EXIT_TRANSPORT
        assert api(server, "GET", "/api/v1/nodes").status_code == 200


class TestCliSteps:
    def test_submit_deploy_execute_results_cleanup(self, server,
                                                   manifest_path, capsys):
        assert cli(server, "submit", manifest_path) == EXIT_OK
        eid = capsys.readouterr().out.strip()
        assert cli(server, "deploy", eid) == EXIT_OK
        assert capsys.readouterr().out == f"deploying {eid}\n"
        wait_status(server.director, eid, {Status.READY})
        assert cli(server, "execute", eid) == EXIT_OK
        assert capsys.readouterr().out == f"executing {eid}\n"
        wait_status(server.director, eid, {Status.FINISHED})
        assert cli(server, "results", eid) == EXIT_OK
        results = yaml.safe_load(capsys.readouterr().out)
        assert results["status"] == "FINISHED"
        assert cli(server, "cleanup", eid) == EXIT_OK
        outcomes = json.loads(capsys.readouterr().out)["cleanup"]
        assert len(outcomes) == 21 and all(o["ok"] for o in outcomes.values())

    def test_cancel_a_running_experiment(self, server, tmp_path, capsys):
        path = write_manifest(tmp_path, one_node_manifest("held", HOLD))
        assert cli(server, "submit", path) == EXIT_OK
        capsys.readouterr()
        server.director.deploy("held")
        wait_status(server.director, "held", {Status.READY})
        server.director.execute("held")
        assert cli(server, "cancel", "held") == EXIT_OK
        assert capsys.readouterr().out == "cancelled held\n"
        assert server.director.record("held").status is Status.CANCELLED

    def test_nodes_by_connector_and_bad_filter(self, server, capsys):
        assert cli(server, "nodes", "--connector", "sim",
                   "location=azure") == EXIT_OK
        assert capsys.readouterr().out.startswith("sim-000\tsimulated\tsim\t")
        assert cli(server, "nodes", "location") == EXIT_VALIDATION
        assert "expected key=value" in capsys.readouterr().err

    def test_server_side_rejection_is_exit_2(self, server, tmp_path, capsys):
        doc = one_node_manifest("warp", HOLD)
        doc["selectors"]["one"]["connector"] = "warp"
        assert cli(server, "submit", write_manifest(tmp_path, doc)) \
            == EXIT_VALIDATION
        assert "unknown connector 'warp'" in capsys.readouterr().err

    def test_run_times_out_while_deploying(self, tmp_path, capsys):
        class HeldPrepare(SimulatedConnector):
            release = threading.Event()

            def prepare(self, node, env):
                self.release.wait(10)
                return super().prepare(node, env)

        connector = HeldPrepare("sim", node_count=1)
        with serving(connector) as platform:
            try:
                path = write_manifest(tmp_path, one_node_manifest(
                    "slow", {"type": "sleep", "params": {"seconds": 0}}))
                code = cli(platform, "--timeout", "0.3", "run", path)
            finally:
                connector.release.set()
            wait_status(platform.director, "slow", {Status.READY})
        assert code == EXIT_EXPERIMENT
        assert "timed out waiting for deployment" in capsys.readouterr().err

    def test_run_that_ends_failed_prints_its_errors(self, tmp_path, capsys):
        connector = SimulatedConnector(
            "sim", node_count=1,
            fault=FaultModel(silent_nodes=frozenset({"sim-000"}),
                             sleep_scale=0.01))
        with serving(connector) as platform:
            path = write_manifest(tmp_path, one_node_manifest(
                "silent", {"type": "sleep", "params": {"seconds": 0}},
                timeout_s=0.5))
            code = cli(platform, "run", path,
                       "--output", tmp_path / "r.yaml")
        assert code == EXIT_EXPERIMENT
        err = capsys.readouterr().err
        assert "execute: no node delivered a report" in err
