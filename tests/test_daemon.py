"""The serve daemon end to end, over real HTTP on an ephemeral port."""

import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.cli import main as cli_main
from repro.errors import ConfigError, ServiceError
from repro.request import RunRequest
from repro.service import RunService
from repro.service.daemon import Daemon, ServeConfig

WINDOWED = RunRequest(workload="linear_regression", threads=4,
                      detector="windowed")
NATIVE = RunRequest(workload="histogram", threads=2, scale=0.2)


@pytest.fixture
def daemon(tmp_path):
    d = Daemon(ServeConfig(
        port=0, workers=2, cache_dir=str(tmp_path / "cache"),
        sink_dir=str(tmp_path / "sink"), drain_timeout=10.0)).start()
    yield d
    d.shutdown()


class Client:
    def __init__(self, daemon):
        self.base = f"http://127.0.0.1:{daemon.port}"

    def request(self, path, body=None, tenant=None, method=None):
        headers = {}
        if tenant is not None:
            headers["X-Repro-Tenant"] = tenant
        data = json.dumps(body).encode() if body is not None else None
        req = urllib.request.Request(self.base + path, data=data,
                                     headers=headers, method=method)
        try:
            with urllib.request.urlopen(req, timeout=60) as resp:
                return resp.status, json.loads(resp.read()), resp.headers
        except urllib.error.HTTPError as exc:
            return exc.code, json.loads(exc.read()), exc.headers

    def submit(self, run_request, tenant=None):
        return self.request("/v1/jobs",
                            body={"request": run_request.to_dict()},
                            tenant=tenant)

    def wait(self, job_id, timeout=60.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            status, body, _ = self.request(f"/v1/jobs/{job_id}")
            assert status == 200
            if body["status"] in ("done", "failed"):
                return body
            time.sleep(0.02)
        raise AssertionError(f"job {job_id} did not finish")

    def events(self, job_id):
        """Read the NDJSON stream to completion; returns the events."""
        with urllib.request.urlopen(
                f"{self.base}/v1/jobs/{job_id}/events", timeout=60) as resp:
            assert resp.headers["Content-Type"] == "application/x-ndjson"
            return [json.loads(line) for line in resp if line.strip()]


class TestJobLifecycle:
    def test_submit_poll_outcome(self, daemon):
        client = Client(daemon)
        status, body, _ = client.submit(NATIVE)
        assert status == 202
        job = client.wait(body["id"])
        assert job["status"] == "done"
        assert job["cached"] is False
        assert job["workload"] == "histogram"
        assert job["outcome"]["result"]["runtime"] > 0

    def test_outcome_is_byte_identical_to_direct_execution(self, daemon):
        client = Client(daemon)
        _, body, _ = client.submit(WINDOWED)
        job = client.wait(body["id"])
        direct = WINDOWED.execute().to_dict()
        assert json.dumps(job["outcome"], sort_keys=True) \
            == json.dumps(direct, sort_keys=True)

    def test_warm_resubmission_is_served_from_cache(self, daemon):
        client = Client(daemon)
        _, first, _ = client.submit(NATIVE)
        done_first = client.wait(first["id"])
        _, second, _ = client.submit(NATIVE)
        done_second = client.wait(second["id"])
        assert done_second["cached"] is True
        assert json.dumps(done_first["outcome"], sort_keys=True) \
            == json.dumps(done_second["outcome"], sort_keys=True)

    def test_unknown_job_404(self, daemon):
        status, body, _ = Client(daemon).request("/v1/jobs/job-999999")
        assert status == 404
        assert "no such job" in body["error"]

    def test_bad_body_400(self, daemon):
        client = Client(daemon)
        status, body, _ = client.request("/v1/jobs", body={"nope": 1})
        assert status == 400
        status, body, _ = client.request(
            "/v1/jobs", body={"request": {"workload": ""}})
        assert status == 400
        status, body, _ = client.request(
            "/v1/jobs", body={"request": {"workload": "histogram",
                                          "speed": 9}})
        assert status == 400
        assert "unknown" in body["error"]

    def test_invalid_workload_fails_job_not_daemon(self, daemon):
        client = Client(daemon)
        _, body, _ = client.submit(RunRequest(workload="no_such_workload"))
        job = client.wait(body["id"])
        assert job["status"] == "failed"
        assert "no_such_workload" in job["error"]
        # the daemon survives: next job is fine
        _, body, _ = client.submit(NATIVE)
        assert client.wait(body["id"])["status"] == "done"


    @pytest.mark.parametrize("seed", [1.5, "x", True])
    def test_malformed_jitter_seed_400_and_workers_survive(self, daemon,
                                                           seed):
        client = Client(daemon)
        for body in ({"request": {"workload": "histogram", "threads": 2,
                                  "scale": 0.2, "jitter_seed": seed}},
                     {"spec": {"workload": "histogram",
                               "jitter_seed": seed}}):
            status, reply, _ = client.request("/v1/jobs", body=body)
            assert status == 400
            assert "jitter_seed" in reply["error"]
        assert all(worker.is_alive() for worker in daemon._workers)
        _, body, _ = client.submit(NATIVE)
        assert client.wait(body["id"])["status"] == "done"

    def test_unexpected_exception_fails_job_not_worker(self, tmp_path):
        service = RunService(cache_dir=str(tmp_path / "cache"))

        def explode(spec):
            raise RuntimeError("injected failure")

        service.run = explode
        d = Daemon(ServeConfig(port=0, workers=2,
                               sink_dir=str(tmp_path / "sink")),
                   service=service).start()
        try:
            client = Client(d)
            ids = [client.submit(RunRequest(workload="histogram", threads=2,
                                            scale=0.2, seed=n))[1]["id"]
                   for n in range(3)]
            for job_id in ids:
                job = client.wait(job_id)
                assert job["status"] == "failed"
                assert job["error"] == "RuntimeError: injected failure"
            assert len(d._workers) == 2
            assert all(worker.is_alive() for worker in d._workers)
        finally:
            d.shutdown()


class TestStreamingEvents:
    def test_events_stream_live_before_completion(self, daemon):
        """Findings arrive on /events while the job is still running."""
        client = Client(daemon)
        # big enough that the run takes a moment; windowed detector
        # emits mid-run
        slow = RunRequest(workload="linear_regression", threads=4,
                          scale=2.0, detector="windowed")
        _, body, _ = client.submit(slow)
        job_id = body["id"]
        got_event_while_running = []

        def watch():
            with urllib.request.urlopen(
                    f"{client.base}/v1/jobs/{job_id}/events",
                    timeout=60) as resp:
                for line in resp:
                    if not line.strip():
                        continue
                    status, snapshot, _ = client.request(
                        f"/v1/jobs/{job_id}")
                    got_event_while_running.append(
                        (json.loads(line), snapshot["status"]))

        watcher = threading.Thread(target=watch)
        watcher.start()
        client.wait(job_id)
        watcher.join(timeout=60)
        assert got_event_while_running
        first_event, status_at_first = got_event_while_running[0]
        assert first_event["line"] > 0
        assert first_event["job_id"] == job_id
        assert status_at_first == "running"

    def test_cached_job_replays_identical_events(self, daemon):
        client = Client(daemon)
        _, first, _ = client.submit(WINDOWED)
        client.wait(first["id"])
        fresh_events = Client(daemon).events(first["id"])
        _, second, _ = client.submit(WINDOWED)
        client.wait(second["id"])
        cached_events = Client(daemon).events(second["id"])
        strip = lambda evs: [
            {k: v for k, v in e.items() if k != "job_id"} for e in evs]
        assert strip(cached_events) == strip(fresh_events)
        assert fresh_events  # windowed linear_regression emits

    def test_native_job_event_stream_is_empty_and_terminates(self, daemon):
        client = Client(daemon)
        _, body, _ = client.submit(NATIVE)
        client.wait(body["id"])
        assert client.events(body["id"]) == []


class TestAdmission:
    def test_dedupe_under_concurrent_submission(self, tmp_path):
        daemon = Daemon(ServeConfig(
            port=0, workers=1, cache_dir=str(tmp_path / "cache"),
            sink_dir=str(tmp_path / "sink"))).start()
        try:
            client = Client(daemon)
            results = []

            def submit():
                results.append(client.submit(WINDOWED))

            threads = [threading.Thread(target=submit) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            ids = {body["id"] for _, body, _ in results}
            assert len(ids) == 1  # every duplicate landed on one job
            assert sum(1 for _, body, _ in results
                       if body.get("deduped")) == 7
            job = client.wait(ids.pop())
            assert job["status"] == "done"
        finally:
            daemon.shutdown()

    def test_distinct_specs_get_distinct_jobs(self, daemon):
        client = Client(daemon)
        _, a, _ = client.submit(NATIVE)
        _, b, _ = client.submit(WINDOWED)
        assert a["id"] != b["id"]
        assert client.wait(a["id"])["status"] == "done"
        assert client.wait(b["id"])["status"] == "done"

    def test_global_rate_limit_429_with_retry_after(self, tmp_path):
        daemon = Daemon(ServeConfig(
            port=0, workers=1, rate=0.001, burst=1.0,
            cache_dir=str(tmp_path / "cache"),
            sink_dir=str(tmp_path / "sink"))).start()
        try:
            client = Client(daemon)
            status, _, _ = client.submit(NATIVE)
            assert status == 202
            status, body, headers = client.submit(WINDOWED)
            assert status == 429
            assert int(headers["Retry-After"]) >= 1
            assert "rate" in body["error"]
        finally:
            daemon.shutdown()

    def test_tenant_quota_exhaustion_and_isolation(self, tmp_path):
        daemon = Daemon(ServeConfig(
            port=0, workers=1, tenant_rate=0.001, tenant_burst=1.0,
            cache_dir=str(tmp_path / "cache"),
            sink_dir=str(tmp_path / "sink"))).start()
        try:
            client = Client(daemon)
            status, _, _ = client.submit(NATIVE, tenant="a")
            assert status == 202
            status, _, headers = client.submit(WINDOWED, tenant="a")
            assert status == 429
            assert "Retry-After" in headers
            # tenant b has its own bucket
            status, _, _ = client.submit(WINDOWED, tenant="b")
            assert status == 202
        finally:
            daemon.shutdown()

    def test_allowlist_403(self, tmp_path):
        daemon = Daemon(ServeConfig(
            port=0, workers=1, tenants=("alice",),
            cache_dir=str(tmp_path / "cache"),
            sink_dir=str(tmp_path / "sink"))).start()
        try:
            client = Client(daemon)
            status, _, _ = client.submit(NATIVE, tenant="alice")
            assert status == 202
            status, body, _ = client.submit(NATIVE, tenant="mallory")
            assert status == 403
            assert "mallory" in body["error"]
        finally:
            daemon.shutdown()


class TestFindingsEndpoint:
    def test_aggregation_across_three_runs(self, daemon):
        client = Client(daemon)
        requests = [
            WINDOWED,
            RunRequest(workload="linear_regression", threads=8,
                       detector="windowed"),
            RunRequest(workload="histogram", threads=4, profile=True),
        ]
        jobs = [client.submit(r)[1]["id"] for r in requests]
        outcomes = [client.wait(j) for j in jobs]
        assert all(o["status"] == "done" for o in outcomes)

        status, body, _ = client.request("/v1/findings?view=stats")
        assert status == 200
        assert body["stats"]["kinds"]["run"] == 3

        expected_findings = sum(
            len(o["outcome"]["streaming_findings"]) for o in outcomes)
        status, body, _ = client.request("/v1/findings")
        finding_rows = [r for r in body["rows"] if r["kind"] == "finding"]
        assert len(finding_rows) == expected_findings

        status, body, _ = client.request(
            "/v1/findings?view=top_lines&workload=linear_regression")
        top = body["top_lines"]
        assert top and top[0]["invalidations"] > 0
        assert top[0]["runs"] == 2  # both linear_regression runs hit it

        status, body, _ = client.request("/v1/findings?view=verdicts")
        assert "linear_regression" in body["verdicts"]

        status, body, _ = client.request("/v1/findings?view=overhead")
        assert body["overhead"]["p50"] > 0

    def test_unknown_view_400(self, daemon):
        status, body, _ = Client(daemon).request("/v1/findings?view=pie")
        assert status == 400
        assert "unknown view" in body["error"]


class TestMetricsAndHealth:
    def test_healthz(self, daemon):
        status, body, _ = Client(daemon).request("/healthz")
        assert status == 200 and body["status"] == "ok"

    def test_metrics_exposition(self, daemon):
        client = Client(daemon)
        _, body, _ = client.submit(NATIVE)
        client.wait(body["id"])
        with urllib.request.urlopen(f"{client.base}/metrics",
                                    timeout=30) as resp:
            text = resp.read().decode()
        assert "daemon_submissions_total" in text
        assert 'daemon_jobs_total{status="done"} 1' in text
        assert "daemon_queue_depth" in text
        assert "service_runs_total" in text

    def test_unknown_path_404(self, daemon):
        status, _, _ = Client(daemon).request("/v2/nothing")
        assert status == 404


class TestGracefulShutdown:
    def test_drain_finishes_inflight_jobs_and_flushes_sink(self, tmp_path):
        daemon = Daemon(ServeConfig(
            port=0, workers=1, cache_dir=str(tmp_path / "cache"),
            sink_dir=str(tmp_path / "sink"), drain_timeout=60.0)).start()
        client = Client(daemon)
        _, body, _ = client.submit(WINDOWED)
        job_id = body["id"]
        daemon.shutdown()  # drains the queued/running job
        job = daemon.get_job(job_id)
        assert job.status == "done"
        # sink was flushed: a fresh handle sees sealed segments only
        from repro.service.sink import FindingsSink
        reopened = FindingsSink(tmp_path / "sink")
        stats = reopened.stats()
        assert stats["buffered_rows"] == 0
        assert stats["rows"] >= 1 + len(job.outcome.streaming_findings)

    def test_shutdown_is_idempotent(self, tmp_path):
        daemon = Daemon(ServeConfig(
            port=0, cache_dir=str(tmp_path / "cache"),
            sink_dir=str(tmp_path / "sink"))).start()
        daemon.shutdown()
        daemon.shutdown()


class TestStartupFailures:
    def test_port_in_use_is_service_error(self, tmp_path):
        blocker = socket.socket()
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        port = blocker.getsockname()[1]
        try:
            with pytest.raises(ServiceError, match="cannot bind"):
                Daemon(ServeConfig(port=port,
                                   cache_dir=str(tmp_path / "cache"),
                                   sink_dir=str(tmp_path / "sink")))
        finally:
            blocker.close()

    def test_cli_exit_2_on_occupied_port(self, tmp_path, capsys):
        blocker = socket.socket()
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        port = blocker.getsockname()[1]
        try:
            rc = cli_main(["serve", "--port", str(port),
                           "--cache-dir", str(tmp_path / "cache"),
                           "--sink-dir", str(tmp_path / "sink")])
        finally:
            blocker.close()
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("repro serve:")
        assert "\n" == err[err.index("\n"):]  # exactly one line

    def test_cli_exit_2_on_bad_quota_config(self, capsys):
        rc = cli_main(["serve", "--port", "0", "--rate", "5",
                       "--burst", "0.5"])
        assert rc == 2
        assert "burst" in capsys.readouterr().err

    def test_bad_serve_config_rejected(self):
        with pytest.raises(ConfigError):
            ServeConfig(workers=0)
        with pytest.raises(ConfigError):
            ServeConfig(port=99999)
        with pytest.raises(ConfigError):
            ServeConfig(max_queue=0)
        with pytest.raises(ConfigError):
            ServeConfig(drain_timeout=-1.0)
