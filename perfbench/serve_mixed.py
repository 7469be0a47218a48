"""``serve_mixed``: a closed loop of 2 clients against ``repro serve``.

Set-up starts the daemon on a fresh temporary store and sink (as a
``repro serve`` subprocess; in-process through ``Daemon`` for the traced
run) and warms a pool of specs. A pass is one batch: each client runs
its own seeded sequence of cache hits (repeats of warm specs or of its
own earlier misses), misses (fresh profiled ``windowed`` specs) and
``GET /v1/findings`` queries, one at a time, in three phases (see
``ServeMixed._plan``). Every job is awaited through ``/events`` and its
outcome fetched.

Checks: every job ends ``done``; a hit is served from the cache and its
outcome is byte-identical to the miss that created it; warm outcomes
match the reference; each miss's verdict matches the ground truth.
Each client hits only its own specs, so no two jobs in flight share a
spec and the daemon never dedupes: the counts of a batch are a
function of the seed alone.
"""

from __future__ import annotations

import http.client
import json
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from harness import (CHECKOUT, Context, Op, PassResult, canonical, rng_for,
                     sha256_text)
from paper_sim import judge

CLIENTS = 2
#: (workload, scale): one miss of each per batch, split across clients.
POOL: Tuple[Tuple[str, float], ...] = (
    ("producer_consumer_ring", 1.0),
    ("work_stealing_deque", 1.0),
    ("numa_ping_pong", 1.0),
    ("cas_retry_queue", 1.0),
    ("seqlock_read_mostly", 1.0),
    ("array_increment", 0.25),
    ("kmeans", 0.25),
    ("matrix_multiply", 0.25),
)
WARM_JITTER_SEED = 0xC0FFEE
#: Hits per client in the all-hits phase, and while the other client
#: runs its misses; each op list also carries one findings query.
WARM_HITS = 16
CONTENDED_HITS = 4
QUERY_VIEWS = ("rows", "verdicts", "top_lines", "stats")
HTTP_TIMEOUT = 120.0

_COUNTERS = {
    "service_cache_hits_total": "store.hits",
    "service_cache_misses_total": "store.misses",
    "daemon_sink_rows_total": "sink.rows",
}
_LABELLED = {
    "daemon_submissions_total": "daemon.submissions.",
    "daemon_jobs_total": "daemon.jobs.",
    "service_runs_total": "service.runs.",
}
_SAMPLE = re.compile(r'^([a-z_]+)(?:\{[a-z_]+="([^"]*)"\})? (\S+)$')


def spec_for(name: str, scale: float, jitter_seed: int):
    from repro.core.profiler import CheetahConfig
    from repro.service.spec import RunSpec
    from repro.sim.params import MachineConfig
    from repro.workloads import get_workload
    cls = get_workload(name)
    machine = (MachineConfig(**cls.machine_defaults)
               if cls.machine_defaults else None)
    return RunSpec(workload=name, scale=scale, jitter_seed=jitter_seed,
                   with_cheetah=True, machine=machine,
                   cheetah=CheetahConfig(detector_mode="windowed",
                                         report_true_sharing=True))


class Daemon:
    """The daemon under test, as a subprocess or in-process."""

    def __init__(self, root: Path, in_process: bool):
        self.root = root
        self.proc: Optional[subprocess.Popen] = None
        self.inner: Any = None
        store, sink = root / "store", root / "sink"
        if in_process:
            from repro.service.daemon import Daemon as ReproDaemon
            from repro.service.daemon import ServeConfig
            self.inner = ReproDaemon(ServeConfig(
                port=0, cache_dir=str(store), sink_dir=str(sink))).start()
            self.port = self.inner.port
            return
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--cache-dir", str(store), "--sink-dir", str(sink)],
            cwd=CHECKOUT, env=Context.child_env(),
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        line = self.proc.stderr.readline()
        match = re.search(r"listening on http://[\d.]+:(\d+)", line)
        if match is None:
            self.stop()
            raise RuntimeError(f"repro serve did not start: {line!r}")
        self.port = int(match.group(1))

    def peak_rss_mb(self) -> float:
        from harness import own_peak_rss_mb, proc_peak_rss_mb
        if self.proc is not None:
            return proc_peak_rss_mb(self.proc.pid)
        return own_peak_rss_mb()

    def store_bytes(self) -> int:
        return sum(p.stat().st_size
                   for p in (self.root / "store").rglob("*.json"))

    def stop(self) -> None:
        if self.inner is not None:
            self.inner.shutdown()
            self.inner = None
        if self.proc is not None:
            proc, self.proc = self.proc, None
            if proc.poll() is None:
                proc.send_signal(signal.SIGINT)
                try:
                    proc.wait(timeout=40)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
            proc.stderr.close()


def call(port: int, method: str, path: str,
         body: Optional[Dict[str, Any]] = None) -> Tuple[int, bytes]:
    conn = http.client.HTTPConnection("127.0.0.1", port,
                                      timeout=HTTP_TIMEOUT)
    try:
        payload = json.dumps(body).encode() if body is not None else None
        conn.request(method, path, body=payload,
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def scrape(port: int) -> Dict[str, float]:
    """The daemon's counters of interest, from ``GET /metrics``."""
    status, body = call(port, "GET", "/metrics")
    if status != 200:
        raise RuntimeError(f"/metrics answered {status}")
    out: Dict[str, float] = {}
    for line in body.decode().splitlines():
        match = _SAMPLE.match(line)
        if match is None:
            continue
        name, label, value = match.groups()
        if name in _COUNTERS:
            out[_COUNTERS[name]] = int(float(value))
        elif name in _LABELLED and label is not None:
            out[_LABELLED[name] + label] = int(float(value))
    return out


def run_job(ctx: Context, port: int, spec) -> Tuple[bool, str, Dict[str, Any]]:
    """Submit, await ``/events``, fetch. Returns (ok, note, job body)."""
    key = spec.key()
    ctx.link(key)
    with ctx.span("client.post"):
        status, raw = call(port, "POST", "/v1/jobs",
                           {"spec": spec.to_dict()})
    reply = json.loads(raw)
    if status != 202:
        return False, f"submit answered {status}: {reply}", {}
    job_id = reply["id"]
    with ctx.span("client.events"):
        status, _ = call(port, "GET", f"/v1/jobs/{job_id}/events")
    if status != 200:
        return False, f"events answered {status}", {}
    with ctx.span("client.get"):
        status, raw = call(port, "GET", f"/v1/jobs/{job_id}")
    body = json.loads(raw)
    if status != 200 or body.get("status") != "done":
        return False, f"job {job_id} {status} {body.get('status')}", body
    return True, "", body


class ServeMixed:
    name = "serve_mixed"
    setup_repeats = 3
    #: Reference-host seconds of one pass (sets the pass count).
    pass_seconds = 1.7

    def params(self) -> Dict[str, Any]:
        return {"clients": CLIENTS, "pool": [list(p) for p in POOL],
                "warm_jitter_seed": WARM_JITTER_SEED,
                "warm_hits": WARM_HITS, "contended_hits": CONTENDED_HITS}

    def setup(self, ctx: Context, in_process: bool = False) -> Dict[str, Any]:
        daemon = Daemon(ctx.fresh_dir("serve"), in_process)
        state: Dict[str, Any] = {"daemon": daemon, "known": {},
                                 "warm": [], "misses": [[] for _ in
                                                        range(CLIENTS)],
                                 "jitter_seen": set()}
        try:
            for name, scale in POOL:
                spec = spec_for(name, scale, WARM_JITTER_SEED)
                ok, note, body = run_job(ctx, daemon.port, spec)
                if not ok:
                    raise RuntimeError(f"warming {name}: {note}")
                state["known"][spec.key()] = canonical(body["outcome"])
                state["warm"].append(spec)
        except BaseException:
            daemon.stop()
            raise
        return state

    def teardown(self, state: Dict[str, Any]) -> None:
        state["daemon"].stop()
        shutil.rmtree(state["daemon"].root, ignore_errors=True)

    def peak_rss_mb(self, state: Dict[str, Any]) -> float:
        return state["daemon"].peak_rss_mb()

    def warm_digests(self, state: Dict[str, Any]) -> Dict[str, str]:
        return {spec.workload: sha256_text(state["known"][spec.key()])
                for spec in state["warm"]}

    def _plan(self, state: Dict[str, Any], ctx: Context,
              index: int) -> List[List[List[Tuple[str, Any]]]]:
        """Batch ``index``: phases, each one op list per client.

        Phase 1: both clients send cache hits (and a query). Phases 2
        and 3: one client sends its misses back to back while the other
        sends a few hits, which queue behind the misses. The seed picks
        the specs, the split of the pool and the order within a phase;
        the phase layout fixes how many hits wait behind a miss.
        """
        rng = rng_for(ctx.seed, self.name, index)
        pool = list(POOL)
        rng.shuffle(pool)
        share = len(pool) // CLIENTS
        misses, light, contended = [], [], []
        for client in range(CLIENTS):
            own = [s for i, s in enumerate(state["warm"])
                   if i % CLIENTS == client] + state["misses"][client]
            mine = []
            for name, scale in pool[client * share:(client + 1) * share]:
                jitter = rng.randrange(1, 2 ** 31)
                while jitter in state["jitter_seen"] \
                        or jitter == WARM_JITTER_SEED:
                    jitter = rng.randrange(1, 2 ** 31)
                state["jitter_seen"].add(jitter)
                mine.append(("miss", spec_for(name, scale, jitter)))
            misses.append(mine)
            for count, out in ((WARM_HITS, light),
                               (CONTENDED_HITS, contended)):
                ops = [("hit", rng.choice(own)) for _ in range(count)]
                ops.append(("query", rng.choice(QUERY_VIEWS)))
                rng.shuffle(ops)
                out.append(ops)
        return [light, [misses[0], contended[1]], [contended[0], misses[1]]]

    def run_pass(self, state: Dict[str, Any], ctx: Context,
                 index: int) -> PassResult:
        daemon = state["daemon"]
        phases = self._plan(state, ctx, index)
        result = PassResult()
        if index == 0:
            result.check("warm outcomes match reference",
                         self.warm_digests(state)
                         == ctx.reference[self.name]["warm_sha256"])
        lock = threading.Lock()
        before = scrape(daemon.port)
        bytes_before = daemon.store_bytes()
        errors: List[BaseException] = []

        def client(number: int, phase: int,
                   ops: List[Tuple[str, Any]]) -> None:
            try:
                for op_index, (kind, item) in enumerate(ops):
                    op = self._one(ctx, state, daemon.port, number,
                                   f"{index}/{phase}/{number}/{op_index}",
                                   kind, item, result, lock)
                    with lock:
                        result.ops.append(op)
            except BaseException as exc:  # reported after join
                errors.append(exc)

        result.start = time.perf_counter()
        for phase, plans in enumerate(phases):
            threads = [threading.Thread(target=client,
                                        args=(n, phase, plans[n]))
                       for n in range(CLIENTS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            if errors:
                raise errors[0]
        result.end = time.perf_counter()
        after = scrape(daemon.port)
        for name in set(before) | set(after):
            ctx.count(name, after.get(name, 0) - before.get(name, 0))
        ctx.count("store.bytes_written", daemon.store_bytes() - bytes_before)
        return result

    def _one(self, ctx: Context, state: Dict[str, Any], port: int,
             client: int, op_id: str, kind: str, item: Any,
             result: PassResult, lock: threading.Lock) -> Op:
        from repro.experiments.detection import observed_verdict
        from repro.core.export import report_from_dict
        from repro.workloads import get_workload

        began = time.perf_counter()
        if kind == "query":
            with ctx.span("op.query", op=op_id):
                with ctx.span("client.query"):
                    status, raw = call(port, "GET",
                                       f"/v1/findings?view={item}&limit=50")
            ok = status == 200 and isinstance(json.loads(raw), dict)
            return Op("query", began, time.perf_counter(), ok,
                      "" if ok else f"findings view {item} answered {status}")
        with ctx.span("op.job", op=op_id):
            ok, note, body = run_job(ctx, port, item)
        ended = time.perf_counter()
        if not ok:
            return Op(kind, began, ended, False, note)
        key = item.key()
        outcome = body["outcome"]
        if kind == "hit":
            if body.get("cached") is not True:
                return Op(kind, began, ended, False, f"{key[:12]} not cached")
            if canonical(outcome) != state["known"][key]:
                return Op(kind, began, ended, False,
                          f"{key[:12]} hit differs from its miss")
            return Op(kind, began, ended, True)
        if body.get("cached") is not False:
            return Op(kind, began, ended, False, f"{key[:12]} fresh spec cached")
        report = report_from_dict(outcome["report"])
        verdict_ok, klass = judge(get_workload(item.workload),
                                  observed_verdict(report),
                                  bool(report.significant))
        with lock:
            state["known"][key] = canonical(outcome)
            state["misses"][client].append(item)
            result.sim_accesses += outcome["result"]["total_accesses"]
            if klass == "recall":
                result.recall_total += 1
                result.recall_hits += int(verdict_ok)
            elif klass == "negative" and not verdict_ok:
                result.false_positives += 1
        return Op(kind, began, ended, verdict_ok,
                  "" if verdict_ok else f"{item.workload} misjudged")

    def make_reference(self, ctx: Context) -> Dict[str, Any]:
        state = self.setup(ctx)
        try:
            return {"warm_sha256": self.warm_digests(state)}
        finally:
            self.teardown(state)
