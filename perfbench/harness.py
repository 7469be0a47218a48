"""Shared machinery of the benchmark: results, statistics, counts,
instrumentation and the environment stamp.

Nothing here imports the program at module level; ``run.py`` puts the
checkout's ``src`` on the path first and the helpers import lazily.
"""

from __future__ import annotations

import bisect
import functools
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import tempfile
import threading
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from spans import Patches, SpanRecorder

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
REFERENCE_PATH = HERE / "reference.json"


# -- results -------------------------------------------------------------------


@dataclass
class Op:
    """One timed operation: a cell, replay, predict, job or query."""

    kind: str
    start: float
    end: float
    ok: bool
    note: str = ""


@dataclass
class PassResult:
    """One pass over a workload's fixed batch of operations."""

    start: float = 0.0
    end: float = 0.0
    ops: List[Op] = field(default_factory=list)
    #: (check name, passed) for output checks beyond single operations.
    checks: List[Tuple[str, bool]] = field(default_factory=list)
    sim_accesses: int = 0
    recall_hits: int = 0
    recall_total: int = 0
    false_positives: int = 0
    #: Workload-level figures (accuracy) that need no timing.
    extra: Dict[str, float] = field(default_factory=dict)
    #: Workload-level rates: name -> (amount, ops whose time it took).
    rates: Dict[str, Tuple[float, List[Op]]] = field(default_factory=dict)

    def check(self, name: str, passed: bool) -> None:
        self.checks.append((name, bool(passed)))

    @property
    def attempted(self) -> int:
        return len(self.ops) + len(self.checks)

    @property
    def failed(self) -> int:
        return (sum(1 for op in self.ops if not op.ok)
                + sum(1 for _, ok in self.checks if not ok))

    def failures(self) -> List[str]:
        bad = [f"{op.kind}: {op.note}" for op in self.ops if not op.ok]
        return bad + [name for name, ok in self.checks if not ok]


# -- host-speed calibration ---------------------------------------------------

#: Probe time defining a reference-host second (the probe's median on a
#: shared 2-core VM running Python 3.11).
PROBE_REF_S = 0.0068
PROBE_SLICES = 7


def probe() -> float:
    """Seconds one fixed slice of interpreter work takes right now (the
    mean of 7 slices: the host's speed varies 20% between 20 ms slices,
    so a single slice is a poor estimate)."""
    times = []
    for _ in range(PROBE_SLICES):
        began = time.perf_counter()
        table: Dict[int, int] = {}
        acc = 0
        for i in range(40_000):
            key = i & 255
            table[key] = table.get(key, 0) + i
            acc += (i * 31) % 17
        times.append(time.perf_counter() - began)
    return statistics.fmean(times)


class Calibrator:
    """Converts host seconds to reference-host seconds.

    A shared host's speed drifts by +-20% over tens of seconds. :meth:`tick`
    times :func:`probe` between operations; :meth:`normalize` scales each
    stretch of an interval by ``PROBE_REF_S / probe time`` interpolated
    at that moment, and leaves the probes themselves out. A run's
    timings then move with the program, not with the neighbours.
    """

    def __init__(self) -> None:
        self._starts: List[float] = []
        self._ends: List[float] = []
        self._probes: List[float] = []

    def tick(self) -> None:
        began = time.perf_counter()
        seconds = probe()
        self._starts.append(began)
        self._ends.append(time.perf_counter())
        self._probes.append(seconds)

    def _speed_at(self, moment: float) -> float:
        mids = [(a + b) / 2 for a, b in zip(self._starts, self._ends)]
        index = bisect.bisect_left(mids, moment)
        if index == 0:
            return self._probes[0]
        if index == len(mids):
            return self._probes[-1]
        left, right = mids[index - 1], mids[index]
        share = (moment - left) / (right - left) if right > left else 0.0
        return (self._probes[index - 1]
                + share * (self._probes[index] - self._probes[index - 1]))

    def normalize(self, start: float, end: float) -> float:
        """Reference-host seconds of ``[start, end]``, probes excluded."""
        cuts = sorted({start, end, *(t for t in self._starts + self._ends
                                     if start < t < end)})
        total = 0.0
        for left, right in zip(cuts, cuts[1:]):
            middle = (left + right) / 2
            index = bisect.bisect_right(self._starts, middle) - 1
            if index >= 0 and middle < self._ends[index]:
                continue  # inside a probe
            total += (right - left) * PROBE_REF_S / self._speed_at(middle)
        return total

    @property
    def probes(self) -> List[float]:
        return list(self._probes)

    def op_seconds(self, op: Op) -> float:
        return self.normalize(op.start, op.end)

    def pass_seconds(self, result: PassResult) -> float:
        return self.normalize(result.start, result.end)

    def probe_seconds(self, start: float, end: float) -> float:
        """Host seconds spent probing inside ``[start, end]``."""
        return sum(b - a for a, b in zip(self._starts, self._ends)
                   if start <= a and b <= end)


# -- statistics ----------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def tail(values: Sequence[float], beyond: int = 10) -> Tuple[float, float, int]:
    """The highest percentile with at least ``beyond`` samples above it.

    Returns ``(value, percentile, sample count)``; with too few samples
    for any such percentile, the median.
    """
    ordered = sorted(values)
    n = len(ordered)
    index = n - 1 - beyond
    if 2 * index < n - 1:
        return median(ordered), 50.0, n
    return float(ordered[index]), 100.0 * (index + 1) / n, n


def rng_for(seed: int, *parts: Any) -> random.Random:
    """A random stream derived from ``seed`` and a path of labels."""
    digest = hashlib.sha256(
        json.dumps([seed, *parts]).encode()).hexdigest()
    return random.Random(int(digest[:16], 16))


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def canonical(data: Any) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process, in MB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def env_stamp() -> Dict[str, Any]:
    """What a result must match before it is compared with another."""
    try:
        import numpy  # noqa: F401
        has_numpy = True
    except ImportError:
        has_numpy = False
    from repro.run import run_workload
    from repro.workloads import get_workload
    probe = run_workload(get_workload("synthetic")(scale=0.05))
    return {
        "python": platform.python_version(),
        "numpy": has_numpy,
        "kernel": probe.result.metadata.get("kernel"),
        "nproc": os.cpu_count(),
    }


# -- counts ----------------------------------------------------------------------


class Counts:
    """Thread-safe named totals."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.values: Dict[str, float] = defaultdict(int)

    def add(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.values[name] += amount

    def get(self, name: str) -> float:
        return self.values.get(name, 0)


# -- context ------------------------------------------------------------------


@dataclass
class Context:
    """What a workload's pass can see."""

    seed: int
    tmp: Path
    reference: Dict[str, Any]
    recorder: Optional[SpanRecorder] = None
    counts: Optional[Counts] = None
    calibrator: Optional[Calibrator] = None

    def span(self, name: str, op: Optional[str] = None,
             link_key: Optional[str] = None):
        if self.recorder is None:
            return nullcontext()
        return self.recorder.span(name, op=op, link_key=link_key)

    def tick(self) -> None:
        """Probe the host speed (between operations, never inside)."""
        if self.calibrator is not None:
            self.calibrator.tick()

    def link(self, key: str) -> None:
        if self.recorder is not None:
            self.recorder.link(key)

    def count(self, name: str, amount: float = 1) -> None:
        if self.counts is not None:
            self.counts.add(name, amount)

    def fresh_dir(self, label: str) -> Path:
        """A new, empty directory under this run's temporary root."""
        return Path(tempfile.mkdtemp(prefix=f"{label}-", dir=self.tmp))

    @staticmethod
    def child_env() -> Dict[str, str]:
        """Environment for a child interpreter running the checkout."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(CHECKOUT / "src")
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        return env


# -- instrumentation ----------------------------------------------------------

#: Span-name prefix -> layer (a module of the program, or the bench).
LAYERS = {
    "op": "bench",
    "client": "bench.client",
    "experiments": "experiments",
    "workloads": "workloads",
    "engine": "sim.engine",
    "profiler": "core",
    "predict": "predict",
    "trace": "trace",
    "service": "service",
    "store": "service",
    "outcome": "service",
    "daemon": "service.daemon",
    "sink": "service.sink",
}

SELF_LAYERS = ("bench", "bench.client", "experiments", "workloads",
               "sim.engine", "core", "predict", "trace", "service",
               "service.daemon", "service.sink")


def layer_of(name: str) -> str:
    return LAYERS[name.split(".", 1)[0]]


def _spanned(ctx: Context, name: str, orig, key_of=None, after=None):
    """A wrapper timing ``orig`` as span ``name`` (no nested repeats)."""
    recorder = ctx.recorder

    @functools.wraps(orig)
    def wrapper(*args, **kwargs):
        if recorder is None:
            result = orig(*args, **kwargs)
        else:
            current = recorder.current()
            if current is not None and current.name == name:
                return orig(*args, **kwargs)
            link_key = key_of(*args, **kwargs) if key_of else None
            with recorder.span(name, link_key=link_key):
                result = orig(*args, **kwargs)
        if after is not None:
            after(args, kwargs, result)
        return result

    return wrapper


@contextmanager
def instrumented(ctx: Context) -> Iterator[None]:
    """Wrap the program's layer entry points for one pass.

    Spans go to ``ctx.recorder`` (when set) and counts read off public
    return values go to ``ctx.counts``. Everything is restored on exit.
    """
    from repro.core.profiler import CheetahProfiler
    import repro.predict.model as predict_model
    from repro.run import RunOutcome
    from repro.service import RunService
    from repro.service.daemon import Daemon, Job
    from repro.service.sink import FindingsSink
    from repro.service.store import ResultStore
    from repro.sim.engine import Engine
    from repro.workloads import iter_workloads
    from repro.workloads.base import Workload

    count = ctx.count

    def after_engine(args, kwargs, result):
        engine = args[0]
        count("engine.steps", result.steps)
        count("engine.threads_spawned", len(result.threads))
        count("sim.accesses", result.total_accesses)
        count("coherence.invalidations",
              result.machine.directory.total_invalidations())
        pmu = engine.pmu
        if pmu is not None:
            traps = pmu.samples_fired - pmu.memory_samples
            count("pmu.samples.memory", pmu.memory_samples)
            count("pmu.samples.trap", traps)
            count("pmu.threads_armed", pmu.threads_set_up)
            cfg = pmu.config
            count("pmu.overhead_cycles",
                  pmu.threads_set_up * cfg.thread_setup_cost
                  + pmu.memory_samples * cfg.handler_cost
                  + traps * cfg.trap_cost)

    def after_finalize(args, kwargs, report):
        detector = args[0].detector
        count("detector.samples_seen", detector.samples_seen)
        count("detector.samples_recorded", detector.samples_recorded)
        count("assessment.instances_reported", len(report.all_instances))

    def after_init(args, kwargs, result):
        count("workloads.instances")

    def spec_key(self, spec, *rest, **kw):
        return spec.key()

    def record_key(self, outcome, **kw):
        return kw.get("key")

    def job_key(self, *rest, **kw):
        return self.key

    patches = Patches()
    try:
        wrap = patches.wrap
        wrap(Engine, "run", lambda f: _spanned(ctx, "engine.run", f,
                                               after=after_engine))
        wrap(CheetahProfiler, "finalize",
             lambda f: _spanned(ctx, "profiler.finalize", f,
                                after=after_finalize))
        wrap(Workload, "__init__", lambda f: _counting(f, after_init))
        for cls in [Workload, *iter_workloads()]:
            if "setup" in vars(cls):
                wrap(cls, "setup",
                     lambda f: _spanned(ctx, "workloads.setup", f))
        wrap(predict_model, "extract_profile",
             lambda f: _spanned(ctx, "predict.profile", f))
        wrap(predict_model, "predict_from_profiles",
             lambda f: _spanned(ctx, "predict.model", f))
        wrap(RunService, "run",
             lambda f: _spanned(ctx, "service.run", f, key_of=spec_key))
        wrap(ResultStore, "get", lambda f: _spanned(ctx, "store.get", f))
        wrap(ResultStore, "put", lambda f: _spanned(ctx, "store.put", f))
        wrap(RunOutcome, "to_dict",
             lambda f: _spanned(ctx, "outcome.to_dict", f))
        wrap(RunOutcome, "from_dict",
             lambda f: _spanned(ctx, "outcome.from_dict", f))
        wrap(Daemon, "submit",
             lambda f: _spanned(ctx, "daemon.submit", f, key_of=spec_key))
        wrap(Job, "to_dict",
             lambda f: _spanned(ctx, "daemon.result_fetch", f,
                                key_of=job_key))
        wrap(FindingsSink, "record_outcome",
             lambda f: _spanned(ctx, "sink.record", f, key_of=record_key))
        wrap(FindingsSink, "query",
             lambda f: _spanned(ctx, "sink.query", f))
        yield
    finally:
        patches.restore()


def _counting(orig, after):
    @functools.wraps(orig)
    def wrapper(*args, **kwargs):
        result = orig(*args, **kwargs)
        after(args, kwargs, result)
        return result
    return wrapper


@contextmanager
def counting_accesses(ctx: Context) -> Iterator[None]:
    """Count simulated accesses only: the light patch an untraced pass
    uses for ``sim_accesses_per_s`` (one call per simulated run)."""
    from repro.sim.engine import Engine

    def after(args, kwargs, result):
        ctx.count("sim.accesses", result.total_accesses)

    patches = Patches()
    try:
        patches.wrap(Engine, "run", lambda f: _counting(f, after))
        yield
    finally:
        patches.restore()


# -- profile pass -----------------------------------------------------------------

SELFSHARE = ("sim.engine", "sim.machine", "sim.coherence", "sim.kernel",
             "runtime", "workloads", "heap", "pmu", "core", "predict",
             "trace", "service", "stdlib", "other")

_SRC_MARKER = os.sep + os.path.join("src", "repro") + os.sep


def _category(filename: str) -> str:
    if filename.startswith(str(HERE)):
        return "other"
    if _SRC_MARKER not in filename:
        return "stdlib"
    parts = filename.split(_SRC_MARKER, 1)[1].split(os.sep)
    if parts[0] == "sim" and len(parts) == 2:
        name = "sim." + parts[1][:-3]
        return name if name in SELFSHARE else "other"
    return parts[0] if parts[0] in SELFSHARE else "other"


class StackSampler:
    """Statistical profiler: a background thread samples the innermost
    frame of every watched thread and charges it to a subpackage.

    A watched thread is one inside a block or wrapped entry point.
    Sampling leaves the sampled code at full speed (cProfile slows the
    engine 2-3x), so shares are shares of real host time; C functions
    count towards the Python frame that called them.
    """

    def __init__(self, interval: float = 0.001) -> None:
        self.interval = interval
        self.samples: Dict[str, int] = defaultdict(int)
        self._watched: Dict[int, int] = defaultdict(int)
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def _enter(self) -> int:
        ident = threading.get_ident()
        with self._lock:
            self._watched[ident] += 1
        return ident

    def _leave(self, ident: int) -> None:
        with self._lock:
            self._watched[ident] -= 1
            if not self._watched[ident]:
                del self._watched[ident]

    def wrap(self, orig):
        """Watch the calling thread while ``orig`` runs."""
        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            ident = self._enter()
            try:
                return orig(*args, **kwargs)
            finally:
                self._leave(ident)
        return wrapper

    @contextmanager
    def block(self) -> Iterator[None]:
        """Watch the calling thread for the ``with`` block."""
        ident = self._enter()
        try:
            yield
        finally:
            self._leave(ident)

    def _loop(self) -> None:
        me = threading.get_ident()
        while not self._stop.wait(self.interval):
            frames = sys._current_frames()
            with self._lock:
                watched = [ident for ident in self._watched if ident != me]
            for ident in watched:
                frame = frames.get(ident)
                if frame is not None:
                    self.samples[_category(frame.f_code.co_filename)] += 1

    @contextmanager
    def running(self) -> Iterator["StackSampler"]:
        self._stop.clear()
        self._thread = threading.Thread(target=self._loop,
                                        name="perfbench-sampler",
                                        daemon=True)
        self._thread.start()
        try:
            yield self
        finally:
            self._stop.set()
            self._thread.join()

    def shares(self) -> Dict[str, float]:
        """Share of samples per subpackage."""
        total = sum(self.samples.values()) or 1
        return {name: self.samples.get(name, 0) / total
                for name in SELFSHARE}
