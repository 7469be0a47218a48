"""Golden determinism tests: same workload + seeds twice => identical
outputs.

The fused burst loop, the private-HIT fast path and the pin-table
pruning (all perf work) must not perturb a single access: the machine's
jitter stream is consumed once per access in global order, so *any*
reordering or skipped bookkeeping shows up here as a changed runtime,
invalidation count or report.
"""

import importlib.util
from pathlib import Path

import pytest

from repro.run import run_workload
from repro.runtime.thread import (
    R_BASE, R_COUNT, R_INDEX, R_REPEAT, R_THREAD, R_WRITE,
)
from repro.sim.engine import Observer
from repro.sim.params import MachineConfig
from repro.workloads import iter_workloads
from repro.workloads.phoenix import Histogram, LinearRegression

ROOT = Path(__file__).resolve().parent.parent


def _native_fingerprint(workload):
    outcome = run_workload(workload, jitter_seed=11)
    result = outcome.result
    machine = result.machine
    return (
        result.runtime,
        result.steps,
        result.total_accesses,
        result.total_instructions,
        machine.total_accesses,
        machine.total_cycles,
        machine.prefetch_hits,
        machine.stall_cycles,
        machine.directory.total_invalidations(),
        tuple(sorted((tid, t.runtime, t.mem_cycles)
                     for tid, t in result.threads.items())),
    )


def _cheetah_fingerprint(workload):
    outcome = run_workload(workload, jitter_seed=11, with_cheetah=True)
    report = outcome.report
    return (
        outcome.result.runtime,
        outcome.result.steps,
        report.total_samples,
        tuple((r.profile.label, r.profile.accesses,
               r.assessment.improvement) for r in report.significant),
    )


class _NullObserver(Observer):
    """Sees every access and charges nothing: only the loop changes."""

    def on_access(self, tid, core, addr, is_write, latency, size, line):
        return None


class TestNativeDeterminism:
    def test_linear_regression_run_twice_identical(self):
        first = _native_fingerprint(
            LinearRegression(num_threads=8, scale=0.25))
        second = _native_fingerprint(
            LinearRegression(num_threads=8, scale=0.25))
        assert first == second

    def test_histogram_run_twice_identical(self):
        first = _native_fingerprint(Histogram(num_threads=4, scale=0.25))
        second = _native_fingerprint(Histogram(num_threads=4, scale=0.25))
        assert first == second

    def test_different_seed_changes_outputs(self):
        base = run_workload(LinearRegression(num_threads=4, scale=0.25),
                            jitter_seed=11)
        other = run_workload(LinearRegression(num_threads=4, scale=0.25),
                             jitter_seed=12)
        assert base.runtime != other.runtime


class TestCheetahDeterminism:
    def test_profiled_run_twice_identical(self):
        first = _cheetah_fingerprint(
            LinearRegression(num_threads=8, scale=0.25))
        second = _cheetah_fingerprint(
            LinearRegression(num_threads=8, scale=0.25))
        assert first == second


class TestFastPathMatchesGeneralPath:
    def test_trace_observer_disables_fast_path_same_invalidations(self):
        """The observed (general) loop and the fused loop must agree on
        coherence ground truth; timing differs only by the observer's
        instrumentation cost model, while the access sequence — and so
        the invalidation counts — is identical."""
        from repro.trace.recorder import TraceRecorder

        native = run_workload(LinearRegression(num_threads=4, scale=0.25),
                              jitter_seed=11)
        observed = run_workload(LinearRegression(num_threads=4, scale=0.25),
                                jitter_seed=11, observer=TraceRecorder())
        a = native.result.machine.directory
        b = observed.result.machine.directory
        assert a.total_invalidations() == b.total_invalidations()
        assert native.result.total_accesses == observed.result.total_accesses

    @pytest.mark.parametrize("with_cheetah", [False, True],
                             ids=["native", "cheetah"])
    @pytest.mark.parametrize("cls", list(iter_workloads()),
                             ids=lambda cls: cls.name)
    def test_default_loop_matches_observed_loop(self, cls, with_cheetah):
        """Every registered workload, natively and under Cheetah, gives
        the same serialized outcome on the default scheduling loop as on
        the general per-access burst loop a zero-cost observer forces.
        Only ``result.metadata`` may differ (it names the kernel)."""
        def outcome(observer):
            config = (MachineConfig(**cls.machine_defaults)
                      if cls.machine_defaults else None)
            data = run_workload(cls(scale=0.1), machine_config=config,
                                with_cheetah=with_cheetah,
                                observer=observer).to_dict()
            del data["result"]["metadata"]
            return data

        assert outcome(None) == outcome(_NullObserver())


class _CostedObserver(Observer):
    """Charges a flat cost per access and extra cycles on every third
    write: both charges land before the PMU timestamps the access."""

    cost_per_access = 3

    def __init__(self):
        self.writes = 0

    def on_access(self, tid, core, addr, is_write, latency, size, line):
        if is_write:
            self.writes += 1
            if self.writes % 3 == 0:
                return 7
        return None


def _per_access_burst(self, rec, limit):
    """The observed burst loop spelled as one :meth:`Engine._access` per
    access and one :meth:`Engine._do_work` per work batch, advancing the
    thread's run record in place: the charging order (machine, thread
    counters, observer cost and extra cycles, PMU fire timestamp) the
    inlined loop must reproduce."""
    thread = rec[R_THREAD]
    base, stride, count, repeats, work, do_read, do_write = \
        rec[R_BASE:R_WRITE + 1]
    word = self.config.word_size
    while thread.clock <= limit:
        if rec[R_INDEX] >= count:
            rec[R_INDEX] = 0
            rec[R_REPEAT] += 1
        if rec[R_REPEAT] >= repeats:
            rec[R_COUNT] = 0
            return True
        addr = base + rec[R_INDEX] * stride
        self._steps += 1
        if do_read:
            self._access(thread, addr, False, word)
        if do_write:
            self._access(thread, addr, True, word)
        if work:
            self._do_work(thread, work)
        rec[R_INDEX] += 1
    if rec[R_INDEX] >= count and rec[R_REPEAT] + 1 >= repeats:
        rec[R_COUNT] = 0
        return True
    return False


class TestObservedLoopChargingOrder:
    @staticmethod
    def _run(cls):
        from repro.heap.allocator import CheetahAllocator
        from repro.pmu.sampler import PMU, PMUConfig
        from repro.run import RunOutcome
        from repro.sim.engine import Engine
        from repro.sim.machine import Machine
        from repro.symbols.table import SymbolTable

        workload = cls(scale=0.1)
        symbols = SymbolTable()
        workload.setup(symbols)
        config = (MachineConfig(**cls.machine_defaults)
                  if cls.machine_defaults else MachineConfig())
        samples = []
        pmu = PMU(PMUConfig(period=16), handler=samples.append)
        engine = Engine(config=config,
                        machine=Machine(config, jitter_seed=11),
                        symbols=symbols, pmu=pmu, observer=_CostedObserver(),
                        allocator=CheetahAllocator(
                            line_size=config.cache_line_size))
        result = engine.run(workload.main)
        return RunOutcome(result=result).to_dict(), samples

    @pytest.mark.parametrize("name", ["linear_regression", "histogram",
                                      "array_increment", "seqlock_read_mostly",
                                      "numa_ping_pong"])
    def test_inlined_loop_matches_per_access_loop(self, name, monkeypatch):
        """A costed observer that returns extra cycles, with the PMU
        armed at a short period: the inlined observed loop and the
        per-access composition give the same outcome and deliver the
        same PMU samples at the same timestamps."""
        from repro.sim.engine import Engine
        from repro.workloads import get_workload

        cls = get_workload(name)
        inlined, inlined_samples = self._run(cls)
        monkeypatch.setattr(Engine, "_run_burst_observed", _per_access_burst)
        reference, reference_samples = self._run(cls)
        assert inlined_samples, "the PMU delivered no samples"
        assert inlined == reference
        assert [s.timestamp for s in inlined_samples] == \
            [s.timestamp for s in reference_samples]
        assert inlined_samples == reference_samples


class TestGoldenReference:
    def test_matches_pinned_determinism_reference(self):
        """``tools/determinism_ref.py`` output is pinned byte for byte:
        an engine change that moves any runtime, step count, counter or
        report by one unit fails here, not only in a run-twice test."""
        spec = importlib.util.spec_from_file_location(
            "determinism_ref", ROOT / "tools" / "determinism_ref.py")
        tool = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tool)
        pinned = (ROOT / "tests" / "data" / "determinism_ref.json").read_text()
        assert tool.render(tool.fingerprint_all()) == pinned


class TestOfflineGolden:
    def test_matches_pinned_offline_reference(self):
        """``tools/offline_ref.py`` output is pinned byte for byte: the
        record -> load -> replay -> profile path and predicted runs must
        not move when their record types or loops change."""
        spec = importlib.util.spec_from_file_location(
            "offline_ref", ROOT / "tools" / "offline_ref.py")
        tool = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tool)
        pinned = (ROOT / "tests" / "data" / "offline_ref.json").read_text()
        assert tool.render(tool.fingerprint_all()) == pinned
