"""Vectorized burst kernel (`repro.sim.kernel` + engine wiring).

Covers the batch planner, kernel selection, fused-vs-vector
bit-identity (including the final jitter-stream position), the checked
variant, the vector mutation self-test, and the burst positivity
invariant of the thread's run record.
"""

import pytest

from repro.errors import SimulationError, ValidationError
from repro.pmu.sampler import PMU, PMUConfig
from repro.runtime.thread import R_BASE, SimThread
from repro.sim import kernel
from repro.sim.engine import Engine, Observer
from repro.sim.machine import Machine
from repro.sim.ops import LoopAccess
from repro.sim.params import MachineConfig


class TestPlanSpan:
    def make_machine(self):
        return Machine(MachineConfig(num_cores=4), timing_jitter=0)

    def test_untouched_lines_plan_zero(self):
        m = self.make_machine()
        assert kernel.plan_span(m, 0, 0x1000, 8, 16, 0, 160, False) == 0

    def test_private_sweep_covers_all_repeats(self):
        m = self.make_machine()
        for i in range(16):
            m.access(0, 0x1000 + i * 8, True)
        # 16 iterations * 8B stride = 2 lines, both dirty-owned by core 0.
        assert kernel.plan_span(m, 0, 0x1000, 8, 16, 0, 160, True) == 160

    def test_write_plan_stops_at_shared_line(self):
        m = self.make_machine()
        for i in range(16):
            m.access(0, 0x1000 + i * 8, True)
        m.access(1, 0x1040, False)  # second line now shared with core 1
        covered = kernel.plan_span(m, 0, 0x1000, 8, 16, 0, 160, True)
        assert covered == 8  # first line's 8 iterations only

    def test_read_plan_allows_shared_holder(self):
        m = self.make_machine()
        m.access(0, 0x1000, False)
        m.access(1, 0x1000, False)  # shared, both hold it
        assert kernel.plan_span(m, 0, 0x1000, 0, 1, 0, 50, False) == 50
        assert kernel.plan_span(m, 0, 0x1000, 0, 1, 0, 50, True) == 0

    def test_left_total_cap_is_respected(self):
        m = self.make_machine()
        for i in range(16):
            m.access(0, 0x1000 + i * 8, True)
        assert kernel.plan_span(m, 0, 0x1000, 8, 16, 0, 5, True) == 5

    def test_mid_sweep_index(self):
        m = self.make_machine()
        for i in range(16):
            m.access(0, 0x1000 + i * 8, True)
        m.access(1, 0x1000, False)  # first line shared -> stops the wrap
        covered = kernel.plan_span(m, 0, 0x1000, 8, 16, 12, 100, True)
        assert covered == 4  # iterations 12..15 on the still-private line


def fingerprint(result):
    machine = result.machine
    return (result.runtime, result.steps, result.total_accesses,
            result.total_instructions, machine.total_cycles,
            machine._jitter_pos,
            {tid: (t.clock, t.instructions, t.mem_accesses, t.mem_cycles)
             for tid, t in result.threads.items()})


def run_kernel(program, kernel_choice, *, check=False, observer=None,
               pmu_period=None):
    config = MachineConfig(num_cores=4, kernel=kernel_choice)
    machine = Machine(config, check=check)
    pmu = None
    if pmu_period:
        pmu = PMU(PMUConfig(period=pmu_period))
    engine = Engine(machine=machine, observer=observer, pmu=pmu)
    result = engine.run(program)
    return result


def mixed_program(api):
    buf = yield from api.malloc(4096)

    def worker(api, base):
        # Long private read+write burst, then a short shared phase.
        yield from api.loop(base, 8, 32, read=True, write=True,
                            work=1, repeat=40)
        yield from api.loop(buf, 0, 1, read=True, write=False, repeat=9)
        yield from api.loop(base, 8, 3, read=True, write=True, repeat=2)

    tids = []
    for i in range(4):
        tid = yield from api.spawn(worker, buf + 512 + i * 640)
        tids.append(tid)
    yield from api.join_all(tids)


def serial_program(api):
    buf = yield from api.malloc(4096)
    yield from api.loop(buf, 8, 64, read=True, write=True, work=2,
                        repeat=100)
    yield from api.loop(buf, 8, 1, read=True, write=False, repeat=1)


class TestKernelSelection:
    def test_auto_picks_vector_when_clean(self):
        result = run_kernel(serial_program, "auto")
        assert result.metadata["kernel"] == "vector"
        assert result.metadata["kernel_numpy"] == kernel.HAVE_NUMPY

    def test_fused_choice_is_respected(self):
        result = run_kernel(serial_program, "fused")
        assert result.metadata["kernel"] == "fused"

    def test_auto_falls_back_under_observer(self):
        class Counter(Observer):
            seen = 0

            def on_access(self, tid, core, addr, is_write, latency, size,
                          line):
                Counter.seen += 1
                return None

        result = run_kernel(serial_program, "auto", observer=Counter())
        assert result.metadata["kernel"] == "fused"
        assert Counter.seen == result.total_accesses

    def test_auto_falls_back_under_sanitizer(self):
        result = run_kernel(serial_program, "auto", check=True)
        assert result.metadata["kernel"] == "fused"

    def test_explicit_vector_under_sanitizer_runs_checked(self):
        result = run_kernel(serial_program, "vector", check=True)
        assert result.metadata["kernel"] == "vector-checked"


class TestBitIdentity:
    @pytest.mark.parametrize("program", [serial_program, mixed_program])
    def test_vector_matches_fused(self, program):
        assert fingerprint(run_kernel(program, "vector")) == \
            fingerprint(run_kernel(program, "fused"))

    @pytest.mark.parametrize("program", [serial_program, mixed_program])
    def test_checked_vector_matches_fused(self, program):
        checked = run_kernel(program, "vector", check=True)
        assert checked.metadata["kernel"] == "vector-checked"
        assert fingerprint(checked) == fingerprint(
            run_kernel(program, "fused"))

    def test_vector_matches_fused_with_pmu(self):
        vec = run_kernel(mixed_program, "vector", pmu_period=1000)
        fused = run_kernel(mixed_program, "fused", pmu_period=1000)
        assert fingerprint(vec) == fingerprint(fused)

    def test_single_iteration_bursts(self):
        def program(api):
            buf = yield from api.malloc(256)
            for _ in range(5):
                yield from api.loop(buf, 0, 1, read=True, write=True,
                                    repeat=1)
        assert fingerprint(run_kernel(program, "vector")) == \
            fingerprint(run_kernel(program, "fused"))

    def test_adaptive_optout_does_not_change_outputs(self):
        # Far more consecutive sub-MIN_SPAN bursts than _VECTOR_ADAPT:
        # the kernel flips the thread back to fused mid-run; outputs
        # must not move.
        def program(api):
            buf = yield from api.malloc(256)
            for _ in range(200):
                yield from api.loop(buf, 8, 2, read=True, write=True,
                                    repeat=1)
        assert fingerprint(run_kernel(program, "vector")) == \
            fingerprint(run_kernel(program, "fused"))


class TestVectorMutationSelftest:
    def test_broken_planner_is_caught(self):
        from repro.sim.check.mutation import run_vector_mutation_selftest
        caught = run_vector_mutation_selftest()
        assert isinstance(caught, ValidationError)
        assert caught.invariant == "vector-plan-mismatch"


class TestBurstStateInvariants:
    @staticmethod
    def _thread():
        return SimThread(tid=3, core=1, generator=iter(()), start_clock=40)

    def test_positive_extents_accepted(self):
        thread = self._thread()
        thread.start_burst(LoopAccess(0x100, 8, 4, repeat=2))
        # shape, then progress (index, repeat, settled) and clock_base
        assert thread.record[R_BASE:] == [0x100, 8, 4, 2, 0, True, True,
                                          0, 0, 0, 40]
        assert thread.record[:4] == [40, 3, thread, 1]

    @pytest.mark.parametrize("count,repeat", [(0, 5), (5, 0), (0, 0)])
    def test_zero_extents_rejected(self, count, repeat):
        op = LoopAccess(0x100, 8, 1, repeat=1)
        op.count = count
        op.repeat = repeat
        thread = self._thread()
        with pytest.raises(SimulationError, match="positive extents"):
            thread.start_burst(op)
        assert thread.record[R_BASE:] == [0, 0, 0, 0, 0, False, False,
                                          0, 0, 0, 0]

    def test_negative_extents_rejected(self):
        op = LoopAccess(0x100, 8, 1, repeat=1)
        op.count = -3
        with pytest.raises(SimulationError, match="positive extents"):
            self._thread().start_burst(op)

    def test_zero_trip_loops_stay_noops(self):
        # The engine filters zero-trip loops before starting a burst,
        # so programs using them still run (and do nothing).
        def program(api):
            buf = yield from api.malloc(64)
            yield from api.loop(buf, 8, 0, repeat=5)
            yield from api.loop(buf, 8, 5, repeat=0)
        result = run_kernel(program, "vector")
        assert result.total_accesses == 0


class TestPlanCache:
    def _key(self, n):
        return (0, 0x1000 + 64 * n, 8, 16, True)

    def test_hit_and_miss(self):
        cache = kernel.PlanCache(cap=4)
        assert cache.get(self._key(0)) is None
        cache.put(self._key(0), 7)
        assert cache.get(self._key(0)) == 7
        assert self._key(0) in cache
        assert len(cache) == 1

    def test_eviction_is_lru_not_fifo(self):
        cache = kernel.PlanCache(cap=2)
        cache.put(self._key(0), 1)
        cache.put(self._key(1), 1)
        # Touch key 0 so key 1 becomes the least recently used.
        assert cache.get(self._key(0)) == 1
        cache.put(self._key(2), 1)
        assert self._key(0) in cache
        assert self._key(1) not in cache
        assert self._key(2) in cache

    def test_put_refreshes_recency_and_updates_version(self):
        cache = kernel.PlanCache(cap=2)
        cache.put(self._key(0), 1)
        cache.put(self._key(1), 1)
        cache.put(self._key(0), 9)  # re-put: newer version, fresh recency
        cache.put(self._key(2), 1)
        assert cache.get(self._key(0)) == 9
        assert self._key(1) not in cache
        assert len(cache) == 2

    def test_size_stays_bounded_under_churn(self):
        cache = kernel.PlanCache(cap=8)
        for n in range(1000):
            cache.put(self._key(n), n)
        assert len(cache) == 8
        assert cache.keys() == [self._key(n) for n in range(992, 1000)]

    def test_invalid_cap_rejected(self):
        with pytest.raises(ValueError, match="cap"):
            kernel.PlanCache(cap=0)

    def test_engine_plan_cache_bounded_across_run(self):
        # Regression: the engine's burst-plan memo must not grow without
        # bound over a run with many distinct burst shapes.
        def program(api):
            bufs = []
            for _ in range(8):
                buf = yield from api.malloc(512)
                bufs.append(buf)
            for rep in range(1, 5):
                for buf in bufs:
                    yield from api.loop(buf, 8, 16, repeat=rep)
        result = run_kernel(program, "vector")
        assert result.total_accesses > 0
        # Shapes used: 8 buffers x 4 repeats, well under the cap.
        # Force a tiny cap and re-run to prove eviction keeps it bounded.
        import repro.sim.engine as engine_mod
        original = engine_mod._PLAN_CACHE_MAX
        engine_mod._PLAN_CACHE_MAX = 4
        try:
            bounded = run_kernel(program, "vector")
        finally:
            engine_mod._PLAN_CACHE_MAX = original
        assert bounded.total_accesses == result.total_accesses
        assert bounded.runtime == result.runtime
