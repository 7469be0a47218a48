"""Tests for the discrete-event engine: scheduling, thread lifecycle,
bursts, callsite capture and failure modes."""

import pytest

from repro.errors import DeadlockError, SimulationError, ThreadError
from repro.sim.engine import Engine, Observer
from repro.sim.machine import Machine
from repro.sim.params import MachineConfig


def run(fn, *args, **engine_kwargs):
    engine_kwargs.setdefault(
        "machine", Machine(MachineConfig(), timing_jitter=0))
    engine = Engine(**engine_kwargs)
    return engine.run(fn, *args), engine


class TestBasicExecution:
    def test_empty_main(self):
        def main(api):
            return
            yield  # pragma: no cover
        result, _ = run(main)
        assert result.runtime == 0
        assert result.threads[0].state.value == "finished"

    def test_single_access_costs_cold_latency(self):
        def main(api):
            yield from api.load(0x100)
        result, _ = run(main)
        assert result.runtime == MachineConfig().latency.cold

    def test_work_advances_clock(self):
        def main(api):
            yield from api.work(123)
        result, _ = run(main)
        assert result.runtime == 123

    def test_update_is_load_plus_store(self):
        def main(api):
            yield from api.update(0x100)
        result, _ = run(main)
        assert result.threads[0].mem_accesses == 2

    def test_main_return_value_ignored_runtime_counted(self):
        def main(api):
            yield from api.work(5)
            yield from api.work(7)
        result, _ = run(main)
        assert result.runtime == 12
        assert result.total_instructions == 12

    def test_engine_runs_once_only(self):
        def main(api):
            yield from api.work(1)
        result, engine = run(main)
        with pytest.raises(SimulationError):
            engine.run(main)

    def test_non_generator_thread_fn_rejected(self):
        def not_a_generator(api):
            return 42
        with pytest.raises(ThreadError):
            run(not_a_generator)


class TestBurstExecution:
    def test_loop_access_counts(self):
        def main(api):
            yield from api.loop(0x1000, 4, 10, read=True, write=True,
                                repeat=3)
        result, _ = run(main)
        assert result.threads[0].mem_accesses == 60

    def test_loop_read_only(self):
        def main(api):
            yield from api.loop(0x1000, 4, 8, write=False)
        result, _ = run(main)
        assert result.threads[0].mem_accesses == 8

    def test_loop_work_charged(self):
        def main(api):
            yield from api.loop(0x1000, 0, 1, read=False, write=True,
                                work=10, repeat=5)
        result, _ = run(main)
        t = result.threads[0]
        assert t.instructions == 5 + 50  # 5 stores + 5x10 work

    def test_zero_count_loop_is_noop(self):
        def main(api):
            yield from api.loop(0x1000, 4, 0)
            yield from api.work(3)
        result, _ = run(main)
        assert result.runtime == 3

    def test_burst_equivalent_to_individual_ops(self):
        def burst(api):
            yield from api.loop(0x1000, 4, 16, read=True, write=True)
        def manual(api):
            for i in range(16):
                yield from api.load(0x1000 + i * 4)
                yield from api.store(0x1000 + i * 4)
        r1, _ = run(burst)
        r2, _ = run(manual)
        assert r1.runtime == r2.runtime
        assert r1.threads[0].mem_accesses == r2.threads[0].mem_accesses


class TestThreads:
    def test_spawn_join(self):
        def child(api, n):
            yield from api.work(n)
        def main(api):
            tid = yield from api.spawn(child, 100)
            yield from api.join(tid)
        result, _ = run(main)
        assert len(result.threads) == 2
        assert result.threads[1].runtime == 100

    def test_children_run_in_parallel(self):
        def child(api):
            yield from api.work(10_000)
        def main(api):
            tids = []
            for _ in range(4):
                tids.append((yield from api.spawn(child)))
            yield from api.join_all(tids)
        result, _ = run(main)
        cfg = MachineConfig()
        serial_floor = 4 * 10_000
        # Parallel execution: far below the serial sum.
        assert result.runtime < serial_floor
        assert result.runtime >= 10_000

    def test_spawn_returns_increasing_tids(self):
        def child(api):
            yield from api.work(1)
        def main(api):
            a = yield from api.spawn(child)
            b = yield from api.spawn(child)
            yield from api.join_all([a, b])
            assert (a, b) == (1, 2)
        run(main)

    def test_join_already_finished_thread(self):
        def child(api):
            yield from api.work(1)
        def main(api):
            tid = yield from api.spawn(child)
            yield from api.work(50_000)  # child surely finished
            yield from api.join(tid)
        result, _ = run(main)
        assert result.threads[1].state.value == "finished"

    def test_join_unknown_thread_raises(self):
        def main(api):
            yield from api.join(99)
        with pytest.raises(ThreadError):
            run(main)

    def test_join_self_raises(self):
        def main(api):
            yield from api.join(0)
        with pytest.raises(ThreadError):
            run(main)

    def test_main_exit_with_running_children_raises(self):
        def child(api):
            yield from api.work(1_000_000)
        def main(api):
            yield from api.spawn(child)
        with pytest.raises(ThreadError):
            run(main)

    def test_mutual_join_deadlocks(self):
        def child(api, other):
            yield from api.join(other)
        def main(api):
            a = yield from api.spawn(child, 2)  # joins b
            b = yield from api.spawn(child, 1)  # joins a
            yield from api.join(a)
        with pytest.raises(DeadlockError):
            run(main)

    def test_thread_core_binding(self):
        def child(api):
            yield from api.work(1)
        def main(api):
            tids = []
            for _ in range(4):
                tids.append((yield from api.spawn(child)))
            yield from api.join_all(tids)
        result, _ = run(main, config=MachineConfig(num_cores=2))
        cores = [result.threads[tid].core for tid in (1, 2, 3, 4)]
        assert cores == [1, 0, 1, 0]  # tid % num_cores

    def test_grandchild_spawn_supported(self):
        def leaf(api):
            yield from api.work(5)
        def middle(api):
            tid = yield from api.spawn(leaf)
            yield from api.join(tid)
        def main(api):
            tid = yield from api.spawn(middle)
            yield from api.join(tid)
        result, _ = run(main)
        assert len(result.threads) == 3
        assert not result.phases.fork_join_ok  # nested parallelism flagged


class TestSteppingLimits:
    def test_max_steps_guards_runaway_program(self):
        def main(api):
            while True:
                yield from api.work(1)
        engine = Engine(max_steps=1000)
        with pytest.raises(SimulationError):
            engine.run(main)

    @pytest.mark.parametrize("kernel", ["fused", "vector"])
    @pytest.mark.parametrize("observed", [False, True],
                             ids=["default", "observed"])
    def test_max_steps_counts_burst_iterations(self, kernel, observed):
        """Burst iterations are steps: one 10,000-iteration loop must
        trip a 1,000-step bound on every burst path."""
        def main(api):
            yield from api.loop(0x1000, 8, 10_000)

        class Quiet(Observer):
            def on_access(self, *args):
                return None

        engine = Engine(config=MachineConfig(kernel=kernel),
                        max_steps=1000,
                        observer=Quiet() if observed else None)
        with pytest.raises(SimulationError, match="max_steps=1000"):
            engine.run(main)

    def test_max_steps_allows_burst_within_bound(self):
        def main(api):
            yield from api.loop(0x1000, 8, 10_000)
        result, _ = run(main, max_steps=10_002)
        assert result.steps == 10_002


class TestMallocFree:
    def test_malloc_returns_heap_address(self):
        def main(api):
            addr = yield from api.malloc(128)
            assert addr >= 0x40000000
            yield from api.store(addr)
        run(main)

    def test_free_roundtrip(self):
        def main(api):
            addr = yield from api.malloc(64)
            yield from api.free(addr)
        result, _ = run(main)
        assert result.allocator.total_freed >= 64

    def test_callsite_captured_from_workload_frame(self):
        def main(api):
            addr = yield from api.malloc(64)
            yield from api.store(addr)
        result, _ = run(main)
        info = result.allocator.all_allocations()[0]
        assert info.callsite.startswith("test_engine.py:")

    def test_explicit_callsite_wins(self):
        def main(api):
            addr = yield from api.malloc(64, callsite="app.c:42")
            yield from api.store(addr)
        result, _ = run(main)
        assert result.allocator.all_allocations()[0].callsite == "app.c:42"


class TestObserverHook:
    def test_observer_sees_every_access_and_charges_cost(self):
        class Counting(Observer):
            cost_per_access = 10
            def __init__(self):
                self.calls = 0
            def on_access(self, *args):
                self.calls += 1
        obs = Counting()
        def main(api):
            yield from api.loop(0x1000, 4, 20, read=True, write=False)
        result, _ = run(main, observer=obs)
        assert obs.calls == 20
        plain, _ = run(main)
        assert result.runtime == plain.runtime + 20 * 10


class TestDeterminism:
    def test_identical_runs_identical_results(self):
        def child(api, base):
            yield from api.loop(base, 4, 50, read=True, write=True, work=2)
        def main(api):
            buf = yield from api.malloc(256)
            tids = []
            for i in range(4):
                tids.append((yield from api.spawn(child, buf + i * 4)))
            yield from api.join_all(tids)
        r1, _ = run(main)
        r2, _ = run(main)
        assert r1.runtime == r2.runtime
        assert (r1.machine.directory.total_invalidations()
                == r2.machine.directory.total_invalidations())


def _contended_worker(api, base, n):
    for _ in range(n):
        yield from api.loop(base, 8, 4, repeat=2, work=3)
        yield from api.update(base)


def _contended_main(api):
    buf = yield from api.malloc(64)
    tids = []
    for i in range(4):
        tids.append((yield from api.spawn(_contended_worker, buf + 8 * i, 5)))
    yield from api.join_all(tids)


class TestRunRecords:
    """Each thread's run record is its heap entry and holds its burst."""

    @staticmethod
    def _raise_step(max_steps, lean=True):
        """The step ``max_steps`` trips at on the fused kernel, or None.
        A checkpoint past the program's end leaves the schedule alone but
        keeps every quantum off the lean path."""
        import re
        engine = Engine(machine=Machine(MachineConfig(kernel="fused"),
                                        jitter_seed=3),
                        max_steps=max_steps)
        if not lean:
            engine.add_checkpoint(10 ** 12, lambda e, now: None)
        try:
            engine.run(_contended_main)
        except SimulationError as exc:
            return int(re.search(r"at step (\d+)", str(exc)).group(1))
        return None

    def test_max_steps_raises_at_the_same_step_on_the_lean_path(self):
        # Pinned before run records existed; a bound that falls inside a
        # burst settles at the burst's end (e.g. 8 trips at 16).
        assert [self._raise_step(k) for k in range(1, 349, 7)] == [
            2, 16, 16, 27, 30, 38, 44, 54, 58, 65, 72, 84, 86, 93, 103,
            114, 114, 121, 129, 135, 142, 153, 156, 169, 170, 177, 185,
            191, 198, 207, 212, 223, 226, 239, 240, 247, 261, 261, 268,
            277, 282, 293, 296, 303, 315, 317, 330, 331, 344, 345]
        assert self._raise_step(348) is None
        for k in range(1, 348):
            assert self._raise_step(k) == self._raise_step(k, lean=False), k

    @pytest.mark.parametrize("profiled", [False, True],
                             ids=["native", "profiled"])
    def test_dropped_outcome_leaves_no_thread_alive(self, profiled):
        """Records and threads point at each other until a thread
        finishes, and a profiler's handler sits on its engine's PMU;
        nothing may wait for a GC pass to free a run."""
        import gc
        from repro.run import run_workload
        from repro.runtime.thread import SimThread
        from repro.workloads import get_workload

        def alive():
            return sum(type(o) is SimThread for o in gc.get_objects())

        gc.collect()
        gc.disable()
        try:
            before = alive()
            outcome = run_workload(
                get_workload("linear_regression")(num_threads=16,
                                                  scale=0.05),
                jitter_seed=11, with_cheetah=profiled)
            assert alive() == before + 17
            del outcome
            assert alive() == before
        finally:
            gc.enable()

    def test_stale_heap_entry_caught_in_check_mode(self):
        """A checkpoint callback that moves a waiting thread's clock
        breaks the heap invariant the scheduler relies on; check mode
        reports it at that thread's next quantum."""
        from repro.errors import ValidationError
        from repro.runtime.thread import ThreadState
        corrupted = []

        def corrupt(engine, now):
            for thread in engine.threads.values():
                if thread.state is ThreadState.RUNNABLE and \
                        thread.clock > now:
                    thread.clock += 1000
                    corrupted.append(thread.tid)
                    return

        engine = Engine(machine=Machine(MachineConfig(), jitter_seed=3,
                                        check=True))
        engine.add_checkpoint(2000, corrupt)
        with pytest.raises(ValidationError) as info:
            engine.run(_contended_main)
        assert corrupted
        assert info.value.invariant == "heap-entry-clock"
