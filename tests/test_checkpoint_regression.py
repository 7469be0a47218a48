"""Regression tests for checkpoint timing (the quantum-limit bug).

``Engine.run`` bounds each scheduling quantum by the next *other*
runnable thread's clock (``limit = ready[0][0]``).  With a single
runnable thread ``ready`` is empty, the quantum was unbounded, and the
thread ran to completion without ever returning to the scheduling point
where checkpoints fire — so ``add_checkpoint`` callbacks fired
arbitrarily late or, if the program ended inside that quantum, never.
The fix caps the quantum limit at the next pending checkpoint cycle and
drains checkpoints the final quantum ran past (but never ones beyond
the program's end).
"""

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Engine, Observer
from repro.sim.machine import Machine
from repro.sim.params import MachineConfig


def quiet_engine(**kwargs):
    kwargs.setdefault("machine", Machine(MachineConfig(), timing_jitter=0))
    return Engine(**kwargs)


class TestSingleRunnableThread:
    def test_checkpoint_fires_mid_burst(self):
        # One thread, one long fused burst.  Pre-fix: the quantum is
        # unbounded, the burst runs to completion, and the checkpoint
        # fires only at whatever scheduling point comes next (or never).
        fired = []

        def main(api):
            yield from api.loop(0x1000, 4, 100, read=True, write=False,
                                work=10, repeat=50)

        engine = quiet_engine()
        engine.add_checkpoint(5_000, lambda e, now: fired.append(now))
        result = engine.run(main)
        assert result.runtime > 5_000
        assert len(fired) == 1
        # The callback must observe a clock near the requested cycle,
        # not the end of the run: one burst row (100 accesses) costs a
        # few thousand cycles at most, nowhere near the full runtime.
        assert 5_000 <= fired[0] < result.runtime

    def test_checkpoint_timing_is_tight(self):
        # Granularity bound: the callback fires at the first scheduling
        # point past the cycle, i.e. within one quantum resumption.
        fired = []

        def main(api):
            for _ in range(200):
                yield from api.work(100)

        engine = quiet_engine()
        engine.add_checkpoint(5_000, lambda e, now: fired.append(now))
        engine.run(main)
        assert fired and 5_000 <= fired[0] <= 5_200

    def test_multiple_checkpoints_all_fire_in_order(self):
        fired = []

        def main(api):
            yield from api.loop(0x2000, 4, 50, read=True, write=True,
                                work=20, repeat=40)

        engine = quiet_engine()
        for cycle in (9_000, 3_000, 6_000):
            engine.add_checkpoint(cycle,
                                  lambda e, now, c=cycle: fired.append((c, now)))
        result = engine.run(main)
        assert [c for c, _ in fired] == [3_000, 6_000, 9_000]
        assert all(now >= c for c, now in fired)
        assert all(now < result.runtime for _, now in fired)


class TestEndOfRunDrain:
    def test_checkpoint_at_exact_end_fires(self):
        # Pre-fix: a thread finishing exactly at the checkpoint cycle is
        # never re-popped from the ready heap, so the callback was
        # silently dropped.
        fired = []

        def main(api):
            yield from api.work(100)

        engine = quiet_engine()
        engine.add_checkpoint(100, lambda e, now: fired.append(now))
        result = engine.run(main)
        assert result.runtime == 100
        assert fired == [100]

    def test_checkpoint_just_before_end_fires(self):
        fired = []

        def main(api):
            yield from api.work(100)

        engine = quiet_engine()
        engine.add_checkpoint(99, lambda e, now: fired.append(now))
        engine.run(main)
        assert fired == [100]

    def test_checkpoint_beyond_end_stays_unfired(self):
        # Simulated time never reached the cycle; draining it would
        # invent a moment that does not exist in the run.
        fired = []

        def main(api):
            yield from api.work(100)

        engine = quiet_engine()
        engine.add_checkpoint(101, lambda e, now: fired.append(now))
        engine.run(main)
        assert fired == []

    def test_drain_preserves_order_and_skips_future(self):
        fired = []

        def main(api):
            yield from api.work(50)

        engine = quiet_engine()
        for cycle in (50, 40, 10**9):
            engine.add_checkpoint(cycle,
                                  lambda e, now, c=cycle: fired.append(c))
        engine.run(main)
        assert fired == [40, 50]


class TestCheckpointApi:
    def test_checkpoint_after_run_rejected(self):
        def main(api):
            yield from api.work(1)

        engine = quiet_engine()
        engine.run(main)
        with pytest.raises(SimulationError):
            engine.add_checkpoint(10, lambda e, now: None)

    def test_callback_sees_live_engine_state(self):
        # The mid-burst fix means a single worker's counters are
        # observable while the burst is still in flight (§2.4 mid-run
        # reporting depends on this).
        snapshots = []

        def main(api):
            yield from api.loop(0x3000, 4, 100, read=True, write=False,
                                work=10, repeat=50)

        engine = quiet_engine()
        engine.add_checkpoint(
            5_000,
            lambda e, now: snapshots.append(e.threads[0].mem_accesses))
        result = engine.run(main)
        assert snapshots
        assert 0 < snapshots[0] < result.threads[0].mem_accesses

    @pytest.mark.parametrize("kernel", ["fused", "vector"])
    def test_callback_counters_match_general_loop(self, kernel):
        # The default loop charges a burst's access, instruction and
        # cycle counters lazily; a checkpoint callback must still see
        # exactly what the general per-access loop shows at that point.
        from repro.pmu.sampler import PMU, PMUConfig

        class Quiet(Observer):
            def on_access(self, *args):
                return None

        def worker(api, addr):
            yield from api.loop(addr, 4, 64, read=True, write=True,
                                work=3, repeat=40)

        def main(api):
            buf = yield from api.malloc(256)
            tids = []
            for i in range(3):
                tids.append((yield from api.spawn(worker, buf + 4 * i)))
            yield from api.loop(buf + 128, 4, 32, repeat=200)
            for tid in tids:
                yield from api.join(tid)

        def snapshots(observer):
            config = MachineConfig(kernel=kernel)
            engine = Engine(config=config, machine=Machine(config),
                            pmu=PMU(PMUConfig(period=64)),
                            observer=observer)
            seen = []

            def grab(e, now):
                seen.append((now, e.machine.total_accesses,
                             e.machine.total_cycles,
                             sorted((t.tid, t.clock, t.instructions,
                                     t.mem_accesses, t.mem_cycles)
                                    for t in e.threads.values())))
            for cycle in (3_000, 20_000, 60_000):
                engine.add_checkpoint(cycle, grab)
            result = engine.run(main)
            return seen, result.steps, result.runtime

        default, observed = snapshots(None), snapshots(Quiet())
        assert len(default[0]) == 3
        assert default == observed
