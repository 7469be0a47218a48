"""The memoized timing-jitter stream (`repro.sim.machine.JitterDraws`).

Every machine on one ``(seed, jitter)`` reads the same process-wide
buffer of draws by position. These tests pin the draws to a reference
xorshift walk (across chunk boundaries, for every seed form the machine
accepts), show that sharing a stream between machines and threads
changes nothing a machine sees, and that the memo stays bounded.
"""

import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError
from repro.sim import machine as machine_mod
from repro.sim.machine import JitterDraws, Machine, jitter_stream
from repro.sim.params import MachineConfig

_MASK = 0xFFFFFFFFFFFFFFFF


def reference_draws(seed, jitter, n):
    """The first ``n`` draws, one xorshift64 step per draw."""
    state = seed or 1
    out = []
    for _ in range(n):
        state ^= (state << 13) & _MASK
        state ^= state >> 7
        state ^= (state << 17) & _MASK
        out.append(state % (jitter + 1))
    return out


def hit_latencies(m, n, addr=0x100):
    """Jitter of ``n`` private write HITs (after one warming access)."""
    hit = m.config.latency.l1_hit
    m.access(0, addr, True)
    return [m.access(0, addr, True).latency - hit for _ in range(n)]


seeds = st.one_of(st.sampled_from([0, 1, -1, 2 ** 64, 2 ** 64 + 3]),
                  st.integers(-2 ** 70, 2 ** 70))


class TestDraws:
    @given(seeds, st.integers(0, 3))
    @settings(max_examples=25, deadline=None)
    def test_match_reference_walk_across_chunks(self, seed, jitter):
        chunk = machine_mod._JITTER_CHUNK
        stream = JitterDraws(seed or 1, jitter)
        # Grow in uneven steps that straddle chunk boundaries.
        for need in (1, chunk - 1, chunk + 1, 2 * chunk + 7):
            assert stream.extend(need) >= need
        n = len(stream.draws)
        assert list(stream.draws) == reference_draws(seed, jitter, n)

    @given(seeds, st.integers(0, 3))
    @settings(max_examples=25, deadline=None)
    def test_memoized_stream_matches_reference(self, seed, jitter):
        stream = jitter_stream(seed, jitter)
        stream.extend(300)
        assert list(stream.draws[:300]) == reference_draws(seed, jitter, 300)

    def test_pinned_machine_latencies(self):
        # Jitter of draws 2..25, recorded from the per-access xorshift
        # machine this stream replaced.
        pinned = {
            (0xC0FFEE, 2): [2, 1, 0, 1, 0, 1, 0, 1, 2, 1, 1, 0,
                            2, 2, 2, 0, 1, 2, 1, 0, 2, 0, 0, 0],
            (0, 3): [1, 1, 1, 1, 1, 1, 1, 3, 2, 0, 1, 2,
                     3, 0, 3, 1, 1, 3, 0, 0, 1, 2, 1, 2],
            (-5, 3): [1, 0, 3, 1, 3, 2, 3, 2, 1, 3, 1, 2,
                      1, 3, 1, 2, 3, 0, 3, 0, 0, 0, 1, 3],
            (2 ** 64 + 3, 1): [0, 1, 1, 1, 0, 0, 1, 1, 1, 1, 1, 0,
                               0, 1, 1, 1, 1, 0, 1, 1, 0, 1, 1, 0],
        }
        for (seed, jitter), draws in pinned.items():
            m = Machine(MachineConfig(), timing_jitter=jitter,
                        jitter_seed=seed, prefetcher=False)
            assert hit_latencies(m, 24) == draws
            assert m._jitter_pos == 25

    def test_zero_and_one_share_a_stream(self):
        assert jitter_stream(0, 2) is jitter_stream(1, 2)
        assert jitter_stream(1, 2) is not jitter_stream(1, 3)

    def test_buffer_identity_never_changes(self):
        stream = JitterDraws(99, 2)
        draws = stream.draws
        stream.extend(3 * machine_mod._JITTER_CHUNK)
        assert stream.draws is draws


class TestSharing:
    def test_interleaved_machines_match_fresh_machines(self):
        seed = 0x5EED1
        alone = []
        for _ in range(2):
            m = Machine(MachineConfig(), timing_jitter=2, jitter_seed=seed)
            alone.append(hit_latencies(m, 5000))
        assert alone[0] == alone[1]
        a = Machine(MachineConfig(), timing_jitter=2, jitter_seed=seed)
        b = Machine(MachineConfig(), timing_jitter=2, jitter_seed=seed)
        assert a._jitter_stream is b._jitter_stream
        hit = a.config.latency.l1_hit
        a.access(0, 0x100, True)
        b.access(0, 0x100, True)
        seen_a, seen_b = [], []
        # b runs ahead of a, so a reads draws b has already grown.
        for i in range(5000):
            seen_b.append(b.access(0, 0x100, True).latency - hit)
            if i % 3:
                seen_b.append(b.access(0, 0x100, True).latency - hit)
            seen_a.append(a.access(0, 0x100, True).latency - hit)
        assert seen_a == alone[0]
        assert seen_b[:5000] == alone[0]

    def test_threads_extending_one_stream(self):
        stream = JitterDraws(0xBEEF, 3)
        chunk = machine_mod._JITTER_CHUNK
        steps = (chunk // 3, chunk + 17, 2 * chunk - 1, 5)
        start = threading.Barrier(len(steps))

        def grow(step):
            start.wait()
            for need in range(step, 6 * chunk, step):
                assert stream.extend(need) >= need

        workers = [threading.Thread(target=grow, args=(step,))
                   for step in steps]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        n = len(stream.draws)
        assert n >= 6 * chunk - 5
        assert list(stream.draws) == reference_draws(0xBEEF, 3, n)


class TestMemo:
    def test_memo_stays_bounded_and_keeps_recent_streams(self):
        bound = machine_mod._JITTER_STREAMS_MAX
        kept = jitter_stream(0xC0FFEE, 2)
        for seed in range(10 ** 9, 10 ** 9 + 4 * bound):
            Machine(MachineConfig(), timing_jitter=2, jitter_seed=seed)
            jitter_stream(0xC0FFEE, 2)  # keep it recently used
            assert len(machine_mod._jitter_streams) <= bound
        assert jitter_stream(0xC0FFEE, 2) is kept


class TestValidation:
    @pytest.mark.parametrize("jitter", [-1, 256, 1.5])
    def test_timing_jitter_out_of_range_rejected(self, jitter):
        with pytest.raises(ConfigError, match="timing_jitter"):
            Machine(MachineConfig(), timing_jitter=jitter)

    def test_timing_jitter_255_accepted(self):
        m = Machine(MachineConfig(), timing_jitter=255, jitter_seed=3)
        assert max(hit_latencies(m, 2000)) <= 255

    @pytest.mark.parametrize("seed", [1.5, "x", None])
    def test_non_int_seed_rejected(self, seed):
        with pytest.raises(ConfigError, match="jitter_seed"):
            Machine(MachineConfig(), jitter_seed=seed)
