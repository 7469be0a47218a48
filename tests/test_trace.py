"""Tests for trace recording, storage and offline replay."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.detection import DetectorConfig, FalseSharingDetector
from repro.run import run_workload
from repro.heap.allocator import CheetahAllocator
from repro.pmu.sample import MemorySample
from repro.sim.engine import Engine
from repro.sim.machine import Machine
from repro.sim.params import MachineConfig
from repro.symbols.table import SymbolTable
from repro.trace import (
    TraceRecord, TraceRecorder, downsample, load_trace,
    replay_into_detector, save_trace,
)
from repro.trace.storage import TraceFormatError
from repro.workloads.synthetic import SyntheticSharing


def record_run(workload, limit=None, jitter_seed=1):
    recorder = TraceRecorder(limit=limit)
    out = run_workload(workload, jitter_seed=jitter_seed,
                       observer=recorder)
    return out, recorder


class TestRecorder:
    def test_records_every_access_in_order(self):
        out, recorder = record_run(SyntheticSharing(scale=0.2))
        assert len(recorder) == out.result.total_accesses
        indices = [r.index for r in recorder]
        assert indices == sorted(indices)

    def test_zero_cost_recording_does_not_perturb(self):
        wl = SyntheticSharing(scale=0.2)
        plain = run_workload(SyntheticSharing(scale=0.2), jitter_seed=1)
        traced, _ = record_run(SyntheticSharing(scale=0.2))
        assert traced.runtime == plain.runtime

    def test_limit_truncates(self):
        out, recorder = record_run(SyntheticSharing(scale=0.2), limit=100)
        assert len(recorder) == 100
        assert recorder.truncated

    def test_costed_recorder_slows_run(self):
        wl = SyntheticSharing(scale=0.2)
        plain = run_workload(SyntheticSharing(scale=0.2), jitter_seed=1)
        recorder = TraceRecorder(cost_per_access=20)
        traced = run_workload(SyntheticSharing(scale=0.2), jitter_seed=1,
                              observer=recorder)
        assert traced.runtime > plain.runtime


class TestStorage:
    def test_roundtrip(self, tmp_path):
        out, recorder = record_run(SyntheticSharing(scale=0.15))
        path = tmp_path / "run.trace"
        written = save_trace(recorder, path)
        loaded = list(load_trace(path))
        assert written == len(loaded) == len(recorder)
        assert loaded == recorder.records
        assert all(type(r) is TraceRecord for r in loaded)

    def test_gzip_roundtrip(self, tmp_path):
        out, recorder = record_run(SyntheticSharing(scale=0.15))
        path = tmp_path / "run.trace.gz"
        save_trace(recorder, path)
        loaded = list(load_trace(path))
        assert loaded == recorder.records
        assert all(type(r) is TraceRecord for r in loaded)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_text("not a trace\n")
        with pytest.raises(TraceFormatError):
            list(load_trace(path))

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_text("#repro-trace v1\n1 2 3\n")
        with pytest.raises(TraceFormatError):
            list(load_trace(path))

    def test_non_numeric_field_rejected(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_text("#repro-trace v1\n1 2 3 zz W x 4\n")
        with pytest.raises(TraceFormatError):
            list(load_trace(path))

    @pytest.mark.parametrize("rw", ["X", "w", "r", "RW", "1"])
    def test_unknown_access_type_rejected(self, tmp_path, rw):
        """Only ``R`` and ``W`` are access types: anything else is a
        corrupt record, reported with its path and line, not a read."""
        path = tmp_path / "bad.trace"
        path.write_text("#repro-trace v1\n"
                        "0 1 1 100 R 3 4\n"
                        f"1 1 1 100 {rw} 3 4\n")
        with pytest.raises(TraceFormatError, match=f"{path}:3: .*{rw!r}"):
            list(load_trace(path))


class TestRecordTypes:
    """TraceRecord and MemorySample are plain positional records: field
    order is part of the on-disk and detector contracts."""

    RECORD_FIELDS = ("index", "tid", "core", "addr", "is_write",
                     "latency", "size")
    SAMPLE_FIELDS = ("tid", "core", "addr", "is_write", "latency", "size",
                     "timestamp")

    def test_field_order_pinned(self):
        assert TraceRecord._fields == self.RECORD_FIELDS
        assert MemorySample._fields == self.SAMPLE_FIELDS

    @pytest.mark.parametrize("kind", [TraceRecord, MemorySample])
    def test_fields_are_read_only(self, kind):
        record = kind(*range(7))
        for name in kind._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, 1)

    @pytest.mark.parametrize("kind", [TraceRecord, MemorySample])
    def test_hashable(self, kind):
        a, b = kind(*range(7)), kind(*range(7))
        assert hash(a) == hash(b)
        assert len({a, b, kind(*range(1, 8))}) == 2

    def test_positional_equals_keyword(self):
        assert TraceRecord(5, 1, 2, 0x40, True, 9, 4) == TraceRecord(
            index=5, tid=1, core=2, addr=0x40, is_write=True, latency=9,
            size=4)
        assert MemorySample(1, 2, 0x40, False, 9, 4, 77) == MemorySample(
            tid=1, core=2, addr=0x40, is_write=False, latency=9, size=4,
            timestamp=77)


class TestDownsample:
    def test_rate_approximate(self):
        records = [TraceRecord(i, 1, 1, 0x100, False, 3, 4)
                   for i in range(10_000)]
        kept = list(downsample(records, period=100))
        assert 70 <= len(kept) <= 130

    def test_period_one_keeps_everything(self):
        records = [TraceRecord(i, 1, 1, 0x100, False, 3, 4)
                   for i in range(50)]
        assert len(list(downsample(records, period=1, jitter=0.0))) == 50

    def test_invalid_period(self):
        with pytest.raises(ValueError):
            list(downsample([], period=0))

    def test_deterministic_per_seed(self):
        records = [TraceRecord(i, 1, 1, 0x100, False, 3, 4)
                   for i in range(1000)]
        a = [r.index for r in downsample(records, 50, seed=3)]
        b = [r.index for r in downsample(records, 50, seed=3)]
        assert a == b


class TestOfflineReplay:
    def test_full_trace_replay_finds_instance(self):
        # Two-round, DARWIN-style: record online, analyse offline.
        wl = SyntheticSharing(pattern="false", scale=0.4)
        out, recorder = record_run(wl)
        detector = FalseSharingDetector(
            DetectorConfig(min_invalidations=4))
        replayed = replay_into_detector(recorder, detector,
                                        serial_tids={0})
        assert replayed == len(recorder)
        profiles = detector.build_objects(out.result.allocator,
                                          out.result.symbols)
        assert profiles
        assert profiles[0].classify(0.5).value == "false sharing"

    def test_downsampled_replay_matches_online_sampling_shape(self):
        wl = SyntheticSharing(pattern="false", scale=0.4)
        out, recorder = record_run(wl)
        detector = FalseSharingDetector(
            DetectorConfig(min_invalidations=2))
        replay_into_detector(downsample(recorder, period=32),
                             detector, serial_tids={0})
        profiles = detector.build_objects(out.result.allocator,
                                          out.result.symbols)
        assert profiles  # sparse sampling still sees the hot object

    def test_replay_respects_serial_gating(self):
        records = [TraceRecord(i, 0, 0, 0x1000, True, 5, 4)
                   for i in range(10)]
        detector = FalseSharingDetector()
        replay_into_detector(records, detector, serial_tids={0})
        detail = detector.detailed_line(0x1000 >> 6)
        assert detail is not None
        assert detail.accesses == 0  # all samples were serial-gated
