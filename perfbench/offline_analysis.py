"""``offline_analysis``: replay stored traces and predict large targets.

Set-up records the detection table's workloads as self-describing
traces in a temporary directory. A pass loads each trace, replays it
through machine and detector twice (the full stream, and PMU-style
downsampled with a seed drawn from the bench seed), then predicts a
set of targets well above scale 1 with ``mode="predict"``.

Checks: every replay verdict against the workload's ground truth; the
full replay's machine invalidations against the recorded run's; each
prediction's invalidations and runtime against the reference. The
prediction error is taken against a full simulation stored in the
reference, never recomputed in a run.
"""

from __future__ import annotations

import shutil
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

from harness import Context, Op, PassResult, rng_for
from paper_sim import judge

TRACE_SCALE = 0.5
REPLAY_PERIOD = 128
PREDICT_JITTER_SEED = 11
#: (label, workload, threads or None for the default, target scale).
PREDICT_TARGETS: Tuple[Tuple[str, str, Any, float], ...] = (
    ("synthetic_1024t", "synthetic", 1024, 4.0),
    ("seqlock_read_mostly", "seqlock_read_mostly", None, 4.0),
    ("kmeans", "kmeans", None, 4.0),
    ("reverse_index", "reverse_index", None, 4.0),
)


def trace_names() -> List[str]:
    from repro.experiments.detection import default_names
    return default_names()


def _machine(cls):
    from repro.sim.params import MachineConfig
    return MachineConfig(**cls.machine_defaults) if cls.machine_defaults \
        else None


def record(directory: Path) -> Dict[str, Dict[str, Any]]:
    """Record every trace into ``directory``; returns per-trace facts."""
    from repro.trace import record_workload, save_trace
    from repro.workloads import get_workload
    directory.mkdir(parents=True, exist_ok=True)
    facts = {}
    for name in trace_names():
        cls = get_workload(name)
        recorder, meta = record_workload(cls(scale=TRACE_SCALE),
                                         machine_config=_machine(cls))
        path = directory / f"{name}.trace"
        records = save_trace(recorder.records, path, meta)
        facts[name] = {"path": path, "records": records}
    return facts


def predict(label: str) -> Any:
    from repro.run import run_workload
    from repro.sim.params import MachineConfig
    from repro.workloads import get_workload
    _, name, threads, scale = next(t for t in PREDICT_TARGETS
                                   if t[0] == label)
    workload = get_workload(name)(num_threads=threads, scale=scale)
    return run_workload(workload, machine_config=MachineConfig(mode="predict"),
                        jitter_seed=PREDICT_JITTER_SEED, with_cheetah=True)


def _rel_err_pct(value: float, truth: float) -> float:
    return abs(value - truth) / truth * 100.0 if truth else 0.0


class OfflineAnalysis:
    name = "offline_analysis"
    setup_repeats = 3
    #: Reference-host seconds of one pass (sets the pass count).
    pass_seconds = 9.0

    def params(self) -> Dict[str, Any]:
        return {"trace_scale": TRACE_SCALE, "period": REPLAY_PERIOD,
                "traces": trace_names(),
                "predict": [list(t) for t in PREDICT_TARGETS],
                "predict_jitter_seed": PREDICT_JITTER_SEED}

    def setup(self, ctx: Context) -> Dict[str, Any]:
        directory = ctx.fresh_dir("traces")
        return {"dir": directory, "traces": record(directory)}

    def teardown(self, state: Dict[str, Any]) -> None:
        shutil.rmtree(state["dir"], ignore_errors=True)

    def peak_rss_mb(self, state: Dict[str, Any]) -> float:
        from harness import own_peak_rss_mb
        return own_peak_rss_mb()

    def run_pass(self, state: Dict[str, Any], ctx: Context,
                 index: int) -> PassResult:
        from repro.trace import load_trace, load_trace_meta, replay_outcome
        from repro.workloads import get_workload

        ref = ctx.reference[self.name]
        rng = rng_for(ctx.seed, self.name, index)
        jobs: List[Tuple[str, str]] = (
            [("trace", name) for name in trace_names()]
            + [("predict", target[0]) for target in PREDICT_TARGETS])
        rng.shuffle(jobs)
        result = PassResult()
        full_replays: List[Op] = []
        replay_records = 0
        errors: Dict[str, float] = {}
        result.start = time.perf_counter()
        for kind, name in jobs:
            if kind == "trace":
                path = state["traces"][name]["path"]
                with ctx.span("op.load", op=name), ctx.span("trace.load"):
                    meta = load_trace_meta(path)
                    records = list(load_trace(path))
                cls = get_workload(name)
                for period in (None, REPLAY_PERIOD):
                    began = time.perf_counter()
                    with ctx.span("op.replay", op=f"{name}/{period}"):
                        with ctx.span("trace.replay"):
                            outcome = replay_outcome(
                                records, meta, period=period,
                                seed=rng.randrange(1, 2 ** 31))
                    op = Op("replay", began, time.perf_counter(), True)
                    md = outcome.result.metadata
                    ok, klass = judge(cls, md["verdict"],
                                      md["verdict"] == "false sharing")
                    if klass == "recall":
                        result.recall_total += 1
                        result.recall_hits += int(ok)
                    elif klass == "negative" and not ok:
                        result.false_positives += 1
                    note = "" if ok else f"{name} replayed as {md['verdict']}"
                    if period is None:
                        want = ref["traces"][name]["recorded_invalidations"]
                        if md["machine_invalidations"] != want:
                            ok = False
                            note = (f"{name} replay invalidations "
                                    f"{md['machine_invalidations']} != "
                                    f"recorded {want}")
                        replay_records += md["trace_records"]
                        full_replays.append(op)
                        ctx.count("trace.records", md["trace_records"])
                    ctx.count("trace.replayed_samples",
                              md["replayed_samples"])
                    op.ok, op.note = ok, note
                    result.ops.append(op)
                del records  # one trace in memory at a time
            else:
                began = time.perf_counter()
                with ctx.span("op.predict", op=name):
                    outcome = predict(name)
                ended = time.perf_counter()
                want = ref["predict"][name]
                got = {"invalidations": outcome.invalidations,
                       "runtime": outcome.runtime,
                       "significant": bool(outcome.report.significant)}
                ok = all(got[k] == want[k] for k in got)
                note = "" if ok else f"{name} predicted {got}, reference {want}"
                profiled = outcome.result.metadata["profile"][
                    "profiled_accesses"]
                ctx.count("predict.profiled_accesses", profiled)
                ctx.count("predict.prefix_runs", len(
                    outcome.result.metadata["profile"]["prefix_scales"]))
                ctx.count("predict.predicted_accesses",
                          outcome.result.total_accesses)
                errors[f"predict.inv_err_pct.{name}"] = _rel_err_pct(
                    outcome.invalidations, want["true_invalidations"])
                errors[f"predict.rt_err_pct.{name}"] = _rel_err_pct(
                    outcome.runtime, want["true_runtime"])
                result.ops.append(Op("predict", began, ended, ok, note))
            ctx.tick()
        result.end = time.perf_counter()
        result.extra.update(errors)
        result.extra["predict.err_max_pct"] = max(errors.values())
        result.rates["trace.records_per_s"] = (replay_records, full_replays)
        return result

    def make_reference(self, ctx: Context) -> Dict[str, Any]:
        """Recorded-run invalidations per trace; predicted counts and a
        full simulation of every predict target (the slow part)."""
        import repro.trace.record as trace_record
        from repro.run import run_workload
        from repro.workloads import get_workload

        recorded: Dict[str, int] = {}
        original = trace_record.run_workload

        def capture(workload, **kwargs):
            outcome = original(workload, **kwargs)
            recorded[workload.name] = outcome.invalidations
            return outcome

        trace_record.run_workload = capture
        try:
            record(ctx.fresh_dir("reference-traces"))
        finally:
            trace_record.run_workload = original
        predicted = {}
        for label, name, threads, scale in PREDICT_TARGETS:
            outcome = predict(label)
            truth = run_workload(
                get_workload(name)(num_threads=threads, scale=scale),
                jitter_seed=PREDICT_JITTER_SEED, with_cheetah=True)
            predicted[label] = {
                "invalidations": outcome.invalidations,
                "runtime": outcome.runtime,
                "significant": bool(outcome.report.significant),
                "true_invalidations": truth.invalidations,
                "true_runtime": truth.runtime,
                "true_significant": bool(truth.report.significant),
            }
        return {"traces": {name: {"recorded_invalidations": inv}
                           for name, inv in recorded.items()},
                "predict": predicted}
