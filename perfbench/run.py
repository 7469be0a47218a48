#!/usr/bin/env python3
"""The repo benchmark: one command, three workloads, checked outputs.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper_sim --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of untraced passes;
``--trace 1`` prints the per-layer metrics of a traced run (an untraced
pass, a pass with spans and counts, and a sampled-profile pass).
``--update-reference`` recomputes ``reference.json``, which the
correctness checks of every run compare against. See README.md.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it, prefixed ``perfbench:``, carries the environment stamp and the
workload-level figures.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True

from harness import (CHECKOUT, PROBE_REF_S, REFERENCE_PATH,  # noqa: E402
                     SELF_LAYERS, SELFSHARE, Calibrator, Context, Counts,
                     PassResult, StackSampler,
                     counting_accesses, env_stamp, instrumented, layer_of,
                     median, sha256_text, canonical, tail)
from spans import SpanRecorder  # noqa: E402

REFERENCE_VERSION = 1
TMP_ROOT = CHECKOUT / ".perfbench_tmp"

#: Counts that must repeat exactly between two passes of one seed.
REPEATABLE = (
    "engine.steps", "engine.threads_spawned", "sim.accesses",
    "coherence.invalidations", "pmu.samples.memory", "pmu.samples.trap",
    "pmu.threads_armed", "pmu.overhead_cycles", "detector.samples_seen",
    "detector.samples_recorded", "assessment.instances_reported",
    "workloads.instances", "trace.records", "trace.replayed_samples",
    "predict.profiled_accesses", "store.hits", "store.misses", "sink.rows",
    "daemon.submissions.accepted", "daemon.submissions.deduped",
    "daemon.jobs.done", "daemon.jobs.failed", "service.runs.hit",
    "service.runs.executed",
)
MACHINE_OUTCOMES = ("hit", "shared_clean", "coherence_read",
                    "coherence_write", "upgrade", "cold", "prefetched")
#: Counts only the program's metrics registry gives (see observed_pass).
OBSERVED = ("engine.quanta",) + tuple(f"machine.accesses.{o}"
                                      for o in MACHINE_OUTCOMES)
#: Counts of the traced pass compared with the reference, per workload
#: (those that do not depend on the bench seed).
SEED_FREE = {
    "paper_sim": REPEATABLE + OBSERVED,
    "offline_analysis": tuple(n for n in REPEATABLE
                              if n != "trace.replayed_samples") + OBSERVED,
    "serve_mixed": (),
}


def workloads() -> Dict[str, Any]:
    from offline_analysis import OfflineAnalysis
    from paper_sim import PaperSim
    from serve_mixed import ServeMixed
    return {w.name: w for w in (PaperSim(), OfflineAnalysis(), ServeMixed())}


def fingerprint(wl: Any) -> str:
    return sha256_text(canonical({"version": REFERENCE_VERSION,
                                  "workload": wl.name,
                                  "params": wl.params()}))


class StaleReference(Exception):
    pass


def load_reference(wl: Any) -> Dict[str, Any]:
    if not REFERENCE_PATH.exists():
        raise StaleReference(
            f"{REFERENCE_PATH.name} is missing; create it with "
            "'python3 perfbench/run.py --update-reference'")
    data = json.loads(REFERENCE_PATH.read_text())
    entry = data.get(wl.name)
    if entry is None or entry.get("fingerprint") != fingerprint(wl):
        raise StaleReference(
            f"{REFERENCE_PATH.name} is stale for {wl.name}: the "
            "benchmark's inputs changed since it was written; review the "
            "change, then run 'python3 perfbench/run.py --update-reference'")
    return data


# -- passes ---------------------------------------------------------------------


def set_up(wl: Any, ctx: Context, **kwargs: Any) -> Tuple[Any, float]:
    """``(state, reference-host seconds the set-up took)``."""
    began = time.perf_counter()
    state = wl.setup(ctx, **kwargs)
    ended = time.perf_counter()
    ctx.tick()
    return state, ctx.calibrator.normalize(began, ended)


def one_pass(wl: Any, state: Any, ctx: Context, index: int) -> PassResult:
    result = wl.run_pass(state, ctx, index)
    ctx.tick()
    return result


def plain_pass(wl: Any, state: Any, ctx: Context, index: int) -> PassResult:
    """One pass with no spans: only simulated accesses are counted."""
    ctx.recorder, ctx.counts = None, Counts()
    with counting_accesses(ctx):
        result = one_pass(wl, state, ctx, index)
    if not result.sim_accesses:
        result.sim_accesses = int(ctx.counts.get("sim.accesses"))
    return result


def untraced(wl: Any, ctx: Context, seconds: float
             ) -> Tuple[List[float], List[PassResult], float]:
    """Set up ``setup_repeats`` times (keeping the last), then run the
    passes that fill ``seconds`` at the workload's nominal pass time."""
    setups: List[float] = []
    state = None
    for _ in range(wl.setup_repeats):
        if state is not None:
            wl.teardown(state)
        state, spent = set_up(wl, ctx)
        setups.append(spent)
    try:
        count = max(1, round(seconds / wl.pass_seconds))
        passes = [plain_pass(wl, state, ctx, index) for index in range(count)]
        rss = wl.peak_rss_mb(state)
    finally:
        wl.teardown(state)
    return setups, passes, rss


def end_to_end(cal: Calibrator, setups: List[float],
               passes: List[PassResult], rss: float) -> Dict[str, float]:
    latencies = [cal.op_seconds(op) * 1000.0 for p in passes for op in p.ops]
    busy = sum(cal.pass_seconds(p) for p in passes)
    recall_total = sum(p.recall_total for p in passes)
    return {
        "setup_s": median(setups),
        "wall_s": median([cal.pass_seconds(p) for p in passes]),
        "ops_per_s": len(latencies) / busy,
        "op_gmean_ms": math.exp(statistics.fmean(
            math.log(value) for value in latencies)),
        "op_tail_ms": tail(latencies)[0],
        "peak_rss_mb": rss,
        "sim_accesses_per_s": sum(p.sim_accesses for p in passes) / busy,
        "detect_recall": (sum(p.recall_hits for p in passes) / recall_total
                          if recall_total else 0.0),
    }


def workload_figures(cal: Calibrator,
                     passes: List[PassResult]) -> Dict[str, Any]:
    """Per-kind latencies, accuracy and rates: the workload-level view
    printed on the ``perfbench:`` line (and as per-layer metrics)."""
    out: Dict[str, Any] = {}
    kinds = sorted({op.kind for p in passes for op in p.ops})
    for kind in kinds:
        values = [cal.op_seconds(op) * 1000.0 for p in passes for op in p.ops
                  if op.kind == kind]
        value, pct, count = tail(values)
        out[f"{kind}.p50_ms"] = median(values)
        out[f"{kind}.tail_ms"] = value
        out[f"{kind}.tail_pct"] = pct
        out[f"{kind}.samples"] = count
    for key in sorted({k for p in passes for k in p.extra}):
        out[key] = median([p.extra[key] for p in passes if key in p.extra])
    for key in sorted({k for p in passes for k in p.rates}):
        amount = sum(p.rates[key][0] for p in passes if key in p.rates)
        seconds = sum(cal.op_seconds(op) for p in passes if key in p.rates
                      for op in p.rates[key][1])
        out[key] = amount / seconds
    attempted = sum(p.attempted for p in passes)
    out["error_rate"] = sum(p.failed for p in passes) / attempted
    out["detect.false_positives"] = sum(p.false_positives for p in passes)
    jobs = sum(1 for p in passes for op in p.ops if op.kind in ("hit", "miss"))
    if jobs:
        out["serve.jobs_per_s"] = jobs / sum(cal.pass_seconds(p)
                                             for p in passes)
    return out


def raw_figures(cal: Calibrator, passes: List[PassResult]) -> Dict[str, Any]:
    """Unnormalised host seconds and the host speed, for the record."""
    probes = cal.probes
    return {
        "wall_s": median([p.end - p.start for p in passes]),
        "op_p50_ms": median([(op.end - op.start) * 1000.0
                             for p in passes for op in p.ops]),
        "host_speed": PROBE_REF_S / median(probes),
        "host_speed_range": [PROBE_REF_S / max(probes),
                             PROBE_REF_S / min(probes)],
        "probes": len(probes),
    }


def observed_pass(wl: Any, state: Any, ctx: Context, with_obs: bool
                  ) -> Tuple[PassResult, Dict[str, float], Any]:
    """Pass 0 under the layer wrappers: ``(result, counts, obs handle)``.

    ``with_obs`` also gives each in-process simulation the program's
    metrics registry (``ObsConfig(metrics=True, trace=False)``) for the
    counts only it has (quanta, accesses by coherence outcome). It
    reroutes the hot path, so no timed pass may use it.
    """
    from repro.obs import ObsConfig, aggregate_snapshots, pop_default, \
        push_default
    ctx.counts = Counts()
    handle = push_default(ObsConfig(metrics=True, trace=False)) \
        if with_obs else None
    try:
        with instrumented(ctx):
            result = one_pass(wl, state, ctx, 0)
    finally:
        if handle is not None:
            pop_default()
    values = dict(ctx.counts.values)
    if handle is not None:
        snapshot = aggregate_snapshots(
            [obs.metrics_snapshot() for obs in handle.collected])
        counters = snapshot["counters"]
        machine = counters.get("machine_accesses_total", {}) or {}
        values["engine.quanta"] = counters.get("engine_quanta_total", 0)
        for outcome in MACHINE_OUTCOMES:
            values[f"machine.accesses.{outcome}"] = machine.get(outcome, 0)
        values["detector.detailed_lines"] = snapshot["gauges"].get(
            "detector_detailed_lines", 0)
    return result, values, handle


# -- traced run -------------------------------------------------------------------


def traced(wl: Any, ctx: Context) -> Dict[str, Any]:
    """Untraced pass A, spans+counts pass B, sampled-profile pass D
    (same seed and inputs), and the per-layer metrics they give."""
    cal = ctx.calibrator
    serve = wl.name == "serve_mixed"
    kwargs = {"in_process": True} if serve else {}
    setups: List[float] = []
    checks: List[Tuple[str, bool]] = []

    state, spent = set_up(wl, ctx, **kwargs)
    setups.append(spent)
    try:
        base = plain_pass(wl, state, ctx, 0)

        # Pass B: spans and counts.
        if serve:
            wl.teardown(state)
            state, spent = set_up(wl, ctx, **kwargs)
            setups.append(spent)
        recorder = SpanRecorder(layer_of)
        ctx.recorder = recorder
        spanned, values, handle = observed_pass(wl, state, ctx,
                                                with_obs=not serve)
        ctx.recorder = None

        # Pass D: stack samples and counts.
        if serve:
            wl.teardown(state)
            state, spent = set_up(wl, ctx, **kwargs)
            setups.append(spent)
        ctx.counts = Counts()
        sampler = StackSampler()
        with instrumented(ctx), sampler.running():
            if serve:
                profiled = _serve_profiled(wl, state, ctx, sampler)
            else:
                with sampler.block():
                    profiled = one_pass(wl, state, ctx, 0)
        counts_d = ctx.counts
    finally:
        wl.teardown(state)

    for name in REPEATABLE:
        checks.append((f"{name} repeats exactly",
                       values.get(name, 0) == counts_d.get(name)))

    reference = ctx.reference[wl.name].get("counts", {})
    for name in SEED_FREE[wl.name]:
        checks.append((f"{name} equals the reference",
                       values.get(name, 0) == reference.get(name, 0)))
    checks.extend(span_checks(wl.name, recorder, values, handle, spanned))

    passes = (base, spanned, profiled)
    failures = [name for name, ok in checks if not ok]
    failures += [f for p in passes for f in p.failures()]
    self_times, roots = recorder.self_times()
    return {
        "setups": setups,
        "metrics": per_layer(cal, base, spanned, recorder, values,
                             sampler.shares()),
        "attempted": len(checks) + sum(p.attempted for p in passes),
        "failed": len(failures),
        "failures": failures,
        "info": {"selftime_sum_s": sum(self_times.values()),
                 "op_time_sum_s": roots,
                 "traced_wall_s": spanned.end - spanned.start,
                 "probe_s_in_traced_pass": cal.probe_seconds(spanned.start,
                                                             spanned.end),
                 "untraced_wall_s": base.end - base.start,
                 "raw": raw_figures(cal, [base]),
                 "spans": {name: [count, seconds] for name, (count, seconds)
                           in sorted(recorder.totals().items())},
                 "counts": {k: values[k] for k in sorted(values)}},
    }


def _serve_profiled(wl: Any, state: Any, ctx: Context,
                    sampler: StackSampler) -> PassResult:
    """Sample the daemon's threads while they run program work."""
    from http.server import BaseHTTPRequestHandler
    from repro.service import RunService
    from repro.service.sink import FindingsSink
    from spans import Patches
    with Patches() as patches:
        for owner, attr in ((RunService, "run"),
                            (FindingsSink, "record_outcome"),
                            (BaseHTTPRequestHandler, "handle")):
            patches.wrap(owner, attr, sampler.wrap)
        return wl.run_pass(state, ctx, 0)


def span_checks(name: str, recorder: SpanRecorder, values: Dict[str, float],
                handle: Any, result: PassResult) -> List[Tuple[str, bool]]:
    """Span counts against call counts taken from public outputs."""
    totals = recorder.totals()
    calls = {span: count for span, (count, _) in totals.items()}
    calls.update({span: 0 for span in SPAN_SECONDS if span not in calls})
    op_spans = sum(n for span, n in calls.items()
                   if span.startswith("op.") and span != "op.load")
    pairs = [("op spans = operations", op_spans, len(result.ops))]
    if handle is not None:
        pairs.append(("engine.run spans = observed runs",
                      calls["engine.run"], len(handle.collected)))
    if name == "offline_analysis":
        pairs += [("trace.replay spans = replays", calls["trace.replay"],
                   sum(1 for op in result.ops if op.kind == "replay")),
                  ("predict.profile spans = prefix runs",
                   calls["predict.profile"], values.get("predict.prefix_runs", 0))]
    if name == "serve_mixed":
        executed = values.get("service.runs.executed", 0)
        pairs += [
            ("service.run spans = /metrics runs", calls["service.run"],
             executed + values.get("service.runs.hit", 0)),
            ("store.get spans = hits + misses", calls["store.get"],
             values.get("store.hits", 0) + values.get("store.misses", 0)),
            ("store.put spans = executed runs", calls["store.put"], executed),
            ("engine.run spans = executed runs", calls["engine.run"],
             executed),
            ("daemon.submit spans = accepted", calls["daemon.submit"],
             values.get("daemon.submissions.accepted", 0)),
            ("sink.record spans = jobs done", calls["sink.record"],
             values.get("daemon.jobs.done", 0)),
        ]
    return [(f"{label} ({got} vs {want})", got == want)
            for label, got, want in pairs]


def queue_wait(recorder: SpanRecorder) -> float:
    """Seconds from each accepted submit to the start of its run (the
    latest submit of the same spec before the run started)."""
    submitted: Dict[Any, List[float]] = {}
    for span in recorder.spans:
        if span.name == "daemon.submit":
            submitted.setdefault(span.key, []).append(span.end)
    total = 0.0
    for span in recorder.spans:
        ends = sorted(submitted.get(span.key, ()))
        if span.name == "service.run" and ends:
            before = ends[max(0, bisect.bisect_right(ends, span.start) - 1)]
            total += span.start - before
    return total


# -- per-layer metrics ------------------------------------------------------------

#: Spans whose inclusive seconds are reported as ``<span>_s``.
SPAN_SECONDS = (
    "experiments.figure4", "experiments.table1", "experiments.detection",
    "workloads.setup", "engine.run", "profiler.finalize", "predict.profile",
    "predict.model", "trace.load", "trace.replay", "service.run",
    "store.get", "store.put", "outcome.to_dict", "outcome.from_dict",
    "daemon.submit", "daemon.result_fetch", "sink.record", "sink.query",
)
#: Counts reported under their own names.
COUNTS = (
    "workloads.instances", "engine.steps", "engine.quanta",
    "engine.threads_spawned", "coherence.invalidations",
    "pmu.samples.memory", "pmu.samples.trap", "pmu.threads_armed",
    "pmu.overhead_cycles", "detector.samples_seen",
    "detector.samples_recorded", "detector.detailed_lines",
    "assessment.instances_reported", "predict.profiled_accesses",
    "trace.records", "trace.replayed_samples", "store.hits", "store.misses",
    "store.bytes_written", "daemon.submissions.accepted",
    "daemon.submissions.deduped", "daemon.jobs.done", "daemon.jobs.failed",
    "sink.rows",
)
#: Per-layer metric -> workload-level figure of the untraced pass.
FIGURES = {
    "paper.fig4_mean_overhead_pct": "paper.fig4_mean_overhead_pct",
    "paper.table1_max_err_pct": "paper.table1_max_err_pct",
    "predict.p50_s": "predict.p50_ms",
    "predict.err_max_pct": "predict.err_max_pct",
    "trace.records_per_s": "trace.records_per_s",
    "serve.jobs_per_s": "serve.jobs_per_s",
    "serve.hit_p50_ms": "hit.p50_ms",
    "serve.hit_tail_ms": "hit.tail_ms",
    "serve.miss_p50_ms": "miss.p50_ms",
    "error_rate": "error_rate",
    "detect.false_positives": "detect.false_positives",
}


def per_layer(cal: Calibrator, base: PassResult, spanned: PassResult,
              recorder: SpanRecorder, values: Dict[str, float],
              shares: Dict[str, float]) -> Dict[str, float]:
    from offline_analysis import PREDICT_TARGETS
    # Span seconds are host seconds of pass B; scale them like its wall.
    scale = cal.pass_seconds(spanned) / (spanned.end - spanned.start)
    totals = recorder.totals()
    out: Dict[str, float] = {}
    for span in SPAN_SECONDS:
        out[f"{span}_s"] = totals.get(span, (0, 0.0))[1] * scale
    out["daemon.queue_wait_s"] = queue_wait(recorder) * scale
    for name in COUNTS:
        out[name] = values.get(name, 0)
    accesses = values.get("sim.accesses", 0)
    quanta = values.get("engine.quanta", 0)
    out["engine.accesses_per_quantum"] = accesses / quanta if quanta else 0.0
    for name in OBSERVED[1:]:
        out[name] = values.get(name, 0)
    seen_by_machine = sum(values.get(name, 0) for name in OBSERVED[1:])
    out["machine.private_hit_ratio"] = (
        values.get("machine.accesses.hit", 0) / seen_by_machine
        if seen_by_machine else 0.0)
    seen = values.get("detector.samples_seen", 0)
    out["detector.record_ratio"] = (
        values.get("detector.samples_recorded", 0) / seen if seen else 0.0)
    predicted = values.get("predict.predicted_accesses", 0)
    out["predict.profiled_fraction"] = (
        values.get("predict.profiled_accesses", 0) / predicted
        if predicted else 0.0)
    figures = workload_figures(cal, [base])
    for metric, figure in FIGURES.items():
        value = figures.get(figure, 0.0)
        out[metric] = value / 1000.0 if metric == "predict.p50_s" else value
    for label, *_ in PREDICT_TARGETS:
        for kind in ("inv", "rt"):
            key = f"predict.{kind}_err_pct.{label}"
            out[key] = figures.get(key, 0.0)
    untraced_s = cal.pass_seconds(base)
    out["trace_overhead_pct"] = (cal.pass_seconds(spanned) - untraced_s) \
        / untraced_s * 100.0
    self_times, _ = recorder.self_times()
    for layer in SELF_LAYERS:
        out[f"self_s.{layer}"] = self_times.get(layer, 0.0) * scale
    for name in SELFSHARE:
        out[f"selfshare.{name}"] = shares.get(name, 0.0)
    return out


# -- reference -------------------------------------------------------------------


def update_reference(ctx: Context) -> int:
    """Recompute every workload's reference data and deterministic counts."""
    data: Dict[str, Any] = {"env": env_stamp()}
    for wl in workloads().values():
        print(f"perfbench: computing the {wl.name} reference", flush=True)
        entry = wl.make_reference(ctx)
        entry["fingerprint"] = fingerprint(wl)
        data[wl.name] = entry
        if not SEED_FREE[wl.name]:
            continue
        ctx.reference = data
        state = wl.setup(ctx)
        try:
            result, values, _ = observed_pass(wl, state, ctx, with_obs=True)
        finally:
            wl.teardown(state)
        if result.failed:
            print(f"perfbench: {wl.name} fails against its new reference: "
                  f"{result.failures()[:5]}", file=sys.stderr)
            return 1
        entry["counts"] = {name: values.get(name, 0)
                           for name in REPEATABLE + OBSERVED}
    REFERENCE_PATH.write_text(json.dumps(data, indent=1, sort_keys=True)
                              + "\n")
    print(f"perfbench: wrote {REFERENCE_PATH.name}")
    return 0


# -- main ------------------------------------------------------------------------


def parse(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload",
                        choices=("paper_sim", "offline_analysis",
                                 "serve_mixed"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-reference", action="store_true",
                        help="recompute reference.json and exit")
    args = parser.parse_args(argv)
    if args.workload is None and not args.update_reference:
        parser.error("--workload is required")
    return args


def _terminate(signum: int, frame: Any) -> None:
    raise SystemExit(128 + signum)


def main(argv: List[str]) -> int:
    args = parse(argv)
    sys.path.insert(0, str(CHECKOUT / "src"))
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import the program from "
              f"{CHECKOUT / 'src'}: {exc}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _terminate)
    tmp = TMP_ROOT / f"run-{args.workload or 'reference'}-{args.seed}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    ctx = Context(seed=args.seed, tmp=tmp, reference={})
    try:
        if args.update_reference:
            return update_reference(ctx)
        wl = workloads()[args.workload]
        try:
            ctx.reference = load_reference(wl)
        except StaleReference as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 3
        env = env_stamp()
        ctx.calibrator = Calibrator()
        ctx.tick()
        if args.trace:
            run = traced(wl, ctx)
            setups, metrics, info = run["setups"], run["metrics"], run["info"]
            attempted, failed = run["attempted"], run["failed"]
            failures = run["failures"]
        else:
            setups, passes, rss = untraced(wl, ctx, args.seconds)
            metrics = end_to_end(ctx.calibrator, setups, passes, rss)
            attempted = sum(p.attempted for p in passes)
            failed = sum(p.failed for p in passes)
            failures = [f for p in passes for f in p.failures()]
            latencies = [ctx.calibrator.op_seconds(op) * 1000.0
                         for p in passes for op in p.ops]
            _, pct, count = tail(latencies)
            info = {"passes": len(passes),
                    "op_tail": {"percentile": pct, "samples": count},
                    "figures": workload_figures(ctx.calibrator, passes),
                    "raw": raw_figures(ctx.calibrator, passes)}
        info.update({"workload": wl.name, "seed": args.seed,
                     "trace": args.trace, "env": env,
                     "reference_env": ctx.reference.get("env"),
                     "setup_s": setups, "failures": failures[:20]})
        units = metric_units()
        print("perfbench: " + json.dumps(info, sort_keys=True), flush=True)
        print(json.dumps({
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in sorted(metrics.items())},
        }), flush=True)
        return 0 if failed == 0 else 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass


def metric_units() -> Dict[str, str]:
    spec = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["end_to_end"] + spec["per_layer"]}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
