"""``paper_sim``: regenerate Figure 4, Table 1 and the detection table.

One pass runs every cell of the three artifacts in full simulation with
no result store, in an order drawn from the seed, then reassembles the
rows in canonical order and checks each render's SHA-256 against the
reference. The artifacts' own seeds stay fixed: they are the paper's
inputs, and the accuracy figures must not move with the bench seed.
"""

from __future__ import annotations

import subprocess
import sys
import time
from typing import Any, Dict, List, Tuple

from harness import CHECKOUT, Context, Op, PassResult, rng_for, sha256_text

SCALE = 0.25
SETUP_IMPORT = ("import repro.experiments.figure4, repro.experiments.table1, "
                "repro.experiments.detection")


def cells() -> List[Tuple[str, ...]]:
    from repro.experiments import detection, table1
    from repro.workloads import FIGURE4_NAMES
    out: List[Tuple[str, ...]] = [("figure4", name) for name in FIGURE4_NAMES]
    out += [("table1", app, str(threads)) for app in table1.APPLICATIONS
            for threads in table1.THREAD_COUNTS]
    out += [("detection", name) for name in detection.default_names()]
    return out


def judge(cls, observed: str, significant: bool) -> Tuple[bool, str]:
    """``(ok, class)`` of a verdict against the declared ground truth.

    class is ``"recall"`` for significant false sharing, ``"negative"``
    for true or no sharing, ``"negligible"`` otherwise (either verdict
    is right there).
    """
    from repro.workloads import Verdict
    truth = cls.ground_truth
    if truth.verdict is Verdict.FALSE_SHARING:
        if truth.significant:
            return observed == "false sharing" and significant, "recall"
        return True, "negligible"
    return observed != "false sharing" and not significant, "negative"


class PaperSim:
    name = "paper_sim"
    setup_repeats = 3
    #: Reference-host seconds of one pass (sets the pass count).
    pass_seconds = 28.0

    def params(self) -> Dict[str, Any]:
        return {"scale": SCALE, "cells": [list(c) for c in cells()]}

    def setup(self, ctx: Context) -> Dict[str, Any]:
        """Program start-up: a fresh interpreter importing the experiment
        modules, then the cell matrix resolved against the registry."""
        subprocess.run([sys.executable, "-c", SETUP_IMPORT], check=True,
                       cwd=CHECKOUT, env=ctx.child_env(),
                       stdout=subprocess.DEVNULL)
        from repro.workloads import get_workload
        matrix = cells()
        for cell in matrix:
            get_workload(cell[1])
        return {"cells": matrix}

    def teardown(self, state: Dict[str, Any]) -> None:
        pass

    def peak_rss_mb(self, state: Dict[str, Any]) -> float:
        from harness import own_peak_rss_mb
        return own_peak_rss_mb()

    def run_pass(self, state: Dict[str, Any], ctx: Context,
                 index: int) -> PassResult:
        from repro.experiments import detection, figure4, table1
        from repro.workloads import FIGURE4_NAMES, get_workload

        order = list(state["cells"])
        rng_for(ctx.seed, self.name, index).shuffle(order)
        result = PassResult()
        fig_rows: Dict[str, Any] = {}
        t1_rows: Dict[Tuple[str, int], Any] = {}
        det_rows: Dict[str, Any] = {}
        result.start = time.perf_counter()
        for cell in order:
            kind, name = cell[0], cell[1]
            began = time.perf_counter()
            ok, note = True, ""
            with ctx.span("op.cell", op="/".join(cell)):
                with ctx.span("experiments." + kind):
                    if kind == "figure4":
                        fig_rows[name] = figure4.run(
                            scale=SCALE, names=[name]).rows[0]
                    elif kind == "table1":
                        threads = int(cell[2])
                        t1_rows[(name, threads)] = table1.run(
                            scale=SCALE, applications=[name],
                            thread_counts=[threads]).rows[0]
                    else:
                        row = detection.run(names=[name]).rows[0]
                        det_rows[name] = row
                        ok, klass = judge(get_workload(name), row.observed,
                                          row.significant)
                        if klass == "recall":
                            result.recall_total += 1
                            result.recall_hits += int(ok)
                        elif klass == "negative" and not ok:
                            result.false_positives += 1
                        note = "" if ok else f"{name} judged {row.observed}"
            result.ops.append(Op("cell", began, time.perf_counter(), ok,
                                 note))
            ctx.tick()
        result.end = time.perf_counter()

        fig = figure4.Figure4Result(rows=[fig_rows[n] for n in FIGURE4_NAMES])
        t1 = table1.Table1Result(rows=[
            t1_rows[(app, threads)] for app in table1.APPLICATIONS
            for threads in table1.THREAD_COUNTS])
        det = detection.DetectionResult(rows=[
            det_rows[name] for name in detection.default_names()])
        renders = {"figure4": fig.render(), "table1": t1.render(),
                   "detection": det.render()}
        expected = ctx.reference["paper_sim"]["render_sha256"]
        for artifact, text in renders.items():
            result.check(f"{artifact} render matches reference",
                         sha256_text(text) == expected[artifact])
        result.extra.update({
            "paper.fig4_mean_overhead_pct": (fig.average - 1.0) * 100.0,
            "paper.table1_max_err_pct": t1.worst_diff_percent,
        })
        return result

    def make_reference(self, ctx: Context) -> Dict[str, Any]:
        from repro.experiments import detection, figure4, table1
        return {"render_sha256": {
            "figure4": sha256_text(figure4.run(scale=SCALE).render()),
            "table1": sha256_text(table1.run(scale=SCALE).render()),
            "detection": sha256_text(detection.run().render()),
        }}
