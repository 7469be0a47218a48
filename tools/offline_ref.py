"""Dump a deterministic fingerprint of the offline analysis path.

Covers record -> save -> load -> replay -> profile for every workload of
the detection table, plus predicted runs of two small targets. Its
output is pinned in ``tests/data/offline_ref.json``, and
``tests/test_determinism.py::TestOfflineGolden`` fails when a change
drifts from it.

::

    PYTHONPATH=src python tools/offline_ref.py > ref.json
    diff ref.json tests/data/offline_ref.json

Only rewrite the pinned file when an output change is intended.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

from repro.experiments.detection import default_names
from repro.predict.profile import profile_from_trace
from repro.run import run_workload
from repro.sim.params import MachineConfig
from repro.trace import (load_trace, load_trace_meta, record_workload,
                         replay_outcome, save_trace)
from repro.workloads import get_workload

TRACE_SCALE = 0.1
REPLAY_PERIOD = 128
REPLAY_SEED = 7
#: (label, workload, threads or None for the default, scale).
PREDICT_TARGETS = (
    ("synthetic_64t", "synthetic", 64, 0.5),
    ("array_increment", "array_increment", None, 0.5),
)
PREDICT_JITTER_SEED = 11


def _digest(outcome) -> str:
    text = json.dumps(outcome.to_dict(), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def fingerprint_trace(name: str, directory: Path) -> dict:
    cls = get_workload(name)
    machine = (MachineConfig(**cls.machine_defaults)
               if cls.machine_defaults else None)
    recorder, meta = record_workload(cls(scale=TRACE_SCALE),
                                     machine_config=machine)
    path = directory / f"{name}.trace"
    save_trace(recorder.records, path, meta)
    meta = load_trace_meta(path)
    records = list(load_trace(path))
    line_size = (machine or MachineConfig()).cache_line_size
    return {
        "records": len(records),
        "replay_sha256": _digest(replay_outcome(records, meta)),
        "replay_sampled_sha256": _digest(replay_outcome(
            records, meta, period=REPLAY_PERIOD, seed=REPLAY_SEED)),
        "profile": profile_from_trace(
            records, scale=TRACE_SCALE, line_size=line_size).summary(),
    }


def fingerprint_predict(name: str, threads, scale: float) -> dict:
    workload = get_workload(name)(num_threads=threads, scale=scale)
    outcome = run_workload(workload,
                           machine_config=MachineConfig(mode="predict"),
                           jitter_seed=PREDICT_JITTER_SEED,
                           with_cheetah=True)
    return {
        "invalidations": outcome.invalidations,
        "runtime": outcome.runtime,
        "significant": [
            {"label": r.profile.label,
             "improvement": r.assessment.improvement,
             "invalidations": r.profile.invalidations}
            for r in outcome.report.significant
        ],
    }


def fingerprint_all() -> dict:
    """Every fingerprint this tool prints, keyed by trace / target."""
    with tempfile.TemporaryDirectory() as tmp:
        traces = {name: fingerprint_trace(name, Path(tmp))
                  for name in default_names()}
    predict = {label: fingerprint_predict(name, threads, scale)
               for label, name, threads, scale in PREDICT_TARGETS}
    return {"traces": traces, "predict": predict}


def render(out: dict) -> str:
    """The exact text the pinned reference file holds."""
    return json.dumps(out, indent=1, sort_keys=True) + "\n"


def main() -> int:
    sys.stdout.write(render(fingerprint_all()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
