#!/usr/bin/env python
"""Print a deterministic fingerprint of vector-kernel runs.

Each line pins one run's runtime, step, access, instruction and cycle
counts and its final jitter-stream position. CI runs this twice — once
with numpy importable and once under ``REPRO_NO_NUMPY=1`` — and diffs
the outputs: whether numpy is importable must not change any simulated
quantity.

Usage::

    PYTHONPATH=src python tools/kernel_parity.py > with-numpy.txt
    REPRO_NO_NUMPY=1 PYTHONPATH=src python tools/kernel_parity.py > pure.txt
    diff with-numpy.txt pure.txt
"""

import sys

from repro.run import run_workload
from repro.sim.params import MachineConfig
from repro.workloads import get_workload

#: (workload, threads, scale) — mixes long private bursts (the batch
#: fast path) with multithreaded sharing (scalar escapes + quantum caps).
CASES = (
    ("histogram", 1, 0.25),
    ("histogram", 4, 0.25),
    ("synthetic", 1, 5.0),
    ("linear_regression", 4, 0.1),
)


def main() -> int:
    config = MachineConfig(kernel="vector")
    for name, threads, scale in CASES:
        cls = get_workload(name)
        outcome = run_workload(cls(num_threads=threads, scale=scale),
                               machine_config=config)
        result = outcome.result
        machine = result.machine
        if result.metadata.get("kernel") != "vector":
            print(f"{name}/t{threads}: expected the vector kernel, got "
                  f"{result.metadata.get('kernel')!r}", file=sys.stderr)
            return 1
        print(f"{name}/t{threads}/s{scale}"
              f" runtime={result.runtime}"
              f" steps={result.steps}"
              f" accesses={result.total_accesses}"
              f" instructions={result.total_instructions}"
              f" cycles={machine.total_cycles}"
              f" jitter_pos={machine._jitter_pos}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
