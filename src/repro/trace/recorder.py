"""Recording full access traces from a simulation."""

from __future__ import annotations

from typing import List, NamedTuple, Optional

from repro.sim.engine import Observer


class TraceRecord(NamedTuple):
    """One recorded memory access.

    A tuple: immutable, hashable and cheap to build positionally, which
    matters because a trace holds one record per simulated access.
    """

    index: int  # global access sequence number (interleaving order)
    tid: int
    core: int
    addr: int
    is_write: bool
    latency: int
    size: int


class TraceRecorder(Observer):
    """Engine observer that records every access in interleaving order.

    ``cost_per_access`` defaults to zero so that recording does not
    perturb the timing of the traced run (a "magic" tracer); set it to a
    positive value to model a real tracing tool's overhead.

    ``limit`` bounds memory use; recording stops silently once reached
    (``truncated`` tells you whether it did).
    """

    def __init__(self, cost_per_access: int = 0,
                 limit: Optional[int] = None):
        self.cost_per_access = cost_per_access
        self.limit = limit
        self.records: List[TraceRecord] = []
        self.truncated = False
        self._counter = 0

    def on_access(self, tid: int, core: int, addr: int, is_write: bool,
                  latency: int, size: int, line: int) -> None:
        index = self._counter
        self._counter += 1
        if self.limit is not None and len(self.records) >= self.limit:
            self.truncated = True
            return
        self.records.append(TraceRecord(
            index, tid, core, addr, is_write, latency, size))

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)
