"""Array-batched burst kernel: the batch planner and its plan cache.

The engine's fused burst loop pays a fixed per-access cost in Python
bytecode: probe the directory, branch on the HIT predicate, read the
next jitter draw, update the clock. The vector kernel charges a whole
*span* of provably private-HIT iterations in O(1) bookkeeping instead,
and this module holds its planning half:

- :func:`plan_span` — given a burst's position, walk the cache lines
  the upcoming iterations touch (one directory probe per *line*, not
  per access) and return how many iterations are provably private HITs
  for the accessing core. Everything inside that span is latency
  ``l1_hit + jitter draw`` with no directory mutation, so the engine
  may account it wholesale; everything at the span edge (first touch,
  coherence transition, PMU fire, quantum expiry) escapes to the
  scalar paths.
- :class:`PlanCache` — the LRU memo of whole-burst plan proofs.

The span's jitter is the sum of its draws in the machine's memoized
jitter stream (:class:`repro.sim.machine.JitterDraws`), read from the
machine's stream position, so batched and scalar accesses consume one
sequence in one global order.

Correctness is enforced end to end: the vector kernel must produce
bit-identical clocks, counters, jitter stream positions, pin tables and
PMU traps to the fused loop and the reference oracle (see
``repro validate`` and tests/test_kernel.py).
"""

from __future__ import annotations

import importlib.util
import os
from collections import OrderedDict
from typing import List, Optional, Tuple

#: Whether numpy is importable (and not disabled by ``REPRO_NO_NUMPY``).
#: Nothing computes with numpy; the flag is only reported, as
#: ``RunResult.metadata["kernel_numpy"]``.
HAVE_NUMPY = (not os.environ.get("REPRO_NO_NUMPY")
              and importlib.util.find_spec("numpy") is not None)

#: Minimum provably-HIT span worth batching; below this the fused scalar
#: loop's constant factor wins (a plan costs a few probes).
MIN_SPAN = 12

#: Directory probes one plan call may spend before giving up and letting
#: the engine batch what was found so far (bounds plan cost on huge bursts).
PLAN_PROBE_CAP = 4096


class PlanCache:
    """Bounded LRU map from burst-shape keys to directory versions.

    The engine caches whole-burst plan proofs — "every line this burst
    sweeps was private for this core at directory version V" — keyed by
    ``(core, base, stride, count, is_write)``. A proof stays valid while
    the directory version is unchanged, so a hit skips all per-line
    probing. Long multithreaded runs over many distinct burst shapes
    (e.g. per-thread heap chunks at many thread counts) used to grow the
    backing dict until it was dropped wholesale; this cache instead
    evicts the least-recently-used entry once ``cap`` is reached, so the
    hot shapes of the current phase survive a cold sweep of one-shot
    shapes.
    """

    __slots__ = ("cap", "_entries")

    def __init__(self, cap: int = 4096):
        if cap < 1:
            raise ValueError(f"PlanCache cap must be >= 1, got {cap}")
        self.cap = cap
        self._entries: "OrderedDict[Tuple, int]" = OrderedDict()

    def get(self, key: Tuple) -> Optional[int]:
        """The cached directory version for ``key`` (refreshes LRU
        recency), or ``None``."""
        entries = self._entries
        version = entries.get(key)
        if version is not None:
            entries.move_to_end(key)
        return version

    def put(self, key: Tuple, version: int) -> None:
        """Record ``key`` as proven at ``version``; evicts the
        least-recently-used entry when full."""
        entries = self._entries
        if key in entries:
            entries[key] = version
            entries.move_to_end(key)
            return
        if len(entries) >= self.cap:
            entries.popitem(last=False)
        entries[key] = version

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Tuple) -> bool:
        return key in self._entries

    def keys(self) -> List[Tuple]:
        """Keys in LRU order (least recently used first); for tests."""
        return list(self._entries)

# -- the batch planner -------------------------------------------------------


def plan_span(machine, core: int, base: int, stride: int, count: int,
              index: int, left_total: int, is_write: bool,
              probe_cap: int = PLAN_PROBE_CAP) -> int:
    """Iterations from the burst's current position that are provably
    private HITs for ``core``.

    Walks the cache lines the upcoming iterations touch, in iteration
    order, asking :meth:`Machine.line_is_private` per line — one probe
    per line, amortized over every access that lands on it. Stops at the
    first line that is absent or not privately held (the engine escapes
    to the scalar slow path there: first touch or coherence transition).
    If a whole sweep's line set verifies, every remaining repeat revisits
    exactly the same lines, so the rest of the burst is covered.

    A write iteration requires exclusive-modified ownership, which
    subsumes the read predicate, so read+write bursts plan on the write
    predicate alone.
    """
    lines_get = machine._dirlines.get
    private = machine.line_is_private
    line_shift = machine._line_shift
    if stride == 0 or count == 1:
        state = lines_get(base >> line_shift)
        if state is not None and private(core, state, is_write):
            return left_total
        return 0
    per_line = 0 < stride <= (1 << line_shift)
    covered = 0
    i = index
    probes = 0
    while covered < left_total and probes < probe_cap:
        addr = base + i * stride
        line = addr >> line_shift
        state = lines_get(line)
        if state is None or not private(core, state, is_write):
            return covered
        probes += 1
        if per_line:
            # First iteration index past this line (ceil division).
            nxt = (((line + 1) << line_shift) - base + stride - 1) // stride
            if nxt > count:
                nxt = count
        else:
            nxt = i + 1
        covered += nxt - i
        i = nxt
        if i >= count:
            i = 0
            if covered >= count:
                # Full sweep verified; later repeats revisit the same lines.
                return left_total
    if covered > left_total:
        covered = left_total
    return covered
