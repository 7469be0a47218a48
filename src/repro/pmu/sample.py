"""The record a PMU sample delivers to the profiler.

For each sample "the PMU distinguishes whether it is a memory read or
write, captures the memory address, and records the thread ID that
triggered the sample" (Section 2.1), plus the access latency in cycles
(Observation 2, Section 3) — exactly the fields carried here.
"""

from __future__ import annotations

from typing import NamedTuple


class MemorySample(NamedTuple):
    """One sampled memory access.

    A tuple: immutable, hashable and cheap to build positionally, which
    matters on the replay and predict paths that build one per access.

    Attributes:
        tid: id of the thread that triggered the sample (samples are
            delivered to the triggering thread, as Cheetah configures via
            ``F_SETOWN_EX``).
        core: core the thread runs on.
        addr: sampled memory address.
        is_write: True for stores, False for loads.
        latency: access latency in cycles, as measured by the PMU.
        size: access width in bytes.
        timestamp: the thread's clock when the sample fired.
    """

    tid: int
    core: int
    addr: int
    is_write: bool
    latency: int
    size: int
    timestamp: int
