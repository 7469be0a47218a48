"""Simulated threads and the API workload code programs against.

A simulated thread is a Python generator created from a *thread function*
``fn(api, *args)``. The function expresses its behaviour by yielding
operations (see :mod:`repro.sim.ops`), usually through the helper
generators on :class:`ThreadAPI`::

    def worker(api, base, n):
        yield from api.loop(base, stride=4, count=n, work=2)

    def main(api):
        buf = yield from api.malloc(4096)
        tids = []
        for i in range(8):
            tid = yield from api.spawn(worker, buf + i * 512, 128)
            tids.append(tid)
        yield from api.join_all(tids)

Per-thread clocks are the simulation's RDTSC: a thread's runtime is
``end_clock - start_clock``, and the program's runtime is the main
thread's final clock.
"""

from __future__ import annotations

import enum
from typing import Any, Callable, Generator, Iterable, List, Optional

from repro.errors import SimulationError
from repro.sim.ops import (
    Barrier, Fence, Free, Join, Load, LoopAccess, Malloc, Spawn, Store, Work,
)


class ThreadState(enum.Enum):
    RUNNABLE = "runnable"
    BLOCKED = "blocked"
    FINISHED = "finished"


# Slots of a thread's run record (see :class:`SimThread`). The engine's
# scheduling loop unpacks a record in one go and spells these slots as
# literals; everything else uses the names.
(R_CLOCK, R_TID, R_THREAD, R_CORE, R_BASE, R_STRIDE, R_COUNT, R_REPEATS,
 R_WORK, R_READ, R_WRITE, R_INDEX, R_REPEAT, R_SETTLED,
 R_CLOCK_BASE) = range(15)


class SimThread:
    """One simulated thread: generator + clock + statistics.

    Attributes:
        tid: thread id (main thread is 0).
        core: core the thread is bound to (``tid % num_cores``, matching
            the paper's thread-to-core binding).
        clock: current time in cycles; advances as the thread executes.
        start_clock / end_clock: lifetime bounds (RDTSC analogues).
        instructions: instructions retired (1 per access, ``n`` per
            ``Work(n)``); this is what the PMU's sampling period counts.
        mem_accesses / mem_cycles: ground-truth totals over every access
            (the profiler never sees these — it only sees samples).
        record: the thread's *run record*, one list allocated with the
            thread and reused until it finishes. It is the thread's entry
            in the engine's min-clock heap and holds its in-flight burst
            (:class:`~repro.sim.ops.LoopAccess`) in place::

                [clock, tid, thread, core,                  # heap key, owner
                 base, stride, count, repeats, work,        # burst shape
                 read, write,
                 index, repeat, settled, clock_base]        # burst progress

            ``count == 0`` means no burst is in flight: zero-trip loops
            are dropped before :meth:`start_burst`, so an in-flight burst
            has strictly positive extents. ``index``/``repeat`` are the
            progress; ``settled`` (iterations already charged to the
            counters) and ``clock_base`` (the thread clock at that point,
            plus any PMU overhead charged since) let the engine's fused
            burst body store only the clock and the progress per quantum
            and charge the counters in one go (``Engine._settle_burst``).
            Heap order is by ``(clock, tid)``: tids are unique, so list
            comparison never reaches ``thread``. The engine sets
            ``record`` to None when the thread finishes, which frees it
            and breaks the record/thread reference cycle without
            waiting for a GC pass.

    Heap invariant: a record in the heap has ``thread.state`` RUNNABLE
    and ``record[0] == thread.clock``. Proof: the engine pushes a record
    only for a runnable thread, stamped with its current clock; the
    thread with the smallest record runs, its record taken out of the
    heap for the quantum; and only the running thread changes its own
    clock and state. Its record goes back, re-stamped, only if it is
    still runnable when the quantum ends. Other threads are touched only
    while they are out of the heap: a join or a barrier changes the
    clock and state of its waiters, which are blocked, and a spawned
    thread is new. So the scheduler needs no stale-entry checks; check
    mode asserts the invariant at every quantum start (only a foreign
    write, e.g. from a checkpoint callback, can break it).
    """

    __slots__ = (
        "tid", "name", "core", "parent_tid", "generator", "clock",
        "start_clock", "end_clock", "state", "instructions",
        "mem_accesses", "mem_cycles", "record", "pending_value",
        "join_waiters", "barrier_waits",
    )

    def __init__(self, tid: int, core: int,
                 generator: Generator[Any, Any, None],
                 start_clock: int, parent_tid: Optional[int] = None,
                 name: Optional[str] = None):
        self.tid = tid
        self.name = name or f"thread-{tid}"
        self.core = core
        self.parent_tid = parent_tid
        self.generator = generator
        self.clock = start_clock
        self.start_clock = start_clock
        self.end_clock: Optional[int] = None
        self.state = ThreadState.RUNNABLE
        self.instructions = 0
        self.mem_accesses = 0
        self.mem_cycles = 0
        self.record: Optional[List[Any]] = [
            start_clock, tid, self, core, 0, 0, 0, 0, 0, False, False,
            0, 0, 0, 0]
        self.pending_value: Any = None
        self.join_waiters: List["SimThread"] = []
        #: Cycles spent waiting at barriers (synchronisation wait time —
        #: what the paper's assessment does not model).
        self.barrier_waits = 0

    def start_burst(self, op: LoopAccess) -> None:
        """Write ``op``'s shape into the run record, with no progress,
        at the current clock.

        Zero-trip loops (``count == 0`` or ``repeat == 0``) are no-ops
        the engine drops before calling this. Extents must be strictly
        positive: the burst kernels' remaining-iteration arithmetic
        depends on it, and a negative value sneaking through the
        engine's truthiness guard would silently run the loop the wrong
        way. Enforced here, at the single choke point.
        """
        if op.count <= 0 or op.repeat <= 0:
            raise SimulationError(
                "a burst requires positive extents: "
                f"count={op.count}, repeat={op.repeat} "
                f"(zero-trip loops must be dropped before dispatch)")
        # One iteration issues a read, then a write (when enabled).
        self.record[R_BASE:] = (op.base, op.stride, op.count, op.repeat,
                                op.work, op.read, op.write, 0, 0, 0,
                                self.clock)

    @property
    def runtime(self) -> int:
        """Thread lifetime in cycles (meaningful once finished)."""
        end = self.end_clock if self.end_clock is not None else self.clock
        return end - self.start_clock

    def __repr__(self) -> str:
        return (f"SimThread(tid={self.tid}, core={self.core}, "
                f"state={self.state.value}, clock={self.clock})")


class ThreadAPI:
    """Helper generators for writing thread functions.

    All methods are sub-generators meant to be used with ``yield from``;
    they yield exactly one op and return its result. The object is
    stateless and shared by every thread.
    """

    def load(self, addr: int, size: int = 4):
        """Read ``size`` bytes at ``addr``."""
        return (yield Load(addr, size))

    def store(self, addr: int, size: int = 4):
        """Write ``size`` bytes at ``addr``."""
        return (yield Store(addr, size))

    def update(self, addr: int, size: int = 4):
        """Read-modify-write ``addr`` (a load followed by a store)."""
        yield Load(addr, size)
        yield Store(addr, size)

    def work(self, cycles: int):
        """Spin for ``cycles`` cycles of pure computation."""
        if cycles > 0:
            yield Work(cycles)

    def loop(self, base: int, stride: int, count: int, *,
             read: bool = True, write: bool = True,
             work: int = 0, repeat: int = 1):
        """Strided access loop; see :class:`repro.sim.ops.LoopAccess`."""
        yield LoopAccess(base, stride, count, read=read, write=write,
                         work=work, repeat=repeat)

    def spawn(self, fn: Callable[..., Any], *args: Any,
              name: Optional[str] = None):
        """Create a thread running ``fn(api, *args)``; returns its tid."""
        return (yield Spawn(fn, tuple(args), name))

    def join(self, tid: int):
        """Wait for thread ``tid`` to finish."""
        yield Join(tid)

    def join_all(self, tids: Iterable[int]):
        """Join every thread in ``tids`` in order."""
        for tid in tids:
            yield Join(tid)

    def malloc(self, size: int, callsite: Optional[str] = None):
        """Allocate ``size`` bytes; returns the address.

        When ``callsite`` is omitted the engine captures the workload's
        Python source location, mirroring Cheetah's callsite interception.
        """
        return (yield Malloc(size, callsite))

    def free(self, addr: int):
        """Release a heap allocation."""
        yield Free(addr)

    def fence(self):
        """Synchronisation marker (visible to observers, no timing)."""
        yield Fence()

    def barrier(self, key, parties: int):
        """Wait at barrier ``key`` until ``parties`` threads arrive."""
        yield Barrier(key, parties)
