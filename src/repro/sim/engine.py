"""Discrete-event engine: interleaves simulated threads by clock.

The engine implements the standard min-clock discipline: the thread with
the smallest clock always executes next, and it keeps executing until its
clock passes the next-smallest thread's clock (or it blocks/finishes).
This yields an exact interleaving of memory accesses across cores — the
property the cache-invalidation counts, and therefore the whole
false-sharing phenomenon, depend on. Under contention that makes most
scheduling quanta one or two accesses long, so :meth:`Engine.run` is a
single loop with the fused burst body inlined; the general per-access
loop (:meth:`Engine._run_burst_observed`) serves every run that must see
each access, and is the reference the fused body matches bit for bit.

The scheduler's heap holds run records, not threads: one mutable list
per thread (:attr:`SimThread.record`), reused until the thread
finishes::

    [clock, tid, thread, core,
     base, stride, count, repeats, work, read, write,   # burst shape
     index, repeat, settled, clock_base]                # burst progress

ordered by ``(clock, tid)``. A ``LoopAccess`` op writes its shape into
the record in place (``count == 0``: no burst in flight). The running
thread's record is out of the heap for its quantum, so the limit is the
heap root's clock, and a paused burst hands off with one
``heapq.heappushpop``: the record is re-seated and the next one taken
in a single heap operation. No entry is ever stale: a record is pushed
only for a runnable thread with its current clock, and only the running
thread changes its own clock or state (joins and barriers change
waiters, which are blocked and out of the heap); see :class:`SimThread`.
Check mode asserts this at every quantum start. A finished thread drops
its record, which breaks the record/thread reference cycle.

The engine is also where cross-cutting instrumentation hooks in:

- an optional :class:`~repro.pmu.sampler.PMU` sees every access and every
  instruction batch, fires samples and charges sampling overhead;
- an optional *observer* (used by the Predator-style baseline) sees every
  access and charges a per-access instrumentation cost;
- the :class:`~repro.runtime.phases.PhaseTracker` is notified of every
  spawn and join so serial/parallel phases are known at all times.
"""

from __future__ import annotations

import heapq
import itertools
import os.path
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.errors import DeadlockError, SimulationError, ThreadError, \
    ValidationError
from repro.heap.allocator import CheetahAllocator
from repro.runtime.phases import PhaseTracker
from repro.runtime.thread import (
    R_COUNT, R_CLOCK_BASE, R_INDEX, R_REPEAT, R_SETTLED, SimThread, ThreadAPI,
    ThreadState,
)
from repro.sim import coherence, kernel as vector_kernel
from repro.sim.machine import Machine
from repro.sim.ops import (
    Barrier, Fence, Free, Join, Load, LoopAccess, Malloc, Op, Spawn, Store,
    Work,
)
from repro.sim.params import MachineConfig
from repro.symbols.table import SymbolTable

_INFINITY = float("inf")
_CALLSITE_DEPTH = 5  # the paper collects five call-stack entries
# Adaptive vector-kernel throttles (pure perf policy — both kernels are
# bit-identical, so switching mid-run cannot change any output). A thread
# whose bursts fail to batch this many consecutive resumes stops planning
# for the rest of the run; a single call that hits this many consecutive
# scalar escapes stops replanning and hands its quantum to the fused body.
_VECTOR_ADAPT = 64
_VECTOR_ESCAPE_RUN = 24
# Entries kept in the whole-burst plan cache (LRU-evicted beyond this;
# bounds memory on programs with many distinct burst shapes).
_PLAN_CACHE_MAX = 4096
# Simulation steps between opportunistic sweeps of the machine's coherence
# pin table (Machine.prune_pins); bounds an otherwise unbounded dict.
_PIN_PRUNE_INTERVAL = 8192


class Observer:
    """Interface for tools that see every simulated memory access
    (Predator/Sheriff baselines, trace recorders, the obs Tracer).

    ``cost_per_access`` cycles are charged to the accessing thread for
    every access — the flat instrumentation overhead the paper's
    Section 4.2.3 comparison is about.
    """

    cost_per_access: int = 0

    def on_access(self, tid: int, core: int, addr: int, is_write: bool,
                  latency: int, size: int, line: int) -> Optional[int]:
        """Called once per access, after the machine resolved it.

        Arguments match the engine's dispatch exactly: ``tid``/``core``
        identify the accessing thread, ``addr`` and ``size`` the access,
        ``latency`` the cycles the machine charged, and ``line`` the
        cache line index (``addr >> line_shift``). The access has already
        been applied to the machine and the thread's clock when this
        fires. May return an ``int`` of *extra* cycles to charge for this
        particular access (page-fault-driven tools like Sheriff charge
        selectively); ``None`` or ``0`` charges nothing beyond
        ``cost_per_access``.
        """
        raise NotImplementedError

    def on_thread_start(self, tid: int) -> None:
        """Called once per created thread (including main, ``tid`` 0),
        after the PMU (if any) armed it and charged its setup cost.
        Returns nothing; it cannot charge cycles.
        """


@dataclass
class RunResult:
    """Everything a finished simulation exposes.

    ``runtime`` is the main thread's final clock — the program's
    wall-clock time in cycles. Per-thread objects carry their own clocks
    and ground-truth access statistics; ``machine`` retains the coherence
    directory with ground-truth invalidation counts.
    """

    runtime: int
    threads: Dict[int, SimThread]
    phases: PhaseTracker
    machine: Machine
    allocator: CheetahAllocator
    symbols: SymbolTable
    steps: int
    return_value: Any = None
    metadata: Dict[str, Any] = field(default_factory=dict)

    @property
    def total_instructions(self) -> int:
        return sum(t.instructions for t in self.threads.values())

    @property
    def total_accesses(self) -> int:
        return sum(t.mem_accesses for t in self.threads.values())

    def thread_runtime(self, tid: int) -> int:
        return self.threads[tid].runtime


class Engine:
    """Runs one simulated program to completion."""

    def __init__(self, config: Optional[MachineConfig] = None,
                 machine: Optional[Machine] = None,
                 allocator: Optional[CheetahAllocator] = None,
                 symbols: Optional[SymbolTable] = None,
                 pmu: Optional[Any] = None,
                 observer: Optional[Observer] = None,
                 obs: Optional[Any] = None,
                 max_steps: int = 200_000_000):
        self.config = config or (machine.config if machine else MachineConfig())
        self.machine = machine or Machine(self.config)
        self.allocator = allocator or CheetahAllocator(
            line_size=self.config.cache_line_size)
        self.symbols = symbols or SymbolTable()
        self.pmu = pmu
        self.observer = observer
        # Observability (repro.obs): wired via obs.wire(self), which sets
        # this attribute back and installs the machine/PMU-side hooks.
        self.obs = None
        if obs is not None:
            obs.wire(self)
        self.phase_tracker = PhaseTracker()
        self.api = ThreadAPI()
        self.threads: Dict[int, SimThread] = {}
        self._tid_counter = itertools.count()
        self._max_steps = max_steps
        self._steps = 0
        self._ran = False
        # Burst kernel selection (resolved per-run in _resolve_kernel).
        self._kernel_variant = "fused"
        # Per-thread consecutive no-batch counter for the adaptive
        # vector-kernel opt-out (see _run_burst_vector).
        self._vector_miss: Dict[int, int] = {}
        # Whole-burst plan proofs keyed by (core, base, stride, count,
        # write), valid while the directory version is unchanged.
        # LRU-bounded so long runs over many burst shapes stay flat.
        self._plan_cache = vector_kernel.PlanCache(_PLAN_CACHE_MAX)
        # (cycle, callback) checkpoints, fired once when simulated time
        # first passes the cycle — the "interrupted by the user" hook the
        # paper's mid-run reporting needs (Section 2.4).
        self._checkpoints: List[tuple] = []
        # key -> threads currently waiting at that barrier.
        self._barriers: Dict[Any, List[SimThread]] = {}

    def add_checkpoint(self, cycle: int,
                       callback: Callable[["Engine", int], None]) -> None:
        """Invoke ``callback(engine, now)`` when simulated time passes
        ``cycle``. Must be registered before :meth:`run`."""
        if self._ran:
            raise SimulationError("checkpoints must be added before run()")
        self._checkpoints.append((cycle, callback))
        self._checkpoints.sort(key=lambda pair: pair[0])

    # -- program execution ---------------------------------------------------

    def run(self, main_fn: Callable[..., Any], *args: Any) -> RunResult:
        """Run ``main_fn(api, *args)`` as the main thread until completion."""
        if self._ran:
            raise SimulationError("an Engine instance can only run once")
        self._ran = True

        main = self._create_thread(main_fn, args, parent=None, start_clock=0,
                                   name="main")
        threads = self.threads
        # ``rec`` is the run record (see SimThread.record) of the thread
        # whose quantum runs; it is out of the heap meanwhile. ``ready``
        # holds every other runnable thread's record, ordered by (clock,
        # tid), above two sentinel records at +inf, so the quantum limit
        # (the next-smallest clock) is always ``ready[0][0]``.
        rec = main.record
        rec[0] = main.clock
        ready: List[list] = [[_INFINITY, -2, None] + [0] * 12,
                             [_INFINITY, -1, None] + [0] * 12]

        # One loop runs every scheduling quantum, one op-loop turn per
        # pass. Under contention a quantum is one or two accesses, so the
        # per-quantum cost — heap traffic, calls, the burst's set-up and
        # flush — is most of the simulator's host time. Everything is
        # hoisted into locals, the fused burst body runs inline, the
        # generator's ops are dispatched here, and the step and
        # pin-prune counters live in locals (``self._steps`` is synced
        # only around calls that may read or advance it). Record slots
        # are spelled as literals (``rec[11]`` is ``R_INDEX``): a global
        # lookup per quantum costs more than the name buys.
        heappush = heapq.heappush
        heappop = heapq.heappop
        heappushpop = heapq.heappushpop
        checkpoints = self._checkpoints
        machine = self.machine
        sanitizer = machine.sanitizer
        obs = self.obs
        pmu = self.pmu
        runnable = ThreadState.RUNNABLE
        max_steps = self._max_steps
        dispatch = self._dispatch
        access = self._access
        access_tuple = machine.access_tuple
        settle = self._settle_burst
        word = self.config.word_size
        vector, general = self._resolve_kernel()
        # Machine fast-path constants for the inline burst body. The
        # jitter draws are read by position; ``jn`` is a lower bound on
        # the stream's length, refreshed only when a read reaches it
        # (the machine's slow path and other machines on the same seed
        # may have grown the stream since). The stream position lives
        # in ``jp`` for the whole run: it is written to
        # ``machine._jitter_pos`` before every call that may access the
        # machine (its slow path, Load/Store, the burst runners,
        # checkpoint callbacks), read back after, and written at the
        # end.
        lines_get, line_shift, hit_cost, jitter, jstream = \
            machine._fast_state
        jd = jstream.draws
        jn = len(jd)
        jp = machine._jitter_pos
        countdown = pmu._countdown if pmu is not None else None
        # The vector kernel is only worth a call when the quantum has
        # room for a minimal batched span of single-access iterations.
        vector_room = (vector_kernel.MIN_SPAN * (hit_cost + jitter)
                       if vector is not None else _INFINITY)
        steps = 0
        next_prune = _PIN_PRUNE_INTERVAL
        # A quantum takes the lean path while ``steps`` is below this:
        # no pin prune or max_steps raise is due and no checkpoint is
        # pending. -1 while checkpoints remain or ``general`` runs the
        # bursts.
        lean_steps = (min(next_prune, max_steps)
                      if general is None and not checkpoints else -1)
        carry = False  # the running quantum goes on for another turn
        woken: List[SimThread] = []

        while True:
            if carry:
                carry = done = False
            else:
                # -- a new quantum: run ``thread`` until its clock passes
                # ``limit`` or it yields control (block/finish). The
                # clock starts at or below ``limit``: it is the heap
                # minimum, and every checkpoint at or below it has
                # fired. --
                (clock, tid, thread, core, base, stride, count, repeats,
                 work, do_read, do_write, index, repeat, settled,
                 clock_base) = rec
                limit = ready[0][0]
                if count and steps < lean_steps and \
                        limit - clock < vector_room:
                    # Lean path: the thread is mid-burst and nothing is
                    # due at the boundary, so the turn goes straight to
                    # the fused body (whose first step cannot reach
                    # max_steps).
                    done = None
                else:
                    if thread is None:
                        break  # only the sentinels are left
                    if sanitizer is not None:
                        # The heap invariant (see SimThread) rules out
                        # stale entries; check mode asserts it.
                        sanitizer.check_heap_root(thread, clock)
                    if checkpoints:
                        if clock >= checkpoints[0][0]:
                            if general is None:
                                # Callbacks see every counter up to date.
                                for other in threads.values():
                                    orec = other.record
                                    if orec is not None and orec[6]:
                                        steps += settle(orec)
                                settled = rec[13]
                                clock_base = rec[14]
                            self._steps = steps
                            machine._jitter_pos = jp
                            while checkpoints and \
                                    clock >= checkpoints[0][0]:
                                _, callback = checkpoints.pop(0)
                                callback(self, clock)
                            jp = machine._jitter_pos
                        # A pending checkpoint also bounds the quantum:
                        # with a single runnable thread the limit is
                        # +inf, and an unbounded quantum would sail past
                        # every registered checkpoint (the callbacks
                        # would fire arbitrarily late, or never if the
                        # program ends first — the paper's Section 2.4
                        # mid-run hook must not drop).
                        if checkpoints:
                            if checkpoints[0][0] < limit:
                                limit = checkpoints[0][0]
                        elif general is None:
                            lean_steps = min(next_prune, max_steps)
                    if steps >= next_prune:
                        # ``clock`` is the scheduler's global minimum: no
                        # future access can happen earlier, so entries
                        # pinned at or before it are dead and can be
                        # dropped (bounds the pin table on long runs over
                        # many contended lines).
                        machine.prune_pins(clock)
                        next_prune = steps + _PIN_PRUNE_INTERVAL
                        if lean_steps >= 0:
                            lean_steps = min(next_prune, max_steps)
                    if steps >= max_steps:
                        self._steps = steps + 1
                        self._raise_max_steps()
                    done = False  # a burst's runner is still to pick
                steps += 1

            # -- one turn: the in-flight burst, if any, then (once no
            # burst is in flight) the next op. The turn's step is
            # counted above. --
            if count:
                if done is not None:
                    # Pick the runner: ``general`` (runs every burst),
                    # the vector kernel (when the quantum has room for
                    # it), or the fused body (``done`` None).
                    if general is not None:
                        self._steps = steps
                        machine._jitter_pos = jp
                        done = general(rec, limit)
                        jp = machine._jitter_pos
                        steps = self._steps
                    elif vector is not None and \
                            limit - thread.clock >= vector_room:
                        # The vector kernel keeps its own counters; when
                        # it cannot batch (None) the fused body below
                        # runs on from the progress it saved.
                        steps += settle(rec)
                        self._steps = steps
                        machine._jitter_pos = jp
                        done = vector(rec, limit)
                        jp = machine._jitter_pos
                        steps = self._steps
                        if not done:
                            index = rec[11]
                            repeat = rec[12]
                            settled = rec[13] = repeat * count + index
                            clock_base = rec[14] = thread.clock
                    else:
                        done = None
                if done is None:
                    # -- fused burst body: the private-HIT check, jitter,
                    # clock and PMU countdown over plain locals,
                    # consuming the jitter stream and the countdown in
                    # exactly the order of the general loop, so outputs
                    # are bit-identical. Only the clock, progress and
                    # countdown are stored per quantum; the access,
                    # instruction and cycle counters follow from them and
                    # are charged when the burst ends (or by ``settle``
                    # before anything else looks at them). --
                    tclock = thread.clock
                    if pmu is not None:
                        cd = countdown[tid]
                    while tclock <= limit:
                        if index >= count:
                            if repeat + 1 >= repeats:
                                done = True
                                break
                            index = 0
                            repeat += 1
                        addr = base + index * stride
                        line = addr >> line_shift
                        # One probe covers the read and the write:
                        # LineState objects are mutated in place, never
                        # replaced (only a first-touch slow path creates
                        # one, after which we re-probe).
                        state = lines_get(line)
                        if do_read:
                            if state is not None and core in state.holders:
                                if jitter:
                                    if jp >= jn:
                                        jn = jstream.extend(jp + 1)
                                    latency = hit_cost + jd[jp]
                                    jp += 1
                                else:
                                    latency = hit_cost
                            else:
                                # Slow path: full MESI, prefetch and pin
                                # path. The machine counts the access
                                # itself and the settle counts every
                                # access: take it back.
                                machine._jitter_pos = jp
                                latency = access_tuple(
                                    core, addr, False, tclock)[0]
                                jp = machine._jitter_pos
                                machine.total_accesses -= 1
                                machine.total_cycles -= latency
                                if state is None:
                                    state = lines_get(line)
                            tclock += latency
                            if pmu is not None:
                                if cd > 1:
                                    cd -= 1
                                else:
                                    countdown[tid] = cd
                                    extra = pmu.on_access(
                                        tid, core, addr, False, latency,
                                        word, tclock)
                                    if extra:
                                        tclock += extra
                                        clock_base += extra
                                    cd = countdown[tid]
                        if do_write:
                            if state is not None and \
                                    state.dirty_owner == core:
                                if jitter:
                                    if jp >= jn:
                                        jn = jstream.extend(jp + 1)
                                    latency = hit_cost + jd[jp]
                                    jp += 1
                                else:
                                    latency = hit_cost
                            else:
                                machine._jitter_pos = jp
                                latency = access_tuple(
                                    core, addr, True, tclock)[0]
                                jp = machine._jitter_pos
                                machine.total_accesses -= 1
                                machine.total_cycles -= latency
                                if state is None:
                                    state = lines_get(line)
                            tclock += latency
                            if pmu is not None:
                                if cd > 1:
                                    cd -= 1
                                else:
                                    countdown[tid] = cd
                                    extra = pmu.on_access(
                                        tid, core, addr, True, latency,
                                        word, tclock)
                                    if extra:
                                        tclock += extra
                                        clock_base += extra
                                    cd = countdown[tid]
                        if work:
                            tclock += work
                            if pmu is not None:
                                if cd > work:
                                    cd -= work
                                else:
                                    countdown[tid] = cd
                                    extra = pmu.on_work(tid, work, tclock)
                                    if extra:
                                        tclock += extra
                                        clock_base += extra
                                    cd = countdown[tid]
                        index += 1
                    else:
                        # Completed exactly at the boundary?
                        done = index >= count and repeat + 1 >= repeats
                    thread.clock = tclock
                    if pmu is not None:
                        countdown[tid] = cd
                        rec[14] = clock_base
                    if not done:
                        # Paused at the limit: the thread stays runnable.
                        rec[11] = index
                        rec[12] = repeat
                        if not woken and obs is None:
                            # In-place hand-off: re-seat the record and
                            # take the next one in one heap operation.
                            rec[0] = tclock
                            rec = heappushpop(ready, rec)
                            continue
                    else:
                        # Settle: every iteration issues the same
                        # accesses and work, so the counters follow from
                        # the iterations since the last settle and the
                        # clock's advance since ``clock_base`` (which
                        # absorbed the PMU overhead).
                        iters = repeats * count - settled
                        accesses = (do_read + do_write) * iters
                        cycles = tclock - clock_base - work * iters
                        thread.instructions += accesses + work * iters
                        thread.mem_accesses += accesses
                        thread.mem_cycles += cycles
                        machine.total_accesses += accesses
                        machine.total_cycles += cycles
                        steps += iters
                        rec[6] = 0
                if done:
                    count = 0
                    if steps > max_steps:
                        self._steps = steps
                        self._raise_max_steps()
                    thread.pending_value = None
            if not count:
                try:
                    op = thread.generator.send(thread.pending_value)
                except StopIteration:
                    woken.extend(self._finish_thread(thread))
                    if thread.parent_tid is None:
                        self._check_leaked_threads(thread)
                else:
                    thread.pending_value = None
                    kind = type(op)
                    if kind is LoopAccess:
                        if op.count and op.repeat:
                            thread.start_burst(op)
                            (_, _, _, _, base, stride, count, repeats, work,
                             do_read, do_write, index, repeat, settled,
                             clock_base) = rec
                    elif kind is Load or kind is Store:
                        machine._jitter_pos = jp
                        access(thread, op.addr, kind is Store, op.size)
                        jp = machine._jitter_pos
                    elif not dispatch(thread, op, woken):
                        limit = -1  # blocked: the quantum is over
                    if thread.clock <= limit:
                        if steps >= max_steps:
                            self._steps = steps + 1
                            self._raise_max_steps()
                        steps += 1
                        carry = True
                        continue

            # -- the quantum is over: re-seat the record (or drop it if
            # the thread blocked or finished) and take the next one. --
            if woken:
                for other in woken:
                    other.record[0] = other.clock
                    heappush(ready, other.record)
                woken.clear()
            if sanitizer is not None:
                sanitizer.note_quantum(thread)
            if obs is not None:
                # ``clock`` is the quantum's start (the popped value).
                obs.note_quantum(thread, clock)
            if thread.state is runnable:
                rec[0] = thread.clock
                rec = heappushpop(ready, rec)
            else:
                rec = heappop(ready)
        self._steps = steps
        machine._jitter_pos = jp

        unfinished = [t for t in threads.values()
                      if t.state is not ThreadState.FINISHED]
        if unfinished:
            blocked = ", ".join(repr(t) for t in unfinished)
            raise DeadlockError(f"threads never finished: {blocked}")
        if main.end_clock is None:
            raise SimulationError("main thread has no end clock")

        # Drain checkpoints the final quantum ran past: a thread that
        # finishes exactly at (or just beyond) a checkpoint cycle is
        # never re-popped, so its pending callbacks would be silently
        # dropped. Checkpoints beyond the program's end stay unfired —
        # simulated time never passed them.
        while checkpoints and checkpoints[0][0] <= main.end_clock:
            _, callback = checkpoints.pop(0)
            callback(self, main.end_clock)

        if sanitizer is not None and self.pmu is not None:
            sanitizer.check_pmu(self.pmu)

        self.phase_tracker.finish(main.end_clock)
        return RunResult(
            runtime=main.end_clock,
            threads=dict(threads),
            phases=self.phase_tracker,
            machine=self.machine,
            allocator=self.allocator,
            symbols=self.symbols,
            steps=self._steps,
            metadata={"kernel": self._kernel_variant,
                      "kernel_numpy": vector_kernel.HAVE_NUMPY},
        )

    def _settle_burst(self, rec: list) -> int:
        """Charge the fused body's iterations since the last settle of
        the burst in run record ``rec`` to the thread's and the machine's
        counters, and mark them charged; returns how many there were
        (simulation steps).

        Every iteration issues the same accesses and work, so the access
        and instruction counts follow from the progress alone, and the
        access cycles from the clock: its advance since the record's
        ``clock_base`` (which absorbs PMU overhead as it is charged)
        less the work cycles. The fused body in :meth:`run` inlines this
        when a burst completes.
        """
        (_, _, thread, _, _, _, count, _, work, do_read, do_write, index,
         repeat, settled, clock_base) = rec
        progress = repeat * count + index
        iters = progress - settled
        if iters:
            accesses = (do_read + do_write) * iters
            cycles = thread.clock - clock_base - work * iters
            thread.instructions += accesses + work * iters
            thread.mem_accesses += accesses
            thread.mem_cycles += cycles
            machine = self.machine
            machine.total_accesses += accesses
            machine.total_cycles += cycles
        rec[R_SETTLED] = progress
        rec[R_CLOCK_BASE] = thread.clock
        return iters

    def _raise_max_steps(self) -> None:
        raise SimulationError(
            f"exceeded max_steps={self._max_steps} (at step {self._steps}); "
            "likely an unbounded workload loop")

    def _resolve_kernel(self):
        """Pick this run's burst runners: ``(vector, general)``.

        With ``general`` None, bursts run in the fused body inlined in
        :meth:`run`, which is valid only when nothing needs to see every
        access: no observer, no sanitizer, no per-access observability,
        and the machine's private-HIT fast path itself valid (infinite
        caches). Otherwise ``general`` runs every burst:
        :meth:`_run_burst_observed`, the per-access loop, or — for an
        *explicit* ``vector`` request under the sanitizer — the checked
        vector kernel, which re-validates every planned access through
        the sanitizer-wrapped entry point and asserts it is the HIT the
        planner claimed (the self-test hook that catches planner bugs).

        ``vector`` is the batched kernel the fused body consults first
        (see MachineConfig.kernel): it needs the fused body's
        conditions and no engine-level observability either; ``auto``
        selects it whenever they hold.
        """
        machine = self.machine
        choice = getattr(self.config, "kernel", "auto")
        fused = (self.observer is None and machine.sanitizer is None
                 and machine.obs is None and machine._fast_private)
        if choice != "fused":
            if fused and self.obs is None:
                self._kernel_variant = "vector"
                return self._run_burst_vector, None
            if (choice == "vector" and machine.sanitizer is not None
                    and self.observer is None and machine.obs is None
                    and self.obs is None and machine._fast_private):
                self._kernel_variant = "vector-checked"
                return None, self._run_burst_vector_checked
        self._kernel_variant = "fused"
        return None, (None if fused else self._run_burst_observed)

    # -- thread lifecycle ------------------------------------------------------

    def _create_thread(self, fn: Callable[..., Any], args: tuple,
                       parent: Optional[SimThread], start_clock: int,
                       name: Optional[str] = None) -> SimThread:
        tid = next(self._tid_counter)
        core = tid % self.config.num_cores
        generator = fn(self.api, *args)
        if not hasattr(generator, "send"):
            raise ThreadError(
                f"thread function {fn!r} must be a generator function "
                "(use 'yield from api....' inside it)"
            )
        thread = SimThread(tid=tid, core=core, generator=generator,
                           start_clock=start_clock,
                           parent_tid=parent.tid if parent else None,
                           name=name or getattr(fn, "__name__", None))
        self.threads[tid] = thread
        if self.pmu is not None:
            thread.clock += self.pmu.on_thread_start(tid)
        if self.observer is not None:
            self.observer.on_thread_start(tid)
        if self.obs is not None:
            self.obs.on_thread_spawn(thread)
        return thread

    def _finish_thread(self, thread: SimThread) -> List[SimThread]:
        """Mark ``thread`` finished and wake any joiners."""
        thread.state = ThreadState.FINISHED
        thread.end_clock = thread.clock
        # The record is about to leave the heap for good: dropping it
        # frees it and breaks the record/thread reference cycle.
        thread.record = None
        if self.obs is not None:
            self.obs.on_thread_finish(thread)
        woken = []
        for waiter in thread.join_waiters:
            self._complete_join(waiter, thread)
            waiter.state = ThreadState.RUNNABLE
            woken.append(waiter)
        thread.join_waiters.clear()
        return woken

    def _complete_join(self, parent: SimThread, child: SimThread) -> None:
        assert child.end_clock is not None
        parent.clock = max(parent.clock, child.end_clock) + self.config.join_cost
        parent.pending_value = None
        self.phase_tracker.on_join(parent.tid, child.tid, parent.clock)
        if self.obs is not None:
            self.obs.on_join(parent, child)

    def _check_leaked_threads(self, main: SimThread) -> None:
        live = [t for t in self.threads.values()
                if t.state is ThreadState.RUNNABLE and t is not main]
        if live:
            names = ", ".join(t.name for t in live)
            raise ThreadError(
                f"main thread exited while threads are still running: {names}"
            )

    # -- op dispatch ---------------------------------------------------------------

    def _dispatch(self, thread: SimThread, op: Op,
                  woken: List[SimThread]) -> bool:
        """Execute one op the scheduling loop does not run inline.
        Returns False when the thread blocked."""
        if type(op) is Work:
            self._do_work(thread, op.cycles)
            return True
        if type(op) is Malloc:
            callsite = op.callsite or self._capture_callsite(thread)
            addr = self.allocator.allocate(op.size, tid=thread.tid,
                                           callsite=callsite)
            thread.clock += self.config.alloc_cost
            thread.instructions += 1
            thread.pending_value = addr
            return True
        if type(op) is Free:
            self.allocator.free(op.addr, tid=thread.tid)
            thread.clock += self.config.alloc_cost
            thread.instructions += 1
            return True
        if type(op) is Spawn:
            thread.clock += self.config.spawn_cost
            child = self._create_thread(op.fn, op.args, parent=thread,
                                        start_clock=thread.clock,
                                        name=op.name)
            self.phase_tracker.on_spawn(thread.tid, child.tid, thread.clock)
            woken.append(child)
            thread.pending_value = child.tid
            return True
        if type(op) is Join:
            return self._do_join(thread, op.tid)
        if type(op) is Fence:
            thread.clock += 1
            thread.instructions += 1
            return True
        if type(op) is Barrier:
            return self._do_barrier(thread, op, woken)
        raise SimulationError(f"thread {thread.tid} yielded unknown op {op!r}")

    #: Cycles charged per barrier crossing (futex wake analogue).
    BARRIER_COST = 50

    def _do_barrier(self, thread: SimThread, op: Barrier,
                    woken: List[SimThread]) -> bool:
        waiting = self._barriers.setdefault(op.key, [])
        for earlier in waiting:
            if earlier.tid == thread.tid:
                raise ThreadError(
                    f"thread {thread.tid} re-entered barrier {op.key!r} "
                    "it is already waiting on")
        waiting.append(thread)
        if len(waiting) < op.parties:
            thread.state = ThreadState.BLOCKED
            return False
        # Last arrival: release the whole round together.
        release = max(t.clock for t in waiting) + self.BARRIER_COST
        if self.obs is not None:
            self.obs.on_barrier_release(
                op.key, [(t.tid, t.clock) for t in waiting], release,
                self.BARRIER_COST)
        del self._barriers[op.key]
        for waiter in waiting:
            waiter.barrier_waits += release - self.BARRIER_COST - waiter.clock
            waiter.clock = release
            if waiter is not thread:
                waiter.state = ThreadState.RUNNABLE
                waiter.pending_value = None
                woken.append(waiter)
        return True

    def _do_join(self, thread: SimThread, target_tid: int) -> bool:
        target = self.threads.get(target_tid)
        if target is None:
            raise ThreadError(f"join of unknown thread {target_tid}")
        if target is thread:
            raise ThreadError(f"thread {thread.tid} cannot join itself")
        if target.state is ThreadState.FINISHED:
            self._complete_join(thread, target)
            return True
        thread.state = ThreadState.BLOCKED
        target.join_waiters.append(thread)
        return False

    def _do_work(self, thread: SimThread, cycles: int) -> None:
        thread.clock += cycles
        thread.instructions += cycles
        if self.pmu is not None:
            extra = self.pmu.on_work(thread.tid, cycles, thread.clock)
            if extra:
                thread.clock += extra

    # -- memory accesses --------------------------------------------------------

    def _access(self, thread: SimThread, addr: int, is_write: bool,
                size: int) -> None:
        latency, _, line = self.machine.access_tuple(
            thread.core, addr, is_write, thread.clock)
        thread.clock += latency
        thread.instructions += 1
        thread.mem_accesses += 1
        thread.mem_cycles += latency
        observer = self.observer
        if observer is not None:
            extra = observer.on_access(thread.tid, thread.core, addr,
                                       is_write, latency, size, line)
            thread.clock += observer.cost_per_access
            if extra:
                thread.clock += extra
        pmu = self.pmu
        if pmu is not None:
            extra = pmu.on_access(thread.tid, thread.core, addr, is_write,
                                  latency, size, thread.clock)
            if extra:
                thread.clock += extra

    def _run_burst_observed(self, rec: list, limit: float) -> bool:
        """General burst loop: every access goes through the machine's
        (possibly instance-rebound) entry point, then the observer, then
        the PMU, exactly as :meth:`_access` charges a single access.

        The only burst path for observer, sanitizer, obs and
        finite-capacity runs, and the reference the fused body in
        :meth:`run` must match bit for bit (the fuzzer and the registry
        parity test compare them). :meth:`_access`'s bookkeeping is
        inlined with its callees hoisted once per call; the thread's
        clock and counters are still written per access, because the
        callbacks may read them. ``rec`` is the thread's run record,
        unpacked once per call. Returns True when the burst completed,
        False when it paused because the clock passed ``limit``.
        """
        (_, tid, thread, core, base, stride, count, repeats, work, do_read,
         do_write, index, repeat, _, _) = rec
        word = self.config.word_size
        access_tuple = self.machine.access_tuple
        observer = self.observer
        if observer is not None:
            observe = observer.on_access
            observe_cost = observer.cost_per_access
        pmu = self.pmu
        if pmu is not None:
            pmu_access = pmu.on_access
            pmu_work = pmu.on_work
        steps = self._steps
        while thread.clock <= limit:
            if index >= count:
                index = 0
                repeat += 1
            if repeat >= repeats:
                done = True
                break
            addr = base + index * stride
            steps += 1
            if do_read:
                latency, _, line = access_tuple(core, addr, False,
                                                thread.clock)
                thread.clock += latency
                thread.instructions += 1
                thread.mem_accesses += 1
                thread.mem_cycles += latency
                if observer is not None:
                    extra = observe(tid, core, addr, False, latency, word,
                                    line)
                    thread.clock += observe_cost
                    if extra:
                        thread.clock += extra
                if pmu is not None:
                    extra = pmu_access(tid, core, addr, False, latency,
                                       word, thread.clock)
                    if extra:
                        thread.clock += extra
            if do_write:
                latency, _, line = access_tuple(core, addr, True,
                                                thread.clock)
                thread.clock += latency
                thread.instructions += 1
                thread.mem_accesses += 1
                thread.mem_cycles += latency
                if observer is not None:
                    extra = observe(tid, core, addr, True, latency, word,
                                    line)
                    thread.clock += observe_cost
                    if extra:
                        thread.clock += extra
                if pmu is not None:
                    extra = pmu_access(tid, core, addr, True, latency,
                                       word, thread.clock)
                    if extra:
                        thread.clock += extra
            if work:
                thread.clock += work
                thread.instructions += work
                if pmu is not None:
                    extra = pmu_work(tid, work, thread.clock)
                    if extra:
                        thread.clock += extra
            index += 1
        else:
            # Completed exactly at the boundary?
            done = index >= count and repeat + 1 >= repeats
        self._steps = steps
        if done:
            rec[R_COUNT] = 0
        else:
            rec[R_INDEX] = index
            rec[R_REPEAT] = repeat
        return done

    def _run_burst_vector(self, rec: list,
                          limit: float) -> Optional[bool]:
        """Array-batched burst kernel (see :mod:`repro.sim.kernel`).

        Plans how many upcoming iterations are provably private HITs
        (one directory probe per cache line), then charges the whole
        span in O(1): clock and counters advance arithmetically, the
        jitter contribution is the sum of the span's stored draws,
        and the PMU countdown is decremented wholesale (the plan never
        extends past the next fire). Scalar escapes handle everything
        else — first touch, coherence transitions, PMU fires, quantum
        and checkpoint edges — by dropping to the existing per-access
        paths, so every output stays bit-identical to the fused body.

        ``rec`` is the thread's run record. Returns True when the burst
        completed, False when it paused at ``limit``, and None when it
        stopped batching: the burst's progress is saved in ``rec`` and
        the caller's fused body runs on from it.
        """
        (_, tid, thread, core, base, stride, count, repeats_total, work,
         do_read, do_write, index, repeat, _, _) = rec
        miss = self._vector_miss
        if miss.get(tid, 0) >= _VECTOR_ADAPT:
            # This thread's bursts never batch (tiny loops or tight
            # multi-thread quanta): stop paying the planning preamble.
            # Outputs are bit-identical either way, so adapting is pure
            # perf policy.
            return None

        left_total = (repeats_total - repeat) * count - index
        min_span = vector_kernel.MIN_SPAN
        # Tiny bursts: the fused scalar loop's constant factor wins;
        # batching only pays off over long spans.
        if left_total < min_span:
            miss[tid] = miss.get(tid, 0) + 1
            return None

        machine = self.machine
        d = (1 if do_read else 0) + (1 if do_write else 0)
        hit_cost = machine._hit_cost
        jitter = machine._jitter
        cost_max = d * (hit_cost + jitter) + work
        # Nearly-expired quantum: not even a minimal span can fit.
        if limit is not _INFINITY and thread.clock + min_span * cost_max > limit:
            miss[tid] = miss.get(tid, 0) + 1
            return None

        pmu = self.pmu
        plan_span = vector_kernel.plan_span
        plan_cache = self._plan_cache
        directory = machine.directory
        word = self.config.word_size
        dec_per_iter = d + work

        escape_run = 0
        while True:
            clock = thread.clock
            if clock > limit:
                break
            if index >= count:
                index = 0
                repeat += 1
            if repeat >= repeats_total:
                rec[R_COUNT] = 0
                return True
            # Bound the span by everything cheap *before* paying for
            # directory probes: burst remainder, quantum fit, next PMU
            # fire. plan_span is monotone in its cap, so planning within
            # the bound yields the same span as planning then clipping.
            cap = (repeats_total - repeat) * count - index
            if limit is not _INFINITY and cost_max:
                # Iterations whose start provably stays at or below the
                # limit even if every jitter draw is maximal.
                fit = (limit - clock) // cost_max + 1
                if fit < cap:
                    cap = fit
            if pmu is not None and dec_per_iter:
                k_pmu = (pmu._countdown[tid] - 1) // dec_per_iter
                if k_pmu < cap:
                    cap = k_pmu
            if cap < min_span:
                # A PMU fire or the quantum edge is imminent: hand the
                # tail back to the fused scalar body (exact fire,
                # boundary and pause bookkeeping for free).
                rec[R_INDEX] = index
                rec[R_REPEAT] = repeat
                miss[tid] = miss.get(tid, 0) + 1
                return None
            if d:
                # Whole-burst plan cache: once every line a burst sweeps
                # proved private for this core, the proof stays valid
                # until the directory mutates (its version counter moves
                # on any non-fast-path access; fast-path HITs by
                # definition change no directory state). Workloads
                # re-issue identically-shaped bursts every iteration, so
                # this skips the per-line probing almost always.
                ckey = (core, base, stride, count, do_write)
                if plan_cache.get(ckey) == directory.version:
                    k = cap
                else:
                    k = plan_span(machine, core, base, stride, count,
                                  index, cap, do_write)
                    if k == cap and cap >= count:
                        # cap >= count means the plan verified a full
                        # sweep of the burst's line set.
                        plan_cache.put(ckey, directory.version)
            else:
                # No memory accesses: every iteration is trivially a
                # "hit" of zero memory work.
                k = cap
            if k < min_span:
                if escape_run >= _VECTOR_ESCAPE_RUN:
                    # Nothing here batches (e.g. a contended line the
                    # thread keeps losing): stop replanning per
                    # iteration and let the fused body run the quantum.
                    rec[R_INDEX] = index
                    rec[R_REPEAT] = repeat
                    miss[tid] = miss.get(tid, 0) + 1
                    return None
                escape_run += 1
                # Escape: one scalar iteration through the general
                # per-access path (first touch, coherence transition, or
                # a line set too fragmented to batch), then replan.
                addr = base + index * stride
                self._steps += 1
                if do_read:
                    self._access(thread, addr, False, word)
                if do_write:
                    self._access(thread, addr, True, word)
                if work:
                    self._do_work(thread, work)
                index += 1
                continue
            escape_run = 0
            # -- charge k provably-HIT iterations as one batch --
            n_acc = d * k
            if jitter and n_acc:
                pos = machine._jitter_pos
                end = pos + n_acc
                draws = machine._jitter_draws
                if end > len(draws):
                    machine._jitter_stream.extend(end)
                jsum = sum(draws[pos:end])
                machine._jitter_pos = end
            else:
                jsum = 0
            acc_cycles = n_acc * hit_cost + jsum
            thread.clock = clock + acc_cycles + work * k
            thread.instructions += dec_per_iter * k
            thread.mem_accesses += n_acc
            thread.mem_cycles += acc_cycles
            machine.total_accesses += n_acc
            machine.total_cycles += acc_cycles
            if pmu is not None and dec_per_iter:
                pmu._countdown[tid] -= dec_per_iter * k
            self._steps += k
            miss[tid] = 0
            index += k
            if index >= count:
                # Normalize multi-sweep advances, but keep the exact
                # "paused at the sweep boundary" representation
                # (index == count) the fused body produces — boundary
                # completion below must fire on the same step it would.
                sweeps, rem = divmod(index, count)
                if rem == 0:
                    repeat += sweeps - 1
                    index = count
                else:
                    repeat += sweeps
                    index = rem
        rec[R_INDEX] = index
        rec[R_REPEAT] = repeat
        # Completed exactly at the boundary?
        if index >= count and repeat + 1 >= repeats_total:
            rec[R_COUNT] = 0
            return True
        return False

    def _run_burst_vector_checked(self, rec: list, limit: float) -> bool:
        """Checked vector kernel: plan, then prove the plan per access.

        Selected by an explicit ``kernel="vector"`` request under the
        sanitizer. Runs at general-loop speed: every access goes through
        the (sanitizer-wrapped) machine entry point, but accesses inside
        a planned span must come back as the private HITs the planner
        promised — anything else means the batch planner would have
        mis-charged that span in the fast variant, and raises
        :class:`ValidationError`. Plans are revalidated whenever the
        directory's mutation counter moves (our own escape accesses move
        it; other threads only run between bursts). ``rec`` is the
        thread's run record.
        """
        (_, _, thread, core, base, stride, count, repeats_total, work,
         do_read, do_write, index, repeat, _, _) = rec
        machine = self.machine
        directory = machine.directory
        pmu = self.pmu
        plan_span = vector_kernel.plan_span
        word = self.config.word_size
        d = (1 if do_read else 0) + (1 if do_write else 0)
        planned = 0
        plan_version = -1
        while thread.clock <= limit:
            if index >= count:
                index = 0
                repeat += 1
            if repeat >= repeats_total:
                rec[R_COUNT] = 0
                return True
            self._steps += 1
            if d:
                if plan_version != directory.version:
                    left_total = (repeats_total - repeat) * count - index
                    planned = plan_span(machine, core, base, stride, count,
                                        index, left_total, do_write)
                    plan_version = directory.version
                in_plan = planned > 0
                planned -= 1
                addr = base + index * stride
                if do_read:
                    self._checked_access(thread, addr, False, word, in_plan)
                if do_write:
                    self._checked_access(thread, addr, True, word, in_plan)
            if work:
                self._do_work(thread, work)
            index += 1
        if index >= count and repeat + 1 >= repeats_total:
            rec[R_COUNT] = 0
            return True
        rec[R_INDEX] = index
        rec[R_REPEAT] = repeat
        return False

    def _checked_access(self, thread: SimThread, addr: int, is_write: bool,
                        size: int, planned: bool) -> None:
        """One access via the machine entry point, asserting the batch
        planner's HIT claim when ``planned``."""
        latency, kind, line = self.machine.access_tuple(
            thread.core, addr, is_write, thread.clock)
        if planned and kind != coherence.HIT:
            raise ValidationError(
                "vector-plan-mismatch",
                "vector kernel planned a private HIT but the machine "
                f"returned {kind!r}",
                access={"core": thread.core, "addr": addr, "line": line,
                        "is_write": is_write, "now": thread.clock,
                        "kind": kind, "latency": latency},
                expected=coherence.HIT, actual=kind)
        thread.clock += latency
        thread.instructions += 1
        thread.mem_accesses += 1
        thread.mem_cycles += latency
        pmu = self.pmu
        if pmu is not None:
            extra = pmu.on_access(thread.tid, thread.core, addr, is_write,
                                  latency, size, thread.clock)
            if extra:
                thread.clock += extra

    # -- callsite capture ----------------------------------------------------------

    def _capture_callsite(self, thread: SimThread) -> str:
        """Walk the thread's suspended generator frames for a callsite.

        Mirrors Cheetah's frame-pointer walk: it collects up to five
        entries and reports the innermost workload frame (the paper prints
        e.g. ``linear_regression-pthread.c: 139``).
        """
        frames = []
        generator = thread.generator
        depth = 0
        while generator is not None and depth < _CALLSITE_DEPTH:
            frame = getattr(generator, "gi_frame", None)
            if frame is None:
                break
            filename = os.path.basename(frame.f_code.co_filename)
            frames.append(f"{filename}:{frame.f_lineno}")
            generator = getattr(generator, "gi_yieldfrom", None)
            depth += 1
        if not frames:
            return "<unknown>"
        # The innermost workload frame (the deepest one that is not the
        # ThreadAPI helper in thread.py) is the allocation site.
        for entry in reversed(frames):
            if not entry.startswith("thread.py:"):
                return entry
        return frames[-1]
