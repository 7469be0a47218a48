"""Seeded-mutation self-test: prove the sanitizer actually catches bugs.

A safety net that has never caught anything proves nothing. This module
deliberately plants two classic bugs and asserts the validation net
detects each on a small two-thread false-sharing program:

- :class:`BrokenFastPathMachine` corrupts the machine's private-HIT
  *write* predicate — a write to a shared line is mispriced as a HIT and
  performs no invalidation, silently erasing the coherence traffic false
  sharing is made of. The sanitizer must refuse it on the first such
  write.
- :class:`BrokenVectorKernelMachine` corrupts the vector kernel's batch
  planner the same way (claiming writes to shared lines are privately
  batchable). The checked vector kernel re-proves every planned access
  through the sanitizer-wrapped machine entry point and must reject the
  first span the broken planner over-claims.

``repro validate`` runs both every time, so a regression that weakens
either net is itself caught.
"""

from __future__ import annotations

from repro.errors import SimulationError, ValidationError
from repro.heap.allocator import CheetahAllocator
from repro.sim.engine import Engine
from repro.sim.machine import Machine
from repro.sim.params import MachineConfig


class BrokenFastPathMachine(Machine):
    """Machine with one corrupted private-HIT predicate.

    The honest fast path treats a *write* as a private hit only when the
    accessing core is the dirty owner. This mutant accepts any holder —
    so a write to a line held shared by several cores is mispriced as a
    HIT and, worse, performs no invalidation. Exactly the kind of silent
    divergence a hand-replicated hot path can grow; the sanitizer must
    refuse it on the first such write.
    """

    def access_tuple(self, core: int, addr: int, is_write: bool,
                     now: int = 0):
        line = addr >> self._line_shift
        if self._fast_private:
            state = self._dirlines.get(line)
            # BUG (deliberate): ``core in state.holders`` is the *read*
            # predicate; for writes it must be ``state.dirty_owner == core``.
            if state is not None and core in state.holders:
                latency = self._hit_cost
                if self._jitter:
                    pos = self._jitter_pos
                    if pos >= len(self._jitter_draws):
                        self._jitter_stream.extend(pos + 1)
                    latency += self._jitter_draws[pos]
                    self._jitter_pos = pos + 1
                self.total_accesses += 1
                self.total_cycles += latency
                return latency, "hit", line
        return Machine.access_tuple(self, core, addr, is_write, now)

    # The sanitizer must validate the *mutated* fast path.
    _raw_access_tuple = access_tuple


class BrokenVectorKernelMachine(Machine):
    """Machine with a corrupted batch-planner predicate.

    The vector kernel batches a span only when every line it touches
    satisfies :meth:`Machine.line_is_private`. This mutant answers the
    *read* predicate for writes — any holder qualifies — so the planner
    happily batches writes to lines other cores still hold, skipping
    their invalidations wholesale. Under ``kernel="vector"`` with the
    sanitizer attached the checked kernel re-validates each planned
    access and must raise on the first span the plan over-claims.
    """

    def line_is_private(self, core: int, state, is_write: bool) -> bool:
        # BUG (deliberate): ignores ``is_write`` — for writes the only
        # batchable state is ``state.dirty_owner == core``.
        return core in state.holders


def _false_sharing_program(api):
    """Two threads read-then-write disjoint words of one shared line."""

    def worker(api, addr):
        yield from api.loop(addr, 0, 1, read=True, write=True, repeat=40)

    buf = yield from api.malloc(64, callsite="mutation.c:1")
    first = yield from api.spawn(worker, buf)
    second = yield from api.spawn(worker, buf + 4)
    yield from api.join(first)
    yield from api.join(second)


def _shared_then_written_program(api):
    """Both threads read a line (becoming shared holders), then write it.

    At write-burst plan time each core holds the line but is not its
    dirty owner — exactly the state where the honest write predicate
    (``dirty_owner == core``) and the corrupted one (``core in
    holders``) disagree. A read+write loop would not expose it: the
    write inside each iteration takes ownership before the next plan.
    """

    def worker(api, addr):
        yield from api.loop(addr, 0, 1, read=True, write=False, repeat=20)
        yield from api.loop(addr, 0, 1, read=False, write=True, repeat=20)

    buf = yield from api.malloc(64, callsite="mutation.c:2")
    first = yield from api.spawn(worker, buf)
    second = yield from api.spawn(worker, buf + 4)
    yield from api.join(first)
    yield from api.join(second)


def _run(machine: Machine, program=_false_sharing_program) -> None:
    config = machine.config
    engine = Engine(config=config, machine=machine,
                    allocator=CheetahAllocator(
                        line_size=config.cache_line_size))
    engine.run(program)


def run_mutation_selftest() -> ValidationError:
    """Run the self-test; returns the ValidationError the sanitizer raised.

    Raises :class:`SimulationError` if either leg fails: the honest
    machine must pass clean, and the mutated machine must be caught.
    """
    config = MachineConfig(num_cores=4)
    _run(Machine(config, check=True))  # honest machine: must be clean
    try:
        _run(BrokenFastPathMachine(config, check=True))
    except ValidationError as caught:
        return caught
    raise SimulationError(
        "sanitizer self-test failed: the deliberately corrupted "
        "fast-path write predicate went undetected")


def run_vector_mutation_selftest() -> ValidationError:
    """Prove the checked vector kernel catches a corrupted batch planner.

    Runs the false-sharing program under ``kernel="vector"`` with the
    sanitizer attached (which selects the checked vector kernel): the
    honest machine must pass clean, and
    :class:`BrokenVectorKernelMachine` — whose planner claims writes to
    shared lines are privately batchable — must raise
    :class:`ValidationError` on the first over-claimed access. Returns
    the caught error; raises :class:`SimulationError` if either leg
    misbehaves.
    """
    config = MachineConfig(num_cores=4, kernel="vector")
    # Honest planner: must be clean on both programs.
    _run(Machine(config, check=True))
    _run(Machine(config, check=True), _shared_then_written_program)
    try:
        _run(BrokenVectorKernelMachine(config, check=True),
             _shared_then_written_program)
    except ValidationError as caught:
        return caught
    raise SimulationError(
        "vector-kernel self-test failed: the deliberately corrupted "
        "batch planner went undetected")
