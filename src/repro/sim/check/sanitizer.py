"""Sanitizer mode: shadow every access against the reference oracle.

``Machine(check=True)`` installs a :class:`CoherenceSanitizer` whose
``checked_access_tuple`` replaces the machine's hot-path entry point.
Each access runs through the machine's real implementation (including
its private-HIT fast path) and is then cross-checked:

1. **outcome** — the returned tag must match the reference MESI oracle
   (PREFETCHED is accepted where the oracle says COLD/SHARED_CLEAN,
   since prefetching is a latency remap, not a coherence transition);
2. **latency** — reconstructed exactly from the tag's base cost, a
   jitter draw from an independent xorshift walk of the machine's seed
   and the pin-table stall, and the machine's jitter-stream position
   must advance by exactly one per access; any fast path that skipped
   or double-consumed a draw, or a memoized stream that holds the wrong
   draws, diverges here (jitter-stream conservation);
3. **directory state** — holders, dirty owner, the exclusive-owner
   mirror map and invalidation counts must equal the oracle's, and the
   single-writer/multiple-reader invariant must hold;
4. **pin table** — per-line pin times never move backwards;
5. **clocks** — per-thread clocks are monotone across scheduling quanta
   (checked by the engine via :meth:`note_quantum`);
6. **PMU** — at run end, the countdown is positive for every armed
   thread and the charged overhead satisfies the conservation law
   ``setup*threads + handler*memory_samples + trap*other_fires``.

All failures raise :class:`repro.errors.ValidationError` carrying the
offending access and a trace of the accesses leading up to it.

The sanitizer is strictly opt-in: with ``check=False`` (the default) the
machine's hot path is untouched and the engine pays one pointer
comparison per scheduling quantum.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Optional

from repro.errors import ValidationError
from repro.sim import coherence
from repro.sim.check.oracle import ReferenceMESI

_MASK64 = 0xFFFFFFFFFFFFFFFF

#: Accesses kept for the divergence trace.
_TRACE_DEPTH = 16


class CoherenceSanitizer:
    """Shadows one :class:`~repro.sim.machine.Machine` against the oracle."""

    def __init__(self, machine) -> None:
        self.machine = machine
        self.oracle = ReferenceMESI()
        self._trace = deque(maxlen=_TRACE_DEPTH)
        # Independent mirror of the machine's jitter stream: the xorshift
        # walk from the machine's seed, advanced once per access, and the
        # stream position the machine should be at. A path consuming
        # zero or two draws, or a stream serving wrong draws, is caught.
        self._mirror_jitter = machine._jitter_seed or 1
        self._mirror_pos = machine._jitter_pos
        self._last_clock: Dict[int, int] = {}
        self.accesses_checked = 0

    # -- the shadowed access path -------------------------------------------

    def checked_access_tuple(self, core: int, addr: int, is_write: bool,
                             now: int = 0):
        """Drop-in for ``Machine.access_tuple`` that validates the access."""
        machine = self.machine
        line = addr >> machine._line_shift
        pinned_before = machine._pin_until.get(line, 0)
        # Previous dirty owner from the *oracle*'s view, captured before
        # its transition: the independent source for reconstructing the
        # NUMA remote-transfer penalty.
        owner_before = self.oracle.dirty_owner(line)

        latency, kind, out_line = machine._raw_access_tuple(
            core, addr, is_write, now)

        record = {"core": core, "addr": addr, "line": line,
                  "is_write": is_write, "now": now, "kind": kind,
                  "latency": latency}
        if out_line != line:
            self._fail("line-mapping", "machine mapped the address to a "
                       "different line than addr >> line_shift",
                       record, expected=line, actual=out_line)

        # 1. Outcome vs. the reference transition tables.
        expected_kind = self.oracle.access(core, line, is_write)
        if kind == "prefetched":
            if expected_kind not in (coherence.COLD, coherence.SHARED_CLEAN):
                self._fail("prefetch-remap", "only cold/shared fetches may "
                           "be remapped to prefetched",
                           record, expected=expected_kind, actual=kind)
        elif kind != expected_kind:
            self._fail("outcome-mismatch", "fast path disagrees with the "
                       "reference MESI oracle",
                       record, expected=expected_kind, actual=kind)

        # 2. Exact latency reconstruction + jitter-stream conservation.
        expected_latency = machine._costs[kind]
        if machine._numa:
            expected_latency += machine._numa_penalty(
                kind, core, line, owner_before)
        if machine._jitter:
            j = self._mirror_jitter
            j ^= (j << 13) & _MASK64
            j ^= j >> 7
            j ^= (j << 17) & _MASK64
            self._mirror_jitter = j
            self._mirror_pos += 1
            expected_latency += j % (machine._jitter + 1)
        if self._mirror_pos != machine._jitter_pos:
            self._fail("jitter-stream", "machine consumed a different "
                       "number of jitter draws than one per access",
                       record, expected=self._mirror_pos,
                       actual=machine._jitter_pos)
        stall = 0
        if kind in ("coherence_read", "coherence_write", "upgrade"):
            if pinned_before > now:
                stall = pinned_before - now
            expected_latency += stall
            # 4. Pin-table update and monotonicity.
            new_pin = machine._pin_until.get(line, 0)
            expected_pin = now + latency + machine._transfer_window
            if new_pin != expected_pin:
                self._fail("pin-update", "pin table entry not advanced to "
                           "now + latency + transfer_window",
                           record, expected=expected_pin, actual=new_pin)
            if new_pin < pinned_before:
                self._fail("pin-monotonicity", "pin time moved backwards",
                           record, expected=pinned_before, actual=new_pin)
        if latency != expected_latency:
            self._fail("latency-mismatch", "latency is not base cost + "
                       "jitter draw + pin stall",
                       record, expected=expected_latency, actual=latency)

        # 3. Directory state vs. the oracle.
        self._check_directory_state(line, record)

        self._trace.append(record)
        self.accesses_checked += 1
        return latency, kind, out_line

    def _check_directory_state(self, line: int, record: dict) -> None:
        directory = self.machine.directory
        state = directory.state_of(line)
        if state is None:
            self._fail("missing-line-state", "directory has no entry for "
                       "an accessed line", record)
        if state.holders != self.oracle.holders(line):
            self._fail("holders-mismatch", "directory holder set diverged "
                       "from the oracle",
                       record, expected=self.oracle.holders(line),
                       actual=set(state.holders))
        if state.dirty_owner != self.oracle.dirty_owner(line):
            self._fail("dirty-owner-mismatch", "directory dirty owner "
                       "diverged from the oracle",
                       record, expected=self.oracle.dirty_owner(line),
                       actual=state.dirty_owner)
        if state.dirty_owner is not None and state.holders != {state.dirty_owner}:
            self._fail("single-writer", "a dirty owner must be the sole "
                       "holder of its line",
                       record, expected={state.dirty_owner},
                       actual=set(state.holders))
        exclusive = directory._exclusive.get(line)
        if exclusive != state.dirty_owner:
            self._fail("exclusive-map", "the exclusive-owner mirror map "
                       "disagrees with LineState.dirty_owner",
                       record, expected=state.dirty_owner, actual=exclusive)
        if state.invalidations != self.oracle.invalidations_of(line):
            self._fail("invalidation-count", "ground-truth invalidation "
                       "counter diverged from the oracle",
                       record, expected=self.oracle.invalidations_of(line),
                       actual=state.invalidations)

    # -- engine-level checks ---------------------------------------------------

    def note_quantum(self, thread) -> None:
        """Called by the engine after each scheduling quantum: per-thread
        clocks must never move backwards."""
        last = self._last_clock.get(thread.tid)
        if last is not None and thread.clock < last:
            self._fail("clock-monotonicity",
                       f"thread {thread.tid} clock moved backwards",
                       None, expected=f">= {last}", actual=thread.clock)
        self._last_clock[thread.tid] = thread.clock

    def check_pmu(self, pmu) -> None:
        """Countdown positivity and overhead conservation, at run end."""
        for tid, countdown in pmu._countdown.items():
            if countdown < 1:
                self._fail("pmu-countdown",
                           f"PMU countdown for thread {tid} is not positive",
                           None, expected=">= 1", actual=countdown)
        cfg = pmu.config
        expected = (pmu.threads_set_up * cfg.thread_setup_cost
                    + pmu.memory_samples * cfg.handler_cost
                    + (pmu.samples_fired - pmu.memory_samples) * cfg.trap_cost)
        charged = sum(pmu.overhead_by_tid.values())
        if charged != expected:
            self._fail("pmu-overhead-conservation",
                       "charged PMU overhead does not equal "
                       "setup*threads + handler*memory + trap*other_fires",
                       None, expected=expected, actual=charged)

    # -- failure -------------------------------------------------------------

    def _fail(self, invariant: str, message: str, access: Optional[dict],
              expected=None, actual=None) -> None:
        raise ValidationError(invariant, message, access=access,
                              expected=expected, actual=actual,
                              trace=self._trace)
