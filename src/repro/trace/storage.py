"""On-disk trace format.

One access per line, whitespace-separated, with a versioned header::

    #repro-trace v1
    <index> <tid> <core> <addr-hex> <R|W> <latency> <size>

Version 2 adds one optional metadata line directly after the header — a
JSON object describing the recorded run (workload identity, machine
config, allocation map, global symbols) so a trace can be replayed
through the machine and detector without the original process::

    #repro-trace v2
    #meta {"workload": {...}, "machine": {...}, "allocations": [...], ...}
    <records as in v1>

Readers skip any ``#``-prefixed line, so v1 consumers that predate the
meta line still load v2 record streams. Plain text compresses well and
is diffable; traces at simulation scale are at most a few hundred
thousand lines.
"""

from __future__ import annotations

import gzip
import json
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, Optional, Union

from repro.errors import ReproError
from repro.trace.recorder import TraceRecord

HEADER_V1 = "#repro-trace v1"
HEADER_V2 = "#repro-trace v2"
#: Headers :func:`load_trace` accepts.
HEADERS = (HEADER_V1, HEADER_V2)
#: Back-compat alias: the header :func:`save_trace` writes without meta.
HEADER = HEADER_V1

META_PREFIX = "#meta "
#: Access-type field -> ``is_write``.
_ACCESS_TYPES = {"R": False, "W": True}


class TraceFormatError(ReproError):
    """The trace file is malformed or has an unsupported version."""


def _open(path: Union[str, Path], mode: str):
    path = Path(path)
    if path.suffix == ".gz":
        return gzip.open(path, mode + "t")
    return open(path, mode)


def save_trace(records: Iterable[TraceRecord],
               path: Union[str, Path],
               meta: Optional[Dict[str, Any]] = None) -> int:
    """Write records to ``path`` (gzipped when it ends in .gz).

    With ``meta`` (a JSON-serializable dict, e.g. from
    :func:`repro.trace.record.trace_meta`) the v2 format is written —
    header plus one ``#meta`` line; without it the output is
    byte-identical to the original v1 format.

    Returns the number of records written.
    """
    count = 0
    with _open(path, "w") as fh:
        if meta is None:
            fh.write(HEADER_V1 + "\n")
        else:
            fh.write(HEADER_V2 + "\n")
            fh.write(META_PREFIX + json.dumps(
                meta, sort_keys=True, separators=(",", ":")) + "\n")
        for r in records:
            fh.write(f"{r.index} {r.tid} {r.core} {r.addr:x} "
                     f"{'W' if r.is_write else 'R'} {r.latency} "
                     f"{r.size}\n")
            count += 1
    return count


def load_trace(path: Union[str, Path]) -> Iterator[TraceRecord]:
    """Yield records from a trace file written by :func:`save_trace`.

    Accepts both v1 and v2 files; comment lines (``#``-prefixed,
    including the v2 meta line) are skipped. A malformed record line —
    wrong field count, a non-integer field, or an access type other
    than ``R``/``W`` — raises :class:`TraceFormatError` with its
    ``path:line``.
    """
    with _open(path, "r") as fh:
        header = fh.readline().rstrip("\n")
        if header not in HEADERS:
            raise TraceFormatError(
                f"bad trace header {header!r} (expected one of {HEADERS})")
        for lineno, line in enumerate(fh, start=2):
            if line.startswith("#"):
                continue
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 7:
                raise TraceFormatError(
                    f"{path}:{lineno}: expected 7 fields, got {len(parts)}")
            index, tid, core, addr, rw, latency, size = parts
            is_write = _ACCESS_TYPES.get(rw)
            if is_write is None:
                raise TraceFormatError(
                    f"{path}:{lineno}: access type must be R or W, "
                    f"got {rw!r}")
            try:
                record = TraceRecord(int(index), int(tid), int(core),
                                     int(addr, 16), is_write, int(latency),
                                     int(size))
            except ValueError as exc:
                raise TraceFormatError(
                    f"{path}:{lineno}: {exc}") from exc
            yield record


def load_trace_meta(path: Union[str, Path]) -> Optional[Dict[str, Any]]:
    """The ``#meta`` dict of a v2 trace, or ``None`` for v1 / no meta."""
    with _open(path, "r") as fh:
        header = fh.readline().rstrip("\n")
        if header not in HEADERS:
            raise TraceFormatError(
                f"bad trace header {header!r} (expected one of {HEADERS})")
        if header != HEADER_V2:
            return None
        line = fh.readline()
        if not line.startswith(META_PREFIX):
            return None
        try:
            meta = json.loads(line[len(META_PREFIX):])
        except ValueError as exc:
            raise TraceFormatError(f"{path}:2: malformed meta: {exc}") \
                from exc
        if not isinstance(meta, dict):
            raise TraceFormatError(
                f"{path}:2: meta must be a JSON object, "
                f"got {type(meta).__name__}")
        return meta
