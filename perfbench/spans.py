"""In-memory spans recorded around calls into the program's layers.

A :class:`SpanRecorder` keeps every span of one traced pass in memory:
name, layer, start, end, parent span and the id of the operation (cell,
replay, predict, job) it belongs to. Parents come from a per-thread
stack; a span opened on another thread (a daemon worker serving a
client's job) is attached to the client's operation through
:meth:`SpanRecorder.link`.

:class:`Patches` wraps program callables at the attribute their callers
look up and restores them afterwards, so the program itself carries no
tracing code.

Self time is computed per operation tree: every instant of a root span
is charged to the deepest span active at that instant. On one thread
this is the usual "duration minus the part covered by children"; with
spans from several threads (client waiting while a worker runs the
job) it charges the instant to the work, never twice.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Depth added to a span attached across threads, so work done on
#: behalf of an operation outranks the caller's own waiting span.
LINK_DEPTH = 100


@dataclass
class Span:
    id: int
    name: str
    layer: str
    start: float
    parent: Optional[int]
    op: Optional[str]
    depth: int
    key: Optional[str] = None
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Records spans of one pass; thread-safe."""

    def __init__(self, layer_of: Callable[[str], str]):
        self.spans: List[Span] = []
        self._layer_of = layer_of
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._links: Dict[str, Span] = {}

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[Span]:
        stack = self._stack()
        return stack[-1] if stack else None

    def link(self, key: str, span: Optional[Span] = None) -> None:
        """Attach later spans opened for ``key`` on any thread to
        ``span`` (default: this thread's innermost span)."""
        target = span if span is not None else self.current()
        if target is not None:
            with self._lock:
                self._links[key] = target

    def linked(self, key: Optional[str]) -> Optional[Span]:
        if key is None:
            return None
        with self._lock:
            return self._links.get(key)

    def open(self, name: str, op: Optional[str] = None,
             link_key: Optional[str] = None) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        depth = parent.depth + 1 if parent is not None else 0
        if parent is None:
            linked = self.linked(link_key)
            if linked is not None:
                parent = linked
                depth = linked.depth + LINK_DEPTH
        if op is None and parent is not None:
            op = parent.op
        span = Span(id=next(self._ids), name=name,
                    layer=self._layer_of(name), start=time.perf_counter(),
                    parent=parent.id if parent is not None else None,
                    op=op, depth=depth, key=link_key)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        with self._lock:
            self.spans.append(span)

    @contextmanager
    def span(self, name: str, op: Optional[str] = None,
             link_key: Optional[str] = None) -> Iterator[Span]:
        opened = self.open(name, op=op, link_key=link_key)
        try:
            yield opened
        finally:
            self.close(opened)

    # -- summaries -----------------------------------------------------------

    def totals(self) -> Dict[str, Tuple[int, float]]:
        """``{span name: (count, inclusive seconds)}``."""
        out: Dict[str, Tuple[int, float]] = {}
        for span in self.spans:
            count, seconds = out.get(span.name, (0, 0.0))
            out[span.name] = (count + 1, seconds + span.duration)
        return out

    def self_times(self) -> Tuple[Dict[str, float], float]:
        """``({layer: self seconds}, summed root duration)``.

        Every instant of every root span is charged to exactly one
        layer, so the layer self times add up to the roots' total.
        """
        children: Dict[int, List[Span]] = defaultdict(list)
        roots: List[Span] = []
        for span in self.spans:
            if span.parent is None:
                roots.append(span)
            else:
                children[span.parent].append(span)
        by_layer: Dict[str, float] = defaultdict(float)
        total = 0.0
        for root in roots:
            tree = [root]
            index = 0
            while index < len(tree):
                tree.extend(children.get(tree[index].id, ()))
                index += 1
            total += root.duration
            for layer, seconds in _charge(root, tree).items():
                by_layer[layer] += seconds
        return dict(by_layer), total


def _charge(root: Span, tree: List[Span]) -> Dict[str, float]:
    """Charge each instant of ``root`` to the deepest active span."""
    edges = []
    for span in tree:
        start = max(span.start, root.start)
        end = min(span.end, root.end)
        if end > start:
            edges.append((start, 1, span))
            edges.append((end, 0, span))
    edges.sort(key=lambda edge: (edge[0], edge[1]))
    active: Dict[int, Span] = {}
    charged: Dict[str, float] = defaultdict(float)
    previous = root.start
    for instant, is_start, span in edges:
        if active and instant > previous:
            top = max(active.values(), key=lambda s: (s.depth, s.start))
            charged[top.layer] += instant - previous
        previous = instant
        if is_start:
            active[span.id] = span
        else:
            active.pop(span.id, None)
    return charged


class Patches:
    """Replace attributes for the life of a ``with`` block."""

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, bool, Any]] = []

    def wrap(self, owner: Any, attr: str,
             make: Callable[[Callable[..., Any]], Callable[..., Any]]) -> None:
        """``owner.attr = make(original)``; class- and static methods
        keep their binding."""
        own = attr in vars(owner)
        raw = vars(owner)[attr] if own else getattr(owner, attr)
        if isinstance(raw, classmethod):
            replacement: Any = classmethod(make(raw.__func__))
        elif isinstance(raw, staticmethod):
            replacement = staticmethod(make(raw.__func__))
        else:
            replacement = make(raw)
        self._saved.append((owner, attr, own, raw))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._saved:
            owner, attr, own, raw = self._saved.pop()
            if own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.restore()
