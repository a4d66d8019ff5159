"""A small in-memory span recorder, installed from outside the program.

The benchmark times the calls into each layer's public functions by
replacing them, for the length of one traced run, with wrappers that
open a span.  A wrapper is installed where the caller looks the name up:
a class attribute for methods, or the module attribute a caller binds
(``lda_exchange_correlation`` is looked up in ``repro.dft.scf``, not in
``repro.dft.xc``).  Only plain functions are wrapped; a generator
function would return before its work is done and break span nesting.

Spans are kept in memory.  The code is single-threaded, so spans nest
strictly and a span's self time is its duration minus the durations of
its direct children.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple


@dataclass
class Span:
    """One timed call: ``name``, start/end in seconds, and its parent's id."""

    id: int
    name: str
    parent: Optional[int]
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects strictly nested spans and installs/removes wrappers."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._clock = clock
        self._patched: List[Tuple[Any, str, Any]] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        sp = Span(id=len(self.spans), name=name, parent=parent,
                  start=self._clock())
        self.spans.append(sp)
        self._stack.append(sp.id)
        try:
            yield sp
        finally:
            sp.end = self._clock()
            self._stack.pop()

    def wrap(
        self, owner: Any, attr: str, name: str,
        returns: Optional[List[Any]] = None,
    ) -> None:
        """Replace ``owner.attr`` by a wrapper recording a ``name`` span.

        With ``returns``, each call's ``(args, result)`` is appended to
        it after the span closes.
        """
        original = (owner.__dict__[attr] if isinstance(owner, type)
                    else getattr(owner, attr))
        recorder = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with recorder.span(name):
                result = original(*args, **kwargs)
            if returns is not None:
                returns.append((args, result))
            return result

        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every wrapped attribute, last installed first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Self time of every span: its duration minus its children's.

    >>> a = Span(0, "a", None, 0.0, 10.0)
    >>> b = Span(1, "b", 0, 1.0, 4.0)
    >>> c = Span(2, "c", 1, 2.0, 3.0)
    >>> self_times([a, b, c])
    {0: 7.0, 1: 2.0, 2: 1.0}
    """
    out = {sp.id: sp.duration for sp in spans}
    for sp in spans:
        if sp.parent is not None:
            out[sp.parent] -= sp.duration
    return out


def top_ancestor(spans: List[Span], root: int) -> Dict[int, Optional[str]]:
    """Name of the direct child of ``root`` that each span lies under.

    Spans outside ``root`` (and ``root`` itself) map to ``None``.
    """
    by_id = {sp.id: sp for sp in spans}
    out: Dict[int, Optional[str]] = {}
    for sp in spans:
        node, top = sp, None
        while node.parent is not None and node.parent != root:
            node = by_id[node.parent]
        if node.parent == root:
            top = node.name
        out[sp.id] = top
    return out


@dataclass
class LayerTotals:
    """Per-name totals over a set of spans."""

    calls: int = 0
    inclusive: float = 0.0
    self: float = 0.0


def totals(
    spans: List[Span], root: int, under: Optional[str] = None
) -> Dict[str, LayerTotals]:
    """Calls, inclusive and self seconds per span name below ``root``.

    With ``under``, only spans inside the root's child of that name
    count.  A span nested in a span of its own name (``overlap()``
    calling ``potential_matrix()``) adds self time but no call and no
    inclusive time, which its outer span already holds.
    """
    own = self_times(spans)
    tops = top_ancestor(spans, root)
    by_id = {sp.id: sp for sp in spans}
    out: Dict[str, LayerTotals] = {}
    for sp in spans:
        if sp.id == root or tops[sp.id] is None:
            continue
        if under is not None and tops[sp.id] != under:
            continue
        t = out.setdefault(sp.name, LayerTotals())
        t.self += own[sp.id]
        node = sp
        while node.parent is not None and by_id[node.parent].name != sp.name:
            node = by_id[node.parent]
        if node.parent is None:
            t.calls += 1
            t.inclusive += sp.duration
    return out


def unspanned_fraction(spans: List[Span], root: int) -> float:
    """Share of the root's wall that no named span below it accounts for.

    The named spans' self times plus this share add up to the root's
    wall by construction; the check that matters is that this share is
    small, i.e. the wrapped layers and loop phases cover the run.

    >>> spans = [Span(0, "run", None, 0.0, 10.0), Span(1, "scf", 0, 0.0, 9.95)]
    >>> round(unspanned_fraction(spans, 0), 6)
    0.005
    """
    own = self_times(spans)
    wall = spans[root].duration
    covered = sum(t.self for t in totals(spans, root).values())
    if abs(covered + own[root] - wall) > 1e-9 * max(wall, 1.0):
        raise RuntimeError("span self times do not add up to the root wall")
    return own[root] / wall if wall > 0 else 0.0
