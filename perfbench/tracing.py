"""In-memory spans recorded around calls into the library's layers.

The tracer wraps functions and methods of the library from the outside
(module attributes and class attributes are swapped for timing wrappers and
put back by :meth:`Tracer.restore`), so tracing needs no change to the
library itself.  Spans stay in memory while the benchmark runs:

* in the benchmark process they live in :attr:`Tracer.spans`;
* campaign pool workers are forked from the benchmark process, inherit the
  wrappers, and write their spans to ``dump_dir`` when they exit (through a
  :mod:`multiprocessing` finalizer, which worker processes run on a clean
  shutdown);
* the ``repro serve`` daemon is started through ``serve_entry.py``, which
  installs the same wrappers and writes its spans when the daemon stops.

Every process stamps spans with :func:`time.perf_counter`, which is the
system-wide monotonic clock on Linux, so spans of different processes can
be compared against the benchmark's own time windows.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: One span: (span id, parent id or -1, name, layer, start, end, thread id,
#: process id, attribute).  The attribute is whatever the wrapper's
#: ``attr`` hook returned for the call (a result size, an op name, ...).
Span = Tuple[int, int, str, str, float, float, int, int, Any]

SID, PARENT, NAME, LAYER, START, END, TID, PID, ATTR = range(9)

AttrHook = Callable[[tuple, dict, Any], Any]


class Tracer:
    """Records spans from wrapped calls while :attr:`active` is true."""

    def __init__(self, dump_dir: Optional[Path] = None) -> None:
        self.spans: List[Span] = []
        self.active = False
        self.dump_dir = dump_dir
        self._ids = itertools.count()
        self._local = threading.local()
        self._pid = os.getpid()
        self._patches: List[Tuple[Any, str, Any, bool]] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _stack(self) -> List[int]:
        if os.getpid() != self._pid:
            self._become_child()
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _become_child(self) -> None:
        """First span in a forked worker: drop the parent's spans and arrange
        for this process's spans to be written out when it exits."""
        from multiprocessing import util

        self._pid = os.getpid()
        self.spans = []
        self._local = threading.local()
        if self.dump_dir is not None:
            path = Path(self.dump_dir) / f"spans-{self._pid}.json"
            util.Finalize(None, self.dump, args=(path,), exitpriority=100)

    def wrap(self, layer: str, name: str, fn: Callable, attr: Optional[AttrHook] = None):
        """A wrapper of ``fn`` that records one span per call."""
        clock = time.perf_counter
        ids = self._ids

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack = self._stack()
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            value = attr(args, kwargs, result) if attr is not None else None
            self.spans.append(
                (sid, parent, name, layer, start, end, threading.get_ident(), self._pid, value)
            )
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    @contextmanager
    def span(self, layer: str, name: str):
        """A span around a block of the benchmark's own code."""
        if not self.active:
            yield
            return
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else -1
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                (sid, parent, name, layer, start, end, threading.get_ident(), self._pid, None)
            )

    # ------------------------------------------------------------------
    # installing wrappers
    # ------------------------------------------------------------------
    def patch(
        self,
        owner: Any,
        attribute: str,
        layer: str,
        name: Optional[str] = None,
        attr: Optional[AttrHook] = None,
    ) -> None:
        """Replace ``owner.attribute`` (a module function or a method) with a
        traced wrapper; :meth:`restore` puts the original back."""
        own = isinstance(owner, type) and attribute in owner.__dict__
        original = owner.__dict__[attribute] if own else getattr(owner, attribute)
        self._patches.append((owner, attribute, original, own or not isinstance(owner, type)))
        setattr(owner, attribute, self.wrap(layer, name or attribute, original, attr))

    def restore(self) -> None:
        """Undo every :meth:`patch`, last first."""
        while self._patches:
            owner, attribute, original, own = self._patches.pop()
            if own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)

    # ------------------------------------------------------------------
    # writing out and reading back
    # ------------------------------------------------------------------
    def dump(self, path: Path) -> None:
        Path(path).write_text(json.dumps(self.spans))

    def collect(self, directory: Path) -> int:
        """Append the span files other processes wrote into ``directory``
        (then delete them); returns the number of spans added."""
        added = 0
        for path in sorted(Path(directory).glob("spans-*.json")):
            spans = load_spans(path)
            path.unlink()
            self.spans.extend(spans)
            added += len(spans)
        return added


def load_spans(path: Path) -> List[Span]:
    return [tuple(span) for span in json.loads(Path(path).read_text())]


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------
def covered(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo)
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        elif b > cur_b:
            cur_b = b
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Sequence[Span]) -> Dict[Tuple[int, int], float]:
    """Self time of every span, keyed by ``(pid, span id)``: its duration
    minus the part of its interval that its child spans cover."""
    children: Dict[Tuple[int, int], List[Tuple[float, float]]] = {}
    for span in spans:
        if span[PARENT] >= 0:
            children.setdefault((span[PID], span[PARENT]), []).append((span[START], span[END]))
    result = {}
    for span in spans:
        key = (span[PID], span[SID])
        inner = covered(children.get(key, ()), span[START], span[END])
        result[key] = (span[END] - span[START]) - inner
    return result


def attribute_wall(
    spans: Sequence[Span], pid: int, tid: int, wall_s: float
) -> Tuple[Dict[str, float], float]:
    """Split ``wall_s`` of one thread into per-layer self time and the rest.

    Only the spans of thread ``tid`` in process ``pid`` are used: that
    thread is the one the measured phase waits on, so its spans partition
    the wall time.  Self times of a span tree sum to the length of its
    root span, so ``sum(layers) + unattributed == wall_s`` exactly.
    """
    own = [span for span in spans if span[PID] == pid and span[TID] == tid]
    selfs = self_times(own)
    layers: Dict[str, float] = {}
    roots = 0.0
    for span in own:
        layers[span[LAYER]] = layers.get(span[LAYER], 0.0) + selfs[(span[PID], span[SID])]
        if span[PARENT] < 0:
            roots += span[END] - span[START]
    return layers, wall_s - roots


def outermost(spans: Sequence[Span], name: str) -> List[Span]:
    """Spans called ``name`` that are not nested in another span of that name
    (a memoized call that recurses into itself is counted once)."""
    by_key = {(span[PID], span[SID]): span for span in spans}
    found = []
    for span in spans:
        if span[NAME] != name:
            continue
        parent = by_key.get((span[PID], span[PARENT]))
        nested = False
        while parent is not None:
            if parent[NAME] == name:
                nested = True
                break
            parent = by_key.get((parent[PID], parent[PARENT]))
        if not nested:
            found.append(span)
    return found


def within(spans: Sequence[Span], windows: Sequence[Tuple[float, float]]) -> List[Span]:
    """Spans that start inside one of the time windows."""
    return [
        span for span in spans if any(lo <= span[START] <= hi for lo, hi in windows)
    ]
