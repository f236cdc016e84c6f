"""In-memory spans and counts for the traced run.

The program is not instrumented. Calls made by this process are timed by
wrapping public functions of the library's modules from outside (the
module attribute that callers look up is replaced for the life of the
run); worker-side calls are replayed in this process, on one thread, over
the same inputs, with the same kind of wrappers around them.

A span is (name, start, end, parent, op); ``op`` is the root span of the
operation that caused it, so the spans of one build, request or ingest
round share it. A span's self time is its duration minus the time its
child spans cover. Spans live in flat arrays and are written once, at the
end of the run.
"""

from __future__ import annotations

import contextlib
import functools
import time
from array import array
from collections import Counter

import numpy as np


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.counts: Counter = Counter()     # (op, name) -> total
        self.totals: Counter = Counter()     # name -> total over all ops
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self.paused = False                  # inside suspended()

    # --- spans ------------------------------------------------------
    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        sid = len(self.start)
        parent = self._stack[-1] if self._stack else -1
        self.name.append(nid)
        self.parent.append(parent)
        self.op.append(self.op[parent] if parent >= 0 else sid)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str):
        return _Span(self, name)

    def add(self, name: str, n: float = 1) -> None:
        """Add ``n`` to counter ``name`` of the current operation."""
        op = self.op[self._stack[-1]] if self._stack else -1
        self.counts[(op, name)] += n
        self.totals[name] += n

    # --- wrapping ----------------------------------------------------
    def wrap(self, owner, attr: str, name: str, on_call=None) -> None:
        """Replace ``owner.attr`` by a wrapper that records a span ``name``
        around each call and then calls ``on_call(args, kwargs, result)``
        outside the span."""
        orig = getattr(owner, attr)
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            sid = tracer.open(name)
            try:
                result = orig(*args, **kwargs)
            finally:
                tracer.close(sid)
            if on_call is not None:
                on_call(args, kwargs, result)
            return result

        self.patch(owner, attr, wrapper)

    def patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr), replacement))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        for owner, attr, orig, _ in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    @contextlib.contextmanager
    def suspended(self):
        """Run the block with every wrapper removed; a wrapper held by an
        instance checks ``paused``."""
        for owner, attr, orig, _ in reversed(self._patches):
            setattr(owner, attr, orig)
        self.paused = True
        try:
            yield
        finally:
            self.paused = False
            for owner, attr, _, repl in self._patches:
                setattr(owner, attr, repl)

    # --- reading -----------------------------------------------------
    def arrays(self):
        start = np.frombuffer(self.start, np.float64)
        end = np.frombuffer(self.end, np.float64)
        dur = end - start
        parent = np.frombuffer(self.parent, np.int32)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        return (np.frombuffer(self.name, np.int32), dur, dur - child,
                np.frombuffer(self.op, np.int32))

    def per_root(self, root_ids) -> dict[int, dict]:
        """For each root span id: {"wall": its duration, span name: self
        seconds summed over the spans it caused, counter name: total}."""
        names, dur, self_t, op = self.arrays()
        roots = {int(r) for r in root_ids}
        out = {r: {"wall": float(dur[r])} for r in roots}
        if len(dur):
            key = op.astype(np.int64) * len(self.names) + names
            uniq, inv = np.unique(key, return_inverse=True)
            sums = np.bincount(inv, weights=self_t)
            for k, v in zip(uniq.tolist(), sums.tolist()):
                r = k // len(self.names)
                if r in out:
                    out[r][self.names[k % len(self.names)]] = v
        for (r, name), v in self.counts.items():
            if r in out:
                out[r][name] = out[r].get(name, 0) + v
        return out

    def dump(self, path: str) -> None:
        names, dur, self_t, op = self.arrays()
        np.savez_compressed(
            path, names=np.array(self.names), name=names,
            start=np.frombuffer(self.start, np.float64),
            end=np.frombuffer(self.end, np.float64),
            parent=np.frombuffer(self.parent, np.int32), op=op)


class _Span:
    __slots__ = ("tracer", "name", "sid")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.sid = self.tracer.open(self.name)
        return self

    def __exit__(self, *exc):
        self.tracer.close(self.sid)
        return False
