"""Span recorder for the benchmark's traced runs.

The package source carries no tracing of its own, so this module times
calls into each layer from outside: ``Tracer.wrap`` replaces a module or
class attribute with a wrapper that records a span (name, start, end,
parent) around every call, and ``Tracer.restore`` puts the originals
back. Spans live in memory until the run ends.

Two kinds of record:

- a *span* is kept whole, so nesting, overlap across threads and self
  time (a span's duration minus the union of its children's intervals)
  can be computed afterwards;
- a *leaf* is a hot call with no traced callees (a tokenizer call, a
  dictionary-tagger call): only its total time and call count are kept,
  and its time is charged to the enclosing span as child time. This
  keeps tracing cheap on calls made once per distinct text.

A thread with no open span parents its spans to ``Tracer.root`` (the
current operation), which covers the worker threads that
``run_kg_pipeline`` starts for its annotate buckets.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """Spans and leaf totals of one traced run. Spans may be opened from
    several threads; leaves are for single-threaded callers."""

    def __init__(self):
        self.spans: list[dict] = []
        self.leaf_s: dict[str, float] = defaultdict(float)
        self.leaf_calls: dict[str, int] = defaultdict(int)
        self.root: int | None = None
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[dict]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **attrs):
        stack = self._stack()
        rec = {
            "name": name,
            "parent": stack[-1]["id"] if stack else self.root,
            "start": time.perf_counter(),
            "end": None,
            "leaf_child_s": 0.0,
            "attrs": attrs,
        }
        with self._lock:
            rec["id"] = len(self.spans)
            self.spans.append(rec)
        stack.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            stack.pop()

    def _leaf(self, name: str, fn, args, kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            self.leaf_s[name] += dt
            self.leaf_calls[name] += 1
            stack = self._stack()
            if stack:
                stack[-1]["leaf_child_s"] += dt

    def wrap(self, owner, attr: str, name: str | None = None, *, leaf=False,
             on_call=None):
        """Time every call of ``owner.attr``. ``on_call(rec, args, kwargs,
        result)`` may add counts to the span's ``attrs`` after the call."""
        orig = getattr(owner, attr)
        label = name or attr
        if leaf:
            def wrapper(*args, **kwargs):
                return self._leaf(label, orig, args, kwargs)
        else:
            def wrapper(*args, **kwargs):
                with self.span(label) as rec:
                    out = orig(*args, **kwargs)
                    if on_call is not None:
                        on_call(rec, args, kwargs, out)
                    return out
        functools.update_wrapper(wrapper, orig)
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, orig))

    def wrap_object_method(self, owner, attr: str, method: str, name: str):
        """Replace ``owner.attr`` (an object such as a compiled regex,
        whose methods cannot be patched) by a proxy whose ``method`` is
        timed as a leaf and whose other attributes pass through."""
        target = getattr(owner, attr)
        tracer = self

        class _Proxy:
            def __getattr__(self, key):
                return getattr(target, key)

        def timed(*args, **kwargs):
            return tracer._leaf(name, getattr(target, method), args, kwargs)

        proxy = _Proxy()
        setattr(proxy, method, timed)
        setattr(owner, attr, proxy)
        self._patches.append((owner, attr, target))

    def restore(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- analysis ----------------------------------------------------------

    def children(self) -> dict[int | None, list[dict]]:
        out: dict[int | None, list[dict]] = defaultdict(list)
        for s in self.spans:
            out[s["parent"]].append(s)
        return out

    def self_time(self, span: dict, kids: dict) -> float:
        """Duration minus the part of it covered by child spans (merged,
        so children overlapping in time are not counted twice) and
        minus its leaf-call time."""
        lo, hi = span["start"], span["end"]
        covered = union_length(
            (max(c["start"], lo), min(c["end"], hi))
            for c in kids.get(span["id"], ())
            if c["end"] is not None
        )
        return max(0.0, hi - lo - covered - span["leaf_child_s"])

    def table(self) -> dict[str, dict]:
        """Calls, total seconds and self seconds per span name and per
        leaf name."""
        kids = self.children()
        out: dict[str, dict] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for s in self.spans:
            if s["end"] is None:
                continue
            t = out[s["name"]]
            t["calls"] += 1
            t["total_s"] += s["end"] - s["start"]
            t["self_s"] += self.self_time(s, kids)
        for name, total in self.leaf_s.items():
            out[name] = {"calls": self.leaf_calls[name], "total_s": total,
                         "self_s": total}
        return dict(out)


def unattributed_s(tracer: Tracer, op: dict) -> float:
    """The part of operation span ``op`` that none of its direct child
    spans covers."""
    return op["end"] - op["start"] - union_length(
        (c["start"], c["end"]) for c in tracer.children().get(op["id"], ())
        if c["end"] is not None)


def union_length(intervals) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def caller_in(path_suffix: str) -> int | None:
    """Line number of the innermost frame of the current stack in a file
    ending with ``path_suffix``, or None when no frame is in it."""
    f = sys._getframe(1)
    while f is not None:
        if f.f_code.co_filename.endswith(path_suffix):
            return f.f_lineno
        f = f.f_back
    return None
