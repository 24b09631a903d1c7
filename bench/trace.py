"""Spans recorded from outside the program, and what is computed from them.

:class:`Tracer` wraps the callables listed in ``bench/layers.py`` for
the duration of a traced run.  Each call records ``(id, parent, name,
start, end)`` on a thread-local stack; work handed to a
``ThreadPoolExecutor`` (the cluster's shard fan-out) inherits the
submitting span as its parent.  Spans stay in memory until the run ends.

A span's **self time** is the part of its interval during which it is
the innermost open span of its request.  When several threads of one
request are innermost at once (a fan-out), the instant is split equally
between them, so the self times of a request always sum to its root
span's duration — one budget, however many threads spent it.
"""

from __future__ import annotations

import concurrent.futures
import functools
import importlib
import itertools
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Iterable, NamedTuple


class Span(NamedTuple):
    sid: int
    parent: int  # 0 = root
    name: int  # index into the boundary table
    thread: int
    start: int  # time.perf_counter_ns(); CLOCK_MONOTONIC, comparable across processes
    end: int


def _resolve(target: str) -> tuple[Any, str]:
    module_name, _, path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *holders, attr = path.split(".")
    for holder in holders:
        owner = getattr(owner, holder)
    if attr not in vars(owner):
        raise AttributeError(f"{target} is not defined on {owner!r}")
    return owner, attr


class Tracer:
    """Installs span-recording wrappers; holds the spans."""

    def __init__(
        self,
        boundaries: Iterable[tuple[str, str]],
        tags: dict[str, Callable[..., str]] | None = None,
    ) -> None:
        self.boundaries = tuple(boundaries)
        self._tag_of = tags or {}
        self._local = threading.local()
        self._ids = itertools.count(1)  # next() is atomic under the GIL
        self._buffers: list[list[tuple]] = []
        self._buffers_lock = threading.Lock()
        self._undo: list[tuple[Any, str, Any]] = []
        #: span id -> tag, for the few boundaries that carry one
        self.tags: dict[int, str] = {}

    # -- recording ---------------------------------------------------------

    def _thread_state(self) -> list:
        """``[stack, out, inherited_parent]`` for the calling thread."""
        out: list[tuple] = []
        state = [[], out, 0]
        self._local.state = state
        with self._buffers_lock:
            self._buffers.append(out)
        return state

    def _wrap(self, fn: Callable, name: int, tag_of: Callable[..., str] | None):
        local, ids, now = self._local, self._ids, time.perf_counter_ns
        new_state, tags = self._thread_state, self.tags

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                state = local.state
            except AttributeError:
                state = new_state()
            stack = state[0]
            sid = next(ids)
            parent = stack[-1] if stack else state[2]
            if tag_of is not None:
                tags[sid] = tag_of(*args, **kwargs)
            stack.append(sid)
            start = now()
            try:
                return fn(*args, **kwargs)
            finally:
                end = now()
                stack.pop()
                state[1].append((sid, parent, name, start, end))

        return traced

    def _current(self) -> int:
        state = getattr(self._local, "state", None)
        if state is None:
            return 0
        return state[0][-1] if state[0] else state[2]

    def _propagating_submit(self, submit: Callable):
        tracer = self

        @functools.wraps(submit)
        def traced_submit(pool, fn, /, *args, **kwargs):
            parent = tracer._current()
            if not parent:
                return submit(pool, fn, *args, **kwargs)

            def adopted(*a, **k):
                state = getattr(tracer._local, "state", None) or tracer._thread_state()
                previous, state[2] = state[2], parent
                try:
                    return fn(*a, **k)
                finally:
                    state[2] = previous

            return submit(pool, adopted, *args, **kwargs)

        return traced_submit

    def install(self) -> "Tracer":
        for name, (_layer, target) in enumerate(self.boundaries):
            owner, attr = _resolve(target)
            original = vars(owner)[attr]
            setattr(owner, attr, self._wrap(original, name, self._tag_of.get(target)))
            self._undo.append((owner, attr, original))
        pool = concurrent.futures.ThreadPoolExecutor
        self._undo.append((pool, "submit", pool.submit))
        pool.submit = self._propagating_submit(pool.submit)
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def spans(self) -> list[Span]:
        with self._buffers_lock:
            buffers = list(self._buffers)
        return [
            Span(sid, parent, name, thread, start, end)
            for thread, buffer in enumerate(buffers)
            for sid, parent, name, start, end in list(buffer)
        ]


# -- analysis --------------------------------------------------------------


def self_times(spans: list[Span]) -> tuple[dict[int, float], dict[int, int]]:
    """Self time in ns of every span, and the root span of every span.

    A span whose parent is not in *spans* is a root.  Children are
    clipped to their parent's interval (a task still finishing after
    the call that submitted it returned is not that call's time).
    """
    by_id = {span.sid: span for span in spans}
    children: dict[int, list[int]] = defaultdict(list)
    roots: list[int] = []
    for span in spans:
        if span.parent in by_id:
            children[span.parent].append(span.sid)
        else:
            roots.append(span.sid)
    own: dict[int, float] = {}
    root_of: dict[int, int] = {}
    for root in roots:
        first = by_id[root]
        tree = [(root, first.start, first.end)]
        threads = {first.thread}
        cursor = 0
        while cursor < len(tree):
            sid, lo, hi = tree[cursor]
            cursor += 1
            root_of[sid] = root
            for child in children.get(sid, ()):
                span = by_id[child]
                threads.add(span.thread)
                start = min(max(span.start, lo), hi)
                tree.append((child, start, min(max(span.end, start), hi)))
        if len(threads) == 1:
            # one thread: children cannot overlap, so a span's self time
            # is its duration minus its children's
            for sid, lo, hi in tree:
                own[sid] = own.get(sid, 0.0) + (hi - lo)
                if sid != root:
                    parent = by_id[sid].parent
                    own[parent] = own.get(parent, 0.0) - (hi - lo)
        else:
            _sweep(tree, by_id, own)
    return own, root_of


def _sweep(tree: list[tuple[int, int, int]], by_id: dict[int, Span], own: dict[int, float]) -> None:
    """Split every instant of a multi-thread request equally between
    the spans that are innermost on their thread at that instant."""
    events = []
    for sid, lo, hi in tree:
        own.setdefault(sid, 0.0)
        if hi > lo:
            # ends sort before starts at one instant; a parent starts before
            # and ends after its children (ids grow in start order)
            events.append((lo, 1, sid, sid))
            events.append((hi, 0, -sid, sid))
    events.sort()
    open_children: dict[int, int] = defaultdict(int)
    active: set[int] = set()
    innermost: set[int] = set()
    previous = events[0][0]
    for at, is_start, _order, sid in events:
        if at > previous and innermost:
            share = (at - previous) / len(innermost)
            for holder in innermost:
                own[holder] += share
        previous = at
        parent = by_id[sid].parent
        if is_start:
            active.add(sid)
            innermost.add(sid)
            if parent in active:
                open_children[parent] += 1
                innermost.discard(parent)
        else:
            active.discard(sid)
            innermost.discard(sid)
            if parent in active:
                open_children[parent] -= 1
                if not open_children[parent]:
                    innermost.add(parent)


def layer_totals(
    spans: list[Span],
    own: dict[int, float],
    root_of: dict[int, int],
    layer_of: list[str],
    window: tuple[int, int],
) -> tuple[dict[str, float], dict[str, int], dict[int, int], float]:
    """Per-layer self time (ms) and call counts, per-name call counts,
    and total root-span time (ms), over the requests whose root span
    starts inside *window* (*own*, *root_of* from :func:`self_times`)."""
    by_id = {span.sid: span for span in spans}
    in_window = {
        root for root in set(root_of.values())
        if window[0] <= by_id[root].start <= window[1]
    }
    self_ms: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    by_name: dict[int, int] = defaultdict(int)
    for span in spans:
        if root_of[span.sid] in in_window:
            layer = layer_of[span.name]
            self_ms[layer] += own[span.sid] / 1e6
            calls[layer] += 1
            by_name[span.name] += 1
    root_ms = sum(by_id[root].end - by_id[root].start for root in in_window) / 1e6
    return dict(self_ms), dict(calls), dict(by_name), root_ms
