"""Outside-in spans around isacsim's public functions, and self-time arithmetic.

`Tracer.install` replaces every public function of the layer modules with a
timing wrapper in every isacsim namespace that binds it: `cli`, `sensing` and
`waveform` import functions by name, so patching only the defining module
would miss their calls.  Spans are kept in memory and written out at the end.
"""

import functools
import importlib
import inspect
import itertools
import threading
import time
from collections import namedtuple

LAYERS = ("rng", "channel", "capacity", "sensing", "waveform", "precoding", "estimation", "cli")

Span = namedtuple("Span", "id name start end parent thread")


class Tracer:
    """Thread-local span stacks feeding one in-memory span list.

    A span opened on a worker thread with an empty stack takes as parent the
    innermost span open on the thread that installed the tracer: the worker
    runs on behalf of that call (the CLI's thread pool runs trials for
    `run_scenario`).
    """

    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._driver = threading.get_ident()
        self._driver_stack = self._stack()
        self._patched = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        spans, ids, driver_stack = self.spans, self._ids, self._driver_stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            elif threading.get_ident() != self._driver and driver_stack:
                parent = driver_stack[-1]
            else:
                parent = -1
            span_id = next(ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append(Span(span_id, name, start, end, parent, threading.get_ident()))

        return traced

    def install(self) -> None:
        package = importlib.import_module("isacsim")
        modules = {short: importlib.import_module(f"isacsim.{short}") for short in LAYERS}
        namespaces = [package, *modules.values()]
        for short, module in modules.items():
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                wrapper = self.wrap(f"{short}.{name}", obj)
                for namespace in namespaces:
                    if vars(namespace).get(name) is obj:
                        setattr(namespace, name, wrapper)
                        self._patched.append((namespace, name, obj))

    def uninstall(self) -> None:
        for namespace, name, obj in reversed(self._patched):
            setattr(namespace, name, obj)
        self._patched.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,start_s,end_s,parent,thread\n")
            for s in sorted(self.spans):
                fh.write(f"{s.id},{s.name},{s.start!r},{s.end!r},{s.parent},{s.thread}\n")


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict:
    """Per span id: duration minus the part of it its children cover.

    Children on other threads may overlap one another, so coverage is the
    union of the children's intervals clipped to the parent's interval.
    """
    by_id = {s.id: s for s in spans}
    children = {}
    for s in spans:
        if s.parent in by_id:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        clipped = [(max(a, s.start), min(b, s.end)) for a, b in children.get(s.id, ())]
        covered = union_length([(a, b) for a, b in clipped if b > a])
        out[s.id] = (s.end - s.start) - covered
    return out


def layer_totals(spans) -> dict:
    """Per span name: (calls, total self time in seconds)."""
    selfs = self_times(spans)
    totals = {}
    for s in spans:
        calls, self_s = totals.get(s.name, (0, 0.0))
        totals[s.name] = (calls + 1, self_s + selfs[s.id])
    return totals
