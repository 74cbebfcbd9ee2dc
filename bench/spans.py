"""Spans recorded from outside the program, around calls into its modules.

`Recorder.install` replaces every binding of a traced function inside the
`itmbench` package (module attributes and module-level dict values, such as
reader registries) with a wrapper, and `uninstall` puts the originals back,
so untraced ops run the program's own functions untouched. Spans are kept in
memory; the caller writes them out when the run ends.

A span opened in a worker thread whose own stack is empty gets, as parent,
the innermost span open in the op's thread at that moment: the call that
fanned the work out. Calls made outside an op, such as the benchmark's own
output checks, pass through unrecorded.
"""

from __future__ import annotations

import inspect
import itertools
import sys
import threading
import time
import tracemalloc
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Span:
    sid: int
    name: str  # "<module>.<function>", or "cli" for the op itself
    start: int  # perf_counter_ns
    end: int
    parent: int | None
    op: int
    cpu: int  # thread CPU time spent between start and end, ns
    attrs: dict = field(default_factory=dict)

    @property
    def dur(self) -> int:
        return self.end - self.start


@dataclass(frozen=True)
class Traced:
    """One public function to wrap; `annotate(bound_args, result)` adds attributes."""

    module: str
    func: str
    annotate: object = None
    alloc: bool = False  # measure the tracemalloc peak when the recorder asks for it


class Recorder:
    def __init__(self, error_type: type):
        self.spans: list = []
        self.measure_alloc = False
        self._error_type = error_type
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._op_stack: list | None = None  # the op thread's stack while an op runs
        self._op = 0
        self._restore: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def run_op(self, op: int, fn, *args):
        """Call `fn(*args)` as op `op` under a root span named "cli"."""
        self._op = op
        self._op_stack = self._stack()
        try:
            return self._call("cli", fn, args, {})
        finally:
            self._op_stack = None

    def _call(self, name, fn, args, kwargs, annotate=None, alloc=False):
        if self._op_stack is None:
            return fn(*args, **kwargs)
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._op_stack[-1] if self._op_stack else None
        sid = next(self._ids)
        attrs = {}
        if alloc:
            tracemalloc.start()
        stack.append(sid)
        cpu = time.thread_time_ns()
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        except self._error_type as exc:
            if not getattr(exc, "_bench_counted", False):
                exc._bench_counted = True
                attrs["error"] = type(exc).__name__
            raise
        finally:
            end = time.perf_counter_ns()
            cpu = time.thread_time_ns() - cpu
            stack.pop()
            if alloc:
                attrs["peak_alloc_bytes"] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            self.spans.append(Span(sid, name, start, end, parent, self._op, cpu, attrs))
        if annotate is not None:
            attrs.update(annotate(args, kwargs, result))
        return result

    def _wrap(self, spec: Traced, fn):
        name = f"{spec.module}.{spec.func}"
        annotate = None
        if spec.annotate is not None:
            sig = inspect.signature(fn)

            def annotate(args, kwargs, result):
                return spec.annotate(sig.bind(*args, **kwargs).arguments, result)

        def wrapper(*args, **kwargs):
            alloc = spec.alloc and self.measure_alloc
            return self._call(name, fn, args, kwargs, annotate, alloc)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def install(self, package: str, specs) -> None:
        """Wrap every binding of each traced function inside `package`."""
        if self._restore:
            raise RuntimeError("spans are already installed")
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        for spec in specs:
            orig = getattr(sys.modules[f"{package}.{spec.module}"], spec.func)
            wrapper = self._wrap(spec, orig)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapper)
                        self._restore.append((mod, key, orig, True))
                    elif isinstance(value, dict):
                        for dkey, dvalue in list(value.items()):
                            if dvalue is orig:
                                value[dkey] = wrapper
                                self._restore.append((value, dkey, orig, False))

    def uninstall(self) -> None:
        for target, key, orig, is_attr in reversed(self._restore):
            if is_attr:
                setattr(target, key, orig)
            else:
                target[key] = orig
        self._restore = []


# ---------------------------------------------------------------------------
# Self time


def _covered(intervals) -> int:
    """Length of the union of (start, end) intervals."""
    total = 0
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


def self_times(spans) -> tuple:
    """Self time of each span of one op, and the op's concurrency overlap.

    Self time is a span's duration minus the part of it that its children
    cover. Children running in parallel threads can cover the same instant;
    `overlap` is the sum over spans of (children's durations - their union),
    so that sum(self) - overlap equals the root's duration. Raises ValueError
    when the spans are not one tree of nested intervals.
    """
    by_id = {s.sid: s for s in spans}
    children: dict = {}
    roots = []
    for s in spans:
        if s.parent is None or s.parent not in by_id:
            roots.append(s)
            continue
        p = by_id[s.parent]
        if s.start < p.start or s.end > p.end:
            raise ValueError(f"span {s.name} is not inside its parent {p.name}")
        children.setdefault(s.parent, []).append(s)
    if len(roots) != 1:
        raise ValueError(f"expected one root span, found {len(roots)}")
    selfs = {}
    overlap = 0
    for s in spans:
        kids = [(c.start, c.end) for c in children.get(s.sid, ())]
        covered = _covered(kids)
        selfs[s.sid] = s.dur - covered
        overlap += sum(e - b for b, e in kids) - covered
    return selfs, overlap
