"""Per-layer tracing of the coxex engine from outside the package.

`instrument(cx, tracer)` replaces the public functions at each module
boundary with wrappers that record time and counts into a `Tracer`, and
restores the originals when the context ends.  coxex modules bind names
directly (``from .elements import bfs_tables``), so a function is replaced in
every ``coxex.*`` module that binds it, not only where it is defined.

Timing is by self time: a wrapped call's duration minus the durations of the
wrapped calls it made.  Each time metric sums the self time of its functions,
so the time metrics plus ``trace.other_s`` (the self time of the benchmark's
operation spans) add up to the traced wall time.  Coarse calls are also kept
as spans (name, start, end, parent) for the trace file; hot leaf functions
only feed the totals, because a span per call would not fit in memory.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

OP = "trace.other_s"


class Tracer:
    """Self-time totals, call counts and coarse spans of one traced pass."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.spans: list = []
        self._stack: list = []  # [start, child seconds, span index or None]
        self._open_spans: list[int] = []

    def _enter(self, span_name):
        idx = None
        if span_name is not None:
            idx = len(self.spans)
            parent = self._open_spans[-1] if self._open_spans else None
            self.spans.append([span_name, 0.0, 0.0, parent])
            self._open_spans.append(idx)
        frame = [perf_counter(), 0.0, idx]
        self._stack.append(frame)
        return frame

    def _exit(self, key, frame):
        end = perf_counter()
        self._stack.pop()
        dur = end - frame[0]
        self.self_s[key] += dur - frame[1]
        self.calls[key] += 1
        if self._stack:
            self._stack[-1][1] += dur
        if frame[2] is not None:
            span = self.spans[frame[2]]
            span[1], span[2] = frame[0], end
            self._open_spans.pop()

    @contextmanager
    def op(self, name: str):
        """Root span of one benchmark operation."""
        frame = self._enter(name)
        try:
            yield
        finally:
            self._exit(OP, frame)

    def timed(self, key: str, fn, span: str | None = None, after=None):
        """Wrap fn to add its self time to `key`, and to record a span named
        `span` if given; `after(result, args)` may add counts on return."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._enter(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(key, frame)
            if after is not None:
                after(result, args)
            return result
        return wrapper

    def counted(self, key: str, fn):
        """Wrap fn to count calls only; its time stays with the caller."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper


class _Patcher:
    """Replaces attributes and dict entries, and undoes it in reverse."""

    def __init__(self):
        self._undo: list = []

    def everywhere(self, original, wrapper):
        """Rebind `original` to `wrapper` in every loaded coxex module."""
        hits = 0
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "coxex" or name.startswith("coxex.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.setattr(module, attr, wrapper)
                    hits += 1
        if not hits:
            raise RuntimeError(f"{original.__qualname__} is bound in no coxex module")

    def setattr(self, target, attr, value):
        self._undo.append((setattr, target, attr, getattr(target, attr)))
        setattr(target, attr, value)

    def setitem(self, mapping, key, value):
        self._undo.append((type(mapping).__setitem__, mapping, key, mapping[key]))
        mapping[key] = value

    def undo(self):
        while self._undo:
            op, target, key, value = self._undo.pop()
            op(target, key, value)


@contextmanager
def instrument(cx, tracer: Tracer):
    """Install the layer wrappers on the imported coxex package `cx`."""
    p = _Patcher()
    try:
        _install(cx, tracer, p)
        yield tracer
    finally:
        p.undo()


def _install(cx, tracer: Tracer, p: _Patcher):
    # by module name: the package's own `excess` attribute is the function
    el, ex, la, pa, rp, rt, sg, ve = (
        sys.modules[f"{cx.__name__}.{m}"] for m in
        ("elements", "excess", "linalg", "parabolic", "repro", "rootsystem",
         "signedperm", "verify"))
    counts = tracer.counts

    def fn(original, key, span=False, after=None):
        name = original.__qualname__ if span else None
        p.everywhere(original, tracer.timed(key, original, name, after))

    def method(cls, attr, key, span=False, after=None):
        original = getattr(cls, attr)
        name = original.__qualname__ if span else None
        p.setattr(cls, attr, tracer.timed(key, original, name, after))

    def count_fn(original, key):
        p.everywhere(original, tracer.counted(key, original))

    # rootsystem
    fn(rt.build_root_system, "rootsystem.build_s", span=True)
    method(rt.RootSystem, "signed_index_of", "rootsystem.root_lookup_s")

    # elements: count BFS elements only when the tables are computed,
    # not when the cached tables of the full group are returned
    bfs = el.bfs_tables

    def bfs_wrapper(rs, guard=None, gens=None):
        fresh = gens is not None or rs._bfs is None
        result = traced_bfs(rs, guard, gens)
        if fresh:
            counts["elements.bfs_elements"] += len(result[0])
        return result
    traced_bfs = tracer.timed("elements.bfs_s", bfs, span="bfs_tables")
    p.everywhere(bfs, functools.wraps(bfs)(bfs_wrapper))
    count_fn(el.compose_tables, "elements.compose_calls")

    # excess
    def groupdata_sizes(_, args):
        k = len(args[0].involutions)
        counts["excess.involutions"] += k
        counts["excess.pairs"] += k * k
    method(ex.GroupData, "__init__", "excess.groupdata_s", span=True,
           after=groupdata_sizes)
    for attr in ("refl_excess_of", "refl_excess_in", "jset_of"):
        method(ex.GroupData, attr, "excess.refl_excess_s")
    fn(ex.j_set, "excess.refl_excess_s")
    fn(ex.parabolic_reflection_excess, "excess.refl_excess_s")

    def iw_size(result, _):
        counts["excess.iw_size"] += len(result.elements)
    fn(ex.inverting_involutions, "excess.iw_exhaustive_s", span=True, after=iw_size)
    fn(ex.inverting_involutions_structured, "excess.iw_structured_s", span=True,
       after=iw_size)

    # the coset is as large as the centralizer closure made inside the call
    isi = ex.inverting_signed_involutions

    def isi_wrapper(*args, **kwargs):
        before = counts["signedperm.coset_elements"]
        result = traced_isi(*args, **kwargs)
        counts["signedperm.coset_scanned"] += counts["signedperm.coset_elements"] - before
        counts["signedperm.coset_kept"] += len(result)
        return result
    traced_isi = tracer.timed("excess.iw_structured_s", isi)
    p.everywhere(isi, functools.wraps(isi)(isi_wrapper))
    fn(ex.excess_report, "excess.report_s", span=True)
    p.setattr(ex.GroupData, "display",
              tracer.counted("excess.display_calls", ex.GroupData.display))

    # linalg
    fn(la.fixed_vector_basis, "linalg.fixed_space_s")
    fn(la.fixes_all, "linalg.fixes_all_s")
    count_fn(la.restrict, "linalg.restrict_calls")

    # parabolic
    fn(pa.parabolic_context, "parabolic.context_s", span=True)

    # signedperm
    def coset_size(result, _):
        counts["signedperm.coset_elements"] += len(result)
    fn(sg.centralizer_elements, "signedperm.centralizer_s", span=True, after=coset_size)
    fn(sg.to_root_perm, "signedperm.to_root_perm_s")
    fn(sg.from_root_perm, "signedperm.from_root_perm_s")

    # verify: one key per theorem runner; checks are the tally's passes
    for name, spec in list(ve.THEOREMS.items()):
        def checks(tally, _, name=name):
            counts[f"verify.checks.{name}"] += tally.passes
            counts["verify.counterexamples"] += len(tally.bad)
        key = f"verify.runner_s.{name}"
        runner = tracer.timed(key, spec.runner, span=key, after=checks)
        p.setitem(ve.THEOREMS, name, dataclasses.replace(spec, runner=runner))

    # repro: one key per golden example
    for name, run in list(rp.EXAMPLES.items()):
        key = f"repro.example_s.{name}"
        p.setitem(rp.EXAMPLES, name, tracer.timed(key, run, span=key))
