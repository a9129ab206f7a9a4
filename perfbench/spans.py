"""Spans around the public entry points of each kmnfree layer.

The tracer patches module attributes and class methods from outside the
library, so the library itself carries no instrumentation.  A wrapper
records one span (name, start, end, parent) per call while the tracer is
active and costs one attribute test when it is not.  Spans are kept in
flat arrays in memory and written out once, at the end of a run.

Helpers that run more than ~10^5 times per round (``common_neighbors``,
``colex_combinations``) are not wrapped; their work is counted
analytically from the inputs of the entry points that call them
(``core.freeness_subsets``, ``completion.deficiency_subsets``).
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array
from math import comb

# Public entry points per module: function names, or (class, method) pairs.
# Span names are "<module>.<function>", "<module>.<method>" for
# StructureBuilder and "<module>.LazyCompletion.<method>"; indep.check is
# recorded per relation as "indep.check.<RELATION>".
ENTRY_POINTS = {
    "core": ["is_kmn_free", "satisfies_complete", "isomorphic_over", "induced",
             ("StructureBuilder", "add_incidence")],
    "completion": ["free_completion", "complete_step", "deficient_sets",
                   "relative_free_completion",
                   ("LazyCompletion", "closure"), ("LazyCompletion", "lines_through"),
                   ("LazyCompletion", "points_on"),
                   ("LazyCompletion", "is_monster_closed")],
    "closure": ["i_closure", "is_i_closed", "closure_stages", "generates"],
    "amalgam": ["free_amalgam", "independence_glue", "pattern_consistent",
                "extension_witness"],
    "indep": ["check", "indep_sequence"],
    "gamma": ["separating_check", "gamma", "gamma_invariants"],
    "finsearch": ["find_projective_plane", "embed_in_finite_plane",
                  "embed_search_general"],
    "cli": ["dispatch", "parse_structure", "emit_structure"],
}

RELATIONS = ("ALG", "I", "DIV", "OTIMES")


def span_names() -> list:
    """Every span name the tracer can record, in report order."""
    out = []
    for mod, entries in ENTRY_POINTS.items():
        for entry in entries:
            if entry == "check":
                out += [f"indep.check.{r}" for r in RELATIONS]
            elif isinstance(entry, tuple):
                out.append(span_names_for(mod, *entry))
            else:
                out.append(f"{mod}.{entry}")
    return out


def _package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "kmnfree" or name.startswith("kmnfree."))]


def _rebind(orig, repl) -> None:
    """Point every kmnfree module attribute bound to ``orig`` at ``repl``."""
    for mod in _package_modules():
        for attr, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, attr, repl)


class WorkHooks:
    """Always-on counters for completion elements spawned.

    Bulk spawns are read from each ``free_completion`` result (final size
    minus seed size); lazy spawns from every ``LazyCompletion`` workspace
    created during an operation (its size minus its base size).  Both are
    one extra Python call per completion run or workspace, not per element.
    """

    def __init__(self, kmn):
        self.bulk = 0
        self._workspaces = []
        completion = sys.modules[f"{kmn.__name__}.completion"]
        free_completion = completion.free_completion

        def counted_free_completion(*args, **kwargs):
            run = free_completion(*args, **kwargs)
            self.bulk += len(run.final.structure) - len(run.stages[0].structure)
            return run

        functools.update_wrapper(counted_free_completion, free_completion)
        _rebind(free_completion, counted_free_completion)

        lazy_cls = completion.LazyCompletion
        lazy_init = lazy_cls.__init__
        workspaces = self._workspaces

        def registering_init(ws, *args, **kwargs):
            lazy_init(ws, *args, **kwargs)
            workspaces.append(ws)

        lazy_cls.__init__ = registering_init

    def take(self) -> tuple:
        """(bulk, lazy) elements spawned since the last call."""
        lazy = sum(len(ws) - len(ws.base) for ws in self._workspaces)
        bulk, self.bulk = self.bulk, 0
        self._workspaces.clear()
        return bulk, lazy


class Tracer:
    """Span recorder; see the module docstring."""

    def __init__(self):
        self.names = span_names()
        self._index = {nm: i for i, nm in enumerate(self.names)}
        self.name = array("i")
        self.parent = array("i")
        self.nested = array("b")  # 1 if an enclosing span has the same name
        self.start = array("d")
        self.end = array("d")
        self.op = array("i")  # operation id: spans of one operation share it
        self.current_op = -1
        self.active = False
        self._stack = []
        self._depth = [0] * len(self.names)
        # inputs kept for the analytic counts, evaluated after the run
        self.freeness_inputs = []
        self.deficiency_inputs = []

    # -- installation ----------------------------------------------------

    def install(self, kmn) -> None:
        for mod, entries in ENTRY_POINTS.items():
            module = sys.modules[f"{kmn.__name__}.{mod}"]
            for entry in entries:
                if isinstance(entry, tuple):
                    cls_name, meth = entry
                    cls = getattr(module, cls_name)
                    setattr(cls, meth, self._wrap(span_names_for(mod, cls_name, meth),
                                                  getattr(cls, meth)))
                    continue
                orig = getattr(module, entry)
                if entry == "check":
                    wrapped = self._wrap_check(orig)
                else:
                    wrapped = self._wrap(f"{mod}.{entry}", orig,
                                         self._recorder(f"{mod}.{entry}"))
                _rebind(orig, wrapped)

    def _recorder(self, name):
        """A hook keeping the inputs an analytic count needs, or None."""
        if name == "core.is_kmn_free":
            return lambda args, kwargs, result: self.freeness_inputs.append(args[0])
        if name == "completion.free_completion":
            # each input stage is scanned once by free_completion itself
            return lambda args, kwargs, result: self.deficiency_inputs.extend(
                st.structure for st in result.stages[:-1])
        if name == "completion.complete_step":
            return lambda args, kwargs, result: self.deficiency_inputs.append(
                args[0].structure)
        if name == "completion.deficient_sets":
            return lambda args, kwargs, result: self.deficiency_inputs.append(args[0])
        return None

    def _wrap(self, name, fn, record=None):
        idx = self._index[name]
        tracer = self
        clock = time.perf_counter
        stack, depth = self._stack, self._depth
        names, parents, nested = self.name, self.parent, self.nested
        starts, ends, ops = self.start, self.end, self.op

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            sid = len(starts)
            names.append(idx)
            parents.append(stack[-1] if stack else -1)
            nested.append(1 if depth[idx] else 0)
            ops.append(tracer.current_op)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(sid)
            depth[idx] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                starts[sid] = t0
                depth[idx] -= 1
                stack.pop()
            if record is not None:
                record(args, kwargs, result)
            return result

        return functools.update_wrapper(traced, fn)

    def _wrap_check(self, fn):
        per_relation = {r: self._wrap(f"indep.check.{r}", fn) for r in RELATIONS}

        def check(q):
            return per_relation[q.relation.name](q)

        return functools.update_wrapper(check, fn)

    # -- results -------------------------------------------------------------

    def layer_totals(self) -> dict:
        """{span name: (calls, busy_s, self_s)} over the recorded spans.

        Busy time counts only outermost spans of a name; self time is a
        span's duration minus the durations of its direct children.
        """
        n = len(self.start)
        child = [0.0] * n
        dur = [self.end[i] - self.start[i] for i in range(n)]
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        totals = {nm: [0, 0.0, 0.0] for nm in self.names}
        for i in range(n):
            t = totals[self.names[self.name[i]]]
            t[0] += 1
            if not self.nested[i]:
                t[1] += dur[i]
            t[2] += dur[i] - child[i]
        return {nm: tuple(v) for nm, v in totals.items()}

    def module_busy(self) -> dict:
        """{module: seconds} in spans of a module not inside another span of
        the same module, so nested entry points are counted once."""
        modules = {nm: nm.split(".")[0] for nm in self.names}
        bit = {mod: 1 << i for i, mod in enumerate(ENTRY_POINTS)}
        inside = array("i")  # bitmask of modules on each span's ancestor path
        busy = dict.fromkeys(ENTRY_POINTS, 0.0)
        for i in range(len(self.start)):
            mod = modules[self.names[self.name[i]]]
            p = self.parent[i]
            mask = inside[p] | bit[modules[self.names[self.name[p]]]] if p >= 0 else 0
            inside.append(mask)
            if not mask & bit[mod]:
                busy[mod] += self.end[i] - self.start[i]
        return busy

    def freeness_subsets(self) -> int:
        """Sum over is_kmn_free calls of sum_l C(deg l, m): m-sets scanned."""
        total = 0
        for s in self.freeness_inputs:
            m = s.params.m
            total += sum(comb(s.degree(l), m) for l in s.lines)
        return total

    def deficiency_subsets(self) -> int:
        """Sum over deficiency scans of C(P, m) + C(L, n)."""
        total = 0
        for s in self.deficiency_inputs:
            total += comb(len(s.points), s.params.m) + comb(len(s.lines), s.params.n)
        return total

    def write(self, path) -> int:
        """Write the spans as gzipped tab-separated lines; returns the count."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id\top\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.op[i]}\t{self.parent[i]}\t"
                         f"{self.names[self.name[i]]}\t{self.start[i]:.9f}\t"
                         f"{self.end[i]:.9f}\n")
        return len(self.start)


def span_names_for(mod: str, cls: str, meth: str) -> str:
    return f"{mod}.{cls}.{meth}" if cls == "LazyCompletion" else f"{mod}.{meth}"
