"""Spans around the public functions of each cbound module.

``Tracer.install`` wraps every public function of the modules in
``MODULES`` and patches each binding through which a caller reaches it:
the defining module's own name (used by callers in that module and by
imports that run inside a function) and every other module's imported
name, e.g. ``classify.chi_minus_lower_bound`` and ``cli.apply_rules``.

A call opens a span when it crosses into another layer: from another
module, or from another group of the same module (``GROUPS``, e.g.
``axiom_audit`` calling ``apply_rules``).  Other calls inside a module are
part of their caller's work.  Spans (name, start, end, parent) are kept in
memory and summarized when the pass ends: a group's self time is its spans'
time minus the time of their child spans.

A function listed in ``GROUPS`` or ``HOOKS`` that the program no longer
has is reported in ``absent``; its metrics then read 0.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

MODULES = ("notation", "diagrams", "homfly", "braids", "classify", "splice", "embed", "cli")

# Groups inside a module.  Functions not listed belong to the module's
# default group: ``<module>.other`` where the module has groups, else
# ``<module>``.
GROUPS = {
    "homfly.homfly": "homfly",
    "homfly.homfly_braid": "homfly",
    "homfly.homfly_pd": "homfly",
    "braids.chi_minus_lower_bound": "braids.chi_search",
    "braids.seifert_matrix_of_closure": "braids.seifert",
    "braids.signature_and_nullity": "braids.seifert",
    "braids.determinant_of_closure": "braids.seifert",
    "braids.murasugi_chi_upper": "braids.seifert",
    "braids.expand_qp": "braids.certificates",
    "braids.qp_chi": "braids.certificates",
    "braids.braid_equal": "braids.certificates",
    "braids.normal_form": "braids.certificates",
    "classify.apply_rules": "classify.apply_rules",
    "classify.axiom_audit": "classify.axiom_audit",
    "classify.parse_kb": "classify.parse_kb",
    "classify.parse_certificate": "classify.parse_kb",
    "classify.table1_report": "classify.report",
    "classify.describe_ledger": "classify.report",
}


def _homfly_hook(counts, args, result, exc):
    counts["homfly.crossings_in"] += len(args[0].crossings)
    if exc is not None and type(exc).__name__ == "BudgetExceeded":
        counts["homfly.budget_exceeded"] += 1


def _chi_hook(counts, args, result, exc):
    if result is not None:
        counts["braids.chi_search.explored"] += result.explored
        counts["braids.chi_search.truncated"] += int(result.truncated)


def _parametrize_hook(counts, args, result, exc):
    # the dense crossing scan of one chart covers every pair of curves,
    # each curve with itself included
    if result is not None:
        sizes = [len(points) for _, points in result]
        counts["embed.cells"] += sum(a * b for k, a in enumerate(sizes) for b in sizes[k:])


def _pd_hook(counts, args, result, exc):
    if result is not None:
        counts["embed.crossings_out"] += len(result[0].crossings)


# Counters read at every call of these functions, wherever it comes from.
HOOKS = {
    "homfly.homfly": _homfly_hook,
    "braids.chi_minus_lower_bound": _chi_hook,
    "embed.parametrize": _parametrize_hook,
    "embed.oval_link_pd": _pd_hook,
}

COUNTERS = ("homfly.crossings_in", "homfly.budget_exceeded", "braids.chi_search.explored",
            "braids.chi_search.truncated", "embed.cells", "embed.crossings_out")


def group_of(qualname: str) -> str:
    if qualname in GROUPS:
        return GROUPS[qualname]
    module = qualname.split(".")[0]
    has_groups = any(g.startswith(module + ".") for g in GROUPS)
    return module + ".other" if has_groups else module


class Tracer:
    def __init__(self, package):
        self.package = package
        self.names: list[str] = []  # span name id -> qualified name
        self.name_group: list[int] = []  # span name id -> group id
        self.groups: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []  # open span indices
        self.stack_group: list[int] = []
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.patched: list[tuple[object, str, object]] = []
        self.absent: list[str] = []

    def _group_id(self, group: str) -> int:
        if group not in self.groups:
            self.groups.append(group)
        return self.groups.index(group)

    def install(self):
        modules = {m: getattr(self.package, m) for m in MODULES}
        wrappers = {}
        for mname, mod in modules.items():
            for name, fn in list(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrappers[fn] = self._wrap(fn, "%s.%s" % (mname, name), vars(mod))
        for mod in modules.values():
            space = vars(mod)
            for name, obj in list(space.items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self.patched.append((mod, name, obj))
                    setattr(mod, name, wrappers[obj])
        present = {"%s.%s" % (m, n) for m, mod in modules.items() for n in vars(mod)}
        self.absent = sorted(q for q in set(GROUPS) | set(HOOKS) if q not in present)

    def uninstall(self):
        for mod, name, obj in reversed(self.patched):
            setattr(mod, name, obj)
        self.patched.clear()

    def _wrap(self, fn, qualname: str, home: dict):
        group = group_of(qualname)
        gid = self._group_id(group)
        own_group = qualname in GROUPS
        name_id = len(self.names)
        self.names.append(qualname)
        self.name_group.append(gid)
        hook = HOOKS.get(qualname)
        stack, stack_group = self.stack, self.stack_group
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        counts = self.counts
        clock = time.perf_counter
        getframe = sys._getframe

        def call(args, kwargs):
            if hook is None:
                return fn(*args, **kwargs)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                hook(counts, args, None, exc)
                raise
            hook(counts, args, result, None)
            return result

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # a call from the home module stays in its caller's span unless
            # it enters one of the module's groups from another group
            if getframe(1).f_globals is home and (not own_group or not stack_group or stack_group[-1] == gid):
                if hook is None:
                    return fn(*args, **kwargs)
                return call(args, kwargs)
            idx = len(span_name)
            span_name.append(name_id)
            span_parent.append(stack[-1] if stack else -1)
            span_end.append(0.0)
            stack.append(idx)
            stack_group.append(gid)
            span_start.append(clock())
            try:
                return call(args, kwargs)
            finally:
                span_end[idx] = clock()
                stack.pop()
                stack_group.pop()

        return traced

    def spans(self) -> dict:
        """Every span as [name id, parent span or -1, start, end], times in
        seconds from the start of the first span."""
        t0 = self.span_start[0] if self.span_start else 0.0
        rows = [[self.span_name[i], self.span_parent[i], round(self.span_start[i] - t0, 7),
                 round(self.span_end[i] - t0, 7)] for i in range(len(self.span_name))]
        return {"names": self.names, "spans": rows}

    def summary(self) -> dict:
        """Per group: spans (``calls``) and self time; plus the counters."""
        n = len(self.span_name)
        child = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += self.span_end[i] - self.span_start[i]
        self_s = [0.0] * len(self.groups)
        calls = [0] * len(self.groups)
        for i in range(n):
            g = self.name_group[self.span_name[i]]
            self_s[g] += self.span_end[i] - self.span_start[i] - child[i]
            calls[g] += 1
        out = {}
        for g, group in enumerate(self.groups):
            out[group + ".self_s"] = self_s[g]
            out[group + ".calls"] = calls[g]
        out.update(self.counts)
        out["trace.spans"] = n
        return out
