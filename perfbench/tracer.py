"""Spans around liemod's public functions, recorded from outside the package.

Each traced function is replaced by a wrapper in every ``liemod`` module
namespace that holds it, because liemod binds names at import time
(``from .hwmod import build_hw_module`` in ``modality``, for example): patching
only the defining module would miss those calls.  ``coverage_check`` proves
the rebinding complete by counting the same calls with ``sys.setprofile``.

A span is ``[id, name, start, end, parent, run_id, hit, work]``: ``parent`` is
the id of the enclosing traced call (-1 at top level), ``run_id`` names the
workload item being verified, ``hit`` says whether a cache served the call
(None when the function has no cache) and ``work`` is the function's work
count (module dimension, matrix entries, flats found, ...).  Spans stay in
memory until the run ends.
"""

import functools
import importlib
import math
import sys
import time

import numpy


def _entries(m):
    return math.prod(numpy.shape(m))   # liemod also accepts nested lists


def _action_entries(args):
    action = args[0]
    return action.algebra_dim * action.space_dim


# (module, function, module-level lru cache that serves the call, name of
#  the work-count metric, work count from (args, result))
TARGETS = [
    ("hwmod", "build_hw_module", "_build_module_cached", "dim_sum",
     lambda a, r: r.dimension),
    ("hwmod", "weyl_dim", None, None, None),
    ("hwmod", "extend_to_full_algebra", "_extend_cached", None, None),
    ("modality", "orbit_dim_at", None, "entries",
     lambda a, r: _action_entries(a)),
    ("modality", "generic_orbit_dim", None, None, None),
    ("modality", "verify_table_entry", None, None, None),
    ("linalg", "rank", None, "entries", lambda a, r: _entries(a[0])),
    ("linalg", "kernel_basis", None, "entries", lambda a, r: _entries(a[0])),
    ("linalg", "solve_square", None, None, None),
    ("linalg", "char_poly", None, "dim_sum", lambda a, r: len(a[0])),
    ("linalg", "poly_eval_matrix", None, None, None),
    ("linalg", "squarefree_decomposition", None, None, None),
    ("rootsys", "build_root_system", "build_root_system", None, None),
    ("graded", "structure_constants", "structure_constants", "dim_sum",
     lambda a, r: r.dim),
    ("graded", "build_grading", None, None, None),
    ("graded", "rank_of_grading", None, None, None),
    # directions found, the numerator of useful_ratio
    ("graded", "cartan_subspace", None, None, lambda a, r: len(r)),
    ("graded", "decompose_graded_element", None, None, None),
    ("graded", "jordan_chevalley", None, None, None),
    ("cells", "enumerate_cells", None, "flats", lambda a, r: len(r)),
    ("packets", "classify_adjoint_typeA", None, None, None),
    ("packets", "adjoint_orbit_dim", None, None, None),
    ("packets", "packet_sanity_suite", None, None, None),
    ("cli", "run_command", None, None, None),
]


class Tracer:
    """Installs wrappers around ``TARGETS`` and collects their spans."""

    def __init__(self):
        self.spans = []
        self.run_id = ""
        self.recording = False
        self._stack = []
        self._installed = []   # (name, original function)

    def install(self):
        modules = {t[0]: importlib.import_module(f"liemod.{t[0]}")
                   for t in TARGETS}
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if n == "liemod" or n.startswith("liemod.")]
        for mod_name, func_name, cache_name, _, work in TARGETS:
            module = modules[mod_name]
            original = getattr(module, func_name)
            cache = getattr(module, cache_name, None) if cache_name else None
            if cache is not None and not hasattr(cache, "cache_info"):
                cache = None
            name = f"{mod_name}.{func_name}"
            wrapper = self._wrap(name, original, work, cache)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, attr, wrapper)
            self._installed.append((name, original))

    def _wrap(self, name, original, work, cache):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not self.recording:
                return original(*args, **kwargs)
            rec = [len(spans), name, 0.0, 0.0, stack[-1] if stack else -1,
                   self.run_id, None, None]
            spans.append(rec)
            stack.append(rec[0])
            hits = cache.cache_info().hits if cache is not None else 0
            rec[2] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if cache is not None:
                rec[6] = cache.cache_info().hits > hits
            if work is not None:
                rec[7] = work(args, result)
            return result

        return functools.update_wrapper(wrapper, original)

    def code_objects(self):
        """Map each traced function's own code object to (name, cached).

        For an ``lru_cache`` function (``cached``) the code runs only on a
        miss, so the coverage check compares it with the wrapper's misses.
        """
        return {getattr(f, "__wrapped__", f).__code__:
                (name, hasattr(f, "cache_info"))
                for name, f in self._installed}


def coverage_check(tracer, case):
    """Run ``case`` traced and profiled; return {name: (wrapped, profiled)}
    for every traced function whose two call counts differ."""
    codes = tracer.code_objects()
    profiled = {name: 0 for name, _ in codes.values()}
    wrapped = dict(profiled)

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            profiled[codes[frame.f_code][0]] += 1

    start = len(tracer.spans)
    tracer.recording = True
    sys.setprofile(profile)
    try:
        case()
    finally:
        sys.setprofile(None)
        tracer.recording = False
    cached = {name for name, is_cached in codes.values() if is_cached}
    for rec in tracer.spans[start:]:
        # a hit of a cached function never runs the function's own code
        if not (rec[6] and rec[1] in cached):
            wrapped[rec[1]] += 1
    return {name: (wrapped[name], profiled[name]) for name in profiled
            if wrapped[name] != profiled[name]}


def layer_metrics(span_lists):
    """Per-layer metrics from the spans of one or more processes.

    Metric names are ``<module>.<function>.<stat>``.  ``self_s`` is a span's
    duration minus the time its child spans cover.  Span ids are positions
    in their process's list, so each list is resolved on its own.
    """
    names = [f"{t[0]}.{t[1]}" for t in TARGETS]
    calls = dict.fromkeys(names, 0)
    self_s = dict.fromkeys(names, 0.0)
    work = dict.fromkeys(names, 0)
    hits = dict.fromkeys(names, 0)
    evals = tried = 0
    for spans in span_lists:
        child_time = [0.0] * len(spans)
        for rec in spans:
            if rec[4] >= 0:
                child_time[rec[4]] += rec[3] - rec[2]
        for rec in spans:
            name = rec[1]
            calls[name] += 1
            self_s[name] += (rec[3] - rec[2]) - child_time[rec[0]]
            hits[name] += bool(rec[6])
            work[name] += rec[7] or 0
            if (name == "linalg.poly_eval_matrix" and
                    _has_ancestor(spans, rec, "graded.jordan_chevalley")):
                evals += 1
            if (name == "graded.decompose_graded_element" and
                    _has_ancestor(spans, rec, "graded.cartan_subspace")):
                tried += 1

    out = {}
    for name, (_, _, cache_name, stat, _) in zip(names, TARGETS):
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
        if stat:
            out[f"{name}.{stat}"] = work[name]
        if cache_name:
            out[f"{name}.hit_ratio"] = _ratio(hits[name], calls[name])
    out["graded.jordan_chevalley.evals_per_call"] = _ratio(
        evals, calls["graded.jordan_chevalley"])
    out["graded.cartan_subspace.useful_ratio"] = _ratio(
        work["graded.cartan_subspace"], tried)
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def _has_ancestor(spans, rec, name):
    parent = rec[4]
    while parent >= 0:
        if spans[parent][1] == name:
            return True
        parent = spans[parent][4]
    return False
