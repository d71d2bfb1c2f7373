"""Per-layer tracing of satokit from outside the program.

install() wraps every public function of the satokit modules, every public
method and __init__ of their classes (except Field, whose scalar methods are
too fine to wrap, and a few ACCESSORS), and tate._verify_one_sided.  A wrapped module-level name is
rebound in every satokit module that holds it, which covers names imported
with `from .x import y` as well as calls inside the defining module.

Every wrapped call is counted.  A call gets a span (name, start, end, parent)
when it enters a module from another one, or when its function has a metric
of its own (SPAN_ALWAYS).  A span's self time is its duration minus that of
its child spans, so the self times of one module's spans add up to the time
spent in that module's code, its calls into other layers excluded.  Spans are
kept in memory and written out by write().
"""

from __future__ import annotations

import collections
import contextlib
import functools
import gzip
import importlib
import inspect
import pkgutil
import time

SKIP_CLASSES = {"Field"}
# accessors that do no work of their own and run at high rates; their time
# stays with the caller
ACCESSORS = {"laurent.LaurentPoly.is_zero", "laurent.LaurentPoly.val",
             "laurent.LaurentPoly.deg", "laurent.LaurentPoly.coeff",
             "laurent.RatFunc.is_zero", "exactlin.Subspace.nonpivots",
             "simptors.SimplicialSet.face", "simptors.SimplicialSet.ids",
             "simptors.CyclicCohomology.rank_kernel"}
EXTRA = {("tate", "_verify_one_sided")}
SPAN_ALWAYS = {"exactlin.rref_rows", "exactlin.mat_mul_rows",
               "exactlin.snf_with_transforms", "tate.window_rows",
               "tate.lattice_normalize"}


def _cells(field, rows, *a, **k):
    return len(rows) * len(rows[0]) if rows else 0


def _window_width(lat, LO, HI, *a, **k):
    return (HI - LO) * lat.space.rank


MEASURES = {"exactlin.rref_rows": _cells, "tate.window_rows": _window_width}

# per-layer metric -> (kind, argument, unit); kinds: count of calls of one
# wrapped name, sum of a measure, self time of one name, of names with a
# prefix, or of a whole module
METRICS = {
    "exactlin.rref_rows.calls": ("count", "exactlin.rref_rows", "count"),
    "exactlin.rref_rows.cells": ("sum", "exactlin.rref_rows", "cells"),
    "exactlin.rref_rows.self_ms": ("self", "exactlin.rref_rows", "ms"),
    "exactlin.mat_mul_rows.calls": ("count", "exactlin.mat_mul_rows",
                                    "count"),
    "exactlin.mat_mul_rows.self_ms": ("self", "exactlin.mat_mul_rows", "ms"),
    "exactlin.solve_in_rows.calls": ("count", "exactlin.solve_in_rows",
                                     "count"),
    "exactlin.snf_with_transforms.calls": (
        "count", "exactlin.snf_with_transforms", "count"),
    "exactlin.snf_with_transforms.self_ms": (
        "self", "exactlin.snf_with_transforms", "ms"),
    "exactlin.self_ms": ("module", "exactlin", "ms"),
    "exactcat.epi_mono_factorize.calls": (
        "count", "exactcat.epi_mono_factorize", "count"),
    "exactcat.factorization_connector.calls": (
        "count", "exactcat.factorization_connector", "count"),
    "exactcat.complete_grid_3x3.calls": ("count",
                                         "exactcat.complete_grid_3x3",
                                         "count"),
    "exactcat.self_ms": ("module", "exactcat", "ms"),
    "tate.window_rows.calls": ("count", "tate.window_rows", "count"),
    "tate.window_rows.width_sum": ("sum", "tate.window_rows", "columns"),
    "tate.window_rows.self_ms": ("self", "tate.window_rows", "ms"),
    "tate.lattice_normalize.calls": ("count", "tate.lattice_normalize",
                                     "count"),
    "tate.lattice_normalize.self_ms": ("self", "tate.lattice_normalize",
                                       "ms"),
    "tate.lift_lattice.calls": ("count", "tate.lift_lattice", "count"),
    "tate.project_lattice.calls": ("count", "tate.project_lattice", "count"),
    "tate.one_sided_checks": ("count", "tate._verify_one_sided", "count"),
    "tate.self_ms": ("module", "tate", "ms"),
    "fileio.parse.self_ms": ("prefix", "fileio.parse_", "ms"),
    "fileio.format.self_ms": ("prefix", "fileio.format_", "ms"),
    "cli.self_ms": ("module", "cli", "ms"),
    "laurent.LaurentPoly.calls": ("count", "laurent.LaurentPoly.__init__",
                                  "count"),
    "laurent.poly_gcd.calls": ("count", "laurent.poly_gcd", "count"),
    "laurent.right_inverse.calls": ("count", "laurent.right_inverse",
                                    "count"),
    "laurent.left_inverse.calls": ("count", "laurent.left_inverse", "count"),
    "laurent.self_ms": ("module", "laurent", "ms"),
    "verify.self_ms": ("module", "verify", "ms"),
    "simptors.cohomology.calls": ("count", "simptors.cohomology", "count"),
    "simptors.coboundary_matrix.calls": ("count",
                                         "simptors.coboundary_matrix",
                                         "count"),
    "simptors.self_ms": ("module", "simptors", "ms"),
    "abgroup.self_ms": ("module", "abgroup", "ms"),
}


class Tracer:
    def __init__(self):
        self.active = False
        self.counts = collections.Counter()
        self.sums = collections.Counter()
        self.spans = []          # (name, start, end, parent index or -1)
        self._stack = [-1]       # open span indices
        self._mods = ["bench"]   # module of each open span

    # --- wrapping --------------------------------------------------------

    def _wrap(self, qual, fn):
        module = qual.split(".", 1)[0]
        always = qual in SPAN_ALWAYS
        measure = MEASURES.get(qual)
        counts, sums, spans = self.counts, self.sums, self.spans
        stack, mods, clock = self._stack, self._mods, time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            counts[qual] += 1
            if measure is not None:
                sums[qual] += measure(*args, **kwargs)
            if not always and mods[-1] == module:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            mods.append(module)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                mods.pop()
                spans[idx] = (qual, t0, t1, parent)

        functools.update_wrapper(traced, fn)
        return traced

    def install(self, package):
        modules = {}
        for info in pkgutil.iter_modules(package.__path__):
            modules[info.name] = importlib.import_module(
                package.__name__ + "." + info.name)
        holders = [package] + list(modules.values())
        for short, mod in sorted(modules.items()):
            for name, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    if name not in SKIP_CLASSES and \
                            not issubclass(obj, BaseException):
                        self._wrap_class("%s.%s" % (short, name), obj)
                    continue
                if not callable(obj) or \
                        (name.startswith("_") and (short, name) not in EXTRA):
                    continue
                wrapped = self._wrap("%s.%s" % (short, name), obj)
                for holder in holders:
                    for key, val in list(vars(holder).items()):
                        if val is obj:
                            setattr(holder, key, wrapped)

    def _wrap_class(self, qual, cls):
        for name, attr in list(vars(cls).items()):
            if (name.startswith("_") and name != "__init__") or \
                    "%s.%s" % (qual, name) in ACCESSORS:
                continue
            if isinstance(attr, (classmethod, staticmethod)):
                setattr(cls, name, type(attr)(
                    self._wrap("%s.%s" % (qual, name), attr.__func__)))
            elif inspect.isfunction(attr):
                setattr(cls, name, self._wrap("%s.%s" % (qual, name), attr))

    @contextlib.contextmanager
    def op(self):
        """One benchmark operation, as a root span; calls are traced only
        inside it."""
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        self._mods.append("bench")
        self.active = True
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self.active = False
            self._stack.pop()
            self._mods.pop()
            self.spans[idx] = ("bench.op", t0, t1, -1)

    # --- results -------------------------------------------------------------

    def self_times(self):
        """Self seconds per span name."""
        own = collections.Counter()
        names = [s[0] for s in self.spans]
        for name, t0, t1, parent in self.spans:
            d = t1 - t0
            own[name] += d
            if parent >= 0:
                own[names[parent]] -= d
        return own

    def metrics(self, overhead_s):
        own = self.self_times()
        out = {}
        for metric, (kind, arg, unit) in METRICS.items():
            if kind == "count":
                value = self.counts[arg]
            elif kind == "sum":
                value = self.sums[arg]
            elif kind == "self":
                value = own[arg] * 1e3
            elif kind == "prefix":
                value = sum(v for k, v in own.items()
                            if k.startswith(arg)) * 1e3
            else:
                value = sum(v for k, v in own.items()
                            if k.split(".", 1)[0] == arg) * 1e3
            out[metric] = {"value": value, "unit": unit}
        out["trace.overhead_s"] = {"value": overhead_s, "unit": "s"}
        return out

    def write(self, path):
        with gzip.open(path, "wt") as fh:
            fh.write("index\tname\tstart\tend\tparent\n")
            for k, (name, t0, t1, parent) in enumerate(self.spans):
                fh.write("%d\t%s\t%.9f\t%.9f\t%d\n" % (k, name, t0, t1,
                                                       parent))
