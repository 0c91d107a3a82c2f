"""Spans and counters around hibarrier's public functions, installed from
outside the package.

`Tracer.install()` replaces each traced function everywhere it is bound: in
its own module and in every hibarrier module that imported it with
`from ... import`. Each call of a span-wrapped function records its name,
start, end and parent span in flat arrays kept in memory; `save()` writes them
once at the end. A layer's self time is its spans' duration minus the part
their child spans cover.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array
from collections import Counter

import numpy as np

# Public functions that other layers call, by module, with the span name.
_SPANS = {
    "hibarrier.cli": {"main": "cli"},
    "hibarrier.config": {"load_system": "config"},
    "hibarrier.geometry": {
        "sample": "geometry.sample",
        "sample_boundary": "geometry.sample_boundary",
        "minkowski": "geometry.minkowski",
        "contingent_min_ratio": "geometry.cone_ratio",
        "external_min_ratio": "geometry.cone_ratio",
        "transversality_check": "geometry.transversality",
        "feasible_point": "geometry.feasible_point",
    },
    "hibarrier.fields": {
        "filter_by_cone": "fields.filter_by_cone",
        "clarke_support": "fields.clarke_support",
    },
    "hibarrier.model": {"scenario_classify": "model.scenario_classify"},
    "hibarrier.simulate": {"solve": "simulate.solve"},
}
_COUNTED = {"hibarrier.fields": {"gradient": "fields.gradient_calls",
                                 "image_samples": "fields.image_samples_calls"}}
_SLSQP_MODULES = ("hibarrier.geometry", "hibarrier.regions")

# The per-layer metrics a traced run reports, with their units.
PER_LAYER = [
    ("expr.calls", "count"),
    ("geometry.classify_calls", "count"), ("geometry.classify_s", "s"),
    ("fields.gradient_calls", "count"), ("fields.image_samples_calls", "count"),
    ("fields.filter_by_cone_s", "s"), ("fields.clarke_support_s", "s"),
    ("geometry.sample_s", "s"), ("geometry.sample_boundary_s", "s"),
    ("geometry.minkowski_calls", "count"), ("geometry.minkowski_s", "s"),
    ("model.sample_m_s", "s"), ("regions.s", "s"),
    ("geometry.slsqp_calls", "count"), ("geometry.slsqp_iters", "count"),
    ("geometry.slsqp_unsuccessful", "count"), ("geometry.slsqp_s", "s"),
    ("geometry.cone_ratio_calls", "count"), ("geometry.cone_ratio_s", "s"),
    ("geometry.transversality_calls", "count"), ("geometry.transversality_s", "s"),
    ("geometry.feasible_point_calls", "count"), ("geometry.feasible_point_s", "s"),
    ("simulate.solve_calls", "count"), ("simulate.solve_s", "s"),
    ("simulate.arc_states", "count"), ("simulate.solve_errors", "count"),
    ("model.scenario_classify_calls", "count"), ("model.scenario_classify_s", "s"),
    ("regions.points_requested", "count"), ("regions.points_returned", "count"),
    ("certificates.verdicts", "count"), ("certificates.evaluations", "count"),
    ("certificates.s", "s"), ("config.s", "s"), ("cli.s", "s"),
]

MODULES = ("hibarrier", "catalog", "certificates", "cli", "config", "expr",
           "fields", "geometry", "model", "regions", "simulate")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts: Counter = Counter()
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn, after=None):
        """Wrap fn in a span; after(args, kwargs, result, span_index) runs on
        return, and an exception is counted as `<name>.errors`."""
        nid, clock = self._id(name), time.perf_counter
        ids, parents, starts, ends, stack = (self.name_id, self.parent, self.start,
                                             self.end, self.stack)
        counts, err = self.counts, _metric(name, "errors")

        def wrapper(*args, **kwargs):
            idx = len(starts)
            ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                counts[err] += 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result, idx)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _replace_everywhere(self, original, wrapper) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "hibarrier" or mod_name.startswith("hibarrier.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # -- installation -----------------------------------------------------------

    def install(self) -> None:
        import hibarrier.certificates as cert
        import hibarrier.expr as ex
        import hibarrier.geometry as geo
        import hibarrier.model as model
        import hibarrier.regions as regions

        # A function the package no longer has is skipped; its metrics read 0.
        for mod_name, table in _SPANS.items():
            mod = sys.modules[mod_name]
            for attr, name in table.items():
                fn = getattr(mod, attr, None)
                if fn is not None:
                    after = self._after_solve if name == "simulate.solve" else None
                    self._replace_everywhere(fn, self.span(name, fn, after))
        for mod_name, table in _COUNTED.items():
            mod = sys.modules[mod_name]
            for attr, name in table.items():
                fn = getattr(mod, attr, None)
                if fn is not None:
                    self._replace_everywhere(fn, self.counted(name, fn))

        # methods, patched on their classes
        for cls, attr, name in ((geo.SetDescription, "classify", "geometry.classify"),
                                (model.KComplex, "sample_m", "model.sample_m")):
            if hasattr(cls, attr):
                self._patch(cls, attr, self.span(name, getattr(cls, attr)))

        # checkers: verdicts and their evaluations
        for attr in [a for a in vars(cert) if a.startswith("check_")]:
            fn = getattr(cert, attr)
            if inspect.isfunction(fn) and fn.__module__ == cert.__name__:
                self._replace_everywhere(fn, self.span("certificates", fn,
                                                       self._after_check))

        # region samplers: points requested and returned by outermost calls
        for attr in regions.__all__:
            fn = getattr(regions, attr, None)
            if fn is None or attr in ("rng_for", "kc_set"):
                continue
            self._replace_everywhere(fn, self.span("regions", fn,
                                                   self._region_after(fn)))

        # scipy's minimize as bound in geometry and regions
        for mod_name in _SLSQP_MODULES:
            mod = sys.modules[mod_name]
            if hasattr(mod, "minimize"):
                self._patch(mod, "minimize",
                            self.span("geometry.slsqp", mod.minimize, self._after_slsqp))

        # closures compiled by config: count their evaluations
        self._patch(ex, "compile_ast", self._compile_counting(ex.compile_ast))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _after_solve(self, args, kwargs, arc, idx) -> None:
        self.counts["simulate.arc_states"] += sum(len(iv.states) for iv in arc.intervals)

    def _after_check(self, args, kwargs, verdict, idx) -> None:
        self.counts["certificates.verdicts"] += 1
        self.counts["certificates.evaluations"] += len(verdict.evaluations)

    def _after_slsqp(self, args, kwargs, res, idx) -> None:
        self.counts["geometry.slsqp_iters"] += int(res.nit)
        if not res.success:
            self.counts["geometry.slsqp_unsuccessful"] += 1

    def _region_after(self, fn):
        sig = inspect.signature(fn)
        count_arg = "count" if "count" in sig.parameters else "n"
        regions_id = self._id("regions")

        def after(args, kwargs, result, idx):
            parent = self.parent[idx]
            if parent >= 0 and self.name_id[parent] == regions_id:
                return  # nested sampler call; the outermost one is counted
            self.counts["regions.points_requested"] += int(
                sig.bind(*args, **kwargs).arguments[count_arg])
            self.counts["regions.points_returned"] += len(result)

        return after

    def _compile_counting(self, compile_ast):
        depth = [0]
        counts = self.counts

        def compile_counting(ast):
            depth[0] += 1
            try:
                f = compile_ast(ast)
            finally:
                depth[0] -= 1
            if depth[0]:
                return f  # a sub-expression inside a closure being compiled

            def counted(x, p):
                counts["expr.calls"] += 1
                return f(x, p)

            return counted

        return compile_counting

    # -- results ----------------------------------------------------------------

    def mark(self) -> tuple[int, Counter]:
        return len(self.start), Counter(self.counts)

    def summary(self, since: tuple[int, Counter]) -> dict[str, float]:
        """Calls and self time per span name, plus counters, since a mark."""
        lo, counts0 = since
        hi = len(self.start)
        # slicing an array.array copies it, so no view pins the growing buffer
        names = np.frombuffer(self.name_id[lo:hi], dtype=np.uint16).astype(np.int64)
        parent = np.frombuffer(self.parent[lo:hi], dtype=np.int64)
        dur = (np.frombuffer(self.end[lo:hi], dtype=np.float64)
               - np.frombuffer(self.start[lo:hi], dtype=np.float64))
        child = np.zeros(hi - lo)
        has_parent = parent >= lo
        np.add.at(child, parent[has_parent] - lo, dur[has_parent])
        self_time = np.bincount(names, weights=dur - child, minlength=len(self.names))
        calls = np.bincount(names, minlength=len(self.names))
        out: dict[str, float] = {}
        for i, name in enumerate(self.names):
            out[_metric(name, "calls")] = int(calls[i])
            out[_metric(name, "s")] = float(self_time[i])
        for name, value in self.counts.items():
            out[name] = int(value - counts0.get(name, 0))
        return out

    def save(self, path) -> None:
        np.savez_compressed(
            path, names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.uint16),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64))


def _metric(span: str, what: str) -> str:
    """`geometry.sample` + `s` -> `geometry.sample_s`; `regions` + `s` -> `regions.s`."""
    return f"{span}{'_' if '.' in span else '.'}{what}"


def line_counts(src_dir) -> dict[str, int]:
    """Lines per module of the package, and in all its source files."""
    out = {}
    for mod in MODULES:
        path = src_dir / ("__init__.py" if mod == "hibarrier" else f"{mod}.py")
        out[f"{mod}.lines"] = path.read_bytes().count(b"\n") if path.exists() else 0
    out["src.lines"] = sum(p.read_bytes().count(b"\n") for p in src_dir.rglob("*.py"))
    return out
