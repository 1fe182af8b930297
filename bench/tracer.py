"""Spans around the package's public functions, installed from outside it.

``Tracer.install()`` replaces every public module-level function of the
layer modules, and every public method of the classes in ``CLASSES``, with a
wrapper that records a span: name, start, end, parent span and run id.  The
parent comes from a ``contextvars`` stack, so nesting follows the call
chain.  Functions that other modules imported by name (``integrate_simplices``
into ``asymptotics`` and ``stability``, say) are rebound in every module of
the package that holds them.  Value types (``AffineFunctional``, the field
polynomials, result dataclasses) and properties are not wrapped: they are
called per point or per vertex, and their time stays in the caller's span.

Spans stay in memory; ``dump`` writes them out when the run ends.
``layer_metrics`` turns the spans of one pass into the per-layer metrics.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import json
import os
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction

PACKAGE = "toricdensity"
MODULES = ("polytope", "potential", "density", "asymptotics", "stability",
           "fileio", "cli")
CLASSES = {"polytope": ("Polytope", "MovingFamily", "TestConfigPolytope"),
           "potential": ("SymplecticPotential",),
           "density": ("QuadratureScheme", "SectionBasis")}
CONSTRUCTORS = {"Polytope", "SymplecticPotential"}

# Wrapped names that feed a per-layer metric; any other wrapped name of
# module m belongs to the group "m.other".
GROUPS = {
    "polytope.vertices": ("polytope.Polytope.__init__", "polytope.enumerate_vertices"),
    "polytope.slice": ("polytope.MovingFamily.slice",),
    "polytope.test_config": ("polytope.build_test_config",),
    "polytope.lattice": ("polytope.Polytope.lattice_points",
                         "polytope.Polytope.count_lattice_points",
                         "polytope.count_lattice_points"),
    "polytope.triangulation": ("polytope.Polytope.triangulation",
                               "polytope.Polytope.facet_triangulation",
                               "polytope.Polytope.face_triangulation"),
    "potential.build": ("potential.SymplecticPotential.__init__",
                        "potential.guillemin_potential"),
    "potential.phi": tuple(f"potential.SymplecticPotential.{m}"
                           for m in ("phi", "phi_many", "phi_matrix", "u", "grad_u")),
    "potential.curvature": tuple(f"potential.SymplecticPotential.{m}" for m in (
        "scalar_curvature", "scalar_curvature_many", "scalar_curvature_fd",
        "hessian_derivatives", "inverse_metric")),
    "potential.metric": tuple(f"potential.SymplecticPotential.{m}" for m in (
        "hessian", "hessian_many", "metric", "metric_many", "conorm_sq",
        "conorm_sq_many", "metric_at")),
    "density.integrate": ("density.integrate_simplices", "density.integrate",
                          "density.QuadratureScheme.integrate",
                          "density.QuadratureScheme.for_polytope",
                          "density.refine_simplices", "density.reference_rule",
                          "density.tree_sum", "density.pair_alpha"),
    "density.basis": ("density.SectionBasis.build",),
    "density.density_eval": ("density.SectionBasis.density", "density.partial_density",
                             "density.density_profile", "density.mass_density"),
    "asymptotics.em": ("asymptotics.euler_maclaurin",),
    "asymptotics.facet_integral": ("asymptotics.facet_integral",),
    "asymptotics.dp_integral": ("asymptotics.dp_integral",),
    "asymptotics.a_hat": ("asymptotics.a_hat_components", "asymptotics.a_hat_pair"),
    "stability.hilbert": ("stability.hilbert_polynomials",
                          "stability.hilbert_coeffs_combinatorial"),
    "stability.futaki_comb": ("stability.futaki_combinatorial",),
    "stability.futaki_metric": ("stability.futaki_metric",),
    "stability.slope_metric": ("stability.slope_excess_metric",),
    "fileio.load": ("fileio.load_scenario", "fileio.load_geometry",
                    "fileio.load_polytope_file"),
    "fileio.dump": ("fileio.dump_json", "fileio.dump_csv"),
}
GROUP_OF = {name: group for group, names in GROUPS.items() for name in names}

# Calls counted for the dup ratios: the same function with arguments equal
# by value to an earlier call of the same pass.
DUP_KEYED = {"polytope.MovingFamily.slice", "polytope.build_test_config",
             "stability.hilbert_polynomials", "stability.hilbert_coeffs_combinatorial"}

# (metric, unit, better) in the order they are reported
PER_LAYER = (
    ("polytope.vertices_s", "s", "lower"), ("polytope.vertices_calls", "count", "lower"),
    ("polytope.slice_s", "s", "lower"), ("polytope.slice_calls", "count", "lower"),
    ("polytope.slice_dup_ratio", "ratio", "lower"),
    ("polytope.test_config_s", "s", "lower"),
    ("polytope.test_config_dup_ratio", "ratio", "lower"),
    ("polytope.lattice_s", "s", "lower"), ("polytope.lattice_points", "count", "lower"),
    ("polytope.triangulation_s", "s", "lower"),
    ("potential.build_s", "s", "lower"), ("potential.build_calls", "count", "lower"),
    ("potential.phi_s", "s", "lower"), ("potential.phi_nodes", "count", "lower"),
    ("potential.curvature_s", "s", "lower"), ("potential.curvature_nodes", "count", "lower"),
    ("potential.metric_s", "s", "lower"),
    ("density.integrate_s", "s", "lower"), ("density.integrate_calls", "count", "lower"),
    ("density.nodes", "count", "lower"), ("density.useful_node_ratio", "ratio", "higher"),
    ("density.max_depth", "count", "lower"),
    ("density.peak_node_bytes", "computed-bytes", "lower"),
    ("density.quadrature_errors", "count", "lower"),
    ("density.basis_s", "s", "lower"), ("density.norms_per_s", "1/s", "higher"),
    ("density.density_eval_s", "s", "lower"),
    ("asymptotics.em_s", "s", "lower"), ("asymptotics.facet_integral_s", "s", "lower"),
    ("asymptotics.dp_integral_s", "s", "lower"), ("asymptotics.a_hat_s", "s", "lower"),
    ("stability.hilbert_s", "s", "lower"), ("stability.hilbert_dup_ratio", "ratio", "lower"),
    ("stability.futaki_comb_s", "s", "lower"), ("stability.futaki_metric_s", "s", "lower"),
    ("stability.slope_metric_s", "s", "lower"),
    ("fileio.load_s", "s", "lower"), ("fileio.dump_s", "s", "lower"),
    ("fileio.bytes_written", "bytes", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)

_stack: contextvars.ContextVar = contextvars.ContextVar("bench_spans", default=())
_quadrature: contextvars.ContextVar = contextvars.ContextVar("bench_quadrature",
                                                             default=None)


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: int
    info: dict = field(default_factory=dict)


def value_key(obj):
    """A hashable key equal for arguments that are equal by value."""
    if obj is None or isinstance(obj, (bool, int, float, str, Fraction)):
        return obj
    if isinstance(obj, (tuple, list)):
        return tuple(value_key(v) for v in obj)
    if hasattr(obj, "base") and hasattr(obj, "cuts"):       # MovingFamily
        return ("family", value_key(obj.base), value_key(obj.cuts))
    if hasattr(obj, "facets") and hasattr(obj, "dim"):      # Polytope
        return ("polytope", obj.dim, value_key(obj.facets))
    if callable(getattr(obj, "key", None)):                  # AffineFunctional
        return obj.key()
    return ("id", id(obj))


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.run = 0
        self._ids = itertools.count(1)
        self._restore: list = []

    # -- installing -----------------------------------------------------------

    def install(self):
        for short in MODULES:
            mod = importlib.import_module(f"{PACKAGE}.{short}")
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                self._rebind(obj, self._wrap(f"{short}.{attr}", obj))
            for cls_name in CLASSES.get(short, ()):
                self._wrap_class(short, getattr(mod, cls_name))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _rebind(self, original, wrapper):
        """Point every package module's name for ``original`` at the wrapper."""
        for name, mod in list(sys.modules.items()):
            if name != PACKAGE and not name.startswith(PACKAGE + "."):
                continue
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def _wrap_class(self, short, cls):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and not (attr == "__init__" and cls.__name__ in CONSTRUCTORS):
                continue
            name = f"{short}.{cls.__name__}.{attr}"
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(name, raw.__func__))
            elif isinstance(raw, staticmethod):
                new = staticmethod(self._wrap(name, raw.__func__))
            elif inspect.isfunction(raw):
                new = self._wrap(name, raw)
            else:
                continue  # properties and data
            self._restore.append((cls, attr, raw))
            setattr(cls, attr, new)

    # -- the wrapper ------------------------------------------------------------

    def _wrap(self, name, fn):
        before, after = _HOOKS.get(name, (None, None))
        keyed = name in DUP_KEYED
        sig = inspect.signature(fn) if before or after or keyed else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            info = {}
            bound = sig.bind(*args, **kwargs) if sig is not None else None
            if keyed:
                info["key"] = value_key(tuple(bound.arguments.values()))
            if before:
                before(info, bound)
                args, kwargs = bound.args, bound.kwargs
            stack = _stack.get()
            span_id = next(self._ids)
            token = _stack.set(stack + (span_id,))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                info["error"] = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                _stack.reset(token)
                if "levels" in info:
                    _quadrature.reset(info.pop("quad_token"))
                self.spans.append(Span(span_id, name, start, end,
                                       stack[-1] if stack else None, self.run, info))
            if after:
                after(info, result, bound)
            return result

        return wrapper

    def dump(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.id, s.name, s.start, s.end, s.parent, s.run]) + "\n")


# -- per-call hooks -------------------------------------------------------------

def _count_nodes(info, fn):
    def counted(points):
        rows = len(points)
        levels = info["levels"]
        levels[-1] += rows
        info["peak_bytes"] = max(info["peak_bytes"],
                                 levels[-1] * (points.shape[1] + 1) * 8)
        return fn(points)
    return counted


def _before_integrate(info, bound):
    # integrand rows per refinement level; refine_simplices opens a new level
    info.update(levels=[0], peak_bytes=0)
    info["quad_token"] = _quadrature.set(info)
    bound.arguments["fn"] = _count_nodes(info, bound.arguments["fn"])


def _before_refine(info, bound):
    quad = _quadrature.get()
    if quad is not None:
        quad["levels"].append(0)


def _after(key, measure):
    def hook(info, result, bound):
        info[key] = measure(result, bound.arguments)
    return hook


def _one(result, arguments):
    return 1


def _size(result, arguments):
    return len(result)


def _written(result, arguments):
    return os.path.getsize(arguments["path"])


_HOOKS = {
    "density.integrate_simplices": (_before_integrate, None),
    "density.refine_simplices": (_before_refine, None),
    "density.SectionBasis.build": (None, _after("norms", lambda r, a: len(r.alphas))),
    "potential.SymplecticPotential.phi": (None, _after("nodes", _one)),
    "potential.SymplecticPotential.phi_many": (None, _after("nodes", _size)),
    "potential.SymplecticPotential.phi_matrix": (None, _after("nodes", lambda r, a: r.size)),
    "potential.SymplecticPotential.scalar_curvature": (None, _after("nodes", _one)),
    "potential.SymplecticPotential.scalar_curvature_many": (None, _after("nodes", _size)),
    "polytope.Polytope.lattice_points": (None, _after("points", _size)),
    "polytope.Polytope.count_lattice_points": (None, _after("points", lambda r, a: r)),
    "polytope.count_lattice_points": (None, _after("points", lambda r, a: r)),
    "fileio.dump_json": (None, _after("bytes", _written)),
    "fileio.dump_csv": (None, _after("bytes", _written)),
}


# -- from spans to metrics --------------------------------------------------------

def self_times(spans) -> dict:
    """Span id -> duration minus the part of it its child spans cover."""
    children: dict = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for lo, hi in sorted(children.get(s.id, ())):
            lo, hi = max(lo, reach), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = (s.end - s.start) - covered
    return out


def group_of(name: str) -> str:
    return GROUP_OF.get(name, name.split(".", 1)[0] + ".other")


def layer_metrics(spans, overhead_frac: float) -> dict:
    """Per-layer metrics of one pass, keyed by the names in PER_LAYER."""
    by_id = {s.id: s for s in spans}
    own = self_times(spans)
    groups: dict = {}
    outer: dict = {}
    for s in spans:
        g = group_of(s.name)
        groups.setdefault(g, []).append(s)
        p = by_id.get(s.parent)
        while p is not None and group_of(p.name) != g:
            p = by_id.get(p.parent)
        if p is None:
            outer.setdefault(g, []).append(s)

    def self_s(g):
        return sum(own[s.id] for s in groups.get(g, ()))

    def incl_s(g):
        return sum(s.end - s.start for s in outer.get(g, ()))

    def calls(g):
        return len(outer.get(g, ()))

    def total(g, key, spans_of=groups):
        return sum(s.info.get(key, 0) for s in spans_of.get(g, ()))

    def dup_ratio(g):
        seen, dups, n = set(), 0, 0
        for s in groups.get(g, ()):
            if "key" not in s.info:
                continue
            key = (s.name, s.info["key"])
            dups += key in seen
            seen.add(key)
            n += 1
        return dups / n if n else 0.0

    quad = [s for s in groups.get("density.integrate", ())
            if s.name == "density.integrate_simplices"]
    nodes = sum(sum(s.info["levels"]) for s in quad)
    useful = sum(s.info["levels"][-1] for s in quad if "error" not in s.info)
    basis_s = incl_s("density.basis")
    return {
        "polytope.vertices_s": self_s("polytope.vertices"),
        "polytope.vertices_calls": calls("polytope.vertices"),
        "polytope.slice_s": self_s("polytope.slice"),
        "polytope.slice_calls": calls("polytope.slice"),
        "polytope.slice_dup_ratio": dup_ratio("polytope.slice"),
        "polytope.test_config_s": self_s("polytope.test_config"),
        "polytope.test_config_dup_ratio": dup_ratio("polytope.test_config"),
        "polytope.lattice_s": self_s("polytope.lattice"),
        "polytope.lattice_points": total("polytope.lattice", "points", outer),
        "polytope.triangulation_s": self_s("polytope.triangulation"),
        "potential.build_s": incl_s("potential.build"),
        "potential.build_calls": calls("potential.build"),
        "potential.phi_s": self_s("potential.phi"),
        "potential.phi_nodes": total("potential.phi", "nodes"),
        "potential.curvature_s": self_s("potential.curvature"),
        "potential.curvature_nodes": total("potential.curvature", "nodes"),
        "potential.metric_s": self_s("potential.metric"),
        "density.integrate_s": self_s("density.integrate"),
        "density.integrate_calls": len(quad),
        "density.nodes": nodes,
        "density.useful_node_ratio": useful / nodes if nodes else 0.0,
        "density.max_depth": max((len(s.info["levels"]) - 1 for s in quad), default=0),
        "density.peak_node_bytes": max((s.info["peak_bytes"] for s in quad), default=0),
        "density.quadrature_errors": sum(
            s.info.get("error") == "QuadratureError" for s in groups.get("density.integrate", ())
            if s.name in ("density.integrate_simplices", "density.pair_alpha")),
        "density.basis_s": basis_s,
        "density.norms_per_s": total("density.basis", "norms", outer) / basis_s
        if basis_s else 0.0,
        "density.density_eval_s": incl_s("density.density_eval"),
        "asymptotics.em_s": incl_s("asymptotics.em"),
        "asymptotics.facet_integral_s": incl_s("asymptotics.facet_integral"),
        "asymptotics.dp_integral_s": incl_s("asymptotics.dp_integral"),
        "asymptotics.a_hat_s": incl_s("asymptotics.a_hat"),
        "stability.hilbert_s": incl_s("stability.hilbert"),
        "stability.hilbert_dup_ratio": dup_ratio("stability.hilbert"),
        "stability.futaki_comb_s": incl_s("stability.futaki_comb"),
        "stability.futaki_metric_s": incl_s("stability.futaki_metric"),
        "stability.slope_metric_s": incl_s("stability.slope_metric"),
        "fileio.load_s": incl_s("fileio.load"),
        "fileio.dump_s": incl_s("fileio.dump"),
        "fileio.bytes_written": total("fileio.dump", "bytes"),
        "trace.overhead_frac": overhead_frac,
    }
