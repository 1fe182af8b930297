"""JSON serialization of polytopes, families, potentials and scenarios.

Rationals are serialized as strings "p/q" so files stay exact; perturbation
polynomials as {"monomials": [{"exponents": [...], "coeff": float}]}.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from pathlib import Path

import numpy as np

from .fields import Polynomial
from .polytope import AffineFunctional, MovingFamily, Polytope, _fr, _int
from .potential import SymplecticPotential

TASKS = ("check-delzant", "lattice-count", "density-profile", "em-check",
         "expansion-check", "slope", "futaki", "report")


def rational_to_str(q: Fraction) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def functional_from_dict(d: dict) -> AffineFunctional:
    return AffineFunctional([_fr(v) for v in d["normal"]], _fr(d["offset"]))


def functional_to_dict(f: AffineFunctional) -> dict:
    return {"normal": [rational_to_str(v) for v in f.normal],
            "offset": rational_to_str(f.offset)}


def load_geometry(d: dict) -> tuple[Polytope, list[AffineFunctional]]:
    """Parse {dim, facets: [...], cuts: [...]} into a polytope and cut list."""
    try:
        dim = _int(d["dim"])
        facets = [functional_from_dict(fd) for fd in d["facets"]]
        cuts = [functional_from_dict(cd) for cd in d.get("cuts", [])]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed polytope definition: {exc}") from exc
    return Polytope(dim, facets), cuts


def geometry_to_dict(P: Polytope, cuts=()) -> dict:
    return {"dim": P.dim,
            "facets": [functional_to_dict(f) for f in P.facets],
            "cuts": [functional_to_dict(c) for c in cuts]}


def load_polytope_file(path) -> tuple[Polytope, list[AffineFunctional]]:
    with open(path) as fh:
        return load_geometry(json.load(fh))


def perturbation_from_dict(d: dict | None, dim: int) -> Polynomial:
    if not d or not d.get("monomials"):
        return Polynomial.zero(dim)
    return Polynomial.from_monomials(dim, d["monomials"])


@dataclass
class Scenario:
    """A batch task: geometry + potential + task name + parameters."""

    name: str
    polytope: Polytope
    cuts: list
    perturbation: Polynomial
    task: str
    params: dict

    @cached_property
    def family(self) -> MovingFamily | None:
        """The moving family of the cuts, built once so its caches persist."""
        if not self.cuts:
            return None
        return MovingFamily(self.polytope, self.cuts)

    @cached_property
    def potential(self) -> SymplecticPotential:
        """The scenario's potential, built and convexity-checked once."""
        return SymplecticPotential(self.polytope, self.perturbation)


def load_scenario(path, task_override: str | None = None) -> Scenario:
    path = Path(path)
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot parse scenario {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValueError(f"scenario {path} must be a JSON object, got {type(raw).__name__}")
    params = raw.get("params", {})
    if not isinstance(params, dict):
        raise ValueError(f"scenario params must be a JSON object, got {type(params).__name__}")
    if raw.get("schema", 1) != 1:
        raise ValueError(f"unsupported scenario schema {raw.get('schema')}")
    if "polytope_file" in raw:
        geom_path = (path.parent / raw["polytope_file"]).resolve()
        try:
            with open(geom_path) as fh:
                geom = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ValueError(f"cannot parse polytope file {geom_path}: {exc}") from exc
    else:
        geom = raw.get("polytope")
        if geom is None:
            raise ValueError("scenario needs 'polytope' or 'polytope_file'")
    P, cuts = load_geometry(geom)
    task = task_override or raw.get("task")
    if task not in TASKS:
        raise ValueError(f"unknown task {task!r}: expected one of {TASKS}")
    try:
        pert = perturbation_from_dict(raw.get("potential"), P.dim)
    except (AttributeError, KeyError, TypeError) as exc:
        raise ValueError(f"malformed potential: {exc!r}") from exc
    return Scenario(name=raw.get("name", path.stem), polytope=P, cuts=cuts,
                    perturbation=pert, task=task, params=params)


def dump_json(obj, path):
    """Deterministic JSON: sorted keys, repr floats, trailing newline."""
    def default(o):
        if isinstance(o, Fraction):
            return rational_to_str(o)
        raise TypeError(f"not serializable: {o!r}")

    text = json.dumps(obj, sort_keys=True, indent=2, default=default)
    with open(path, "w", newline="\n") as fh:
        fh.write(text + "\n")


def dump_csv(columns: dict, path):
    """Deterministic CSV of columns {name: values}, each a list or a 1-D array,
    all of one length (ValueError otherwise).  A cell is str(value), formatted
    one column at a time: repr for a float, 'p/q' or 'p' for a Fraction, as
    rational_to_str writes it."""
    cells = [map(str, col.tolist() if isinstance(col, np.ndarray) else col)
             for col in columns.values()]
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        fh.writelines(",".join(row) + "\n" for row in zip(*cells, strict=True))
