"""Exact-rational convex polytope engine.

Everything combinatorial lives here: half-space representations, vertex
enumeration, the face lattice, lattice-point counting, Leray boundary
measures, one-parameter families of sliced polytopes and the associated
(n+1)-dimensional test-configuration polytopes.  All geometry in this
module is exact, in Fractions and in integers (linear algebra is one
fraction-free elimination), so that counts, volumes and critical values can
serve as oracles for the floating point analysis modules.

Every polytope is bounded.  Its vertices and the facet-by-vertex table of
integer slacks are enumerated together, on construction, by the
double-description method on cleared integers; every vertex-on-facet question
reads that table, and so do the face lattice and the pyramid recursion over it
that gives volumes and Leray volumes; the triangulation (a centroid fan over
pulled facets) serves quadrature only.  Slices P(t), the test configuration
Gamma and the regions where one cut is smallest are pruned by one routine,
``_intersect``; lattice counts read P(t) unpruned (``Slice.region``).

The core computes on Python ints and makes a Fraction only for a value it
returns.  Ints: the cleared facets (nu, lam), the double-description rays,
the slack table, vertex sets as bitmasks (vertex i is bit V-1-i, so the
lowest id is the top bit), determinants of normals, each face's Leray
measure as a reduced (num, den) pair, fibre-walk counts, and the Lagrange
fits of ``_fit`` and ``_poly_eval`` over common denominators.  Fractions:
the data of ``AffineFunctional``, the vertices (one per distinct
coordinate), the bounding box, and the values ``volume``,
``facet_leray_volume``, ``boundary_leray_volume``, ``_fit`` and
``_poly_eval`` return.  Arrays hold int64 while a bound on the values they
compute stays below 2**62 and Python ints (``dtype=object``) from there:
the slack table's one matrix product, the fibre walk of ``_fibres``, and the
grids of ``interior_grid`` and ``_integer_points``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import factorial, gcd, lcm, prod
from operator import index, mul
from typing import Iterable, NamedTuple, Sequence

import numpy as np

Point = tuple[Fraction, ...]

# lattice_points and interior_grid refuse more points than this before they
# build them; a section basis at this size holds about 60 MB before its first norm
LATTICE_BUDGET = 1 << 20
# _fibres refuses a box of more fibres than this before it walks: the 4-cube
# at k=400 is 401^3 fibres, walked in about 3 s
FIBRE_BUDGET = 1 << 26


def _fr(x) -> Fraction:
    """A parameter (t, c, an offset, a width, a scale) as an exact Fraction
    from an int, a Fraction or a string like '3/4'.  A float raises
    ValueError: its binary value is seldom the rational that was meant."""
    if isinstance(x, float):
        raise ValueError(f"rationals must be exact (an int, a Fraction or 'p/q'), got float {x}")
    return x if isinstance(x, Fraction) else Fraction(x)


def _int(x) -> int:
    """An integer parameter (k, a grid size) from anything ``operator.index``
    takes but a bool, numpy integers too; anything else raises ValueError."""
    if isinstance(x, bool) or not hasattr(type(x), "__index__"):
        raise ValueError(f"expected an integer, got {x!r}")
    return index(x)


def _int_dtype(bound: int):
    """The dtype of an integer array whose values stay below bound: int64
    below 2**62, so no sum of two of them wraps, and object arrays of Python
    ints from there."""
    return object if bound >= 2**62 else np.int64


def _point(coords) -> Point:
    """Coordinates as exact Fractions; a float counts at its exact binary value."""
    return tuple(c if isinstance(c, Fraction) else Fraction(c) for c in coords)


def _integer_points(points) -> tuple[np.ndarray, int]:
    """Rational points as (num, den): one row of integer numerators per point
    over one positive denominator, int64 or, from 2**62, Python ints (numpy
    alone would turn a row mixing ints past 2**63 with small ones to float)."""
    den = lcm(*(c.denominator for p in points for c in p))
    rows = [[c.numerator * (den // c.denominator) for c in p] for p in points]
    bound = max((abs(m) for row in rows for m in row), default=0)
    return np.array(rows, dtype=_int_dtype(max(bound, den))), den


def _min_sign(cleared, num: np.ndarray, den: int) -> np.ndarray:
    """The sign (int8 -1, 0 or 1) of the smallest of the functionals at each
    point num/den, from their cleared integers (nu, lam): the sign of
    <nu, num> - lam*den, exact in int64 or, once a bound on its terms reaches
    2**62, in Python ints; 1 when there is no functional."""
    # at least 1, so that |nu| alone still bounds when every point is the origin
    reach = max(1, int(np.abs(num).max(initial=0)))
    sign = np.ones(len(num), dtype=np.int8)
    for nu, lam in cleared:
        dtype = _int_dtype(reach * sum(map(abs, nu)) + abs(den * lam))
        v = num.astype(dtype) @ np.array(nu, dtype=dtype) - den * lam
        sign = np.minimum(sign, (v > 0).astype(np.int8) - (v < 0))
    return sign


# ---------------------------------------------------------------------------
# small exact linear algebra on integers
# ---------------------------------------------------------------------------

def _row_reduce(rows: Sequence[Sequence[int]], ncols: int,
                full_rank: bool = False):
    """Fraction-free Gauss-Jordan (Bareiss, Math. Comp. 22, 1968) on the
    first ``ncols`` columns of integer rows: every division is exact.

    Returns (reduced rows, pivot columns, det): the rows are D times the
    reduced row echelon form, D the last pivot, and det is the input's minor
    on the pivot rows and columns, an int, signed as in the input when every
    row pivots (so a square matrix of full rank has det A).  With
    ``full_rank`` the elimination stops at the first column without a pivot.
    Rational rows go through ``_cleared_rows`` first.
    """
    a = list(rows)
    pivots, prev, sign = [], 1, 1
    for col in range(ncols):
        rank = len(pivots)
        if rank == len(a):
            break
        piv = next((r for r in range(rank, len(a)) if a[r][col]), None)
        if piv is None:
            if full_rank:
                break
            continue
        if piv != rank:
            a[rank], a[piv] = a[piv], a[rank]
            sign = -sign
        top = a[rank]
        p = top[col]
        for r in range(len(a)):
            if r != rank:
                f = a[r][col]
                if f:
                    a[r] = [(p * v - f * w) // prev for v, w in zip(a[r], top)]
                elif p != prev:
                    a[r] = [p * v // prev for v in a[r]]
        pivots.append(col)
        prev = p
    return a, pivots, sign * prev


def _add(num: int, den: int, p: int, q: int) -> tuple[int, int]:
    """num/den + p/q for positive den and q, unreduced; over den when q == den."""
    return (num + p, den) if q == den else (num * q + p * den, den * q)


def _cleared_rows(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[int]], int]:
    """Rational rows (ints or Fractions) as integer rows, each scaled by the
    lcm of its denominators, and the product of those scales."""
    out, scale = [], 1
    for r in rows:
        den = lcm(*(v.denominator for v in r))
        out.append([v.numerator * (den // v.denominator) for v in r])
        scale *= den
    return out, scale


def _primitive(vec: Sequence[Fraction]) -> tuple[int, ...]:
    """Scale a nonzero rational vector to a primitive integer vector.

    The positive scaling factor is unique, so orientation is preserved.
    """
    (ints,), _ = _cleared_rows([vec])
    g = gcd(*ints)
    if g == 0:
        raise ValueError("cannot primitivize the zero vector")
    return tuple(v // g for v in ints)


# ---------------------------------------------------------------------------
# affine functionals and polytopes
# ---------------------------------------------------------------------------

class AffineFunctional:
    """Affine functional ell(x) = <x, normal> - offset with rational data.

    Facet functionals of a polytope are normalized to primitive integer
    normals; cut functionals of a moving family keep their user scale
    (the Leray measures downstream depend on it).  A zero normal is only
    legal for constant cuts (trivial prisms), never for facets.  The data
    do not change after construction, so the hash, the cleared integers and
    the normalized functional are each computed once, when first asked for.
    """

    __slots__ = ("normal", "offset", "_hash", "_cleared", "_normalized")

    def __init__(self, normal, offset):
        self.normal: Point = _point(normal)
        self.offset: Fraction = _fr(offset)
        self._hash = None
        self._cleared = None
        self._normalized = None

    def value(self, x) -> Fraction:
        return sum(xi * ni for xi, ni in zip(_point(x), self.normal)) - self.offset

    def value_float(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return pts @ self.normal_float() - float(self.offset)

    def normal_float(self) -> np.ndarray:
        return np.array([float(v) for v in self.normal])

    def cleared(self) -> tuple[tuple[int, ...], int]:
        """Integers (nu, lam) with <nu, x> >= lam exactly where self(x) >= 0.

        Normal and offset are scaled by the lcm of their denominators, a
        positive factor, so the half-space is the same.  Computed once.
        """
        if self._cleared is None:
            den = lcm(*(v.denominator for v in self.normal), self.offset.denominator)
            self._cleared = (tuple(v.numerator * (den // v.denominator) for v in self.normal),
                             self.offset.numerator * (den // self.offset.denominator))
        return self._cleared

    def is_constant(self) -> bool:
        return not any(self.normal)

    def normalized(self) -> "AffineFunctional":
        """Positive rescaling with primitive integer normal (self if it has one)."""
        if self._normalized is None:
            if self.is_constant():
                raise ValueError("cannot normalize a functional with zero normal")
            if all(v.denominator == 1 for v in self.normal) and \
                    gcd(*(v.numerator for v in self.normal)) == 1:
                self._normalized = self
            else:
                prim = _primitive(self.normal)
                idx = next(i for i, v in enumerate(self.normal) if v != 0)
                scale = Fraction(prim[idx]) / self.normal[idx]
                self._normalized = AffineFunctional(prim, self.offset * scale)
        return self._normalized

    def shifted(self, t) -> "AffineFunctional":
        """The functional x -> self(x) - t, i.e. the cut at level t."""
        return AffineFunctional(self.normal, self.offset + _fr(t))

    def key(self):
        return (self.normal, self.offset)

    def __eq__(self, other):
        return isinstance(other, AffineFunctional) and self.key() == other.key()

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.key())
        return self._hash

    def __repr__(self):
        terms = " + ".join(f"{n}*x{i}" for i, n in enumerate(self.normal) if n != 0)
        return f"AffineFunctional({terms or '0'} - {self.offset})"


@dataclass(frozen=True)
class Face:
    """A proper face of a polytope, recorded by its active facet set."""

    active_facets: frozenset
    codim: int
    vertex_ids: tuple


class _Description(NamedTuple):
    """The double-description record of ``_candidate_vertices``."""

    vertices: list[Point]
    slacks: list[list[int]]
    on: list[int]


class Polytope:
    """Bounded rational polytope in half-space representation.

    Vertices, the face lattice, triangulations and volumes are exact, and
    each derived value is a ``cached_property`` (methods that take an
    argument keep dict memos); the vertices and the vertex-facet incidence
    come from one double-description pass (``_candidate_vertices``) on
    construction, which refuses an unbounded region and normals that do not
    span; the faces are read from that incidence and the volumes from a
    recursion over them (``_leray``).  With ``require_full_dim=False`` the
    region may be empty or lower-dimensional, never unbounded.
    """

    def __init__(self, dim: int, facets: Iterable[AffineFunctional],
                 require_full_dim: bool = True):
        self.dim = int(dim)
        if self.dim < 1:
            raise ValueError("polytope dimension must be >= 1")
        facets = [f.normalized() for f in facets]
        seen: set[AffineFunctional] = set()
        for f in facets:
            if f in seen:
                raise ValueError(f"duplicate facet inequality {f!r}")
            seen.add(f)
        self.facets: list[AffineFunctional] = facets
        self._normals = [tuple(v.numerator for v in f.normal) for f in facets]
        self._counts: dict[int, int] = {}  # fibre-walk counts by k
        self._ehrhart_memo: dict[int, list[Fraction]] = {}
        self._faces: dict[int, list[Face]] = {}
        self._subface_memo: dict[int, list[tuple[int, int]]] = {}
        # dx_{-J} of each face by vertex bitmask, as a reduced (num, den)
        self._measures: dict[int, tuple[int, int]] = {}
        # |det N_J| by set of normals, shared with the regions _intersect cuts
        self._dets: dict[frozenset, int] = {}
        # the double-description pass runs here, so unbounded regions raise
        full = (1 << len(self.vertices)) - 1
        if require_full_dim and not full:
            raise ValueError("empty polytope: no vertex satisfies all inequalities")
        if require_full_dim and full in self._dd.on:
            f = facets[self._dd.on.index(full)]
            raise ValueError(f"polytope is not full-dimensional: contained in {f!r} = 0")

    # -- vertices ----------------------------------------------------------

    @cached_property
    def _dd(self) -> _Description:
        return _candidate_vertices(self.facets, self.dim)

    @property
    def vertices(self) -> list[Point]:
        """All vertices, exact and lexicographically sorted."""
        return self._dd.vertices

    def _ids(self, mask: int) -> tuple[int, ...]:
        """The vertex ids of a vertex bitmask, ascending."""
        return tuple(i for i, c in enumerate(format(mask, f"0{len(self.vertices)}b"))
                     if c == "1")

    def centroid_of_vertices(self) -> Point:
        vs = self.vertices
        n = len(vs)
        return tuple(sum(v[i] for v in vs) / n for i in range(self.dim))

    @property
    def is_empty(self) -> bool:
        return not self.vertices

    @property
    def is_full_dim(self) -> bool:
        return self._hull == self.dim

    @cached_property
    def _hull(self) -> int:
        """Dimension of the hull of the vertices, -1 for none: full when no
        facet holds every vertex (those facets would cut out its affine
        hull), else the length of a chain of faces to a vertex."""
        ids = (1 << len(self.vertices)) - 1
        if ids not in self._dd.on:
            return self.dim
        dim = 0 if ids else -1  # every facet holds the no vertices of an empty region
        while ids.bit_count() > 1:
            ids, dim = self._subfaces(ids)[0][0], dim + 1
        return dim

    def contains(self, x, strict: bool = False) -> bool:
        pt = _point(x)
        if strict:
            return all(f.value(pt) > 0 for f in self.facets)
        return all(f.value(pt) >= 0 for f in self.facets)

    def bounding_box(self) -> tuple[Point, Point]:
        """Exact box of the vertices."""
        return self._box

    @cached_property
    def _box(self) -> tuple[Point, Point]:
        # compared as integers over the integrality divisor
        D = self._divisor
        axes = [[v[i].numerator * (D // v[i].denominator) for v in self.vertices]
                for i in range(self.dim)]
        return tuple(tuple(Fraction(extreme(ax), D) for ax in axes) for extreme in (min, max))

    # -- face lattice ------------------------------------------------------

    def faces(self, codim: int) -> list[Face]:
        """Faces of the given codimension (1 <= codim <= dim), by vertex ids.

        active_facets is the full set of facets vanishing on the face; the
        spec of a convex polytope guarantees codim-2 faces have exactly two.
        """
        if codim in self._faces:
            return self._faces[codim]
        if not 1 <= codim <= self.dim:
            raise ValueError(f"codim must be in 1..{self.dim}")
        self._faces[codim] = sorted(
            (Face(frozenset(a for a, on in enumerate(self._dd.on) if ids & on == ids), codim,
                  self._ids(ids)) for ids in self._level(self.dim - codim)),
            key=lambda f: f.vertex_ids)
        return self._faces[codim]

    def _level(self, d: int) -> list[int]:
        """Vertex bitmasks of the d-dimensional faces: the facets of the faces
        of dimension d + 1, down from the hull of all vertices."""
        level = [(1 << len(self.vertices)) - 1]
        if d > self._hull:
            return []
        for _ in range(self._hull - d):
            level = list(dict.fromkeys(g for ids in level for g, _ in self._subfaces(ids)))
        return level

    def _subfaces(self, ids: int) -> list[tuple[int, int]]:
        """The facets of the face with vertex bitmask ids, each with the
        lowest b that cuts it out: the maximal proper nonempty sets among
        ids & on[b] (Kaibel & Pfetsch, Comput. Geom. 23, 2002).  They are
        sorted by their sorted vertex ids, which for sets none of which holds
        another is the descending order of their masks (vertex 0 is the top
        bit)."""
        if ids not in self._subface_memo:
            cut: dict[int, int] = {}
            for b, on in enumerate(self._dd.on):
                common = ids & on
                if common and common != ids:
                    cut.setdefault(common, b)
            # a set is maximal when no larger one holds it
            maximal: list[int] = []
            for g in sorted(cut, key=int.bit_count, reverse=True):
                if g not in [g & h for h in maximal]:
                    maximal.append(g)
            maximal.sort(reverse=True)
            self._subface_memo[ids] = [(g, cut[g]) for g in maximal]
        return self._subface_memo[ids]

    def facet_vertex_ids(self, a: int) -> tuple:
        return self._ids(self._dd.on[a])

    def essential_facets(self) -> list[int]:
        """Indices of facets that actually carry an (n-1)-dimensional face."""
        return sorted(self._essential)

    @cached_property
    def _essential(self) -> frozenset:
        facets = set(self._level(self.dim - 1))
        return frozenset(a for a, on in enumerate(self._dd.on) if on in facets)

    # -- triangulation and exact measures -----------------------------------

    def triangulation(self) -> list[tuple[Point, ...]]:
        """Fan from the vertex centroid over the facets, each facet pulled
        from its lowest vertex (``_triangulate_face``).

        Simplex volumes sum to Vol(P) exactly.
        """
        return self._triangulation

    @cached_property
    def _triangulation(self) -> list[tuple[Point, ...]]:
        return (self._triangulate_face((1 << len(self.vertices)) - 1, self.dim)
                if self.is_full_dim else [])

    def _triangulate_face(self, ids: int, m: int,
                          pulled: bool = False) -> list[tuple[Point, ...]]:
        """Simplices exactly covering the m-dimensional face with vertex
        bitmask ids, each ending with its apex.  The face is coned from its
        vertex centroid over all of its facets; a face below it (``pulled``)
        is pulled from its lowest vertex x0 over the facets that miss x0, as
        in ``_leray``.  The n-cube gets 2n (n-1)! simplices; the centroid
        stays the last vertex, which the Duffy rule's nodes crowd, so they
        crowd the interior."""
        verts = [self.vertices[i] for i in self._ids(ids)]
        if len(verts) == m + 1:
            return [tuple(verts)]
        subs = [g for g, _ in self._subfaces(ids)]
        if pulled:
            x0 = 1 << (ids.bit_length() - 1)
            apex, subs = verts[0], [g for g in subs if not g & x0]
        else:
            apex = tuple(sum(v[i] for v in verts) / len(verts) for i in range(self.dim))
        return [s + (apex,) for g in subs
                for s in self._triangulate_face(g, m - 1, pulled=True)]

    def volume(self) -> Fraction:
        """Exact Lebesgue volume; 0 when P is empty or lower-dimensional."""
        if not self.is_full_dim:
            return Fraction(0)
        return Fraction(*self._leray((1 << len(self.vertices)) - 1, ()))

    def _leray(self, ids: int, cut: tuple) -> tuple[int, int]:
        """Leray measure tau of the face F of dimension d with vertex bitmask
        ids, as integers (num, den), den > 0: d(tau) d(ell_a for a in cut) =
        dx, the facets in cut holding F with n - d independent normals N.
        Pyramid recursion from the vertex x0 of F with the lowest id: tau(F)
        = (1/d) sum_G ell_b(x0) tau(G) over the facets G = F cap {ell_b = 0}
        of F that miss x0, b appended to cut; a vertex has 1/|det N|.  The
        memo keeps per face dx_{-J} = tau |det N_J|, J the pivot columns of
        N, which depend only on the span of N, and |det N_J| once per set of
        normals.  ell_b(x0) = slack/(den_b s), s the last row of the slack
        table at x0 and den_b b's clearing factor, its offset's denominator;
        each face's sum is reduced once."""
        key = frozenset(self._normals[a] for a in cut)
        det = self._dets.get(key)
        if det is None:
            det = self._dets[key] = abs(_row_reduce(key, self.dim)[2])
        if ids not in self._measures:
            d = self.dim - len(cut)
            if d == 0:
                self._measures[ids] = (1, 1)
            else:
                x0 = len(self.vertices) - ids.bit_length()
                slacks = self._dd.slacks
                top = 1 << (ids.bit_length() - 1)
                num, den = 0, 1
                for g, b in self._subfaces(ids):
                    if g & top:
                        continue
                    p, q = self._leray(g, cut + (b,))
                    num, den = _add(num, den, p * slacks[b][x0],
                                    q * self.facets[b].offset.denominator)
                num *= det
                den *= d * slacks[-1][x0]
                g = gcd(num, den)
                self._measures[ids] = (num // g, den // g)
        num, den = self._measures[ids]
        return num, den * det

    def face_triangulation(self, vertex_ids: tuple, codim: int) -> list[tuple[Point, ...]]:
        """Simplices exactly covering the codim face spanned by vertex_ids;
        one point for a vertex."""
        top = len(self.vertices) - 1
        return self._triangulate_face(sum(1 << (top - i) for i in vertex_ids), self.dim - codim)

    def facet_leray_volume(self, a: int) -> Fraction:
        """Exact Leray measure of facet a: d(sigma) d(ell_a) = dx."""
        if a not in self._essential:
            return Fraction(0)
        return Fraction(*self._leray(self._dd.on[a], (a,)))

    def boundary_leray_volume(self, facets: Sequence[int] | None = None) -> Fraction:
        """Exact Leray measure of the listed facets, all of them by default;
        summed on integers, one Fraction made."""
        num, den = 0, 1
        for a in range(len(self.facets)) if facets is None else facets:
            if a in self._essential:
                num, den = _add(num, den, *self._leray(self._dd.on[a], (a,)))
        return Fraction(num, den)

    # -- lattice points ------------------------------------------------------

    def _fibres(self, k: int):
        """Integer points of k*P as fibres along the last coordinate, in
        blocks of at most LATTICE_BUDGET fibres in lexicographic order: the
        whole box when it fits, else slabs of the first axis whose later axes
        fit, each earlier axis walked one value at a time.

        A block (prefix, lower, length) holds integer points of the first n-1
        coordinates in the exact bounding box of k*P, and the fibre over
        prefix[j] is x_n = lower[j], ..., lower[j] + length[j] - 1.  Each
        fibre's range comes from the cleared facets <nu, x> >= k*lam by floor
        division: nu_n > 0 gives a lower bound, nu_n < 0 an upper bound, and
        nu_n = 0 keeps or drops the whole fibre.  The arrays are int64, or
        object arrays of Python ints once a bound on |k*lam - <nu', x'>|, a
        coordinate or the count reaches 2**62.  No block when P is empty;
        raises before the first block when the box holds more than
        FIBRE_BUDGET fibres.
        """
        if k < 1:
            raise ValueError("scaling factor k must be a positive integer")
        if self.is_empty:
            return
        lo, hi = self.bounding_box()
        lo = [-(-c.numerator * k // c.denominator) for c in lo]
        hi = [c.numerator * k // c.denominator for c in hi]
        sizes = [max(b - a + 1, 0) for a, b in zip(lo[:-1], hi[:-1])]
        if prod(sizes) > FIBRE_BUDGET:
            raise ValueError(f"k*P has {prod(sizes)} fibres at k={k}, past the "
                             f"budget of {FIBRE_BUDGET}")
        cleared = [f.cleared() for f in self.facets]
        reach = [max(abs(a), abs(b)) for a, b in zip(lo, hi)]
        bound = max([max(reach), prod(sizes) * (hi[-1] - lo[-1] + 1)]
                    + [abs(k * lam) + sum(abs(v) * r for v, r in zip(nu, reach[:-1]))
                       for nu, lam in cleared])
        dtype = _int_dtype(bound)
        prefixes = [np.zeros((1, 0), dtype=dtype)]
        if sizes:
            j = min(i for i in range(len(sizes)) if prod(sizes[i + 1:]) <= LATTICE_BUDGET)
            slab = LATTICE_BUDGET // max(prod(sizes[j + 1:]), 1)
            # each block: one value on each axis before j, a slab of axis j,
            # all of the later axes
            prefixes = (np.indices((*[1] * j, min(slab, sizes[j] - s), *sizes[j + 1:]),
                                   dtype=dtype).reshape(len(sizes), -1).T
                        + np.array([*(a + h for a, h in zip(lo, head)), lo[j] + s, *lo[j + 1:-1]],
                                   dtype=dtype)
                        for *head, s in itertools.product(*map(range, sizes[:j]),
                                                          range(0, sizes[j], slab)))
        for prefix in prefixes:
            nfib = len(prefix)
            lower = np.full(nfib, lo[-1], dtype=dtype)
            upper = np.full(nfib, hi[-1], dtype=dtype)
            keep = np.ones(nfib, dtype=bool)
            for nu, lam in cleared:
                # nu_n * x_n >= rest = k*lam - <nu', x'>
                rest = np.full(nfib, k * lam, dtype=dtype)
                for i, v in enumerate(nu[:-1]):
                    if v:
                        rest -= v * prefix[:, i]
                if nu[-1] > 0:
                    lower = np.maximum(lower, -(-rest // nu[-1]))
                elif nu[-1] < 0:
                    upper = np.minimum(upper, rest // nu[-1])
                else:
                    keep &= rest <= 0
            length = np.maximum(upper - lower + 1, 0)
            length[~keep] = 0
            yield prefix, lower, length

    def lattice_points(self, k: int) -> np.ndarray:
        """Integer points of k*P as an (N, n) array in lexicographic order.

        Built fibre by fibre from exact integer bounds (see ``_fibres``);
        the dtype is int64, or object (Python ints) when coordinates or
        intermediate bounds could pass 2**62.  Raises ValueError, naming N,
        before more than LATTICE_BUDGET points exist, when N passes it.
        """
        k = _int(k)
        parts, count = [], 0
        for prefix, lower, length in self._fibres(k):
            count += int(length.sum())
            if count > LATTICE_BUDGET:
                continue
            reps = length.astype(np.int64)
            start = np.cumsum(reps) - reps
            step = np.arange(reps.sum(), dtype=np.int64) - np.repeat(start, reps)
            last = np.repeat(lower, reps) + step.astype(lower.dtype)
            parts.append(np.column_stack([np.repeat(prefix, reps, axis=0), last]))
        if count > LATTICE_BUDGET:
            raise ValueError(f"k*P has {count} lattice points at k={k}, past the "
                             f"budget of {LATTICE_BUDGET}")
        return np.concatenate(parts) if parts else np.zeros((0, self.dim), dtype=np.int64)

    def count_lattice_points(self, k: int) -> int:
        """|Z^n cap kP|, exact.  Summed over the fibres of ``_fibres``, without
        building a point, while k <= (n+2)D, D the integrality divisor, and
        kept per k; past that, the value at k of the Ehrhart polynomial of its
        class mod D."""
        k = _int(k)
        D = self._divisor
        if k > (self.dim + 2) * D:
            return int(_poly_eval(self._ehrhart(k % D), k))
        if k not in self._counts:
            self._counts[k] = sum(int(length.sum()) for _, _, length in self._fibres(k))
        return self._counts[k]

    def _ehrhart(self, r: int) -> list[Fraction]:
        """Monomial coefficients of |Z^n cap kP| on the class k = r (mod D),
        where it is one polynomial of degree <= n (Ehrhart 1962; Beck & Robins,
        Computing the Continuous Discretely, ch. 3).  Fitted to the counts at
        k = r, r + D, ..., r + nD (k = 0 counts 1, or 0 when P is empty) and
        checked at r + (n+1)D, all below (n+2)D; memoised per class."""
        if r not in self._ehrhart_memo:
            ks = [r + j * self._divisor for j in range(self.dim + 2)]
            counts = [self.count_lattice_points(k) if k else int(not self.is_empty)
                      for k in ks]
            self._ehrhart_memo[r] = _fit(ks, counts, self.dim, "lattice count")
        return self._ehrhart_memo[r]

    def integrality_divisor(self) -> int:
        """Smallest N with N*P an integral polytope (lcm of vertex denominators)."""
        return self._divisor

    @cached_property
    def _divisor(self) -> int:
        return lcm(*(c.denominator for v in self.vertices for c in v))

    def interior_grid(self, per_axis: int) -> tuple[np.ndarray, int]:
        """The grid points lo + (hi - lo)(i + 1)/(per_axis + 1), i < per_axis on
        each axis of the exact bounding box, that lie strictly inside P, as
        (num, den): integer numerators in lexicographic order over one
        denominator, int64 or, from 2**62, Python ints.  Strictness is tested
        exactly on the cleared facets; when no grid point passes, the one
        point is the vertex centroid.  Raises ValueError when per_axis < 1,
        and before building more than LATTICE_BUDGET points."""
        per_axis = _int(per_axis)
        if per_axis < 1:
            raise ValueError(f"a grid needs at least one point per axis, got {per_axis}")
        if per_axis ** self.dim > LATTICE_BUDGET:
            raise ValueError(f"a grid of {per_axis}^{self.dim} = {per_axis ** self.dim} "
                             f"points is past the budget of {LATTICE_BUDGET}")
        lo, hi = self.bounding_box()
        steps = [(h - l) / (per_axis + 1) for l, h in zip(lo, hi)]
        den = lcm(*(q.denominator for q in (*lo, *steps)))
        # the 1 keeps den itself below 2**62 on int64: callers divide by it
        ticks = np.arange(1, per_axis + 1,
                          dtype=_int_dtype(max(abs(c) for c in (*lo, *hi, 1)) * den))
        axes = [int(l * den) + int(s * den) * ticks for l, s in zip(lo, steps)]
        num = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
        num = num[_min_sign([f.cleared() for f in self.facets], num, den) > 0]
        if len(num) == 0:
            return _integer_points([self.centroid_of_vertices()])
        return num, den

    def __repr__(self):
        return f"Polytope(dim={self.dim}, facets={len(self.facets)}, vertices={len(self.vertices)})"


def _fit(xs, ys, degree: int, what: str) -> list[Fraction]:
    """Exact monomial coefficients, low degree first and trailing zeros
    dropped, of the Lagrange polynomial through the first degree+1 samples;
    raises ValueError when a later sample does not lie on it.

    On integers: with x = u/L and y = Y/M over common denominators, the
    Lagrange basis in u is prod_{j != i} (u - u_j) / (u_i - u_j); over the
    lcm Q of its denominators p(x) = sum_d S_d (Lx)^d / (MQ), so a sample
    (u, y) fits when sum_d S_d u^d / (MQ) = y, and coefficient d is the one
    Fraction S_d L^d / (MQ)."""
    m = degree + 1
    L = lcm(*(x.denominator for x in xs))
    us = [x.numerator * (L // x.denominator) for x in xs]
    M = lcm(*(y.denominator for y in ys[:m]))
    basis = []
    for i in range(m):
        # prod_{j != i} (u - u_j) and its value at u_i
        num, den = [1], 1
        for j in range(m):
            if j != i:
                num.append(0)
                for d in range(len(num) - 1, 0, -1):
                    num[d] = num[d - 1] - us[j] * num[d]
                num[0] *= -us[j]
                den *= us[i] - us[j]
        basis.append((num, den))
    Q = lcm(*(den for _, den in basis))
    sums = [0] * m
    for y, (num, den) in zip(ys, basis):
        scale = y.numerator * (M // y.denominator) * (Q // den)
        for d, c in enumerate(num):
            sums[d] += scale * c
    while len(sums) > 1 and sums[-1] == 0:
        sums.pop()
    MQ = M * Q
    for x, u, y in zip(xs[m:], us[m:], ys[m:]):
        acc = 0
        for c in reversed(sums):
            acc = acc * u + c
        if acc * y.denominator != y.numerator * MQ:
            raise ValueError(f"{what}: the sample at {x} does not fit a "
                             f"degree-{degree} polynomial")
    return [Fraction(c * L ** d, MQ) for d, c in enumerate(sums)]


def _poly_eval(coeffs, x) -> Fraction:
    """sum_d coeffs[d] x^d, exact: Horner's rule on integers, the
    coefficients over one denominator and x = p/q; one Fraction made."""
    if not coeffs:
        return Fraction(0)
    den = lcm(*(c.denominator for c in coeffs))
    p, q = x.numerator, x.denominator
    acc, qpow = 0, 1
    for c in reversed(coeffs):
        acc = acc * p + c.numerator * (den // c.denominator) * qpow
        qpow *= q
    return Fraction(acc, den * qpow // q)


def _simplex_volume(simplex: Sequence[Point]) -> Fraction:
    n = len(simplex) - 1
    p0 = simplex[0]
    rows = [[p[i] - p0[i] for i in range(n)] for p in simplex[1:]]
    return abs(_det(rows)) / factorial(n)


def _det(rows) -> Fraction:
    ints, scale = _cleared_rows(rows)
    _, pivots, det = _row_reduce(ints, len(rows), full_rank=True)
    return Fraction(det, scale) if len(pivots) == len(rows) else Fraction(0)


def leray_simplex_measure(simplex: Sequence[Point], *ells: AffineFunctional) -> Fraction:
    """Exact Leray measure of an (n-c)-simplex on {ell_1 = ... = ell_c = 0}.

    The measure d(tau) is defined by d(tau) d(ell_1) ... d(ell_c) = dx; for
    c = 1 it is the facet measure d(sigma), for c = n a point has measure
    1/|det N|.  With N the c x n matrix of normals and J a set of c columns
    where its minor is nonzero, d(tau) = dx_{-J} / |det N_J|: dropping the
    coordinates J keeps everything rational.  Raises when the normals are
    linearly dependent (a zero normal included).
    """
    if not ells:
        return _simplex_volume(simplex)
    normals, scale = _cleared_rows([ell.normal for ell in ells])
    _, cols, det = _row_reduce(normals, len(simplex[0]))
    if len(cols) < len(ells):
        raise ValueError("Leray measure undefined: the normals are linearly dependent")
    proj = [tuple(c for i, c in enumerate(p) if i not in cols) for p in simplex]
    return _simplex_volume(proj) / abs(Fraction(det, scale))


def _start_cone(rows: Sequence[Sequence[int]], d: int):
    """(basis, rays) of the double-description start cone {B y >= 0}, B the
    first d independent integer rows, or None exactly when they do not span.

    One elimination of [rows^T | I] on the columns of rows^T finds B at its
    pivot columns and turns I into D B^-T, D the last pivot: ray r_i is row
    i of that block made primitive, a column of B^-1 with B r_i = c e_i,
    c > 0.
    """
    m = len(rows)
    reduced, basis, _ = _row_reduce(
        [[*col, *(int(i == j) for j in range(d))] for i, col in enumerate(zip(*rows))], m)
    if len(basis) < d:
        return None
    sign = 1 if reduced[0][basis[0]] > 0 else -1
    rays = []
    for r in reduced:
        g = gcd(*r[m:])
        rays.append(tuple(sign * v // g for v in r[m:]))
    return basis, rays


def _candidate_vertices(facets: Sequence[AffineFunctional], dim: int) -> _Description:
    """The vertices, slacks and vertex bitmasks of the bounded region
    {x : facet(x) >= 0 for every facet}.

    The double-description method (Motzkin et al. 1953; Fukuda & Prodon
    1996) on the integer cone {(x, s) : <nu, x> - lam*s >= 0, s >= 0} of
    the cleared facets (nu, lam): its extreme rays (X, s) with s > 0 are the
    vertices X/s, those with s = 0 the extreme recession directions.
    ``vertices`` is sorted, ``slacks[a][i]`` = <nu_a, X_i> - lam_a s_i is 0
    exactly on facet a, and its last row, of s >= 0, holds s_i; ``on[a]`` is
    the bitmask of the vertices on facet a, vertex i at bit V-1-i.  Raises
    ValueError when the normals do not span or, naming a primitive integer
    recession direction, when the cone has one (an empty region too).

    Rays are primitive integer tuples and each carries its zero set, the
    bitmask of processed rows it lies on.  Two rays of opposite sign on a
    new row are combined only when adjacent: no other ray's zero set
    contains their common one.  The slack table is one matrix product, in
    int64 while a bound on its entries stays below 2**62, else on Python
    ints.
    """
    d = dim + 1
    rows = [(*nu, -lam) for nu, lam in (f.cleared() for f in facets)]
    rows.append((0,) * dim + (1,))
    start = _start_cone(rows, d)
    if start is None:
        raise ValueError("unbounded polytope: facet normals do not span")
    basis, start_rays = start
    every = sum(1 << a for a in basis)
    rays = [(r, every & ~(1 << a)) for r, a in zip(start_rays, basis)]
    for i in sorted(set(range(len(rows))) - set(basis)):
        row, bit = rows[i], 1 << i
        slack = [sum(map(mul, row, r)) for r, _ in rays]
        zeros = [z for _, z in rays]
        kept = [(r, z | bit if s == 0 else z) for (r, z), s in zip(rays, slack) if s >= 0]
        pos = [j for j, s in enumerate(slack) if s > 0]
        neg = [j for j, s in enumerate(slack) if s < 0]
        for q in neg:
            (rq, zq), sq = rays[q], slack[q]
            for p in [p for p in pos if (zeros[p] & zq).bit_count() >= d - 2]:
                common = zeros[p] & zq
                # rays p and q hold common; a third one makes them not adjacent
                if [z & common for z in zeros].count(common) > 2:
                    continue
                rp, sp = rays[p][0], slack[p]
                new = [sp * b - sq * a for a, b in zip(rp, rq)]
                g = gcd(*new)
                kept.append((tuple(c // g for c in new), common | bit))
        rays = kept
    ray = min((r[:-1] for r, _ in rays if not r[-1]), default=None)
    if ray is not None:
        raise ValueError(f"unbounded polytope: recession ray {ray}")
    # sorted by X (L/s), L the lcm of the s: the order of the points X/s
    ends = [r for r, _ in rays if r[-1]]
    big = lcm(*(r[-1] for r in ends))
    ends.sort(key=lambda r: tuple(c * (big // r[-1]) for c in r[:-1]))
    bound = d * max(map(abs, itertools.chain(*rows))) * \
        max(map(abs, itertools.chain(*ends)), default=1)
    dtype = _int_dtype(bound)
    table = np.array(rows, dtype=dtype) @ np.array(ends, dtype=dtype).reshape(-1, d).T
    packed = np.packbits(table[:-1] == 0, axis=1)
    shift = 8 * packed.shape[1] - len(ends)
    on = [int.from_bytes(row.tobytes(), "big") >> shift for row in packed]
    # one Fraction per distinct coordinate
    coords = {key: Fraction(*key) for key in {(c, r[-1]) for r in ends for c in r[:-1]}}
    vertices = [tuple(coords[c, r[-1]] for c in r[:-1]) for r in ends]
    return _Description(vertices, table.tolist(), on)


def _region(P: Polytope, extra: Sequence[AffineFunctional]):
    """(R, kept) for R = P cap {ell >= 0 for ell in extra}, maybe empty or
    lower-dimensional: the facets of P + extra, normalized, without
    duplicates, in input order, kept[i] the input index of facet i.  A
    constant ell is dropped when it holds; None when one fails.  R is P when
    no ell adds a facet, and shares P's determinants of normals."""
    index = {f: a for a, f in enumerate(P.facets)}
    for a, ell in enumerate(extra, len(P.facets)):
        if ell.is_constant():
            if ell.offset > 0:
                return None
            continue
        index.setdefault(ell.normalized(), a)
    R = P if len(index) == len(P.facets) else Polytope(P.dim, list(index), require_full_dim=False)
    R._dets = P._dets
    return R, list(index.values())


def _prune(R: Polytope, kept: list[int]):
    """(Q, kept) for R without its inessential facets; None when R is empty
    or lower-dimensional.  Q carries R's record, hull, essential facets and
    determinants, so it is neither enumerated nor validated again."""
    if not R.is_full_dim:
        return None
    essential = R.essential_facets()
    vertices, slacks, on = R._dd
    Q = Polytope.__new__(Polytope)
    # cached before __init__ runs, which then reads the record instead of enumerating
    vars(Q).update(_dd=_Description(vertices, [slacks[i] for i in essential] + [slacks[-1]],
                                    [on[i] for i in essential]),
                   _hull=R._hull, _essential=frozenset(range(len(essential))))
    Q.__init__(R.dim, [R.facets[i] for i in essential], require_full_dim=False)
    Q._dets = R._dets
    return Q, [kept[i] for i in essential]


def _intersect(P: Polytope, extra: Sequence[AffineFunctional]):
    """(Q, kept) for Q = P cap {ell >= 0 for ell in extra} without inessential
    facets; None when Q is empty or lower-dimensional."""
    region = _region(P, extra)
    return None if region is None else _prune(*region)


# ---------------------------------------------------------------------------
# spec operations
# ---------------------------------------------------------------------------

def enumerate_vertices(facets: Sequence[AffineFunctional], dim: int) -> list[Point]:
    """Vertices of a bounded full-dimensional polytope, exact and sorted.

    One double-description pass over the cleared integer facets finds the
    vertices and the vertex-facet incidence kept beside them.  Raises naming
    the violated condition (unbounded, empty, not full-dimensional)
    otherwise.
    """
    return Polytope(dim, facets).vertices


@dataclass
class VertexCertificate:
    vertex: Point
    edge_directions: tuple
    determinant: int
    simple: bool
    ok: bool
    reason: str = ""


@dataclass
class DelzantReport:
    is_delzant: bool
    is_integral: bool
    certificates: list[VertexCertificate] = field(default_factory=list)


def check_delzant(P: Polytope) -> DelzantReport:
    """Delzant test: n primitive edge directions at each vertex with det +-1.

    Integrality of the facet offsets is reported separately.
    """
    verts = P.vertices
    n = P.dim
    certs = []
    ok_all = True
    for i, v in enumerate(verts):
        bit = 1 << (len(verts) - 1 - i)
        active = [a for a, on in enumerate(P._dd.on) if on & bit]
        if len(active) != n:
            certs.append(VertexCertificate(
                vertex=v, edge_directions=(), determinant=0, simple=False,
                ok=False, reason=f"non-simple vertex: {len(active)} facets active"))
            ok_all = False
            continue
        # the inward primitive edge direction off facet a is kernel to the
        # other active normals and positive on a's: a start-cone ray
        _, dirs = _start_cone([P._normals[a] for a in active], n)
        det = int(_det(dirs))
        ok = abs(det) == 1
        certs.append(VertexCertificate(
            vertex=v, edge_directions=tuple(dirs), determinant=det,
            simple=True, ok=ok,
            reason="" if ok else f"edge-direction determinant {det} at {v}"))
        ok_all = ok_all and ok
    integral = all(f.offset.denominator == 1 for f in P.facets) and \
        all(c.denominator == 1 for v in verts for c in v)
    return DelzantReport(is_delzant=ok_all, is_integral=integral, certificates=certs)


def count_lattice_points(P: Polytope, k: int) -> int:
    """|Z^n cap kP|, exact (``Polytope.count_lattice_points``)."""
    return P.count_lattice_points(k)


def seshadri_constant(P: Polytope, phi: AffineFunctional) -> Fraction:
    """min of phi over the vertices where it is positive.

    Requires phi >= 0 on P (checked at the vertices).
    """
    vals = [phi.value(v) for v in P.vertices]
    if any(v < 0 for v in vals):
        raise ValueError("functional is negative on the polytope")
    pos = [v for v in vals if v > 0]
    if not pos:
        raise ValueError("functional vanishes on all vertices")
    return min(pos)


# ---------------------------------------------------------------------------
# moving families, slices, test configurations
# ---------------------------------------------------------------------------

@dataclass
class Slice:
    """P(t) = P cap {Phi_a >= t} with its facets partitioned new/old.

    ``polytope`` is None when the slice is empty or lower-dimensional;
    ``new_facets`` pairs the active cut index with the unnormalized functional
    Phi_a - t whose scale defines the Leray measure of that facet.  Lattice
    counts read ``region``: ``polytope``, else P(t) unpruned; None if empty.
    """

    t: Fraction
    polytope: Polytope | None
    new_facets: list[tuple[int, AffineFunctional]]
    old_facets: list[int]  # indices into polytope.facets
    new_facet_ids: list[int]  # indices into polytope.facets, aligned with new_facets
    region: Polytope | None

    @property
    def is_empty(self) -> bool:
        return self.polytope is None

    @property
    def active_cuts(self) -> list[int]:
        return [a for a, _ in self.new_facets]


class MovingFamily:
    """A base polytope with affine cut functions Phi_a defining P(t)."""

    def __init__(self, base: Polytope, cuts: Sequence[AffineFunctional]):
        self.base = base
        self.cuts = list(cuts)
        for a, phi in enumerate(self.cuts):
            if phi in self.cuts[:a]:
                raise ValueError(f"cut {phi!r} is repeated")
            if min(phi.value(v) for v in base.vertices) < 0:
                raise ValueError(
                    f"cut {phi!r} is negative on the base polytope; P(0) != P")
        self._slices: dict[Fraction, Slice] = {}
        self._hilbert = None  # (A0, A1) of stability.hilbert_polynomials

    def slice(self, t) -> Slice:
        """P(t), with facets partitioned into new (active cuts) and old.

        Memoised by exact t: repeated calls return the same Slice.
        """
        t = _fr(t)
        if t not in self._slices:
            self._slices[t] = self._cut(t)
        return self._slices[t]

    def _cut(self, t: Fraction) -> Slice:
        shifted = [phi.shifted(t) for phi in self.cuts]
        region = _region(self.base, shifted)
        pruned = None if region is None else _prune(*region)
        if pruned is None:
            flat = None if region is None or region[0].is_empty else region[0]
            return Slice(t, None, [], [], [], flat)
        poly, kept = pruned
        # a cut equal to a facet of P stays old; at t = 0 no cut is essential
        m = len(self.base.facets)
        new_facets, new_ids, old_ids = [], [], []
        for i, a in enumerate(kept):
            if a >= m:
                new_facets.append((a - m, shifted[a - m]))
                new_ids.append(i)
            else:
                old_ids.append(i)
        return Slice(t, poly, new_facets, old_ids, new_ids, poly)

    def critical_values(self) -> list[Fraction]:
        """The t at which the combinatorics of P(t) jumps: exact, sorted.

        Computed from the last coordinates of the vertices of the
        test-configuration polytope; 0 is always included.
        """
        return self._criticals

    @cached_property
    def _criticals(self) -> list[Fraction]:
        return sorted({Fraction(0)} | {v[-1] for v in build_test_config(self).gamma.vertices})

    @cached_property
    def _test_config(self) -> TestConfigPolytope:
        """Gamma and its facet classes (``build_test_config``)."""
        P = self.base
        n = P.dim
        if not self.cuts:
            raise ValueError("unbounded test configuration: the family has no cuts")
        # the sides, then the base t >= 0 at index m, then the roofs
        m = len(P.facets)
        lifted = [AffineFunctional(tuple(f.normal) + (Fraction(0),), f.offset) for f in P.facets]
        lifted.append(AffineFunctional((Fraction(0),) * n + (Fraction(1),), 0))
        roofs = {a: AffineFunctional(tuple(phi.normal) + (Fraction(-1),), phi.offset)
                 for a, phi in enumerate(self.cuts)}
        lifted += roofs.values()
        try:
            full = Polytope(n + 1, lifted)
        except ValueError as exc:
            raise ValueError(f"unbounded or degenerate test configuration: {exc}") from exc

        # keep only essential inequalities so every facet of gamma is a facet
        gamma, kept = _intersect(full, [])
        if m not in kept:
            raise ValueError("degenerate test configuration: base facet t=0 missing")
        roof = {a - m - 1: i for i, a in enumerate(kept) if a > m}

        verts, on = gamma.vertices, gamma._dd.on
        skeleton = []
        for a, b in itertools.combinations(sorted(roof), 2):
            common = on[roof[a]] & on[roof[b]]
            # a ridge is a facet of the roof facet a
            if all(common != g for g, _ in gamma._subfaces(on[roof[a]])):
                continue
            ids = gamma._ids(common)
            horiz = len({verts[i][-1] for i in ids}) == 1
            skeleton.append(RoofRidge(cut_a=a, cut_b=b, vertex_ids=ids, horizontal=horiz))
        return TestConfigPolytope(family=self, gamma=gamma, roof_facets=roof,
                                  side_facets=[i for i, a in enumerate(kept) if a < m],
                                  base_facet=kept.index(m), roof_skeleton=skeleton, roofs=roofs)

    def is_regular(self, t) -> bool:
        return _fr(t) not in self.critical_values()

    def regularity_interval(self, t) -> tuple[Fraction, Fraction | None]:
        """The open critical interval containing a regular t.

        The upper end is None above the top critical value: the interval
        is unbounded there.
        """
        t = _fr(t)
        crit = self.critical_values()
        if t in crit:
            raise ValueError(f"t = {t} is a critical value of the family")
        lo = max((c for c in crit if c < t), default=None)
        hi = min((c for c in crit if c > t), default=None)
        if lo is None or t < 0:
            raise ValueError(f"t = {t} is below the family range")
        return lo, hi


@dataclass
class RoofRidge:
    """Codimension-2 face of Gamma lying on two roof facets."""

    cut_a: int
    cut_b: int
    vertex_ids: tuple
    horizontal: bool


@dataclass
class TestConfigPolytope:
    """The (n+1)-dimensional polytope Gamma of a toric test configuration."""

    family: MovingFamily
    gamma: Polytope
    roof_facets: dict  # cut index -> facet index in gamma
    side_facets: list[int]
    base_facet: int
    roof_skeleton: list[RoofRidge]
    roofs: dict  # cut index -> lifted cut functional, as Gamma was built from

    def roof_functionals(self) -> dict:
        """Unnormalized lifted cut functionals Phi_a(x) - t on R^{n+1}."""
        return self.roofs

    def side_leray_volume(self) -> Fraction:
        return self.gamma.boundary_leray_volume(self.side_facets)


def build_test_config(family: MovingFamily) -> TestConfigPolytope:
    """Construct Gamma = {x in P, t >= 0, Phi_a(x) - t >= 0} and classify facets.

    Built once per family; later calls return the same object.
    """
    return family._test_config


# convenience constructors ---------------------------------------------------

def box(widths) -> Polytope:
    """Axis-aligned box [0,w1] x ... x [0,wn]."""
    n = len(widths)
    facets = []
    for i in range(n):
        e = [0] * n
        e[i] = 1
        facets.append(AffineFunctional(e, 0))
        facets.append(AffineFunctional([-v for v in e], -_fr(widths[i])))
    return Polytope(n, facets)


def standard_simplex(n: int, scale=1) -> Polytope:
    """{x >= 0, sum x_i <= scale}."""
    facets = []
    for i in range(n):
        e = [0] * n
        e[i] = 1
        facets.append(AffineFunctional(e, 0))
    facets.append(AffineFunctional([-1] * n, -_fr(scale)))
    return Polytope(n, facets)
