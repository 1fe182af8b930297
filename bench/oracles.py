"""Closed-form references the benchmark checks toricdensity against.

Nothing here imports toricdensity: every value is derived by hand from the
geometry, so a wrong answer in the package cannot leak into its own check.

* Section norms of the canonical potential u = 1/2 sum_a l_a log l_a:
  on a box they factor into Beta integrals, on the standard simplex they
  are Dirichlet integrals.  Both are evaluated in log space.
* Lattice counts: C(k+n, n) for the standard simplex, Pick's theorem for
  lattice polygons, and the vertex-cut slice of the triangle.
* Hilbert coefficients A0(t), A1(t), slopes mu_c and Futaki invariants F1
  of two family types: the standard simplex cut at a vertex
  (Phi = x_1 + ... + x_n) and the unit box cut at a corner
  (Phi_i = x_i, i = 1..n).
"""

from __future__ import annotations

import math
from fractions import Fraction


def rel_gap(value: float, ref) -> float:
    """|value - ref| / |ref|, or |value| when the reference is zero."""
    ref = float(ref)
    if ref == 0.0:
        return abs(float(value))
    return abs(float(value) - ref) / abs(ref)


def _xlogx(x: float) -> float:
    return x * math.log(x) if x > 0.0 else 0.0


# -- section norms ------------------------------------------------------------

def box_log_norm(alpha, k: int) -> float:
    """log int_{[0,1]^n} exp(-k phi(alpha, y)) dy for the canonical potential.

    Per coordinate exp(-k phi) = (y/a)^{ka} ((1-y)/(1-a))^{k(1-a)}, so the
    norm is prod_i B(k a_i + 1, k(1 - a_i) + 1) / (a_i^{k a_i} (1-a_i)^{k(1-a_i)}).
    """
    total = 0.0
    for a in alpha:
        a = float(a)
        p, q = k * a + 1.0, k * (1.0 - a) + 1.0
        total += math.lgamma(p) + math.lgamma(q) - math.lgamma(p + q)
        total -= k * (_xlogx(a) + _xlogx(1.0 - a))
    return total


def simplex_log_norm(alpha, k: int) -> float:
    """log int_Delta exp(-k phi(alpha, y)) dy on the standard n-simplex.

    With l_0 = 1 - sum y and l_i = y_i the integrand is
    prod_a (l_a(y)/l_a(alpha))^{k l_a(alpha)}, whose Dirichlet integral is
    prod_a Gamma(k l_a(alpha) + 1) / Gamma(k + n + 1).
    """
    ells = [float(a) for a in alpha]
    ells.append(1.0 - sum(ells))
    n = len(alpha)
    total = -math.lgamma(k + n + 1.0)
    for ell in ells:
        total += math.lgamma(k * ell + 1.0) - k * _xlogx(ell)
    return total


def interval_density(y: float, k: int) -> float:
    """Density sum_j |e_j|^2(y) of the canonical potential on [0, 1]."""
    total = 0.0
    for j in range(k + 1):
        a = j / k
        log_kernel = k * (a * math.log(y) + (1.0 - a) * math.log(1.0 - y)
                          - _xlogx(a) - _xlogx(1.0 - a))
        total += math.exp(log_kernel - box_log_norm((a,), k))
    return total


def box_density(y, k: int) -> float:
    """Density of the canonical potential on the unit box: a product over axes."""
    out = 1.0
    for c in y:
        out *= interval_density(float(c), k)
    return out


# -- lattice counts -----------------------------------------------------------

def simplex_count(n: int, k: int) -> int:
    """|Z^n cap k Delta_n| = C(k + n, n)."""
    return math.comb(k + n, n)


def triangle_slice_count(k: int, t: Fraction) -> int:
    """Lattice points of k P(t), P(t) = {x, y >= 0, t <= x + y <= 1}, kt integral."""
    m = k * Fraction(t)
    if m.denominator != 1:
        raise ValueError("kt must be an integer")
    m = int(m)
    return math.comb(k + 2, 2) - m * (m + 1) // 2


def pick_count(vertices) -> int:
    """Lattice points of a lattice polygon (vertices in cyclic order): A + B/2 + 1."""
    twice_area = 0
    boundary = 0
    n = len(vertices)
    for i in range(n):
        (x0, y0), (x1, y1) = vertices[i], vertices[(i + 1) % n]
        twice_area += x0 * y1 - x1 * y0
        boundary += math.gcd(abs(x1 - x0), abs(y1 - y0))
    return (abs(twice_area) + boundary) // 2 + 1


# -- moving families ------------------------------------------------------------

class FamilyOracle:
    """Exact invariants of a simplex-vertex or box-corner family in dimension n.

    Polynomials are coefficient lists, lowest degree first, like the
    package's own Hilbert polynomials.
    """

    def __init__(self, kind: str, n: int):
        if kind not in ("simplex_vertex", "box_corner"):
            raise ValueError(f"unknown family kind {kind!r}")
        self.kind, self.n = kind, n

    def hilbert(self):
        """(A0(t), A1(t)) on the first regularity interval 0 < t < 1."""
        n = self.n
        if self.kind == "simplex_vertex":
            # Vol P(t) = (1 - t^n)/n!; the Leray boundary volume of P(t) is
            # n (1 - t^{n-1}) + 1 + t^{n-1} over (n-1)!, and A1 is half of it.
            a0 = [Fraction(0)] * (n + 1)
            a0[0], a0[n] = Fraction(1, math.factorial(n)), Fraction(-1, math.factorial(n))
            a1 = [Fraction(0)] * n
            a1[0] = Fraction(n + 1, 2 * math.factorial(n - 1))
            a1[n - 1] += Fraction(-(n - 1), 2 * math.factorial(n - 1))
            return _trim(a0), _trim(a1)
        # P(t) = [t, 1]^n: A0 = (1-t)^n and A1 = n (1-t)^{n-1}
        a0 = [Fraction(math.comb(n, j) * (-1) ** j) for j in range(n + 1)]
        a1 = [Fraction(n * math.comb(n - 1, j) * (-1) ** j) for j in range(n)]
        return a0, a1

    def hilbert_at(self, t):
        a0, a1 = self.hilbert()
        return _eval(a0, Fraction(t)), _eval(a1, Fraction(t))

    def new_facet_volume(self, t) -> Fraction:
        """Leray volume of the new facets N(t), primitive conormals."""
        t, n = Fraction(t), self.n
        if self.kind == "simplex_vertex":
            return t ** (n - 1) / math.factorial(n - 1)
        return n * (1 - t) ** (n - 1)

    def old_facet_volume(self, t) -> Fraction:
        """Leray volume of the part of dP(t) that lies on dP."""
        return 2 * self.hilbert_at(t)[1] - self.new_facet_volume(t)

    def mu_c(self, c) -> Fraction:
        """[int_0^c A1 + (A0(c) - A0(0))/2] / int_0^c A0."""
        c = Fraction(c)
        a0, a1 = self.hilbert()
        num = _eval(_antiderivative(a1), c) + (_eval(a0, c) - a0[0]) / 2
        return num / _eval(_antiderivative(a0), c)

    def mu(self) -> Fraction:
        a0, a1 = self.hilbert()
        return a1[0] / a0[0]

    def futaki(self) -> Fraction:
        """F1 = [int_dP h dsigma - (Vol_sigma(dP)/Vol P) int_P h] / (2 Vol P).

        h is the roof min_a Phi_a.  For the simplex vertex cut h is affine and
        F1 = 0; for the box corner int_P h = 1/(n+1) and int_dP h = 1, so
        F1 = (1 - n) / (2 (n + 1)).
        """
        if self.kind == "simplex_vertex":
            return Fraction(0)
        return Fraction(1 - self.n, 2 * (self.n + 1))


def _trim(coeffs):
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _eval(coeffs, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _antiderivative(coeffs):
    return [Fraction(0)] + [c / (d + 1) for d, c in enumerate(coeffs)]
