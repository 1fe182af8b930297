"""Multivariate polynomials and smooth scalar fields on the polytope.

Polynomials are kept as sparse exponent->coefficient maps so that partial
derivatives stay closed-form; they back both the potential perturbations
and the polynomial test fields whose first and second derivatives the
expansion checks need analytically.
"""

from __future__ import annotations

import numpy as np


class Polynomial:
    """Sparse multivariate polynomial with float coefficients."""

    def __init__(self, nvars: int, terms: dict | None = None):
        self.nvars = nvars
        self.terms: dict[tuple, float] = {}
        for expo, c in (terms or {}).items():
            if c != 0.0:
                self.terms[tuple(int(e) for e in expo)] = float(c)

    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls(nvars, {})

    @classmethod
    def constant(cls, nvars: int, c: float) -> "Polynomial":
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def coordinate(cls, nvars: int, i: int) -> "Polynomial":
        expo = [0] * nvars
        expo[i] = 1
        return cls(nvars, {tuple(expo): 1.0})

    @classmethod
    def from_monomials(cls, nvars: int, monomials) -> "Polynomial":
        """monomials: iterable of {"exponents": [ints], "coeff": float}."""
        terms: dict[tuple, float] = {}
        for m in monomials:
            expo = tuple(int(e) for e in m["exponents"])
            if len(expo) != nvars:
                raise ValueError(f"monomial exponents {expo} do not match dimension {nvars}")
            terms[expo] = terms.get(expo, 0.0) + float(m["coeff"])
        return cls(nvars, terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __call__(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.zeros(pts.shape[0])
        for expo, c in self.terms.items():
            term = np.full(pts.shape[0], c)
            for i, e in enumerate(expo):
                if e:
                    term *= pts[:, i] ** e
            out += term
        return out

    def value(self, x) -> float:
        return float(self(np.atleast_2d(np.asarray(x, dtype=float)))[0])

    def partial(self, i: int) -> "Polynomial":
        terms: dict[tuple, float] = {}
        for expo, c in self.terms.items():
            if expo[i] == 0:
                continue
            new = list(expo)
            new[i] -= 1
            key = tuple(new)
            terms[key] = terms.get(key, 0.0) + c * expo[i]
        return Polynomial(self.nvars, terms)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, 0.0) + c
        return Polynomial(self.nvars, terms)

    def __mul__(self, scalar: float) -> "Polynomial":
        return Polynomial(self.nvars, {e: c * scalar for e, c in self.terms.items()})

    def __repr__(self):
        if not self.terms:
            return "Polynomial(0)"
        bits = []
        for e, c in sorted(self.terms.items()):
            mono = "*".join(f"x{i}^{p}" for i, p in enumerate(e) if p)
            bits.append(f"{c:g}{'*' + mono if mono else ''}")
        return "Polynomial(" + " + ".join(bits) + ")"


class ScalarField:
    """A scalar field on R^n; derivatives raise unless a subclass provides them."""

    def __init__(self, nvars: int):
        self.nvars = nvars

    def value(self, points: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def gradient(self, x) -> np.ndarray:
        raise NotImplementedError(f"{type(self).__name__} has no analytic gradient")

    def hessian(self, x) -> np.ndarray:
        raise NotImplementedError(f"{type(self).__name__} has no analytic hessian")

    def __call__(self, points: np.ndarray) -> np.ndarray:
        return self.value(points)


class PolynomialField(ScalarField):
    def __init__(self, poly: Polynomial):
        super().__init__(poly.nvars)
        self.poly = poly
        self._grad = [poly.partial(i) for i in range(poly.nvars)]
        self._hess = [[self._grad[i].partial(j) for j in range(poly.nvars)]
                      for i in range(poly.nvars)]

    def value(self, points):
        return self.poly(points)

    def gradient(self, x):
        return np.array([g.value(x) for g in self._grad])

    def hessian(self, x):
        n = self.nvars
        return np.array([[self._hess[i][j].value(x) for j in range(n)]
                         for i in range(n)])


def constant_field(nvars: int, c: float = 1.0) -> PolynomialField:
    return PolynomialField(Polynomial.constant(nvars, c))


def coordinate_field(nvars: int, i: int) -> PolynomialField:
    return PolynomialField(Polynomial.coordinate(nvars, i))


def polynomial_field(nvars: int, terms: dict) -> PolynomialField:
    return PolynomialField(Polynomial(nvars, terms))


class FunctionField(ScalarField):
    """Wrap a vectorized callable (values only)."""

    def __init__(self, nvars: int, fn):
        super().__init__(nvars)
        self.fn = fn

    def value(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return np.asarray(self.fn(pts), dtype=float)


class BumpField(ScalarField):
    """Smooth compactly supported bump exp(-1/(1-z^2)) in a window.

    The window is a product of intervals; the field vanishes to infinite
    order on the window boundary, so it is a legitimate C-infinity test
    function supported where the window sits.
    """

    def __init__(self, lo, hi):
        lo = np.atleast_1d(np.asarray(lo, dtype=float))
        hi = np.atleast_1d(np.asarray(hi, dtype=float))
        super().__init__(len(lo))
        if np.any(hi <= lo):
            raise ValueError("empty bump window")
        self.lo = lo
        self.hi = hi

    def value(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.ones(pts.shape[0])
        for i in range(self.nvars):
            z = (2.0 * pts[:, i] - (self.lo[i] + self.hi[i])) / (self.hi[i] - self.lo[i])
            inside = np.abs(z) < 1.0
            comp = np.zeros(pts.shape[0])
            with np.errstate(divide="ignore", over="ignore"):
                comp[inside] = np.exp(-1.0 / (1.0 - z[inside] ** 2))
            out *= comp
        return out


def as_field(f, nvars: int) -> ScalarField:
    """Coerce numbers, Polynomials, callables and fields to ScalarField."""
    if isinstance(f, ScalarField):
        return f
    if isinstance(f, Polynomial):
        return PolynomialField(f)
    if isinstance(f, (int, float)):
        return constant_field(nvars, float(f))
    if callable(f):
        return FunctionField(nvars, f)
    raise TypeError(f"cannot interpret {f!r} as a scalar field")
