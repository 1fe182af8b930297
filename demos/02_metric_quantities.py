"""Metric data from a symplectic potential: H, G, curvature, phi.

The canonical potential of the polytope (half the sum of ell*log(ell))
gives a constant-curvature metric on each of the standard fixtures; a
polynomial perturbation breaks constancy but keeps every quantity
closed-form.
"""

import numpy as np

import toricdensity as td
from toricdensity.fields import Polynomial

simplex = td.standard_simplex(2)
u = td.guillemin_potential(simplex)

print("=== canonical metric on the 2-simplex ===")
x = np.array([0.25, 0.25])
m = u.metric_at(x)
print("H(x) =\n", m.H)
print("G(x) = H^{-1} =\n", m.G)
print("H G = I check:", np.abs(m.H @ m.G - np.eye(2)).max())
print("scalar curvature s(x) =", m.s, " (constant 6 on this fixture)")

print("\ncurvature over an interior grid (constancy of the canonical metric):")
pts = np.divide(*simplex.interior_grid(8))
s = u.scalar_curvature_many(pts)
print(f"  min {s.min():.12f}  max {s.max():.12f}")

print("\nfinite-difference cross-check at a random-ish point:")
p = [0.37, 0.22]
print(f"  analytic {u.scalar_curvature(p):.12f}   "
      f"central differences {u.scalar_curvature_fd(p):.12f}")

print("\n=== degeneration of G at the boundary ===")
square = td.box([1, 1])
uq = td.guillemin_potential(square)
nu = np.array([1.0, 0.0])
for ell in (0.1, 0.01, 0.001):
    g = np.linalg.norm(uq.metric([ell, 0.5]) @ nu)
    print(f"  dist {ell:7.3f}: |G nu| = {g:.2e}  (ratio {g/ell:.3f})")

print("\n=== the kernel function phi ===")
ui = td.guillemin_potential(td.box([1]))
print("phi(1/2, 1/4) on [0,1]:", ui.phi([0.5], [0.25]))
print("phi(x, x) = ", ui.phi([0.3], [0.3]))
print("additivity on the square: phi((a,b),(c,d)) - phi1(a,c) - phi1(b,d) =",
      uq.phi([0.2, 0.7], [0.4, 0.55])
      - ui.phi([0.2], [0.4]) - ui.phi([0.7], [0.55]))

print("\n=== a perturbed (non-constant-curvature) potential ===")
up = td.SymplecticPotential(square, Polynomial(2, {(3, 0): 0.05}))
for p in ([0.2, 0.5], [0.5, 0.5], [0.8, 0.5]):
    print(f"  s{tuple(p)} = {up.scalar_curvature(p):+.6f}")
print("(the constructor rejects perturbations that break convexity)")
