"""Euler-Maclaurin sums and the boundary distribution, exactly validated.

The two-term lattice expansion has an exactly integer residual on integral
polytopes.  On a moving family the subleading coefficient of the exact
count N(kP(t)) pins down the boundary distribution a_hat_t, including the
coefficient 1/2 of its corner (codimension-2) term: the paper's printed
value 1, rebuilt here from dp_integral, fails the oracle by exactly half the
corner mass.
"""

from fractions import Fraction

import toricdensity as td
from toricdensity.asymptotics import (a_hat_components, boundary_volume_identity,
                                      dp_integral, euler_maclaurin, expansion_residual)
from toricdensity.density import QuadratureScheme
from toricdensity.stability import hilbert_coeffs_combinatorial

F = Fraction

square = td.box([1, 1])
u = td.guillemin_potential(square)

print("=== Euler-Maclaurin on the unit square: residual is exactly 1 ===")
for k in (4, 8, 16, 32, 64):
    r = euler_maclaurin(square, 1, k)
    print(f"  k={k:2d}: sum={r.lattice_sum}  two-term={r.approximation}  "
          f"residual={r.residual}")

family = td.MovingFamily(square, [td.AffineFunctional([1, 0], 0),
                                  td.AffineFunctional([0, 1], 0)])
t = F(1, 4)

print(f"\n=== the boundary distribution at t={t} on the corner family ===")
comp = a_hat_components(family, u, t, 1.0)
print(f"  facet term      {comp.facet_term:+.6f}   (2(1-t) = {2 * 0.75})")
print(f"  -1/2 d/dt term  {comp.derivative_term:+.6f}   "
      f"(-1/2 d/dt[4t(1-t)^2] = {-0.5 * 4 * 0.75 * (1 - 3 * 0.25):+.4f})")
print(f"  corner term     {comp.corner_term:+.6f}   (-1/2 * 4t(1-t) = -0.375)")
print(f"  total <a_hat,1> {comp.value:+.6f}")

A1 = hilbert_coeffs_combinatorial(family, t).A1
sl = family.slice(t)
s_int, _ = QuadratureScheme.for_polytope(sl.polytope).integrate(
    lambda pts: u.scalar_curvature_many(pts), rel_tol=1e-10)
print(f"\nexact k^1 coefficient of N(kP(t)) = ((1-t)k+1)^2:  A1 = {A1}")
print(f"(int s + <a_hat,1>)/2 with the corrected corner coefficient: "
      f"{0.5 * (s_int + comp.value):.9f}")

printed = comp.facet_term + comp.derivative_term - dp_integral(family, u, t, 1.0)
print(f"with the printed corner coefficient instead: a_hat = {printed:.6f}, "
      f"missing the oracle by {comp.value - printed:.6f} = 1/2 * 4t(1-t)")

print(f"\nboundary-volume identity residual at t={t}: "
      f"{boundary_volume_identity(family, u, t):.2e}")

print("\n=== two-term expansion residual (pairs with f = 1) ===")
for k in (4, 8, 16):
    res = expansion_residual(family, u, t, 1.0, k)
    print(f"  k={k:2d}: <rho_hat, 1> - two-term = {res:+.6f}  "
          "(the exact Ehrhart constant 1)")

print("\n=== a non-primitive cut separates the two Leray normalizations ===")
# cuts {x, 2-2x} on [0,1]: the second gradient has length 2, so the facet
# term (primitive measure, mass 1) and the derivative term (cut-scale
# measure, mass 1/2 on that facet) genuinely differ; the expansion closes
# only with the mixed normalization
interval = td.box([1])
ui = td.guillemin_potential(interval)
skew = td.MovingFamily(interval, [td.AffineFunctional([1], 0),
                                  td.AffineFunctional([-2], -2)])
from fractions import Fraction
from toricdensity.stability import (hilbert_coeffs_combinatorial as hcc,
                                    hilbert_coeffs_geometric as hcg)
for tt in (Fraction(1, 4), Fraction(1, 2)):
    comb = hcc(skew, tt)
    geom = hcg(skew, ui, tt)
    print(f"  t={tt}: exact-count A1 = {comb.A1}   metric-side A1 = {geom.A1:.9f}")
