"""Density functions on the interval: full, partial, forbidden regions.

Each lattice point alpha of kP carries a unit section whose mass density
concentrates at alpha like a Gaussian of width 1/sqrt(k).  Summing over
the lattice points of the subpolytope P(t) = [t, 1] gives the partial
density: near-full plateau on the allowed side, rapid collapse on the
forbidden side.
"""

from fractions import Fraction

import numpy as np

import toricdensity as td

F = Fraction

interval = td.box([1])
u = td.guillemin_potential(interval)
family = td.MovingFamily(interval, [td.AffineFunctional([1], 0)])
t = F(3, 10)
k = 30

basis = td.SectionBasis.build(u, k)
print(f"basis at k={k}: {len(basis.alphas)} sections")
print("norm of the middle section:", td.section_norm(basis, [F(1, 2)]))
print("normalization <|e|^2, 1> =", td.pair_section(basis, [F(1, 2)], 1.0))

mass, _ = td.pair_partial_density(family, u, t, k, 1.0, basis=basis)
exact = family.slice(t).polytope.count_lattice_points(k)
print(f"\nmass conservation: quadrature {mass:.9f} vs exact count {exact}")

print(f"\npartial density profile at t={t} (C = forbidden, D = bulk):")
ys = [F(1, 20) + F(i, 10) for i in range(10)]
yf = np.array([[float(y)] for y in ys])
rho = basis.density(yf)
rho_hat = td.partial_density(family, u, t, k, yf, basis=basis)
for y, r, rh in zip(ys, rho, rho_hat):
    region = td.region_classify(family, t, (y,))
    bar = "#" * int(30 * rh / rho.max())
    print(f"  y={float(y):.2f} [{region}]  rho={r:7.2f}  rho_hat={rh:7.3f}  {bar}")

print("\ndecay in the forbidden region (fitted slopes of log rho_hat):")
ks = (10, 20, 40, 80)
bases = {kk: td.SectionBasis.build(u, kk) for kk in ks}
rows = td.decay_report(family, u, t, [(F(1, 10),), (F(4, 5),)], ks, bases=bases)
for row in rows:
    if row.region == "C":
        print(f"  y={row.point[0]} (forbidden): slope {row.slope_per_k:.3f} per "
              f"unit k, {row.slope_per_doubling:.2f} per doubling")
    else:
        print(f"  y={row.point[0]} (bulk): relative gaps to the full density "
              f"{['%.1e' % v for v in row.values]}")

print("\nfirst-order expansion of a single section at alpha = 1/2:")
res = td.section_expansion_check(u, [F(1, 2)],
                                 td.polynomial_field(1, {(2,): 1.0}),
                                 ks=ks)
print("  residuals:", ["%.2e" % r for r in res["residuals"]])
print("  fitted log-log slope:", round(res["slope"], 3), "(theory: -2)")
