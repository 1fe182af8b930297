"""Partial Bergman densities, lattice asymptotics and K-stability on moment polytopes.

The library computes, on the moment polytope of a smooth polarized toric
variety, the density functions attached to spaces of holomorphic sections,
their two-term distributional expansion in the level k, and the slope and
Donaldson-Futaki stability invariants those expansions control.  Every
printed quantity is computed two independent ways: exact lattice
combinatorics (Fractions throughout) and metric integrals against a chosen
symplectic potential.
"""

__version__ = "0.1.0"

from .polytope import (AffineFunctional, Face, MovingFamily, Polytope,
                       TestConfigPolytope, box, build_test_config,
                       check_delzant, count_lattice_points,
                       enumerate_vertices, seshadri_constant,
                       standard_simplex)
from .potential import (MetricAtPoint, SymplecticPotential,
                        guillemin_potential)
from .fields import (BumpField, Polynomial, PolynomialField, as_field,
                     constant_field, coordinate_field, polynomial_field)
from .density import (QuadratureError, QuadratureScheme, SectionBasis,
                      decay_report, density_profile, integrate, mass_density,
                      pair_alpha, pair_partial_density, pair_section,
                      partial_density,
                      region_classify, section_expansion_check,
                      section_expansion_residual, section_norm)
from .asymptotics import (BoundaryDistribution, a_hat_components, a_hat_pair,
                          boundary_volume_identity, divergence_identity_check,
                          dp_integral, euler_maclaurin, expansion_residual,
                          facet_integral)
from .stability import (FutakiReport, HilbertCoefficients, SlopeReport,
                        delta_gamma, futaki_combinatorial, futaki_metric,
                        futaki_report, hilbert_coeffs_combinatorial,
                        hilbert_coeffs_geometric, hilbert_polynomials,
                        polystability_report,
                        roof_identity_residual, slope_excess_metric,
                        slope_mu, slope_mu_c, slope_report)
