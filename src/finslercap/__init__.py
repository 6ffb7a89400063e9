"""Finsler sphere-bundle geometry, conformal capacities, and invariants.

Desk-scale numerics for Finsler structures on planar domains.  The base
is two-dimensional throughout: every metric is a 2x2 structure and the
conformally invariant exponent is p = n = 2.  The pointwise tensor
calculus (fundamental tensor, Cartan torsion, formal Christoffel
symbols, nonlinear connection, Hilbert form) is the set of fields of
one ``tensor_point`` evaluation; on top of it sit the volume element of
the sphere bundle, conformally invariant energies and condenser
capacities, and catalog-based upper bounds for the point invariants,
with numerical checks of the invariance identities.
"""

from .bundle import (BundleField, ScalarField, SphereBundleGrid,
                     d_omega_chart, d_omega_matrix, fiber_form,
                     gradient_norm_general, gradient_norm_lift, integrate,
                     node_tensors, volume_density)
from .capacity import (CapacityResult, CondenserSpec, SolverConfig,
                       cap_compact, energy, energy_gradient, minimize,
                       minimize_all)
from .config import RunConfig, load_config
from .conformal import (POINT_FUNCTIONS, CheckReport, ConformalMap,
                        InvariantQuery, InvariantResult, catalog,
                        check_capacity_invariance, check_energy_invariance,
                        check_invariant_invariance,
                        check_pullback_energy_density, check_pullback_volume,
                        conformal_map, conformality_witness, image_grid,
                        invariant, polar_power_map, rescale_map,
                        rho_overlap_rule, similarity_map)
from .errors import (ConfigError, DirectionError, DomainError, FinslerError,
                     InvalidMetricError, MapError, ShapeError)
from .exprs import (ScalarExpr, const, exponential, expr_sum, gaussian,
                    linear, log_radial, parse_expr, precompose_affine,
                    sinusoid)
from .maps import (PlanarMap, affine_map, identity_map, image_bbox,
                   power_map, similarity)
from .metrics import (MetricSpec, TensorPoint, conformal_wrap, euclidean,
                      eval_F, identity_matrix_field, randers, riemannian,
                      tensor_point, validate_at)
from .selftest import run_selftest
from .shapes import (Shape, disk, disk_complement, mapped, outer_boundary,
                     point_blob, polyline, rect_complement, rectangle,
                     segment)

__version__ = "0.1.0"
