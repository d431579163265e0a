"""Numerical laboratory for sharp Poisson-extension inequalities on the
upper half-space: kernel identities, the extension operator and its dual,
sharp constants and extremal families, the Euler-Lagrange integral system,
rearrangement monotonicity, and conformal-inversion symmetry classification.
"""

from .errors import DivergenceError, DomainError, HalfextError, SolverDivergence
from .kernel import (kernel_constant, poisson_kernel, pt_lp_norm, pt_profile,
                     qt_profile, sphere_area, unit_ball_volume)
from .grids import (AxisymFn, HalfspaceGrid, PolarFn, PolarGrid, RadialFn,
                    RadialGrid, build_radial_grid, default_halfspace_grid,
                    dilate_boundary, distribution_mass,
                    lp_norm_boundary, lp_norm_halfspace, radial_fn_from_csv,
                    sample_radial, weak_lp_norm)
from .extension import (boundary_convolution, commutator_gap, dual_extend,
                        extend_at, kernel_mass, poisson_extend, ring_kernel,
                        slab_mass)
from .moebius import (InversionSpec, ball_map, ball_map_conformal_factor,
                      boundary_inversion, halfspace_inversion)
from .extremals import (ExtremalSpec, calibrated_residual, el_residual,
                        el_sides, extremal_polar, extremal_profile,
                        normalize_el, rayleigh_quotient, sharp_constant,
                        singular_constant)
from .rearrange import (planar_convolution, radial_to_polar, riesz_gain,
                        symmetric_rearrangement)
from .solver import (ClassifyResult, IterationTrace, SolverConfig,
                     ascent_estimate_constant, classify_inverted_radial,
                     el_fixed_point, match_extremal_family,
                     normalize_mass_half, ode_check_1d, radial_about_point)

__version__ = "0.1.0"
