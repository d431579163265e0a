"""Numerical laboratory for sharp Poisson-extension inequalities on the
upper half-space: kernel identities, the extension operator and its dual,
sharp constants and extremal families, the Euler-Lagrange integral system,
rearrangement monotonicity, and conformal-inversion symmetry classification.
"""

from .errors import DivergenceError, DomainError, HalfextError, SolverDivergence
from .kernel import (kernel_constant, pt_lp_norm, pt_profile, sphere_area,
                     unit_ball_volume)
from .grids import (AxisymFn, HalfspaceGrid, PolarFn, PolarGrid, RadialFn,
                    RadialGrid, build_radial_grid, default_halfspace_grid,
                    dilate_boundary, distribution, distribution_mass,
                    lp_norm_boundary, lp_norm_halfspace, sample_radial)
from .extension import (commutator_gap, dual_extend, extend_at, kernel_mass,
                        poisson_extend, ring_kernel, slab_mass)
from .moebius import boundary_inversion, halfspace_inversion
from .extremals import (ExtremalSpec, calibrate, el_sides, extremal_profile,
                        rayleigh_quotient, sharp_constant, singular_constant)
from .rearrange import (radial_to_polar, riesz_gain,
                        symmetric_rearrangement)
from .solver import (IterationTrace, SolverConfig, ascent_estimate_constant,
                     el_fixed_point, match_extremal_family,
                     normalize_mass_half)

__version__ = "0.1.0"
