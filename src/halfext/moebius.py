"""Kelvin-type conformal inversions of boundary and half-space data.

On boundary data the Kelvin transform

    f~(xi) = |xi|^(2-n) f(xi/|xi|^2)

preserves the critical L^p(R^{n-1}) norm exactly when p = 2(n-1)/(n-2); the
half-space analogue u~(x) = |x|^(2-n) u(x/|x|^2) preserves
L^(2n/(n-2))(R^n_+).

Inversions work on the data's own mesh.  Inversions of radial data stay
radial and are exact by node reflection: the tan mesh is closed under
r -> 1/r (tan and cot swap), and meshes that are not are rejected.

The half-space Kelvin transform of Pf is harmonic with boundary values
|xi|^(2-n) f(xi/|xi|^2): it is P of the boundary inversion, so it too is
exact by node reflection, with no interpolation in the half-space.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .extension import poisson_extend
from .grids import AxisymFn, HalfspaceGrid, RadialFn


def boundary_inversion(f: RadialFn) -> RadialFn:
    """Samples of |xi|^(2-n) f(xi/|xi|^2) on f's own radii, n = f.grid.d + 1,
    by node reflection: the mesh must be closed under r -> 1/r."""
    s = f.grid.nodes
    if not np.all(np.abs(s * s[::-1] - 1.0) < 1e-9):
        raise DomainError("the mesh is not closed under r -> 1/r")
    alpha = 1.0 - f.grid.d
    vals = s ** alpha * f.values[::-1]
    if not np.all(np.isfinite(vals)):
        raise DomainError("inversion produced non-finite samples "
                          "(data vanishing too fast at the origin?)")
    beta_in = f.tail_exponent
    # s -> inf sends the argument to 0: f~ ~ f(0) * s^alpha
    tail = -alpha if f.value_at_zero != 0.0 else math.nan
    # s -> 0 limit: s^(alpha + beta_in) as the argument diverges
    if not math.isnan(beta_in) and alpha + beta_in > 0.0:
        v0 = 0.0
    elif not math.isnan(beta_in) and alpha + beta_in == 0.0:
        v0 = f.values[-1] * s[-1] ** beta_in
    else:
        v0 = math.nan
    return RadialFn(f.grid, vals, value_at_zero=v0, tail_exponent=tail)


def halfspace_inversion(f: RadialFn, halfspace: HalfspaceGrid) -> AxisymFn:
    """|x|^(2-n) (Pf)(x/|x|^2) on a half-space mesh (n >= 3), as P of the
    boundary inversion |xi|^(2-n) f(xi/|xi|^2) on the mesh's radial factor."""
    n = halfspace.n
    if n < 3:
        raise DomainError(f"the half-space inversion needs n >= 3, got n={n}")
    return poisson_extend(boundary_inversion(f), halfspace)
