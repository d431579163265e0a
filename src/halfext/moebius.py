"""Conformal inversions: ball <-> half-space map and Kelvin-type transforms.

The Moebius map phi(x) = (x + e_n/2)/|x + e_n/2|^2 - e_n carries the open
half-space onto the unit ball and its boundary hyperplane onto the sphere.
On boundary data the Kelvin-type inversion

    f~(xi) = |xi|^alpha f(xi/|xi|^2 - shift * e_1)

preserves the critical L^p norm exactly when alpha = -(n-2) and
p = 2(n-1)/(n-2); the half-space analogue u~(x) = |x|^(2-n) u(x/|x|^2)
preserves L^(2n/(n-2))(R^n_+).

Inversions work on the data's own mesh.  Shift-free inversions of radial
data stay radial and are exact by node reflection: the scale-1 tan mesh is
closed under r -> 1/r (tan and cot swap), and other meshes are rejected.
Shifted inversions are non-radial and return a polar mesh on the same radii.

The half-space Kelvin transform of Pf is harmonic with boundary values
|xi|^(2-n) f(xi/|xi|^2): it is P of the boundary inversion, so it too is
exact by node reflection, with no interpolation in the half-space.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .extension import poisson_extend
from .grids import AxisymFn, HalfspaceGrid, PolarFn, PolarGrid, RadialFn


def ball_map(x) -> np.ndarray:
    """Map half-space points into the unit ball, phi(x) = y/|y|^2 - e_n.

    ``x`` has shape (..., n) with positive last coordinate; y = x + e_n/2.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 0 or x.shape[-1] < 2:
        raise DomainError("points must have at least 2 coordinates")
    if np.any(x[..., -1] <= 0.0):
        raise DomainError("ball_map expects half-space points (x_n > 0)")
    y = x.copy()
    y[..., -1] += 0.5
    norm2 = np.sum(y * y, axis=-1, keepdims=True)
    out = y / norm2
    out[..., -1] -= 1.0
    return out


def boundary_inversion(f: RadialFn, alpha: float, shift: float = 0.0):
    """Samples of |xi|^alpha * f(xi/|xi|^2 - shift*e_1) on f's own radii.

    Shift-free inversions of radial data return a RadialFn by exact node
    reflection, which needs a mesh closed under r -> 1/r (DomainError
    otherwise); shifted inversions return a PolarFn on (f.grid x 64 angles).
    """
    s = f.grid.nodes
    if shift == 0.0:
        if not np.all(np.abs(s * s[::-1] - 1.0) < 1e-9):
            raise DomainError("the mesh is not closed under r -> 1/r")
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
    pg = PolarGrid(f.grid, 64)
    s = s[:, None]
    phi = pg.angles[None, :]
    arg = np.sqrt(np.maximum(1.0 - 2.0 * shift * s * np.cos(phi)
                             + (shift * s) ** 2, 0.0)) / s
    vals = s ** alpha * f.eval(arg.ravel()).reshape(arg.shape)
    if not np.all(np.isfinite(vals)):
        raise DomainError("shifted inversion produced non-finite samples")
    return PolarFn(pg, vals)


def halfspace_inversion(f: RadialFn, halfspace: HalfspaceGrid) -> AxisymFn:
    """|x|^(2-n) (Pf)(x/|x|^2) on a half-space mesh (n >= 3), as P of the
    boundary inversion |xi|^(2-n) f(xi/|xi|^2) on the mesh's radial factor."""
    n = halfspace.n
    if n < 3:
        raise DomainError(f"the half-space inversion needs n >= 3, got n={n}")
    return poisson_extend(boundary_inversion(f, 2.0 - n), halfspace)
