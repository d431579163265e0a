"""Conformal inversions: ball <-> half-space map and Kelvin-type transforms.

The Moebius map phi(x) = (x + e_n/2)/|x + e_n/2|^2 - e_n carries the open
half-space onto the unit ball and its boundary hyperplane onto the sphere.
On boundary data the Kelvin-type inversion

    f~(xi) = |xi|^alpha f(xi/|xi|^2 - shift * e_1)

preserves the critical L^p norm exactly when alpha = -(n-2) and
p = 2(n-1)/(n-2); the half-space analogue u~(x) = |x|^(2-n) u(x/|x|^2)
preserves L^(2n/(n-2))(R^n_+).

Shift-free inversions of radial data stay radial.  On a scale-1 tan mesh the
node set is closed under r -> 1/r (tan and cot swap under reflection of the
Gauss nodes), so that case is evaluated by exact node reflection with no
interpolation at all.  Shifted inversions produce genuinely non-radial
output and are returned on a polar mesh.

The half-space Kelvin transform of Pf is harmonic with boundary values
|xi|^(2-n) f(xi/|xi|^2): it is P of the boundary inversion, so it too is
exact by node reflection, with no interpolation in the half-space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .extension import poisson_extend
from .grids import AxisymFn, HalfspaceGrid, PolarFn, PolarGrid, RadialFn, RadialGrid


@dataclass(frozen=True)
class InversionSpec:
    """Homogeneity power and boundary shift of a Kelvin-type inversion."""

    alpha: float
    shift: float = 0.0   # multiple of the first boundary basis vector


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


def _reciprocal_grid(out_grid: RadialGrid, in_grid: RadialGrid) -> bool:
    """True when out nodes are exactly the reciprocals of the in nodes."""
    if out_grid.size != in_grid.size:
        return False
    prod = out_grid.nodes * in_grid.nodes[::-1]
    return bool(np.all(np.abs(prod - 1.0) < 1e-9))


def boundary_inversion(f: RadialFn, spec: InversionSpec, out_grid: RadialGrid):
    """Samples of |xi|^alpha * f(xi/|xi|^2 - shift*e_1).

    Shift-free inversions of radial data return a RadialFn (exactly, by node
    reflection, when the meshes are reciprocal); shifted inversions return a
    PolarFn on (out_grid x 64 angles).
    """
    a = spec.alpha
    if spec.shift == 0.0:
        s = out_grid.nodes
        if _reciprocal_grid(out_grid, f.grid):
            inner = f.values[::-1]
        else:
            inner = f.eval(1.0 / s)
        vals = s ** a * inner
        if not np.all(np.isfinite(vals)):
            raise DomainError("inversion produced non-finite samples "
                              "(data vanishing too fast at the origin?)")
        beta_in = f.tail_exponent
        # s -> inf sends the argument to 0: f~ ~ f(0) * s^alpha
        tail = -a if f.value_at_zero != 0.0 else math.nan
        # s -> 0 limit: s^(alpha + beta_in) as the argument diverges
        if not math.isnan(beta_in) and a + beta_in > 0.0:
            v0 = 0.0
        elif not math.isnan(beta_in) and a + beta_in == 0.0:
            v0 = f.values[-1] * f.grid.nodes[-1] ** beta_in
        else:
            v0 = math.nan
        return RadialFn(out_grid, vals, value_at_zero=v0, tail_exponent=tail)
    pg = PolarGrid(out_grid, 64)
    s = out_grid.nodes[:, None]
    phi = pg.angles[None, :]
    c = spec.shift
    arg = np.sqrt(np.maximum(1.0 - 2.0 * c * s * np.cos(phi) + (c * s) ** 2,
                             0.0)) / s
    vals = s ** a * f.eval(arg.ravel()).reshape(arg.shape)
    if not np.all(np.isfinite(vals)):
        raise DomainError("shifted inversion produced non-finite samples")
    return PolarFn(pg, vals)


def halfspace_inversion(f: RadialFn, halfspace: HalfspaceGrid) -> AxisymFn:
    """|x|^(2-n) (Pf)(x/|x|^2) on a half-space mesh (n >= 3), as P of the
    boundary inversion |xi|^(2-n) f(xi/|xi|^2) on the mesh's radial factor."""
    n = halfspace.n
    if n < 3:
        raise DomainError(f"the half-space inversion needs n >= 3, got n={n}")
    spec = InversionSpec(alpha=2.0 - n)
    return poisson_extend(boundary_inversion(f, spec, halfspace.radial),
                          halfspace)
