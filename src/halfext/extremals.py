"""Closed-form extremal families, sharp constants, Euler-Lagrange residuals.

The extension operator P maps L^p(R^{n-1}) into L^(np/(n-1))(R^n_+) with
operator norm c_{n,p}.  Two exponents admit closed-form answers:

  conformal case, p = 2(n-1)/(n-2):
      c = n^(-(n-2)/(2(n-1))) * omega_n^(-(n-2)/(2n(n-1))),
      maximizers  (lambda/(lambda^2+|xi-xi0|^2))^((n-2)/2);

  dual case, p = 2(n-1)/n:
      c = ((n-2)!/Gamma((n-1)/2))^(1/(2(n-1))) / (sqrt(2(n-2)) * pi^(1/4)),
      maximizers  (lambda/(lambda^2+|xi-xi0|^2))^(n/2).

Nonnegative critical points of the quotient satisfy the integral system

    f(xi)^(p-1) = integral over R^n_+ of P(x, xi) (Pf)(x)^(np/(n-1)-1) dx,

whose residual, amplitude calibration, and singular power-law solution
c * |xi|^(-(n-1)/p) are computed here.  The calibration amplitude is well
defined because the two sides scale with different powers of the amplitude.
The singular solution is in closed form: its extension is |x|^(-(n-1)/p)
times a hypergeometric profile in the elevation, and c^(p-q) is a smooth
1-D integral of that profile.
Rayleigh quotients read |Pf|_q on the polar half-space rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, DomainError
from .extension import (check_integrable, extension_norm, get_operator,
                        hyp2f1)
from .grids import (HalfspaceGrid, RadialFn, RadialGrid, lp_norm_boundary,
                    mesh_n)
from .kernel import unit_ball_volume
from .quadrature import gauss_legendre


@dataclass(frozen=True)
class ExtremalSpec:
    """A member of one of the two closed-form extremal families."""

    n: int
    kind: str                  # "conformal" (exponent (n-2)/2) or "dual" (n/2)
    lam: float = 1.0
    amplitude: float = 1.0

    def __post_init__(self):
        if self.kind not in ("conformal", "dual"):
            raise DomainError(f"unknown extremal kind {self.kind!r}")
        if self.lam <= 0.0 or self.amplitude <= 0.0:
            raise DomainError("lambda and amplitude must be positive")

    @property
    def exponent(self) -> float:
        return 0.5 * (self.n - 2) if self.kind == "conformal" else 0.5 * self.n

    @property
    def critical_p(self) -> float:
        n = self.n
        return 2.0 * (n - 1) / (n - 2) if self.kind == "conformal" \
            else 2.0 * (n - 1) / n

    def profile(self, rho):
        return self.amplitude * bubble(np.asarray(rho) ** 2, self.lam,
                                       self.exponent)


def bubble(r2, lam: float, e: float):
    """(lam / (lam^2 + r^2))^e at squared radii r2: either family's shape."""
    return (lam / (lam * lam + r2)) ** e


def extremal_profile(spec: ExtremalSpec, grid: RadialGrid) -> RadialFn:
    """Radial samples of the extremal centered at the origin."""
    mesh_n(spec.n, grid)
    e = spec.exponent
    return RadialFn(grid, spec.profile(grid.nodes),
                    value_at_zero=spec.amplitude * spec.lam ** -e,
                    tail_exponent=2.0 * e, nonnegative=True)


def sharp_constant(n: int, which: str) -> float:
    """Closed-form sharp constant of the extension inequality (n >= 3)."""
    if n < 3:
        raise DomainError(f"closed forms require n >= 3, got n={n}")
    if which == "conformal":
        w = unit_ball_volume(n)
        return float(n ** (-(n - 2) / (2.0 * (n - 1)))
                     * w ** (-(n - 2) / (2.0 * n * (n - 1))))
    if which == "dual":
        log_ratio = math.lgamma(n - 1) - math.lgamma(0.5 * (n - 1))
        return float(math.exp(log_ratio / (2.0 * (n - 1)))
                     / (math.sqrt(2.0 * (n - 2)) * math.pi ** 0.25))
    raise DomainError(f"unknown case {which!r} (use 'conformal' or 'dual')")


def rayleigh_quotient(f: RadialFn, n: int, p: float,
                      hs_grid: HalfspaceGrid):
    """|Pf|_{L^{np/(n-1)}(R^n_+)} / |f|_{L^p(R^{n-1})}, n = hs_grid.n, with
    |Pf| on the polar half-space rule (``extension_norm``); a batch gets one
    quotient per column and raises for any column."""
    n = mesh_n(n, hs_grid.radial)
    if not (f.values != 0.0).any(axis=0).all():
        raise DomainError("Rayleigh quotient of the zero function")
    return extension_norm(f, n * p / (n - 1), hs_grid) / lp_norm_boundary(f, p)


# entries below this fraction of their side's maximum carry no mass: the
# calibration's mass mask and the one sign rule of both Euler-Lagrange sides
MASS_FLOOR = 1e-6


def _column_rule(side: np.ndarray, name: str, out: list) -> None:
    # per column j of side (..., B), a divergent iterate set in out[j]
    # (unless it has one) with the side's name, min and max: an entry that
    # is not finite, or one below -MASS_FLOOR times the column's maximum
    # (the row rule's cubic windows can take positive data below zero); an
    # entry between that bound and 0 is quadrature noise and reads as 0
    if side.min() >= 0.0 and np.isfinite(side.max()):
        return      # the common case: one pass each over the whole batch
    axes = tuple(range(side.ndim - 1))
    low, high = side.min(axis=axes), side.max(axis=axes)
    for j in np.flatnonzero(~np.isfinite(high) | (low < -MASS_FLOOR * high)):
        what = "negative" if np.isfinite(high[j]) else "not finite"
        out[j] = out[j] or DivergenceError(
            f"{name} is {what}: min {low[j]:.3e}, max {high[j]:.3e}")
    np.maximum(side, 0.0, out=side)


def or_divergence(fn, *args):
    """fn(*args), or the DivergenceError it raises."""
    try:
        return fn(*args)
    except DivergenceError as exc:
        return exc


def el_sides_batch(f: RadialFn, p: float, hs_grid: HalfspaceGrid):
    """Both Euler-Lagrange sides, f^(p-1) and T((Pf)^(q-1)), of f (one
    function is a batch of B = 1) on hs_grid's radial mesh, n = hs_grid.n:
    one read of the float32 stack each way, one pass per power and check.
    Returns (lhs, rhs, errors): the sides (N, B) and per column None or its
    DivergenceError (a tail P cannot integrate, a side failing
    ``_column_rule``), which leaves the other columns as they are; a
    negative or zero column is DomainError."""
    n = hs_grid.n
    q = n * p / (n - 1)
    op = get_operator(n, f.grid, hs_grid)
    values = f.values.reshape(len(f.values), -1)
    if (values < 0.0).any() or not (values > 0.0).any(axis=0).all():
        raise DomainError("the Euler-Lagrange system is stated for f >= 0, "
                          "not identically zero")
    errors = [or_divergence(check_integrable, beta)
              for beta in np.broadcast_to(f.tail(), values.shape[1:])]
    pf = op.extend(values)
    _column_rule(pf, "Pf", errors)
    # an overflowing power is a divergent iterate, not a domain error
    with np.errstate(over="ignore"):
        lhs = values ** (p - 1.0)
        power = pf ** (q - 1.0)
    _column_rule(lhs, "f^(p-1)", errors)
    if not np.isfinite(power.max()):   # of Pf >= 0: it can only overflow
        _column_rule(power, "(Pf)^(q-1)", errors)
    failed = [j for j, exc in enumerate(errors) if exc]
    if failed:
        power[..., failed] = 0.0
    rhs = op.dual(power)
    _column_rule(rhs, "dual side", errors)
    return lhs, rhs, errors


def el_sides(f: RadialFn, p: float, hs_grid: HalfspaceGrid):
    """``el_sides_batch`` of one function f, its DivergenceError raised."""
    lhs, rhs, (exc,) = el_sides_batch(f, p, hs_grid)
    if exc:
        raise exc
    return lhs[:, 0], rhs[:, 0]


def calibrate(n: int, p: float, lhs: np.ndarray, rhs: np.ndarray):
    """Calibration amplitude a and the residual sup|lhs-rhs| / sup lhs of
    a*f per column of sides (N, B), as floats for sides (N,).

    The two sides scale as a^(p-1) and a^(np/(n-1)-1), so a comes from the
    mean of log(rhs/lhs), weighted by lhs^2 over the region carrying mass
    (DomainError for a column with none): that concentrates the calibration
    where the normalized defect is measured, keeping the far mesh (where
    quadrature is weakest but both sides are negligible) from biasing it.
    """
    mask = (lhs >= MASS_FLOOR * lhs.max(axis=0)) & (rhs > 0.0)
    if not mask.any(axis=0).all():
        raise DomainError("nonpositive Euler-Lagrange ratio; cannot calibrate")
    weights = np.where(mask, lhs, 0.0) ** 2
    logs = np.log(np.divide(rhs, lhs, out=np.ones_like(lhs), where=mask))
    q = n * p / (n - 1)
    a = np.exp((weights * logs).sum(axis=0) / weights.sum(axis=0) / (p - q))
    lhs2 = a ** (p - 1.0) * lhs
    rhs2 = a ** (q - 1.0) * rhs
    residual = np.abs(lhs2 - rhs2).max(axis=0) / lhs2.max(axis=0)
    return (a, residual) if lhs.ndim > 1 else (float(a), float(residual))


def power_profile(n: int, beta: float, theta) -> np.ndarray:
    """Angular profile phi_beta of the extension of |xi|^-beta.

    P|xi|^-beta = |x|^-beta phi_beta(theta) with t = |x| sin(theta): the
    extension is homogeneous, harmonic and regular on the axis, so phi_beta
    is the axis-regular Gegenbauer function of degree -beta (Legendre at
    n = 3), normalised to 1 on the boundary.  Valid for 0 < beta < n - 1.
    """
    a, b, c = beta, n - 2 - beta, 0.5 * (n - 1)
    z = 0.5 * (1.0 - np.sin(theta))
    return hyp2f1(a, b, c, z) / hyp2f1(a, b, c, 0.5)


def singular_constant(n: int, p: float, r0: float = 1.0) -> float:
    """Scalar c such that c*|xi|^(-(n-1)/p) solves the EL system exactly.

    Homogeneity and the symmetry of the ring kernel in its two radii reduce
    the system at |xi| = 1 to c^(p-q) = int_0^(pi/2) phi^q cos^(n-2) dtheta
    with phi = power_profile(n, (n-1)/p, .), a smooth 1-D integral.  Both
    sides scale alike in |xi|, so c is exactly the same at every matching
    radius r0; r0 only has to be positive.
    """
    if not (1.0 < p < math.inf):
        raise DomainError(f"p must lie in (1, inf), got {p}")
    if r0 <= 0.0:
        raise DomainError("matching radius must be positive")
    q = n * p / (n - 1)
    x, w = gauss_legendre(64)
    theta = 0.25 * np.pi * (x + 1.0)
    phi = power_profile(n, (n - 1) / p, theta)
    integral = 0.25 * np.pi * np.dot(w, phi ** q * np.cos(theta) ** (n - 2))
    return float(integral ** (1.0 / (p - q)))
