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
Rayleigh quotients read |Pf|_q on the polar half-space rule.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .errors import DivergenceError, DomainError
from .extension import (dual_extend, extension_norm, poisson_extend,
                        ring_kernel)
from .grids import (AxisymFn, HalfspaceGrid, PolarFn, PolarGrid, RadialFn,
                    RadialGrid, lp_norm_boundary)
from .kernel import unit_ball_volume
from .quadrature import (GROW, composite_rule, composite_rules,
                         peak_breaks, zero_refined_breaks)

# Gauss order of every panel in the singular-solution quadratures
_ORDER = 16


@dataclass(frozen=True)
class ExtremalSpec:
    """A member of one of the two closed-form extremal families."""

    n: int
    kind: str                  # "conformal" (exponent (n-2)/2) or "dual" (n/2)
    lam: float = 1.0
    center: float = 0.0        # radial offset of the center along e_1
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
        e = self.exponent
        lam = self.lam
        return self.amplitude * (lam / (lam * lam + np.asarray(rho) ** 2)) ** e


def extremal_profile(spec: ExtremalSpec, grid: RadialGrid) -> RadialFn:
    """Radial samples of the extremal; the center must be 0 (else use polar)."""
    if spec.center != 0.0:
        raise DomainError("centered extremals are radial only about their "
                          "center; route nonzero centers through "
                          "extremal_polar")
    if grid.d != spec.n - 1:
        raise DomainError("grid dimension does not match the family")
    vals = spec.profile(grid.nodes)
    return RadialFn(grid, vals, value_at_zero=float(spec.profile(0.0)),
                    tail_exponent=2.0 * spec.exponent, nonnegative=True)


def extremal_polar(spec: ExtremalSpec, pg: PolarGrid) -> PolarFn:
    """Planar samples of an extremal centered at spec.center * e_1 (n=3)."""
    if spec.n != 3:
        raise DomainError("polar sampling is planar (n=3 boundaries) only")
    x, y = pg.points()
    rho = np.hypot(x - spec.center, y)
    return PolarFn(pg, spec.profile(rho))


def sharp_constant(n: int, which: str) -> float:
    """Closed-form sharp constant of the extension inequality (n >= 3)."""
    if n < 3:
        raise DomainError(f"closed forms require n >= 3, got n={n}")
    if which == "conformal":
        w = unit_ball_volume(n)
        return float(n ** (-(n - 2) / (2.0 * (n - 1)))
                     * w ** (-(n - 2) / (2.0 * n * (n - 1))))
    if which == "dual":
        log_ratio = gammaln(n - 1) - gammaln(0.5 * (n - 1))
        return float(math.exp(log_ratio / (2.0 * (n - 1)))
                     / (math.sqrt(2.0 * (n - 2)) * math.pi ** 0.25))
    raise DomainError(f"unknown case {which!r} (use 'conformal' or 'dual')")


def rayleigh_quotient(f: RadialFn, n: int, p: float,
                      hs_grid: HalfspaceGrid) -> float:
    """|Pf|_{L^{np/(n-1)}(R^n_+)} / |f|_{L^p(R^{n-1})}, with |Pf| on the
    polar half-space rule (``extension_norm``)."""
    if not np.any(f.values != 0.0):
        raise DomainError("Rayleigh quotient of the zero function")
    return extension_norm(f, n * p / (n - 1), hs_grid) / lp_norm_boundary(f, p)


def el_sides(f: RadialFn, n: int, p: float, hs_grid: HalfspaceGrid):
    """Both Euler-Lagrange sides: (f^(p-1), T((Pf)^(q-1)))."""
    if np.any(f.values < 0.0):
        raise DomainError("the Euler-Lagrange system is stated for f >= 0")
    if not np.any(f.values > 0.0):
        raise DomainError("f must not be identically zero")
    q = n * p / (n - 1)
    u = poisson_extend(f, hs_grid)
    power = AxisymFn(hs_grid, np.maximum(u.values, 0.0) ** (q - 1.0))
    rhs = dual_extend(power).values
    lhs = f.values ** (p - 1.0)
    if not (np.all(np.isfinite(lhs)) and np.all(np.isfinite(rhs))):
        raise DivergenceError("Euler-Lagrange sides are not finite")
    return lhs, rhs


def el_residual(f: RadialFn, n: int, p: float,
                hs_grid: HalfspaceGrid) -> float:
    """Normalized sup defect of the unit-coefficient Euler-Lagrange system."""
    lhs, rhs = el_sides(f, n, p, hs_grid)
    return float(np.max(np.abs(lhs - rhs)) / np.max(lhs))


def calibrate(n: int, p: float, lhs: np.ndarray, rhs: np.ndarray):
    """Calibration amplitude a, residual of a*f, and the log-ratio spread.

    The two sides scale as a^(p-1) and a^(np/(n-1)-1), so a comes from the
    mean of log(rhs/lhs), weighted by lhs^2 over the region carrying mass:
    that concentrates the calibration where the normalized defect is
    measured, keeping the far mesh (where quadrature is weakest but both
    sides are negligible) from biasing the amplitude.
    """
    mask = (lhs >= 1e-6 * np.max(lhs)) & (rhs > 0.0)
    if not np.any(mask):
        raise DomainError("nonpositive Euler-Lagrange ratio; cannot calibrate")
    logs = np.log(rhs[mask] / lhs[mask])
    log_ratio = float(np.average(logs, weights=lhs[mask] ** 2))
    # shape diagnosis over the core only; the far mesh carries no mass but
    # its quadrature is too weak to hold the ratio to calibration accuracy
    core = lhs[mask] >= 1e-3 * np.max(lhs)
    spread = float(np.max(np.abs(logs[core] - log_ratio)))
    q = n * p / (n - 1)
    a = math.exp(log_ratio / (p - q))
    lhs2 = a ** (p - 1.0) * lhs
    rhs2 = a ** (q - 1.0) * rhs
    return a, float(np.max(np.abs(lhs2 - rhs2)) / np.max(lhs2)), spread


def normalize_el(f: RadialFn, n: int, p: float,
                 hs_grid: HalfspaceGrid) -> float:
    """Amplitude a minimizing the Euler-Lagrange defect of a*f.

    Warns when the pointwise log-ratio varies by more than 0.05 (f does not
    have the right shape); the returned amplitude is then best-effort.
    """
    lhs, rhs = el_sides(f, n, p, hs_grid)
    a, _, spread = calibrate(n, p, lhs, rhs)
    if spread > 0.05:
        warnings.warn(
            f"Euler-Lagrange ratio varies by {spread:.2e} across the mesh; "
            "f is not a solution shape, amplitude is best-effort",
            stacklevel=2)
    return a


def calibrated_residual(f: RadialFn, n: int, p: float,
                        hs_grid: HalfspaceGrid) -> float:
    """Euler-Lagrange residual after optimal amplitude calibration."""
    lhs, rhs = el_sides(f, n, p, hs_grid)
    try:
        return calibrate(n, p, lhs, rhs)[1]
    except DomainError:
        return math.inf


def _power_law_extension(n: int, beta: float, r_pts, t_pts) -> np.ndarray:
    """(P s^-beta)(r, t) at points, panels refined at the diagonal and s = 0.

    The breakpoints of all points are built as arrays, the rules come from
    one ``composite_rules`` call and the kernel is evaluated once over them.
    """
    d = n - 1
    r_pts = np.atleast_1d(np.asarray(r_pts, dtype=float))
    t_pts = np.atleast_1d(np.asarray(t_pts, dtype=float))
    r_pts, t_pts = np.broadcast_arrays(r_pts, t_pts)
    width = np.maximum(t_pts, 1e-12)
    lo_feature = np.minimum(width, np.maximum(r_pts, t_pts)) / 8.0
    hi = np.maximum(np.maximum(8.0 * r_pts, 64.0 * t_pts), 16.0)
    breaks = np.sort(np.hstack([peak_breaks(r_pts, width, 0.0, hi, GROW),
                                zero_refined_breaks(lo_feature, hi)]), axis=1)
    s, w, offsets = composite_rules(
        breaks, _ORDER, tail_scales=np.maximum(np.maximum(r_pts, t_pts), 1.0))
    counts = np.diff(offsets)
    r_rep = np.repeat(r_pts, counts)
    t_rep = np.repeat(t_pts, counts)
    contrib = w * ring_kernel(n, r_rep, s, t_rep) * s ** (d - 1 - beta)
    return np.add.reduceat(contrib, offsets[:-1])


def singular_constant(n: int, p: float, r0: float = 1.0) -> float:
    """Scalar c such that c*|xi|^(-(n-1)/p) formally solves the EL system.

    Both sides are homogeneous of the same degree, so matching them at the
    single radius r0 determines c; r0-independence is a consistency check.
    The half-space integral runs in polar coordinates: the extension of the
    power law is |x|^-beta phi(theta), and phi is its value on the unit
    quarter-circle at the angular quadrature nodes.
    """
    if not (1.0 < p < math.inf):
        raise DomainError(f"p must lie in (1, inf), got {p}")
    if r0 <= 0.0:
        raise DomainError("matching radius must be positive")
    beta = (n - 1) / p
    q = n * p / (n - 1)
    d = n - 1
    # I(r0) = int K(r0, rho cos, rho sin) (rho^-beta phi)^(q-1)
    #             (rho cos)^(d-1) rho drho dtheta
    theta_breaks = zero_refined_breaks(np.pi / 512.0, 0.5 * np.pi)
    th, wth = composite_rule(theta_breaks, _ORDER)
    phi_pow = _power_law_extension(n, beta, np.cos(th), np.sin(th)) ** (q - 1.0)
    hi = max(8.0 * r0, 16.0)
    peaks = peak_breaks(r0, r0 * np.maximum(np.sin(th), 1e-8), 0.0, hi, GROW)
    zero = zero_refined_breaks(np.full(th.shape, r0 / 256.0), hi)
    breaks = np.sort(np.hstack([peaks, zero]), axis=1)
    rho, w, offsets = composite_rules(breaks, _ORDER, tail_scales=max(r0, 1.0))
    counts = np.diff(offsets)
    th_rep = np.repeat(th, counts)
    wth_rep = np.repeat(wth, counts)
    phi_rep = np.repeat(phi_pow, counts)
    cos_t, sin_t = np.cos(th_rep), np.sin(th_rep)
    kern = ring_kernel(n, r0, rho * cos_t, rho * sin_t)
    integrand = (kern * rho ** (-beta * (q - 1.0)) * phi_rep
                 * (rho * cos_t) ** (d - 1) * rho)
    I = float(np.dot(w * wth_rep, integrand))
    if not math.isfinite(I) or I <= 0.0:
        raise DivergenceError("singular-solution quadrature failed")
    # LHS scales as c^(p-1) r^(-beta(p-1)); RHS as c^(q-1) * I * r0-profile
    c = (I * r0 ** (beta * (p - 1.0))) ** (1.0 / (p - q))
    return float(c)
