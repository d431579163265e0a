"""Poisson kernel of the upper half-space and the L^p norms of its profile.

The half-space R^n_+ = {x = (x', x_n) : x_n > 0} has boundary R^{n-1}.  Its
Poisson kernel is

    P(x, xi) = (2 / (n * omega_n)) * x_n / (|x' - xi|^2 + x_n^2)^(n/2),

where omega_n is the volume of the unit ball in R^n.  Freezing the height
x_n = t gives the radial profile P_t(rho).  Its companion
Q_t(rho) = P_t(rho) * rho / t enters only through its ring reduction,
extension.qt_ring.  P_t has unit mass on R^{n-1} for every t,
its sup is attained at rho = 0, and its L^p norm obeys the exact power law
|P_t|_p = c(n, p) * t^{-(n-1)(p-1)/p} on (n-1)/n < p <= inf.

The constant c(n, p) is never hard-coded: finite-p norms are computed in
theta, rho = t*tan(theta), where the integrand cos^(n(p-1)) sin^(n-2) is not
smooth at pi/2 unless n(p-1) is an integer, so the Gauss panels shrink
geometrically towards pi/2.  The CLI's verify-kernel checks that quadrature
against the closed form of c(n, p), a Beta function.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DivergenceError, DomainError
from .quadrature import GROW, composite_rules, peak_breaks


def unit_ball_volume(n: int) -> float:
    """Volume of the unit ball in R^n: pi^(n/2) / Gamma(n/2 + 1)."""
    if n < 1:
        raise DomainError(f"unit ball volume needs n >= 1, got n={n}")
    return math.exp(0.5 * n * math.log(math.pi) - math.lgamma(0.5 * n + 1.0))


def sphere_area(d: int) -> float:
    """Surface measure of the unit sphere S^(d-1) in R^d: 2 pi^(d/2)/Gamma(d/2)."""
    if d < 1:
        raise DomainError(f"sphere area needs d >= 1, got d={d}")
    return 2.0 * math.exp(0.5 * d * math.log(math.pi) - math.lgamma(0.5 * d))


def kernel_constant(n: int) -> float:
    """The normalizing prefactor 2 / (n * omega_n)."""
    return 2.0 / (n * unit_ball_volume(n))


def _check_dim(n: int) -> None:
    if int(n) != n or n < 2:
        raise DomainError(f"half-space dimension must be an integer >= 2, got {n}")


def pt_profile(n: int, t: float, rho):
    """Radial profile P_t(rho) = (2/(n omega_n)) t / (rho^2 + t^2)^(n/2)."""
    _check_dim(n)
    if t <= 0.0:
        raise DomainError(f"height t must be positive, got {t}")
    rho = np.asarray(rho, dtype=float)
    if np.any(rho < 0.0):
        raise DomainError("radius rho must be >= 0")
    out = kernel_constant(n) * t / (rho * rho + t * t) ** (0.5 * n)
    return float(out) if out.ndim == 0 else out


def pt_lp_norm(n: int, p: float, t: float) -> float:
    """L^p(R^{n-1}) norm of P_t.

    Finite p >= 1: 12 Gauss panels of 16 nodes in theta, rho = t*tan(theta),
    from width 1e-6 at pi/2 growing by GROW; below p = 1 the integrand
    cos^(n(p-1)) is singular at pi/2 and p raises DomainError.  p = inf: the
    closed-form peak value 2/(n omega_n t^{n-1}).  Diverges for p <= (n-1)/n.
    """
    _check_dim(n)
    if t <= 0.0:
        raise DomainError(f"height t must be positive, got {t}")
    if p <= (n - 1) / n:
        raise DivergenceError(
            f"|P_t|_p diverges for p <= (n-1)/n = {(n - 1) / n:.6g}, got p={p}")
    if p < 1.0:
        raise DomainError(f"|P_t|_p is computed for p >= 1, got p={p}")
    if math.isinf(p):
        return kernel_constant(n) / t ** (n - 1)
    theta, w, _ = composite_rules(
        [peak_breaks(0.5 * np.pi, 1e-6, 0.0, 0.5 * np.pi, GROW)], 16)
    rho, jac = t * np.tan(theta), t / np.cos(theta) ** 2
    integrand = pt_profile(n, t, rho) ** p * rho ** (n - 2) * jac
    return float((sphere_area(n - 1) * np.dot(w, integrand)) ** (1.0 / p))
