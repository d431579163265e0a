"""Poisson kernel of the upper half-space and its closed-form norm identities.

The half-space R^n_+ = {x = (x', x_n) : x_n > 0} has boundary R^{n-1}.  Its
Poisson kernel is

    P(x, xi) = (2 / (n * omega_n)) * x_n / (|x' - xi|^2 + x_n^2)^(n/2),

where omega_n is the volume of the unit ball in R^n.  Freezing the height
x_n = t gives the radial profile P_t(rho), with companion profile
Q_t(rho) = P_t(rho) * rho / t.  P_t has unit mass on R^{n-1} for every t,
its sup is attained at rho = 0, and its L^p norm obeys the exact power law
|P_t|_p = c(n, p) * t^{-(n-1)(p-1)/p} on (n-1)/n < p <= inf.

The constant c(n, p) is never hard-coded: finite-p norms are computed by
radial quadrature under the substitution rho = t*tan(theta), which maps the
half-line exactly onto a finite interval.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln

from .errors import DivergenceError, DomainError
from .quadrature import half_line_rule


def unit_ball_volume(n: int) -> float:
    """Volume of the unit ball in R^n: pi^(n/2) / Gamma(n/2 + 1)."""
    if n < 1:
        raise DomainError(f"unit ball volume needs n >= 1, got n={n}")
    return math.exp(0.5 * n * math.log(math.pi) - gammaln(0.5 * n + 1.0))


def sphere_area(d: int) -> float:
    """Surface measure of the unit sphere S^(d-1) in R^d: 2 pi^(d/2)/Gamma(d/2)."""
    if d < 1:
        raise DomainError(f"sphere area needs d >= 1, got d={d}")
    return 2.0 * math.exp(0.5 * d * math.log(math.pi) - gammaln(0.5 * d))


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


def qt_profile(n: int, t: float, rho):
    """Companion profile Q_t(rho) = P_t(rho) * rho / t."""
    rho = np.asarray(rho, dtype=float)
    out = pt_profile(n, t, rho) * rho / t
    return float(out) if np.ndim(out) == 0 else out


def poisson_kernel(n: int, x, xi) -> float:
    """P(x, xi) for x = (x', x_n) in the open half-space, xi on the boundary.

    ``x`` is a length-n vector with x[-1] > 0; ``xi`` has length n-1.
    """
    _check_dim(n)
    x = np.asarray(x, dtype=float)
    xi = np.asarray(xi, dtype=float)
    if x.shape != (n,):
        raise DomainError(f"x must be a length-{n} vector")
    if xi.shape != (n - 1,):
        raise DomainError(f"xi must be a length-{n - 1} vector")
    xn = x[-1]
    if xn <= 0.0:
        raise DomainError(f"x_n must be positive, got {xn}")
    rho = float(np.linalg.norm(x[:-1] - xi))
    return float(pt_profile(n, xn, rho))


def pt_lp_norm(n: int, p: float, t: float, quad_order: int = 128) -> float:
    """L^p(R^{n-1}) norm of P_t.

    Finite p: radial quadrature under rho = t*tan(theta) (Gauss-Legendre of
    the given order on the mapped interval).  p = inf: the closed-form peak
    value 2/(n omega_n t^{n-1}).  Diverges for p <= (n-1)/n.
    """
    _check_dim(n)
    if t <= 0.0:
        raise DomainError(f"height t must be positive, got {t}")
    if p <= (n - 1) / n:
        raise DivergenceError(
            f"|P_t|_p diverges for p <= (n-1)/n = {(n - 1) / n:.6g}, got p={p}")
    if math.isinf(p):
        return kernel_constant(n) / t ** (n - 1)
    d = n - 1
    rho, jac = half_line_rule(0.0, t, quad_order)
    integrand = pt_profile(n, t, rho) ** p * rho ** (d - 1)
    return float((sphere_area(d) * np.dot(jac, integrand)) ** (1.0 / p))
