"""Gauss-Legendre building blocks: panels, mapped half-line rules, peak refinement.

Everything here returns plain ``(nodes, weights)`` pairs; ``composite_rules``
also returns where each list's rule starts, so callers build the rules of many
points in one pass.  The half-line rules
use the substitution r = scale * tan(theta) (or an exponential stretch), which
turns algebraically decaying integrands into smooth functions on a finite
interval, so a single global Gauss rule converges spectrally.

The composite "peak" rule resolves Lorentzian-type features of prescribed
width (the Poisson kernel develops an O(1/t) spike on the diagonal as the
height t -> 0); panels grow geometrically away from the feature.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=128)
def gauss_legendre(order: int):
    """Cached Gauss-Legendre nodes/weights on [-1, 1]."""
    if order < 1:
        raise ValueError("Gauss-Legendre order must be >= 1")
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def panel_rule(a: float, b: float, order: int):
    """Gauss-Legendre rule on the finite panel [a, b]."""
    x, w = gauss_legendre(order)
    half = 0.5 * (b - a)
    return a + half * (x + 1.0), half * w


def half_line_rule(a: float, scale: float, order: int):
    """Rule for integrals over [a, inf) via r = a + scale*tan(theta)."""
    x, w = gauss_legendre(order)
    theta = (x + 1.0) * (np.pi / 4.0)
    nodes = a + scale * np.tan(theta)
    weights = scale * (np.pi / 4.0) * w / np.cos(theta) ** 2
    return nodes, weights


def composite_rule(breaks, order: int, tail_scale: float | None = None):
    """Gauss panels over consecutive breakpoints, optional tan-mapped tail.

    ``breaks`` is an increasing sequence; if ``tail_scale`` is given, the rule
    is extended from the last breakpoint to infinity.
    """
    nodes, weights, _ = composite_rules([breaks], order, tail_scale)
    return nodes, weights


def composite_rules(breaks_list, order: int, tail_scales=None):
    """``composite_rule`` for many breakpoint lists at once, concatenated.

    Returns ``(nodes, weights, offsets)``: the rule of list ``k`` is
    ``nodes[offsets[k]:offsets[k + 1]]``, node for node.  Zero-width panels
    are skipped, so lists may be padded by repeating a breakpoint.
    ``tail_scales`` (one per list, or one for all) attaches the mapped tail.
    """
    sizes = np.fromiter(map(len, breaks_list), dtype=np.intp)
    flat = np.concatenate(breaks_list, dtype=float)
    ends = np.cumsum(sizes)
    use = np.diff(flat) > 0.0
    use[ends[:-1] - 1] = False          # pairs straddling two lists
    panels = np.nonzero(use)[0]
    owner = np.searchsorted(ends, panels, side="right")
    xs, ws = panel_rule(flat[panels, None], flat[panels + 1, None], order)
    n_panels = np.bincount(owner, minlength=sizes.size)
    tail = 0 if tail_scales is None else 2 * order
    offsets = np.zeros(sizes.size + 1, dtype=np.intp)
    np.cumsum(order * n_panels + tail, out=offsets[1:])
    rank = np.arange(panels.size) - (np.cumsum(n_panels) - n_panels)[owner]
    at = (offsets[owner] + order * rank)[:, None] + np.arange(order)
    nodes = np.empty(offsets[-1])
    weights = np.empty(offsets[-1])
    nodes[at], weights[at] = xs, ws
    if tail:
        scales = np.broadcast_to(np.asarray(tail_scales, dtype=float),
                                 sizes.shape)
        xs, ws = half_line_rule(flat[ends - 1, None], scales[:, None], tail)
        at = (offsets[1:] - tail)[:, None] + np.arange(tail)
        nodes[at], weights[at] = xs, ws
    return nodes, weights, offsets


def peak_breaks(peak: float, width: float, lo: float, hi: float,
                grow: float = 4.0):
    """Breakpoints resolving a feature of given width at ``peak`` in [lo, hi].

    Panels have width ~``width`` at the feature and grow geometrically
    until they cover the interval; ``hi`` may be ``inf`` (the caller then
    attaches a mapped tail panel from the last break).
    """
    if width <= 0.0:
        raise ValueError("peak width must be positive")
    out = [peak - width, peak + width]
    w = width
    while peak - w > lo:
        w *= grow
        out.append(peak - w)
    w = width
    hi_cap = hi if np.isfinite(hi) else max(4.0 * abs(peak), 16.0 * width, 1.0)
    while peak + w < hi_cap:
        w *= grow
        out.append(peak + w)
    out = [min(max(b, lo), hi_cap) for b in out]
    out.extend([lo, hi_cap])
    breaks = np.unique(np.asarray(out, dtype=float))
    return breaks[(breaks >= lo) & (breaks <= hi_cap)]


def zero_refined_breaks(lo_feature: float, hi: float, levels: int = 10,
                        ratio: float = 4.0):
    """Breakpoints geometrically refined toward 0 (integrable endpoint)."""
    pts = [hi]
    w = min(lo_feature, hi)
    for _ in range(levels):
        pts.append(w)
        w /= ratio
    pts.append(0.0)
    return np.unique(np.asarray(pts, dtype=float))
