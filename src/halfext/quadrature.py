"""Gauss-Legendre building blocks: panels, mapped half-line rules, peak refinement.

Everything here returns plain ``(nodes, weights)`` pairs; ``composite_rules``
also returns where each list's rule starts, so callers build the rules of many
points in one pass.  The half-line rules use the substitution
r = scale * tan(theta), which turns algebraically decaying integrands into
smooth functions on a finite interval, so a single global Gauss rule
converges spectrally.

The composite "peak" rule resolves Lorentzian-type features of prescribed
width (the Poisson kernel develops an O(1/t) spike on the diagonal as the
height t -> 0); panels grow geometrically away from the feature.  The
breakpoint builder takes arrays: one call lays out the panels of every point.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

# geometric factor between neighbouring panels of the refined breakpoints
# (the operator's diagonal panels use their own, extension._DIAGONAL_GROW)
GROW = 4.0


@lru_cache(maxsize=128)
def gauss_legendre(order: int):
    """Cached Gauss-Legendre nodes/weights on [-1, 1]."""
    if order < 1:
        raise ValueError("Gauss-Legendre order must be >= 1")
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def panel_rule(a: float, b: float, order: int):
    """Gauss-Legendre rule on the finite panel [a, b].

    ``a`` and ``b`` may be arrays of shape (..., 1): the rules of all those
    panels then come back at once, one panel per row along the last axis.
    """
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


# no caller in the library; the benchmark traces it by name, so it stays
def composite_rule(breaks, order: int):
    """Gauss panels over consecutive breakpoints of an increasing sequence."""
    nodes, weights, _ = composite_rules([breaks], order)
    return nodes, weights


def composite_rules(breaks_list, order: int, tail_scales=None):
    """``composite_rule`` for many breakpoint lists at once, concatenated.

    Returns ``(nodes, weights, offsets)``: the rule of list ``k`` is
    ``nodes[offsets[k]:offsets[k + 1]]``, node for node.  Zero-width panels
    are skipped, so lists may be padded by repeating a breakpoint.
    ``tail_scales`` (one per list, or one for all) extends each rule from its
    last breakpoint to infinity by a tan-mapped tail of that scale.
    The panel rules are built in breakpoint order, which is the output order
    when there is no tail; a tail after each list's panels is scattered in.
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
    if not tail:
        return xs.ravel(), ws.ravel(), offsets
    rank = np.arange(panels.size) - (np.cumsum(n_panels) - n_panels)[owner]
    at = (offsets[owner] + order * rank)[:, None] + np.arange(order)
    nodes = np.empty(offsets[-1])
    weights = np.empty(offsets[-1])
    nodes[at], weights[at] = xs, ws
    scales = np.broadcast_to(np.asarray(tail_scales, dtype=float), sizes.shape)
    xs, ws = half_line_rule(flat[ends - 1, None], scales[:, None], tail)
    at = (offsets[1:] - tail)[:, None] + np.arange(tail)
    nodes[at], weights[at] = xs, ws
    return nodes, weights, offsets


def peak_breaks(peak, width, lo, hi, grow):
    """Breakpoints resolving a feature of given width at ``peak`` in [lo, hi].

    Panels have width ~``width`` at the feature and grow geometrically by
    ``grow`` until they cover the interval; ``hi`` may be ``inf`` (capped at
    max(4 |peak|, 16 width, 1); the caller then attaches a mapped tail panel
    from the last break).  The arguments broadcast: the result holds one
    sorted row of breakpoints per feature, all rows of one length, padded by
    repeated breakpoints (zero-width panels, which ``composite_rules`` skips).
    """
    peak, width, lo, hi = np.broadcast_arrays(
        *(np.asarray(x, dtype=float) for x in (peak, width, lo, hi)))
    if np.any(width <= 0.0):
        raise ValueError("peak width must be positive")
    cap = np.maximum(np.maximum(4.0 * np.abs(peak), 16.0 * width), 1.0)
    hi = np.where(np.isfinite(hi), hi, cap)
    # one level count for every row; rows needing fewer clip the rest
    reach = np.max(np.maximum(peak - lo, hi - peak) / width, initial=1.0)
    levels = int(np.ceil(np.log(reach) / np.log(grow))) + 1
    steps = width[..., None] * grow ** np.arange(levels)
    lo, hi, peak = lo[..., None], hi[..., None], peak[..., None]
    # peak -+ steps increase; clipping to [lo, hi] keeps that order
    breaks = np.concatenate([lo, peak - steps[..., ::-1], peak + steps, hi],
                            axis=-1)
    return np.clip(breaks, lo, hi)
