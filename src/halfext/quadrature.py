"""Gauss-Legendre building blocks: panels, mapped half-line rules, peak refinement.

Everything here returns plain ``(nodes, weights)`` pairs; ``composite_rules``
also returns where each row's rule starts, so callers build the rules of many
points in one pass.  The half-line rules use the substitution
r = scale * tan(theta), which turns algebraically decaying integrands into
smooth functions on a finite interval, so a single global Gauss rule
converges spectrally.

The composite "peak" rule resolves Lorentzian-type features of prescribed
width (the Poisson kernel develops an O(1/t) spike on the diagonal as the
height t -> 0); panels grow geometrically away from the feature.  The
breakpoint builder takes arrays: one call lays out the panels of many
points, and ``rule_runs`` builds their rules in runs of at most ``_BLOCK``
nodes (or one point's, if more), as ``blocks`` splits each layout.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

# geometric factor between neighbouring panels of the refined breakpoints
# (the operator's diagonal panels use their own, extension._DIAGONAL_GROW)
GROW = 4.0
# entries (kernel values, quadrature nodes) of one batched evaluation: the
# batched quadratures walk their items in blocks of at most this many (256
# KiB per float temporary), or one item alone if it is larger; half as many
# made n=3 builds at N >= 160 10-17% slower (twice the numpy calls, each of
# fixed cost)
_BLOCK = 1 << 15
# run temporaries stay resident: glibc serves an array above its mmap
# threshold (the largest mapping freed so far, 128 KiB at first) with a
# mapping of its own, and gives the heap's free top back to the kernel past
# twice that (mallopt(3)), so each run would fault its pages in anew;
# freeing one untouched 2 MiB block, once, raises the two thresholds to 2
# and 4 MiB, and each run reuses the last run's pages.  Other allocators
# only allocate and free it.
np.empty(8 * _BLOCK)


def blocks(sizes) -> list:
    """(lo, hi) ranges of consecutive items of ``sizes`` entries each: every
    range holds at most ``_BLOCK`` entries, or one item that alone is more."""
    ends, lo, spans = np.cumsum(sizes), 0, []
    while lo < ends.size:
        hi = np.searchsorted(ends, ends[lo] - sizes[lo] + _BLOCK, "right")
        spans.append((lo, max(int(hi), lo + 1)))
        lo = spans[-1][1]
    return spans


def rule_runs(layout, items, order: int, extra: int):
    """Per run of ``items``: its items and ``composite_rules`` of their
    breakpoint rows, ``layout(items)``, an item taking ``order`` nodes per
    nonzero panel plus ``extra``.  Items are laid out ``_BLOCK // 64`` at a
    time (rows of at most 64 breakpoints hold about a block), each once,
    and each layout's runs are its ``blocks``."""
    step = _BLOCK // 64
    for start in range(0, items.size, step):
        chunk = items[start:start + step]
        breaks = layout(chunk)
        for a, b in blocks(order * np.count_nonzero(np.diff(breaks) > 0.0,
                                                    axis=1) + extra):
            yield (chunk[a:b], *composite_rules(breaks[a:b], order))


@lru_cache(maxsize=128)
def gauss_legendre(order: int):
    """Cached Gauss-Legendre nodes/weights on [-1, 1]."""
    if order < 1:
        raise ValueError("Gauss-Legendre order must be >= 1")
    return np.polynomial.legendre.leggauss(order)


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


def composite_rules(breaks, order: int):
    """``composite_rule`` on each row of a 2-D breakpoint array, concatenated.

    Returns ``(nodes, weights, offsets)``: the rule of row ``k`` is
    ``nodes[offsets[k]:offsets[k + 1]]``, node for node.  Zero-width panels
    are skipped, so rows may be padded by repeating a breakpoint.
    """
    breaks = np.asarray(breaks, dtype=float)
    lo, hi = breaks[:, :-1], breaks[:, 1:]
    use = hi > lo
    xs, ws = panel_rule(lo[use][:, None], hi[use][:, None], order)
    offsets = np.zeros(breaks.shape[0] + 1, dtype=np.intp)
    np.cumsum(order * use.sum(axis=1), out=offsets[1:])
    return xs.ravel(), ws.ravel(), offsets


def peak_breaks(peak, width, lo, hi, grow):
    """Breakpoints resolving a feature of given width at ``peak`` in the
    finite interval [lo, hi].

    Panels have width ~``width`` at the feature and grow geometrically by
    ``grow`` until they cover the interval.  The arguments broadcast: the
    result holds one sorted row of breakpoints per feature, all rows of one
    length, padded by repeated breakpoints (zero-width panels, which
    ``composite_rules`` skips).
    """
    peak, width, lo, hi = np.broadcast_arrays(
        *(np.asarray(x, dtype=float) for x in (peak, width, lo, hi)))
    if np.any(width <= 0.0):
        raise ValueError("peak width must be positive")
    # one level count for every row; rows needing fewer clip the rest
    reach = np.max(np.maximum(peak - lo, hi - peak) / width, initial=1.0)
    levels = int(np.ceil(np.log(reach) / np.log(grow))) + 1
    steps = width[..., None] * grow ** np.arange(levels)
    lo, hi, peak = lo[..., None], hi[..., None], peak[..., None]
    # peak -+ steps increase; clipping to [lo, hi] keeps that order
    breaks = np.concatenate([lo, peak - steps[..., ::-1], peak + steps, hi],
                            axis=-1)
    return np.clip(breaks, lo, hi)
