import numpy as np
import pytest

from halfext.quadrature import (GROW, composite_rule, composite_rules,
                                peak_breaks)


def breakpoint_lists(rng):
    lists = [np.sort(rng.uniform(0.0, 10.0, rng.integers(2, 9)))
             for _ in range(40)]
    # repeated breakpoints give zero-width panels, which must be skipped
    lists += [np.array([0.0, 1.0, 1.0, 2.0, 2.0, 2.0]),
              np.array([3.0, 3.0, 5.0]),
              np.array([0.0, 0.5, 4.0, 4.0])]
    return lists


@pytest.mark.parametrize("with_tail", [False, True])
def test_composite_rules_matches_composite_rule(rng, with_tail):
    lists = breakpoint_lists(rng)
    scales = rng.uniform(0.5, 3.0, len(lists)) if with_tail else None
    nodes, weights, offsets = composite_rules(lists, 16, scales)
    assert offsets[0] == 0 and offsets[-1] == nodes.size == weights.size
    for k, breaks in enumerate(lists):
        x, w, _ = composite_rules([breaks], 16,
                                  None if scales is None else scales[k])
        seg = slice(offsets[k], offsets[k + 1])
        assert np.array_equal(nodes[seg], x)
        assert np.array_equal(weights[seg], w)
        if scales is None:
            x1, w1 = composite_rule(breaks, 16)
            assert np.array_equal(x1, x) and np.array_equal(w1, w)


def test_composite_rules_padded_rows_and_shared_tail():
    # a 2-D array of lists padded with their last breakpoint, one tail scale
    padded = np.array([[0.0, 1.0, 2.0, 2.0], [0.0, 3.0, 3.0, 3.0]])
    nodes, weights, offsets = composite_rules(padded, 8, tail_scales=1.5)
    assert list(np.diff(offsets)) == [2 * 8 + 16, 8 + 16]
    for k, row in enumerate(padded):
        x, w, _ = composite_rules([np.unique(row)], 8, 1.5)
        assert np.array_equal(nodes[offsets[k]:offsets[k + 1]], x)
        assert np.array_equal(weights[offsets[k]:offsets[k + 1]], w)


def peak_breaks_loop(peak, width, lo, hi, grow):
    """The per-point loop the array peak_breaks replaced, as its reference."""
    out = [peak - width, peak + width]
    w = width
    while peak - w > lo:
        w *= grow
        out.append(peak - w)
    w = width
    cap = hi if np.isfinite(hi) else max(4.0 * abs(peak), 16.0 * width, 1.0)
    while peak + w < cap:
        w *= grow
        out.append(peak + w)
    return np.unique(np.clip(out + [lo, cap], lo, cap))


@pytest.mark.parametrize("scalar, grow", [
    pytest.param(s, g, id=str(s) if g == GROW else f"{s}-grow{g:g}")
    for g in (GROW, 8.0) for s in (None, "peak", "width")])
def test_peak_breaks_rows(scalar, grow):
    # own generator: draws from the session rng would shift later modules'
    rng = np.random.default_rng(4)
    K, lo = 200, 0.0
    peak = rng.uniform(0.0, 10.0, K)
    width = 10.0 ** rng.uniform(-9.0, 0.5, K)
    hi = np.where(rng.random(K) < 0.5, np.inf, rng.uniform(10.0, 60.0, K))
    if scalar == "peak":
        peak = 2.5
    elif scalar == "width":
        width = 1e-3
    rows = peak_breaks(peak, width, lo, hi, grow)
    peak, width = np.broadcast_arrays(peak, width, hi)[:2]
    cap = np.where(np.isfinite(hi), hi,
                   np.maximum(np.maximum(4.0 * peak, 16.0 * width), 1.0))
    assert rows.ndim == 2 and rows.shape[0] == K
    assert np.all(np.diff(rows, axis=1) >= 0.0)
    assert np.all(rows[:, 0] == lo) and np.array_equal(rows[:, -1], cap)
    for row, x, w, h, top in zip(rows, peak, width, hi, cap):
        b = np.unique(row)
        assert np.array_equal(b, peak_breaks_loop(x, w, lo, h, grow))
        eps = 8.0 * np.spacing(top)      # rounding of x +- w grow^k
        i = np.searchsorted(b, x, side="right")   # b[i-1] <= x < b[i]
        assert x - b[i - 1] <= w + eps and b[i] - x <= w + eps
        # panel widths, walking away from the peak's panel on either side
        widths = np.diff(b)
        for side in (widths[i - 1:], widths[:i][::-1]):
            assert np.all(side[1:] <= grow * side[:-1] + eps)


def test_peak_breaks_rejects_nonpositive_width():
    with pytest.raises(ValueError):
        peak_breaks(1.0, 0.0, 0.0, 2.0, GROW)
    with pytest.raises(ValueError):
        peak_breaks(np.ones(3), np.array([0.1, -0.1, 0.1]), 0.0, np.inf, 8.0)
