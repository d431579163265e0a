import numpy as np
import pytest

from halfext import quadrature
from halfext.quadrature import (GROW, blocks, composite_rule,
                                composite_rules, peak_breaks, rule_runs)


def breakpoint_lists(rng):
    lists = [np.sort(rng.uniform(0.0, 10.0, rng.integers(2, 9)))
             for _ in range(40)]
    # repeated breakpoints give zero-width panels, which must be skipped
    lists += [np.array([0.0, 1.0, 1.0, 2.0, 2.0, 2.0]),
              np.array([3.0, 3.0, 5.0]),
              np.array([0.0, 0.5, 4.0, 4.0])]
    return lists


@pytest.mark.parametrize("scaled", [False, True])
def test_composite_rules_matches_composite_rule(rng, scaled):
    lists = breakpoint_lists(rng)
    if scaled:
        # lists of different magnitudes in one call; this case's draws keep
        # the session draws of later modules as they were
        lists = [b * c for b, c in
                 zip(lists, rng.uniform(0.5, 3.0, len(lists)))]
    # one array, each list padded with its last breakpoint
    size = max(b.size for b in lists)
    rows = np.array([np.pad(b, (0, size - b.size), mode="edge")
                     for b in lists])
    nodes, weights, offsets = composite_rules(rows, 16)
    assert offsets[0] == 0 and offsets[-1] == nodes.size == weights.size
    for k, breaks in enumerate(lists):
        x, w = composite_rule(breaks, 16)
        seg = slice(offsets[k], offsets[k + 1])
        assert np.array_equal(nodes[seg], x)
        assert np.array_equal(weights[seg], w)


def test_composite_rules_padded_rows():
    # a 2-D array of lists padded with their last breakpoint
    padded = np.array([[0.0, 1.0, 2.0, 2.0], [0.0, 3.0, 3.0, 3.0]])
    nodes, weights, offsets = composite_rules(padded, 8)
    assert list(np.diff(offsets)) == [2 * 8, 8]
    for k, row in enumerate(padded):
        x, w = composite_rule(np.unique(row), 8)
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
    while peak + w < hi:
        w *= grow
        out.append(peak + w)
    return np.unique(np.clip(out + [lo, hi], lo, hi))


@pytest.mark.parametrize("scalar, grow", [
    pytest.param(s, g, id=str(s) if g == GROW else f"{s}-grow{g:g}")
    for g in (GROW, 8.0) for s in (None, "peak", "width")])
def test_peak_breaks_rows(scalar, grow):
    # own generator: draws from the session rng would shift later modules'
    rng = np.random.default_rng(4)
    K, lo = 200, 0.0
    peak = rng.uniform(0.0, 10.0, K)
    width = 10.0 ** rng.uniform(-9.0, 0.5, K)
    hi = rng.uniform(10.0, 60.0, K)
    if scalar == "peak":
        peak = 2.5
    elif scalar == "width":
        width = 1e-3
    rows = peak_breaks(peak, width, lo, hi, grow)
    peak, width = np.broadcast_arrays(peak, width, hi)[:2]
    assert rows.ndim == 2 and rows.shape[0] == K
    assert np.all(np.diff(rows, axis=1) >= 0.0)
    assert np.all(rows[:, 0] == lo) and np.array_equal(rows[:, -1], hi)
    for row, x, w, h in zip(rows, peak, width, hi):
        b = np.unique(row)
        assert np.array_equal(b, peak_breaks_loop(x, w, lo, h, grow))
        eps = 8.0 * np.spacing(h)        # rounding of x +- w grow^k
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
        peak_breaks(np.ones(3), np.array([0.1, -0.1, 0.1]), 0.0, 5.0, 8.0)


def test_blocks_hold_at_most_a_block(monkeypatch):
    # consecutive ranges, each within the block, or one item over it alone
    monkeypatch.setattr(quadrature, "_BLOCK", 10)
    assert blocks([]) == []
    assert blocks([3, 3, 3, 3]) == [(0, 3), (3, 4)]
    assert blocks(np.array([4, 12, 5, 5, 1])) == [(0, 1), (1, 2), (2, 4),
                                                  (4, 5)]


def test_rule_runs_lay_out_each_item_once(monkeypatch):
    # items are laid out _BLOCK // 64 = 4 at a time, each once and in order;
    # the runs are blocks of each layout, and each item's rule is its own
    # bits, whatever rows of other widths share its layout
    monkeypatch.setattr(quadrature, "_BLOCK", 256)
    peaks = np.linspace(0.5, 3.0, 13)
    widths = np.where(np.arange(13) % 3 == 2, 0.3, 1e-5)
    layouts, row_widths = [], {}

    def layout(items):
        breaks = peak_breaks(peaks[items], widths[items], 0.0, 4.0, GROW)
        layouts.append((items.tolist(), breaks))
        for k in items:
            row_widths.setdefault(k, []).append(breaks.shape[1])
        return breaks
    runs = list(rule_runs(layout, np.arange(13), 4, 2))
    assert [items for items, _ in layouts] == [
        [0, 1, 2, 3], [4, 5, 6, 7], [8, 9, 10, 11], [12]]
    assert all(len(w) == 1 for w in row_widths.values())
    spans = [(items[0] + a, items[0] + b) for items, breaks in layouts
             for a, b in blocks(4 * np.count_nonzero(np.diff(breaks), axis=1)
                                + 2)]
    assert [(items[0], items[-1] + 1) for items, *_ in runs] == spans
    assert len(spans) > len(layouts)
    assert np.concatenate([items for items, *_ in runs]).tolist() == list(
        range(13))
    for items, nodes, weights, offsets in runs:
        assert offsets[0] == 0 and offsets[-1] == nodes.size == weights.size
        for j, k in enumerate(items):
            own = composite_rules(
                peak_breaks(peaks[k], widths[k], 0.0, 4.0, GROW)[None], 4)
            rule = slice(offsets[j], offsets[j + 1])
            assert nodes[rule].tobytes() == own[0].tobytes()
            assert weights[rule].tobytes() == own[1].tobytes()
    assert list(rule_runs(layout, np.arange(0), 4, 2)) == []
