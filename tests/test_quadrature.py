import numpy as np
import pytest

from halfext.quadrature import composite_rule, composite_rules


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
        x, w = composite_rule(breaks, 16,
                              None if scales is None else scales[k])
        seg = slice(offsets[k], offsets[k + 1])
        assert np.array_equal(nodes[seg], x)
        assert np.array_equal(weights[seg], w)


def test_composite_rules_padded_rows_and_shared_tail():
    # a 2-D array of lists padded with their last breakpoint, one tail scale
    padded = np.array([[0.0, 1.0, 2.0, 2.0], [0.0, 3.0, 3.0, 3.0]])
    nodes, weights, offsets = composite_rules(padded, 8, tail_scales=1.5)
    assert list(np.diff(offsets)) == [2 * 8 + 16, 8 + 16]
    for k, row in enumerate(padded):
        x, w = composite_rule(np.unique(row), 8, 1.5)
        assert np.array_equal(nodes[offsets[k]:offsets[k + 1]], x)
        assert np.array_equal(weights[offsets[k]:offsets[k + 1]], w)
