import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from halfext.grids import build_radial_grid, default_halfspace_grid  # noqa: E402


@pytest.fixture(scope="session")
def boundary3():
    """Shared n=3 boundary mesh (tan rule, reciprocal-closed nodes)."""
    return build_radial_grid(2, 160, "tan", 1.0)


@pytest.fixture(scope="session")
def halfspace3(boundary3):
    """Shared n=3 half-space mesh; operator matrices get cached on first use."""
    return default_halfspace_grid(boundary3)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
