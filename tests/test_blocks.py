"""The block size of the batched quadratures: every row of the row rule,
every kernel mass, the gl angular integral and the planar convolution are
the same bits at any block size, and a build, a convolution, a slab mass or
a gl ring kernel holds only a few MB of temporaries beyond what it returns.
Refined rows and kernel masses fill their blocks across heights, so a cold
build makes few ring-kernel calls.  The runs' temporaries stay resident on
glibc, so a cold build faults few pages, and the heap's state moves no bit."""

import functools
import os
import pathlib
import platform
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from halfext import extension, quadrature
from halfext.extension import (extend_at, get_operator, kernel_mass,
                               qt_ring, ring_kernel, slab_mass)
from halfext.grids import (PolarFn, PolarGrid, build_radial_grid,
                           default_halfspace_grid, sample_radial)
from halfext.rearrange import planar_convolution


def _rearrange_demo_data():
    # rearrange-demo's 80 x 48 mesh and its two-bump data
    pg = PolarGrid(build_radial_grid(2, 80), 48)
    x, y = pg.points()
    return PolarFn(pg, np.exp(-((x - 1.2) ** 2 + y ** 2) * 3.0)
                   + 0.8 * np.exp(-((x + 1.5) ** 2 + (y - 0.4) ** 2) * 5.0))


def _triples(size, seed):
    # (r, s, t) from the boundary out to the spike: t from 1e-5 to 10, s
    # within a relative 1e-6 to 1 of r
    rng = np.random.default_rng(seed)
    r, t = rng.uniform(0.0, 5.0, size), 10.0 ** rng.uniform(-5.0, 1.0, size)
    s = r * (1.0 + rng.choice([-1.0, 1.0], size)
             * 10.0 ** rng.uniform(-6.0, 0.0, size))
    return r, s, t


def _results(n, N):
    # every batched quadrature of extension.py on one mesh, the operator
    # built anew
    g = build_radial_grid(n - 1, N)
    hs = default_halfspace_grid(g)
    extension._OPERATOR_CACHE.clear()
    op = get_operator(n, g, hs)
    f = sample_radial(g, lambda r: (1 + r ** 2) ** -1.5, tail_exponent=3.0,
                      nonnegative=True)
    rng = np.random.default_rng(37)
    r, t = rng.uniform(0.0, 5.0, 600), 10.0 ** rng.uniform(-4.0, 0.5, 600)
    triple = _triples(600, 43)
    return {"stack": op.matrices, "low": op.low, "polar_rows": op.polar_rows,
            "extend_at": extend_at(f, r, t),
            "kernel_mass": kernel_mass(n, g.nodes, 1e-3),
            "ring_gl": ring_kernel(n, *triple, method="gl"),
            "qt_ring": qt_ring(n, *triple)}


@pytest.mark.parametrize("n, N", [(3, 64), (4, 96), (5, 24)])
def test_results_do_not_depend_on_the_block_size(monkeypatch, n, N):
    # README: a row is the same bits whatever block it is built in; at an
    # eighth of the block size the plain rows, the refined runs across
    # heights, the kernel-mass nodes and the angular nodes all split anew
    monkeypatch.setattr(extension, "_OPERATOR_CACHE", {})
    default = _results(n, N)
    monkeypatch.setattr(quadrature, "_BLOCK", quadrature._BLOCK // 8)
    small = _results(n, N)
    assert small.keys() == default.keys()
    for name, value in default.items():
        assert small[name].tobytes() == value.tobytes(), name


@pytest.mark.parametrize("block", [quadrature._BLOCK, quadrature._BLOCK // 8])
def test_kernel_mass_broadcasts_over_heights(monkeypatch, block):
    # one pass over (t, s) pairs, with runs across heights, is the per-t
    # loop byte for byte; slab_mass sums its rows in node order
    monkeypatch.setattr(quadrature, "_BLOCK", block)
    s = build_radial_grid(2, 96).nodes
    t = np.array([1e-4, 3e-3, 0.05, 0.7, 2.0, 40.0])
    together = kernel_mass(3, s, t[:, None])
    assert together.shape == (t.size, s.size)
    for k in range(t.size):
        assert together[k].tobytes() == kernel_mass(3, s, t[k]).tobytes()
    assert kernel_mass(4, 0.5, t).tobytes() == np.array(
        [kernel_mass(4, 0.5, x)[0] for x in t]).tobytes()


def _ring_kernel_calls(monkeypatch, n, N):
    """(ring-kernel calls of one cold build, heights of its stack)."""
    g = build_radial_grid(n - 1, N)
    hs = default_halfspace_grid(g)
    calls, ring_kernel = [], extension.ring_kernel
    monkeypatch.setattr(extension, "_OPERATOR_CACHE", {})
    monkeypatch.setattr(extension, "ring_kernel",
                        lambda *a: calls.append(1) or ring_kernel(*a))
    get_operator(n, g, hs)
    monkeypatch.setattr(extension, "ring_kernel", ring_kernel)
    return len(calls), hs.heights.size


def test_cold_builds_fill_their_blocks(monkeypatch):
    # refined rows go in runs of _BLOCK nodes across heights, with at most
    # one partial run per layout of _BLOCK // 64 rows: 270 calls at n=3
    # N=224, far below the 394 of runs inside one height.  Plain rows keep
    # one call per height, which the benchmark's own tests count at N=16
    calls, _ = _ring_kernel_calls(monkeypatch, 3, 224)
    assert calls <= 270
    calls, heights = _ring_kernel_calls(monkeypatch, 3, 16)
    assert calls >= heights


def test_convolution_does_not_depend_on_the_block_size(monkeypatch):
    # the angle-0 kernel is filled in blocks and applied in one GEMM
    f = _rearrange_demo_data()
    default = planar_convolution(f, 0.8).values
    monkeypatch.setattr(quadrature, "_BLOCK", quadrature._BLOCK // 8)
    small = planar_convolution(f, 0.8).values
    assert small.tobytes() == default.tobytes()


def _transient_mb(call) -> float:
    """MB that ``call`` holds at its peak beyond what it keeps when done."""
    tracemalloc.start()
    try:
        call()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return (peak - kept) / 2 ** 20


def test_batched_quadratures_bound_their_temporaries(monkeypatch):
    # measured 4.6 MB (n=3 N=160 build), 4.3 MB (rearrange-demo's
    # convolution: its 2.3 MB kernel, 1.4 MB of shifted data and one block)
    # and 2.9 MB (verify-identities' slab masses in one pass over (t, s));
    # without the blocks these take 6.3, 11.8 and 3.5 MB, and laying out
    # every slab pair's breakpoints at once 3.5 MB.  The gl ring kernel
    # holds 3.0 MB on 20 000 triples, 4.6 MB in blocks of 512 entries
    monkeypatch.setattr(extension, "_OPERATOR_CACHE", {})
    g = build_radial_grid(2, 160)
    hs = default_halfspace_grid(g)
    get_operator(3, build_radial_grid(2, 24), default_halfspace_grid(
        build_radial_grid(2, 24)))       # fills the rule caches first
    assert _transient_mb(lambda: get_operator(3, g, hs)) <= 5.0
    f = _rearrange_demo_data()
    assert _transient_mb(lambda: planar_convolution(f, 0.8)) <= 5.3
    fs = [sample_radial(g, fn, tail_exponent=beta, nonnegative=True)
          for fn, beta in (
              (lambda r: (1 + r ** 2) ** -1.5 / (2 * np.pi), 3.0),
              (lambda r: np.exp(-r ** 2) / np.pi, np.inf),
              (lambda r: np.maximum(1 - r ** 2, 0.0) ** 2 * 3 / np.pi,
               np.inf))]
    assert max(_transient_mb(lambda: slab_mass(fs, a))
               for a in (0.3, 0.7, 2.0)) <= 3.2
    triple = _triples(20000, 41)
    assert _transient_mb(lambda: ring_kernel(3, *triple, method="gl")) <= 3.5


# one cold n=3 N=160 stack in a fresh process after ``prelude``: the minor
# page faults of its get_operator call and the sha256 of its stack's halves
_COLD_BUILD = """
import hashlib, resource
import numpy as np
{prelude}
from halfext.extension import get_operator
from halfext.grids import build_radial_grid, default_halfspace_grid
g = build_radial_grid(2, 160)
hs = default_halfspace_grid(g)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
op = get_operator(3, g, hs)
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
digest = hashlib.sha256(op.matrices.tobytes() + op.low.tobytes())
print(faults, digest.hexdigest())
"""


@functools.lru_cache
def _cold_build(prelude: str = "") -> tuple:
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run(
        [sys.executable, "-c", _COLD_BUILD.format(prelude=prelude)],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True)
    faults, digest = out.stdout.split()
    return int(faults), digest


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the fault count is glibc's heap policy")
def test_cold_build_keeps_its_run_temporaries_resident():
    # measured 2 837 minor faults; 16 934 before quadrature.py freed its
    # 2 MiB block, while glibc mapped each run's arrays on their own and
    # trimmed the heap top after it, so every run faulted its pages in anew
    faults, _ = _cold_build()
    assert faults <= 10_000


def test_heap_state_moves_no_bit_of_the_stack():
    # freeing a 16 MiB array first raises glibc's mmap and trim thresholds
    # past the 2 MiB block quadrature.py frees; the stack is the same bytes
    _, plain = _cold_build()
    _, moved = _cold_build("np.empty(1 << 21)")
    assert moved == plain
