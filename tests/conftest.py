"""Shared test fixtures."""

import math

import pytest

from xpmsim import composite_gauss_grid, interaction_grids, join_grids


def _long_tail_grids(f1, f2, k0, *, core_n=401, tail_scale=2400.0):
    """interaction_grids' core with Z1's sinc tail sampled out to a long radius.

    The grid route adds the squared kernel beyond grid1 in closed form, but a
    sampled state has only its nodes, so tests that sample one carry the tail
    further: Gauss panels of pi/k0 on each side of the core, out to a radius
    tail_scale/k0^2 from the core's middle, at least 50 and at most 6000.
    """
    _, core = interaction_grids(f1, f2, k0, core_n=core_n)
    radius = min(max(50.0, tail_scale / k0**2), 6000.0)
    plen = math.pi / k0
    n = max(1, math.ceil((0.5 * (core.lo + core.hi) + radius - core.hi) / plen))
    left = composite_gauss_grid(core.lo - n * plen, core.lo, n)
    right = composite_gauss_grid(core.hi, core.hi + n * plen, n)
    return join_grids(left, core, right), core


@pytest.fixture(scope="session")
def long_tail_grids():
    """The builder of grid pairs with a long sampled sinc tail (_long_tail_grids)."""
    return _long_tail_grids
