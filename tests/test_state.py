"""Two-particle states, reduced kernels, and linear entropy.

The entropy route is cross-checked against two independent computations:
the Schmidt spectrum obtained from an SVD of the weighted amplitude, and a
direct four-index contraction of the purity. Neither shares code with the
reduced-kernel implementation under test.
"""

import math

import numpy as np
import pytest

from xpmsim import (
    DegenerateStateError,
    GridMismatchError,
    NormalizationError,
    ParameterError,
    SystemParams,
    TwoParticleState,
    free_state,
    interaction_grids,
    linear_entropy,
    make_grid,
    make_profile,
    normalize,
    overlap,
    purity,
    reduced_kernel,
    two_particle_copropagating,
)

GAUSS = make_profile("gaussian")


def random_state(n1=61, n2=49, seed=3):
    g1 = make_grid(-6.0, 6.0, n1)
    g2 = make_grid(-5.0, 5.0, n2)
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal((n1, n2)) + 1j * rng.standard_normal((n1, n2))
    # damp the edges so the state looks like a wave packet, not noise
    psi *= np.exp(-g1.nodes[:, None] ** 2 / 8.0) * np.exp(-g2.nodes[None, :] ** 2 / 8.0)
    return normalize(TwoParticleState(g1, g2, psi))


def svd_purity(state):
    """Schmidt purity via SVD of the weight-symmetrized amplitude."""
    a = (np.sqrt(state.grid1.weights)[:, None] * state.psi
         * np.sqrt(state.grid2.weights)[None, :])
    s = np.linalg.svd(a, compute_uv=False)
    p = s**2 / np.sum(s**2)
    return float(np.sum(p**2))


def orthonormal_pair(grid):
    """Two grid-orthonormal functions from Gram-Schmidt on gaussians."""
    u = np.exp(-grid.nodes**2 / 2.0)
    u = u / math.sqrt(float(grid.weights @ u**2))
    v = grid.nodes * np.exp(-grid.nodes**2 / 2.0)
    v = v - u * float(grid.weights @ (u * v))
    v = v / math.sqrt(float(grid.weights @ v**2))
    return u, v


# ------------------------------------------------------------ basics

def test_free_state_norm_and_normalize():
    grids = interaction_grids(GAUSS, GAUSS, 2.5)
    state = free_state(GAUSS, GAUSS, *grids)
    assert not state.normalized
    assert state.norm_squared() == pytest.approx(1.0, abs=1e-9)
    unit = normalize(state)
    assert unit.normalized
    assert unit.norm() == pytest.approx(1.0, abs=1e-14)


def test_state_validation():
    g = make_grid(0.0, 1.0, 5)
    with pytest.raises(ParameterError, match="shape"):
        TwoParticleState(g, g, np.zeros((5, 4)))
    bad = np.zeros((5, 5))
    bad[2, 2] = np.nan
    with pytest.raises(ParameterError, match="non-finite"):
        TwoParticleState(g, g, bad)
    # a complex entry is finite only if both of its parts are
    for part in (1j * np.nan, np.inf):
        bad = np.ones((5, 5), dtype=complex)
        bad[1, 3] += part
        with pytest.raises(ParameterError, match="non-finite"):
            TwoParticleState(g, g, bad)
    # a strided psi is checked on a copy and stored as given
    arr = np.arange(50.0).reshape(5, 10).view(complex)
    flipped = arr[:, ::-1]
    state = TwoParticleState(g, g, flipped)
    assert np.shares_memory(state.psi, arr)
    assert np.array_equal(state.psi, np.arange(50.0).reshape(5, 10).view(complex)[:, ::-1])
    bad = np.ones((5, 10), dtype=complex)
    bad[2, 6] = complex(1.0, np.inf)
    with pytest.raises(ParameterError, match="non-finite"):
        TwoParticleState(g, g, bad[:, ::2])
    with pytest.raises(DegenerateStateError):
        normalize(TwoParticleState(g, g, np.zeros((5, 5))))


def test_overlap_requires_normalized_and_same_grids():
    state = random_state()
    raw = TwoParticleState(state.grid1, state.grid2, 2.0 * state.psi)
    with pytest.raises(NormalizationError):
        overlap(raw, state)
    with pytest.raises(NormalizationError):
        overlap(state, raw)
    other = random_state(n1=62)
    with pytest.raises(GridMismatchError):
        overlap(state, other)
    # stale flag with a drifted norm is also rejected
    stale = TwoParticleState(state.grid1, state.grid2, 1.5 * state.psi,
                             normalized=True)
    with pytest.raises(NormalizationError, match="deviates"):
        overlap(stale, state)


def test_overlap_linearity_and_phase():
    state = random_state()
    assert overlap(state, state) == pytest.approx(1.0 + 0.0j, abs=1e-12)
    rotated = TwoParticleState(state.grid1, state.grid2,
                               np.exp(0.7j) * state.psi, normalized=True)
    amp = overlap(state, rotated)
    assert amp == pytest.approx(np.exp(0.7j), abs=1e-12)


# ----------------------------------------------------- reduced kernels

def test_reduced_kernel_trace_and_hermiticity():
    state = random_state()
    for axis in (0, 1):
        rk = reduced_kernel(state, axis=axis)
        assert rk.trace() == pytest.approx(1.0, abs=1e-12)
        w = rk.weighted_matrix()
        assert np.max(np.abs(w - w.conj().T)) < 1e-12
        ev = rk.eigenvalues()
        assert ev.min() > -1e-10
        assert float(ev.sum()) == pytest.approx(1.0, abs=1e-10)
    with pytest.raises(ParameterError):
        reduced_kernel(state, axis=2)
    with pytest.raises(NormalizationError):
        reduced_kernel(free_state(GAUSS, GAUSS, make_grid(-8, 8, 33)))


def test_purity_axis_symmetry():
    # both partial traces of a pure state share the Schmidt spectrum
    state = random_state()
    p0 = purity(reduced_kernel(state, axis=0))
    p1 = purity(reduced_kernel(state, axis=1))
    assert p0 == pytest.approx(p1, abs=1e-10)
    assert linear_entropy(state) == pytest.approx(1.0 - min(p0, p1), abs=1e-12)


# ------------------------------------------------------ entropy oracles

def test_entropy_agrees_with_svd_spectrum():
    for seed in (3, 4, 5):
        state = random_state(seed=seed)
        assert linear_entropy(state) == pytest.approx(1.0 - svd_purity(state), abs=1e-12)


def test_entropy_agrees_with_four_index_contraction():
    g = make_grid(-5.0, 5.0, 41)
    rng = np.random.default_rng(12)
    psi = rng.standard_normal((41, 41)) + 1j * rng.standard_normal((41, 41))
    psi *= np.exp(-g.nodes[:, None] ** 2 / 6.0 - g.nodes[None, :] ** 2 / 6.0)
    state = normalize(TwoParticleState(g, g, psi))
    w = g.weights
    direct = np.einsum("i,j,k,l,ij,kj,kl,il->", w, w, w, w,
                       state.psi, state.psi.conj(), state.psi, state.psi.conj())
    assert linear_entropy(state) == pytest.approx(1.0 - float(direct.real), abs=1e-10)


def test_product_state_has_zero_entropy():
    grids = interaction_grids(GAUSS, GAUSS, 2.5)
    state = normalize(free_state(GAUSS, GAUSS, *grids))
    assert linear_entropy(state) < 1e-12


def test_balanced_superposition_entropy_is_half():
    g = make_grid(-8.0, 8.0, 161)
    u, v = orthonormal_pair(g)
    psi = (np.outer(u, v) + np.outer(v, u)) / math.sqrt(2.0)
    state = normalize(TwoParticleState(g, g, psi))
    assert linear_entropy(state) == pytest.approx(0.5, abs=1e-10)


def test_two_term_schmidt_entropy_analytic():
    # amplitudes (2, 1) give Schmidt weights (4/5, 1/5), purity 17/25
    g = make_grid(-8.0, 8.0, 161)
    u, v = orthonormal_pair(g)
    psi = 2.0 * np.outer(u, u) + 1.0 * np.outer(v, v)
    state = normalize(TwoParticleState(g, g, psi))
    assert linear_entropy(state) == pytest.approx(1.0 - 17.0 / 25.0, abs=1e-10)


def test_interacting_state_entropy_axes_agree():
    params = SystemParams.copropagating(2.5, 2.0)
    grids = interaction_grids(GAUSS, GAUSS, 2.5)
    state = normalize(two_particle_copropagating(GAUSS, GAUSS, params, *grids))
    s0 = 1.0 - purity(reduced_kernel(state, axis=0))
    s1 = 1.0 - purity(reduced_kernel(state, axis=1))
    assert s0 == pytest.approx(s1, abs=1e-8)
    assert 0.0 < linear_entropy(state) < 1.0
    assert linear_entropy(state) == pytest.approx(1.0 - svd_purity(state), abs=1e-10)
