"""Two-particle amplitudes on grids: norms, overlaps, reduced kernels, entropy.

A state psi(z1, z2) is sampled on a pair of quadrature grids (the two axes
may differ in extent and density). All reductions are weighted contractions;
the linear entropy never touches the literal 4-D integral.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateStateError,
    GridMismatchError,
    NormalizationError,
    ParameterError,
)
from .numerics import Grid1D, PulseProfile

__all__ = [
    "ReducedKernel",
    "TwoParticleState",
    "free_state",
    "linear_entropy",
    "normalize",
    "overlap",
    "purity",
    "reduced_kernel",
]

_NORM_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class TwoParticleState:
    """Sampled two-particle amplitude with its quadrature grids."""

    grid1: Grid1D
    grid2: Grid1D
    psi: np.ndarray
    normalized: bool = False

    def __post_init__(self):
        psi = np.asarray(self.psi, dtype=complex)
        object.__setattr__(self, "psi", psi)
        if psi.shape != (self.grid1.n, self.grid2.n):
            raise ParameterError(f"psi shape {psi.shape} does not match grids "
                                 f"({self.grid1.n}, {self.grid2.n})")
        # a complex entry is finite iff both parts are, so the check runs on
        # the float64 view (of a contiguous copy when psi is strided)
        parts = np.ascontiguousarray(psi).view(np.float64)
        if not np.all(np.isfinite(parts)):
            raise ParameterError("psi contains non-finite entries")

    def norm_squared(self) -> float:
        w1, w2 = self.grid1.weights, self.grid2.weights
        return float(w1 @ (np.abs(self.psi) ** 2) @ w2)

    def norm(self) -> float:
        return float(np.sqrt(self.norm_squared()))


def free_state(f1: PulseProfile, f2: PulseProfile,
               grid1: Grid1D, grid2: Grid1D | None = None) -> TwoParticleState:
    """Non-interacting product amplitude f1(z1) f2(z2), sampled in place.

    On co-moving grids this is the reference amplitude at any time.
    """
    if grid2 is None:
        grid2 = grid1
    psi = np.outer(f1(grid1.nodes), f2(grid2.nodes)).astype(complex)
    return TwoParticleState(grid1, grid2, psi)


def normalize(state: TwoParticleState) -> TwoParticleState:
    """Scale to unit norm. Global phase is preserved."""
    nrm = state.norm()
    if nrm < 1e-14:
        raise DegenerateStateError(f"state norm {nrm:.3e} too small to normalize")
    return TwoParticleState(state.grid1, state.grid2, state.psi / nrm, normalized=True)


def _require_normalized(state: TwoParticleState, who: str):
    if not state.normalized:
        raise NormalizationError(f"{who} requires a normalized state")
    nsq = state.norm_squared()
    if abs(nsq - 1.0) > _NORM_TOL:
        raise NormalizationError(f"{who}: squared norm {nsq} deviates from 1")


def overlap(reference: TwoParticleState, state: TwoParticleState) -> complex:
    """Weighted inner product <reference|state>; both inputs must be normalized.

    Its magnitude squared is the fidelity and its argument the conditional
    phase of `state` against `reference`.
    """
    _require_normalized(reference, "overlap")
    _require_normalized(state, "overlap")
    if not (reference.grid1.same_as(state.grid1) and reference.grid2.same_as(state.grid2)):
        raise GridMismatchError("overlap requires both states on the same grids")
    w1, w2 = state.grid1.weights, state.grid2.weights
    return complex(w1 @ (np.conj(reference.psi) * state.psi) @ w2)


@dataclass(frozen=True, eq=False)
class ReducedKernel:
    """One-body kernel rho(z, z') left after tracing out the partner axis."""

    grid: Grid1D
    matrix: np.ndarray

    def trace(self) -> float:
        return float(np.real(self.grid.weights @ np.diag(self.matrix)))

    def weighted_matrix(self) -> np.ndarray:
        """Metric-folded form W^(1/2) rho W^(1/2): Hermitian, unit trace, PSD."""
        s = np.sqrt(self.grid.weights)
        return s[:, None] * self.matrix * s[None, :]

    def eigenvalues(self) -> np.ndarray:
        """Occupation spectrum (descending); sums to the trace."""
        return np.linalg.eigvalsh(self.weighted_matrix())[::-1]


def reduced_kernel(state: TwoParticleState, axis: int = 0) -> ReducedKernel:
    """Partial trace of |psi><psi| over the other axis.

    axis=0 keeps z1: rho(z1, z1') = sum_j w2_j psi(z1, j) conj(psi(z1', j));
    axis=1 keeps z2 analogously. Input must be normalized.
    """
    _require_normalized(state, "reduced_kernel")
    if axis not in (0, 1):
        raise ParameterError(f"axis must be 0 or 1, got {axis}")
    psi = state.psi
    if axis == 0:
        mat = (psi * state.grid2.weights[None, :]) @ np.conj(psi.T)
        grid = state.grid1
    else:
        mat = (psi.T * state.grid1.weights[None, :]) @ np.conj(psi)
        grid = state.grid2
    return ReducedKernel(grid, mat)


def purity(kernel: ReducedKernel) -> float:
    """Tr rho^2 as the doubly weighted contraction sum_ij w_i w_j |rho_ij|^2."""
    w = kernel.grid.weights
    return float(w @ (np.abs(kernel.matrix) ** 2) @ w)


def linear_entropy(state: TwoParticleState) -> float:
    """Linear entropy 1 - Tr rho^2 of the reduced kernel on the smaller axis.

    The two partial traces give identical values (cyclic trace identity), so
    the kernel kept is the smaller one.
    """
    axis = 1 if state.grid2.n <= state.grid1.n else 0
    return float(1.0 - purity(reduced_kernel(state, axis=axis)))
