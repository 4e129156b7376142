"""Gate metrics for pulse pairs moving at a common velocity.

When both photons ride at the same group velocity, the interacting
two-particle amplitude is the free product plus a bandwidth-kernel
correction pinned to the second pulse, and the gate metrics collapse to
closed forms in two overlap coefficients:

    C1 = int dZ1 int dZ2 f1(Z1) f1(Z2) |f2(Z2)|^2 sinc(k0 (Z1 - Z2))
    C2 = int dZ1 int dZ2 |f1(Z2)|^2 |f2(Z2)|^2 sinc(k0 (Z1 - Z2))^2

    tan(theta) = C1 sin(Phi) / (1 - C1 + C1 cos(Phi))
    F = (1 - 4 C1 (1 - C1) sin^2(Phi/2)) / (1 - 4 (C1 - C2) sin^2(Phi/2))

All lengths are in pulse-width units. C1 = 1/2 separates two regimes of
the conditional phase: below it theta(Phi) stays under pi/2 for every
Phi, above it the curve climbs through pi/2 and reaches pi at Phi = pi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AccuracyError,
    CoefficientError,
    DegeneratePhaseError,
    ModeError,
    ParameterError,
    ProfileError,
)
from .numerics import (
    Grid1D,
    PulseProfile,
    SystemParams,
    composite_gauss_grid,
    join_grids,
    make_grid,
    make_profile,
    sinc_kernel,
)
from .state import (
    TwoParticleState,
    free_state,
    linear_entropy,
    normalize,
    overlap,
)

__all__ = [
    "GateMetrics",
    "OverlapCoeffs",
    "compute_C1",
    "compute_C2",
    "conditional_phase",
    "conditional_phase_sweep",
    "entropy_phase_sweep",
    "fidelity_closed_form",
    "grid_metrics_copropagating",
    "interaction_grids",
    "metrics_copropagating",
    "overlap_coefficients",
    "transition_k0",
    "two_particle_copropagating",
]

_COEFF_TOL = 1e-9
_DEGENERATE_EPS = 1e-12


@dataclass(frozen=True)
class OverlapCoeffs:
    """Profile overlap coefficients C1, C2 evaluated at one k0."""

    c1: float
    c2: float
    k0: float
    profile1: str
    profile2: str

    def __post_init__(self):
        if not (self.c1 > 0.0 and self.c2 > 0.0):
            raise CoefficientError(
                f"coefficients must be positive, got C1={self.c1}, C2={self.c2}")
        if self.c2 < self.c1**2 - _COEFF_TOL * max(1.0, self.c1**2):
            raise CoefficientError(
                f"C2={self.c2} < C1^2={self.c1**2}: fidelity would exceed 1")


@dataclass(frozen=True)
class GateMetrics:
    """Fidelity, conditional phase, and (optionally) linear entropy."""

    fidelity: float
    phase: float
    linear_entropy: float | None = None

    def __post_init__(self):
        if not -1e-9 <= self.fidelity <= 1.0 + 1e-9:
            raise ParameterError(f"fidelity {self.fidelity} outside [0, 1]")
        if not math.isfinite(self.phase):
            raise ParameterError("conditional phase must be finite")
        if self.linear_entropy is not None:
            if not -1e-9 <= self.linear_entropy < 1.0:
                raise ParameterError(
                    f"linear entropy {self.linear_entropy} outside [0, 1)")


def _check_coeff_inputs(f1: PulseProfile, f2: PulseProfile, k0: float):
    if k0 <= 0.0:
        raise ParameterError(f"k0 must be positive, got {k0}")
    for i, prof in enumerate((f1, f2), start=1):
        if not prof.is_real:
            raise ProfileError(
                f"profile {i} is complex-valued; the closed-form coefficients "
                "assume real envelopes (use the grid route instead)")
        if abs(prof.norm_squared() - 1.0) > 1e-9:
            raise ProfileError(f"profile {i} is not unit-normalized")


def _coefficient_axis(f1: PulseProfile, f2: PulseProfile, k0: float, n: int,
                      refine: int = 1) -> Grid1D:
    """Piecewise Gauss-Legendre axis resolving both profiles and the kernel.

    Node count grows with k0 * span so the oscillatory kernel stays resolved;
    profile discontinuities become panel boundaries. The refine factor
    multiplies the final count, so a refined axis never coincides with the
    base one even when the k0 floor dominates.
    """
    lo = min(f1.center - f1.support_halfwidth(), f2.center - f2.support_halfwidth())
    hi = max(f1.center + f1.support_halfwidth(), f2.center + f2.support_halfwidth())
    span = hi - lo
    total = refine * max(n, int(math.ceil(0.75 * k0 * span)) + 32)
    cuts = sorted({b for p in (f1, f2) for b in p.breakpoints if lo < b < hi})
    edges = [lo, *cuts, hi]
    pieces = []
    for a, b in zip(edges, edges[1:]):
        pieces.append(make_grid(a, b, max(12, int(math.ceil(total * (b - a) / span))),
                                rule="gauss-legendre"))
    return join_grids(*pieces)


def _c1_on_axis(f1: PulseProfile, f2: PulseProfile, k0: float, axis: Grid1D) -> float:
    # row blocks keep the kernel matrix near 32 MB however large the axis gets
    z, w = axis.nodes, axis.weights
    left = w * np.real(f1(z))
    right = w * np.real(f1(z)) * np.abs(f2(z)) ** 2
    step = max(1, int(4e6) // z.size)
    total = 0.0
    for i in range(0, z.size, step):
        block = sinc_kernel(z[i:i + step, None] - z[None, :], k0)
        total += float(left[i:i + step] @ block @ right)
    return total


def compute_C1(f1: PulseProfile, f2: PulseProfile, k0: float, *,
               n: int = 160, rtol: float = 1e-6) -> float:
    """First overlap coefficient by 2-D quadrature with a resolution check.

    Evaluated at two axis resolutions (n and 2n target nodes); disagreement
    beyond rtol raises an accuracy error carrying both estimates.
    """
    _check_coeff_inputs(f1, f2, k0)
    coarse = _c1_on_axis(f1, f2, k0, _coefficient_axis(f1, f2, k0, n))
    fine = _c1_on_axis(f1, f2, k0, _coefficient_axis(f1, f2, k0, n, refine=2))
    if abs(coarse - fine) > rtol * max(1.0, abs(fine)):
        raise AccuracyError(
            f"C1 quadrature not converged at k0={k0}: {coarse} vs {fine}",
            coarse=coarse, fine=fine)
    return fine


def _c2_on_axis(f1: PulseProfile, f2: PulseProfile, k0: float, axis: Grid1D) -> float:
    z, w = axis.nodes, axis.weights
    dens = np.abs(f1(z)) ** 2 * np.abs(f2(z)) ** 2
    return (math.pi / k0) * float(w @ dens)


def compute_C2(f1: PulseProfile, f2: PulseProfile, k0: float, *,
               n: int = 240, rtol: float = 1e-9) -> float:
    """Second overlap coefficient, diverging as 1/k0 for small k0.

    The integrand depends on Z1 only through the squared kernel, whose full
    line integral is pi/k0; what remains is a 1-D quadrature of
    |f1|^2 |f2|^2, again checked at two resolutions.
    """
    _check_coeff_inputs(f1, f2, k0)
    coarse = _c2_on_axis(f1, f2, k0, _coefficient_axis(f1, f2, k0, n))
    fine = _c2_on_axis(f1, f2, k0, _coefficient_axis(f1, f2, k0, n, refine=2))
    if abs(coarse - fine) > rtol * max(1.0, abs(fine)):
        raise AccuracyError(
            f"C2 quadrature not converged at k0={k0}: {coarse} vs {fine}",
            coarse=coarse, fine=fine)
    return fine


def overlap_coefficients(f1: PulseProfile, f2: PulseProfile, k0: float, *,
                         rtol: float = 1e-6) -> OverlapCoeffs:
    """Bundle C1 and C2 for one (profile pair, k0)."""
    c1 = compute_C1(f1, f2, k0, rtol=rtol)
    c2 = compute_C2(f1, f2, k0)
    return OverlapCoeffs(c1=c1, c2=c2, k0=k0, profile1=f1.label, profile2=f2.label)


def conditional_phase(c1: float, phi: float) -> float:
    """Conditional phase at a single accumulated phase Phi.

    Two-argument arctangent of (C1 sin Phi, 1 - C1 + C1 cos Phi). At
    C1 = 1/2, Phi = pi both arguments vanish and the phase is undefined.
    """
    if c1 <= 0.0:
        raise ParameterError(f"C1 must be positive, got {c1}")
    if phi < 0.0:
        raise ParameterError(f"phi must be non-negative, got {phi}")
    y = c1 * math.sin(phi)
    x = 1.0 - c1 + c1 * math.cos(phi)
    if abs(y) < _DEGENERATE_EPS and abs(x) < _DEGENERATE_EPS:
        raise DegeneratePhaseError(
            f"overlap vanishes at C1={c1}, phi={phi}: phase undefined")
    return math.atan2(y, x)


def conditional_phase_sweep(c1: float, phis: np.ndarray, *,
                            max_step: float = math.pi / 2) -> np.ndarray:
    """Continuity-unwrapped theta(Phi) along an increasing Phi sweep.

    The raw arctangent is unwrapped to the nearest branch; any remaining
    jump of max_step or more means the sweep is too coarse to track the
    branch (or crosses the C1 = 1/2, Phi = pi degeneracy) and raises.
    """
    if c1 <= 0.0:
        raise ParameterError(f"C1 must be positive, got {c1}")
    phis = np.asarray(phis, dtype=float)
    if phis.ndim != 1 or phis.size < 1:
        raise ParameterError("phis must be a non-empty 1-D array")
    if np.any(phis < 0.0):
        raise ParameterError("phi values must be non-negative")
    if phis.size > 1 and not np.all(np.diff(phis) > 0):
        raise ParameterError("phi sweep must be strictly increasing")
    y = c1 * np.sin(phis)
    x = 1.0 - c1 + c1 * np.cos(phis)
    bad = (np.abs(y) < _DEGENERATE_EPS) & (np.abs(x) < _DEGENERATE_EPS)
    if np.any(bad):
        raise DegeneratePhaseError(
            f"overlap vanishes at phi={phis[bad][0]} for C1={c1}")
    theta = np.unwrap(np.arctan2(y, x))
    if theta.size > 1:
        step = np.max(np.abs(np.diff(theta)))
        if step >= max_step:
            raise AccuracyError(
                f"phase step {step:.3g} >= {max_step:.3g} after unwrapping; "
                f"refine the phi sweep (C1={c1})")
    return theta


def fidelity_closed_form(c1: float, c2: float, phi: float) -> float:
    """Gate fidelity from the overlap coefficients.

    Requires C2 >= C1^2 (up to rounding), which keeps the result in [0, 1]
    and the denominator positive.
    """
    if c1 <= 0.0 or c2 <= 0.0:
        raise CoefficientError(f"coefficients must be positive: C1={c1}, C2={c2}")
    if c2 < c1**2 - _COEFF_TOL * max(1.0, c1**2):
        raise CoefficientError(f"C2={c2} < C1^2={c1**2}: inconsistent coefficients")
    s2 = math.sin(0.5 * phi) ** 2
    num = 1.0 - 4.0 * c1 * (1.0 - c1) * s2
    den = 1.0 - 4.0 * (c1 - c2) * s2
    if den <= 0.0:
        raise CoefficientError(
            f"non-positive denominator {den} at C1={c1}, C2={c2}, phi={phi}")
    return min(max(num / den, 0.0), 1.0)


def transition_k0(f1: PulseProfile | None = None, f2: PulseProfile | None = None, *,
                  lo: float = 0.5, hi: float = 6.0, xtol: float = 1e-4,
                  c_target: float = 0.5) -> float:
    """Bandwidth parameter where C1 crosses c_target, located by bisection.

    C1(k0) decreases monotonically for the supported profiles, so the root
    marks the boundary between the two conditional-phase regimes.
    """
    if f1 is None:
        f1 = make_profile("gaussian")
    if f2 is None:
        f2 = make_profile("gaussian")
    if not 0.0 < xtol < 1.0:
        raise ParameterError(f"xtol must be in (0, 1), got {xtol}")

    def gap(k0: float) -> float:
        return compute_C1(f1, f2, k0, rtol=1e-8) - c_target

    g_lo, g_hi = gap(lo), gap(hi)
    if not g_lo > 0.0 > g_hi:
        raise ParameterError(
            f"bracket [{lo}, {hi}] does not straddle C1 = {c_target}: "
            f"gap({lo})={g_lo:.4g}, gap({hi})={g_hi:.4g}")
    # the steps and the stopping rule of scipy.optimize.bisect (rtol = 4 eps),
    # reusing the two bracket evaluations; dm halves every step and xtol > 0,
    # so the loop ends
    xa, dm = float(lo), float(hi) - float(lo)
    rtol = 4.0 * np.finfo(float).eps
    while True:
        dm *= 0.5
        xm = xa + dm
        fm = gap(xm)
        if fm * g_lo >= 0.0:
            xa = xm
        if fm == 0.0 or abs(dm) < xtol + rtol * abs(xm):
            return xm


def interaction_grids(f1: PulseProfile, f2: PulseProfile, k0: float, *,
                      core_halfwidth: float = 10.0, core_n: int = 401,
                      panel_nodes: int = 8, tail_scale: float = 2400.0,
                      tail_cap: float = 6000.0) -> tuple[Grid1D, Grid1D]:
    """Grid pair for the sampled interacting amplitude.

    The second axis only ever sees profile-damped integrands and stays on a
    uniform core window. The first axis also carries the kernel's slowly
    decaying sinc tail (the correction term has no profile factor in Z1),
    so the core is extended by Gauss panels of length pi/k0 out to a radius
    that scales as 1/k0^2, far enough that the truncated |sinc|^2 mass
    cannot move norms or fidelities at the 1e-4 level.
    """
    if core_n < 3:
        raise ParameterError(f"core_n must be at least 3, got {core_n}")
    if k0 <= 0.0:
        raise ParameterError(f"k0 must be positive, got {k0}")
    lo = min(f1.center, f2.center) - core_halfwidth
    hi = max(f1.center, f2.center) + core_halfwidth
    core = make_grid(lo, hi, core_n, rule="uniform")
    radius = min(max(core_halfwidth + 40.0, tail_scale / k0**2), tail_cap)
    mid = 0.5 * (lo + hi)
    plen = math.pi / k0
    n_panels = max(1, int(math.ceil(((mid + radius) - hi) / plen)))
    right = composite_gauss_grid(hi, hi + n_panels * plen, n_panels, panel_nodes)
    left = composite_gauss_grid(lo - n_panels * plen, lo, n_panels, panel_nodes)
    return join_grids(left, core, right), core


def two_particle_copropagating(f1: PulseProfile, f2: PulseProfile,
                               params: SystemParams, grid: Grid1D,
                               grid2: Grid1D | None = None) -> TwoParticleState:
    """Sampled interacting amplitude for equal velocities (co-moving frame).

    psi(Z1, Z2) = f1(Z1) f2(Z2)
                + f1(Z2) f2(Z2) sinc(k0 (Z1 - Z2)) (exp(i Phi) - 1)

    Both profile factors of the correction term sit at Z2; the Z1 dependence
    is carried entirely by the kernel. The result is not normalized.
    """
    if params.mode != "copropagating":
        raise ModeError(
            f"equal velocities required, got v1={params.v1}, v2={params.v2}")
    if grid2 is None:
        grid2 = grid
    z1, z2 = grid.nodes, grid2.nodes
    pair = f1(z2) * f2(z2)
    kernel = sinc_kernel(z1[:, None] - z2[None, :], params.k0)
    psi = np.outer(f1(z1), f2(z2)).astype(complex)
    psi += (np.exp(1j * params.phi) - 1.0) * kernel * pair[None, :]
    return TwoParticleState(grid, grid2, psi)


def metrics_copropagating(f1: PulseProfile, f2: PulseProfile, k0: float,
                          phi: float, *, with_entropy: bool = False,
                          boundary_tol: float = 1e-3, rtol: float = 1e-6,
                          grids: tuple[Grid1D, Grid1D] | None = None) -> GateMetrics:
    """Closed-form fidelity and conditional phase, optional linear entropy.

    Within boundary_tol of the regime boundary C1 = 1/2 the pointwise
    arctangent at Phi near pi is dominated by the sign of (1 - 2 C1), which
    flips across the boundary while the physical curve approaches
    theta = Phi/2 uniformly on [0, pi). Inside that band (and for
    Phi <= pi) the boundary curve itself is reported; pass boundary_tol=0
    to force the raw arctangent everywhere.
    """
    coeffs = overlap_coefficients(f1, f2, k0, rtol=rtol)
    on_boundary = abs(coeffs.c1 - 0.5) <= boundary_tol and phi <= math.pi + 1e-12
    if on_boundary:
        if phi < 0.0:
            raise ParameterError(f"phi must be non-negative, got {phi}")
        theta = 0.5 * phi
    else:
        theta = conditional_phase(coeffs.c1, phi)
    fid = fidelity_closed_form(coeffs.c1, coeffs.c2, phi)
    entropy = None
    if with_entropy:
        if grids is None:
            grids = interaction_grids(f1, f2, k0)
        params = SystemParams.copropagating(k0, phi)
        state = normalize(two_particle_copropagating(f1, f2, params, *grids))
        entropy = linear_entropy(state)
    return GateMetrics(fidelity=fid, phase=theta, linear_entropy=entropy)


def grid_metrics_copropagating(f1: PulseProfile, f2: PulseProfile,
                               params: SystemParams, *,
                               grids: tuple[Grid1D, Grid1D] | None = None,
                               with_entropy: bool = False) -> GateMetrics:
    """Gate metrics from the sampled amplitude and the overlap integral.

    Independent route: no closed forms, only normalization and the weighted
    inner product against the free product state. Supports complex profiles.
    """
    if grids is None:
        grids = interaction_grids(f1, f2, params.k0)
    grid1, grid2 = grids
    reference = normalize(free_state(f1, f2, grid1, grid2))
    out = normalize(two_particle_copropagating(f1, f2, params, grid1, grid2))
    amp = overlap(reference, out)
    entropy = linear_entropy(out) if with_entropy else None
    return GateMetrics(fidelity=min(abs(amp) ** 2, 1.0),
                       phase=math.atan2(amp.imag, amp.real),
                       linear_entropy=entropy)


def entropy_phase_sweep(f1: PulseProfile, f2: PulseProfile, k0: float,
                        phis: np.ndarray, *,
                        grids: tuple[Grid1D, Grid1D] | None = None) -> np.ndarray:
    """Linear entropy of the interacting state across many Phi at one k0.

    The amplitude is affine in alpha = exp(i Phi) - 1, so the reduced
    kernel and the squared norm are assembled from a fixed family of
    contractions computed once per k0; each Phi then costs only O(n^2).
    Matches the direct per-state entropy to rounding.
    """
    phis = np.asarray(phis, dtype=float)
    if phis.ndim != 1 or phis.size < 1:
        raise ParameterError("phis must be a non-empty 1-D array")
    if np.any(phis < 0.0):
        raise ParameterError("phi values must be non-negative")
    if grids is None:
        grids = interaction_grids(f1, f2, k0)
    grid1, grid2 = grids
    z1, w1 = grid1.nodes, grid1.weights
    z2, w2 = grid2.nodes, grid2.weights
    base = np.outer(f1(z1), f2(z2)).astype(complex)
    corr = (sinc_kernel(z1[:, None] - z2[None, :], k0)
            * (f1(z2) * f2(z2))[None, :]).astype(complex)

    def kernel_part(u: np.ndarray, v: np.ndarray) -> np.ndarray:
        # reduced kernel over axis 2: rho[a, b] = sum_i w1_i u(i, a) conj(v(i, b))
        return (u.T * w1[None, :]) @ np.conj(v)

    k_bb = kernel_part(base, base)
    k_gb = kernel_part(corr, base)
    k_bg = kernel_part(base, corr)
    k_gg = kernel_part(corr, corr)
    n_bb = float(w1 @ np.abs(base) ** 2 @ w2)
    n_gg = float(w1 @ np.abs(corr) ** 2 @ w2)
    n_bg = complex(w1 @ (base * np.conj(corr)) @ w2)

    out = np.empty(phis.size)
    for i, phi in enumerate(phis):
        alpha = np.exp(1j * phi) - 1.0
        rho = k_bb + alpha * k_gb + np.conj(alpha) * k_bg + abs(alpha) ** 2 * k_gg
        nsq = n_bb + 2.0 * (np.conj(alpha) * n_bg).real + abs(alpha) ** 2 * n_gg
        pur = float(w2 @ np.abs(rho) ** 2 @ w2) / nsq**2
        out[i] = 1.0 - pur
    return out
