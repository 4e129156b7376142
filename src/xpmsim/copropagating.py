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

C1 is computed on the k side. The sinc kernel is a box in k,
sinc(k0 x) = (1/2k0) int_{-k0}^{k0} exp(i k x) dk, so on a quadrature axis
C1 = (1/k0) int_0^k0 Re(conj F(k) G(k)) dk with F and G the spectra of
w f1 and w f1 |f2|^2. They are kept as cosine and sine transforms, F =
C_F - i S_F, so Re(conj F G) = C_F C_G + S_F S_G, and are built, as the
head-on k side is, from numerics' cos_sin and real_products: real products
in row blocks that stay on the calling thread. The k integral is
cumulative in k0. Each coefficient axis is memoized with what C1 and C2
keep on it (C1's whole panels, C2's k0-free sum), keyed by both profiles'
defining fields, the axis's node target and its resolution, in one LRU of
_C1_MEMO_SIZE entries; the axis depends on k0 only through its node
target, so a k0 lattice and the transition bisection share one axis and
one spectrum pass per resolution. The panels are built in fixed chunks in
a fixed order, so a value never depends on call history.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .errors import (
    AccuracyError,
    CoefficientError,
    DegeneratePhaseError,
    DegenerateStateError,
    ModeError,
    ParameterError,
    ProfileError,
)
from .numerics import (
    Grid1D,
    PulseProfile,
    SystemParams,
    _converged,
    _gauss_legendre,
    composite_gauss_grid,
    cos_sin,
    gemm_rows,
    join_grids,
    make_grid,
    make_profile,
    profile_key,
    real_products,
    sinc_kernel,
)
from .state import TwoParticleState

__all__ = [
    "GateMetrics",
    "OverlapCoeffs",
    "compute_C1",
    "compute_C2",
    "conditional_phase",
    "conditional_phase_sweep",
    "entropy_phase_sweep",
    "fidelity_closed_form",
    "fidelity_sweep",
    "grid_metrics_copropagating",
    "interaction_grids",
    "metrics_copropagating",
    "overlap_coefficients",
    "transition_k0",
    "two_particle_copropagating",
]

_COEFF_TOL = 1e-9
_DEGENERATE_EPS = 1e-12
_ENTROPY_TOL = 1e-8
_MAX_PHASE_STEP = math.pi / 2  # largest theta step a Phi sweep may take
# half-width of the band around C1 = 1/2 where metrics_copropagating reports theta = Phi/2
_BOUNDARY_TOL = 1e-3
# coefficient axes: the node floor of C1's and the entropy sweep's axis, and
# C2's; each coefficient's two-resolution tolerance (compute_C1's default)
_AXIS_NODES = 160
_C2_AXIS_NODES = 240
_C1_RTOL = 1e-6
_C2_RTOL = 1e-9
# transition_k0's bisection bracket and its absolute tolerance in k0
_TRANSITION_BRACKET = (0.5, 6.0)
_TRANSITION_XTOL = 1e-4
# half-width of interaction_grids' uniform core around the two pulse centres
_CORE_HALFWIDTH = 10.0


@dataclass(frozen=True)
class OverlapCoeffs:
    """Profile overlap coefficients C1, C2 evaluated at one k0."""

    c1: float
    c2: float

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


def _axis_target(f1: PulseProfile, f2: PulseProfile, k0: float, n: int,
                 refine: int) -> tuple[float, float, int]:
    """The coefficient axis's interval [lo, hi] and its target node count.

    The target grows with k0 * span so the oscillatory kernel stays
    resolved; k0 = 0 leaves it at max(n, 32), for an integrand with no
    kernel (C2). The refine factor multiplies the target, so a refined axis
    never coincides with the base one even when the k0 floor dominates.
    The axis depends on k0 only through the target, so every k0 with
    0.75 k0 span + 32 <= n shares one axis.
    """
    lo = min(f1.center - f1.support_halfwidth(), f2.center - f2.support_halfwidth())
    hi = max(f1.center + f1.support_halfwidth(), f2.center + f2.support_halfwidth())
    return lo, hi, refine * max(n, int(math.ceil(0.75 * k0 * (hi - lo))) + 32)


def _coefficient_axis(f1: PulseProfile, f2: PulseProfile, k0: float, n: int,
                      refine: int = 1) -> Grid1D:
    """Composite 8-node Gauss-Legendre axis resolving both profiles and the kernel.

    Profile discontinuities become piece boundaries, and each piece gets
    equal 8-node Gauss panels: at least 12 nodes and its share of the
    target (_axis_target), rounded up to whole panels. Every panel reuses
    the one cached 8-node rule, so no large Legendre eigen-solve is needed
    at any k0.
    """
    lo, hi, total = _axis_target(f1, f2, k0, n, refine)
    span = hi - lo
    cuts = sorted({b for p in (f1, f2) for b in p.breakpoints if lo < b < hi})
    edges = [lo, *cuts, hi]
    pieces = []
    for a, b in zip(edges, edges[1:]):
        nodes = max(12, int(math.ceil(total * (b - a) / span)))
        pieces.append(composite_gauss_grid(a, b, math.ceil(nodes / 8)))
    return join_grids(*pieces)


# k-side C1: 8-node Gauss panels over [0, k0], built _C1_CHUNK panels at a time.
# _C1_MEMO maps (both profiles' profile_key, the axis's node target, refine) to
# an _AxisEntry, least recently used first, at most _C1_MEMO_SIZE entries: C1's
# two resolutions at two node targets (a lattice on the n floor and one k0 past
# it, or two profile pairs) and C2's two, so interleaved C2 calls evict no C1
# spectra
_C1_PANEL_NODES = 8
_C1_CHUNK = 32
_C1_MEMO_SIZE = 6
_C1_MEMO: OrderedDict = OrderedDict()


class _BoxIntegral:
    """Running integral of Re(conj F(k) G(k)) over k >= 0 for one axis and sample pair.

    F and G are the spectra sum_z left(z) exp(-i k z) and the same of right,
    kept as cosine and sine transforms: F = C_F - i S_F, so
    Re(conj F G) = C_F C_G + S_F S_G. The k half-line is cut into panels of
    width h, each integrated by an 8-node Gauss rule. A node a + t is reached
    by angle addition, [cos | sin](a z) turned by [cos | sin](t z):
        cos((a + t) z) = cos(a z) cos(t z) - sin(a z) sin(t z),
        sin((a + t) z) = sin(a z) cos(t z) + cos(a z) sin(t z).
    So the spectra at every a + t are one cos_sin of the a and one
    real_products call against the real (2N, 4 n_t) block of the t (_turned),
    with rows [c | s] v, then [-s | c] v, for c, s = cos, sin(t z) and
    v = left, right. Panel j's nodes are j h + t_q: the block of the t_q is
    built once, and a chunk of _C1_CHUNK panels turns its panel starts by
    it. The partial panel of up_to has nodes of its own, which are turned by
    the block of its one start. Chunks start at multiples of _C1_CHUNK and
    are appended in order, so the prefix sums do not depend on which k0
    asked for them first.
    """

    def __init__(self, z: np.ndarray, left: np.ndarray, right: np.ndarray, h: float):
        self._z, self._h, self._pair = z, h, np.stack([left, right])
        self._x, self._g = _gauss_legendre(_C1_PANEL_NODES)
        self._turn = self._turned(0.5 * h * (1.0 + self._x))
        # prefix[m]: the integral over [0, m h]
        self._prefix = np.zeros(1)

    def _turned(self, t: np.ndarray) -> np.ndarray:
        """The (2N, 4 n_t) block of the turns t; columns run over v, cosine or sine, t."""
        # axes: v, cosine or sine, t, z
        c_s = self._pair[:, None, None, :] * cos_sin(t, self._z).reshape(
            t.size, 2, -1).swapaxes(0, 1)
        # the transposed block: [c | s] v along z, then [-s | c] v
        return np.concatenate([c_s, c_s[:, ::-1] * np.array([-1.0, 1.0])[:, None, None]],
                              axis=3).reshape(-1, 2 * self._z.size).T.copy()

    def _products(self, a: np.ndarray, turn: np.ndarray) -> np.ndarray:
        """Re(conj F G) at each a turned by each t of turn, shape (a, n_t)."""
        f, g = real_products(cos_sin(a, self._z), turn, np.empty(
            (a.size, turn.shape[1]))).reshape(a.size, 2, 2, -1).swapaxes(0, 1)
        return (f * g).sum(axis=1)

    def _extend(self, panels: int) -> None:
        while self._prefix.size <= panels:
            k = self._h * (self._prefix.size - 1 + np.arange(_C1_CHUNK))
            panel = self._products(k, self._turn) @ (0.5 * self._h * self._g)
            self._prefix = np.concatenate([self._prefix, self._prefix[-1] + np.cumsum(panel)])

    def up_to(self, k0: float) -> float:
        """The integral over [0, k0]: whole panels from the prefix, the rest fresh."""
        m = math.floor(k0 / self._h)
        self._extend(m)
        half = 0.5 * (k0 - m * self._h)
        rest = self._products(half * (1.0 + self._x), self._turned(np.array([m * self._h])))
        return float(self._prefix[m]) + half * float(self._g @ rest[:, 0])


class _AxisEntry:
    """One coefficient axis of a profile pair, with what C1 and C2 keep on it.

    C1's _BoxIntegral and C2's k0-free sum of w |f1|^2 |f2|^2 are built on
    their first call, so an axis that only C2 or the entropy sweep reads
    never takes C1's spectra.
    """

    def __init__(self, f1: PulseProfile, f2: PulseProfile, axis: Grid1D, refine: int):
        self.f1, self.f2, self.axis, self.refine = f1, f2, axis, refine
        self._box: _BoxIntegral | None = None
        self._c2_sum: float | None = None

    def c1(self, k0: float) -> float:
        if self._box is None:
            # sinc(k0 u) = (1/2k0) int_{-k0}^{k0} exp(i k u) dk turns the double
            # sum sum a(z) b(z') sinc(k0 (z - z')) into (1/k0) int_0^k0 Re(conj F G) dk;
            # z - z' stays inside (-span, span), so a panel of pi/span holds at
            # most half a period of the integrand
            z, w = self.axis.nodes, self.axis.weights
            left = w * np.real(self.f1(z))
            right = left * np.abs(self.f2(z)) ** 2
            h = math.pi / (self.refine * (self.axis.hi - self.axis.lo))
            self._box = _BoxIntegral(z, left, right, h)
        return self._box.up_to(k0) / k0

    def c2(self, k0: float) -> float:
        # the squared kernel's line integral pi/k0 is the only k0 in C2
        if self._c2_sum is None:
            z, w = self.axis.nodes, self.axis.weights
            self._c2_sum = float(w @ (np.abs(self.f1(z)) ** 2 * np.abs(self.f2(z)) ** 2))
        return (math.pi / k0) * self._c2_sum


def _axis_entry(f1: PulseProfile, f2: PulseProfile, k0: float, n: int,
                refine: int) -> _AxisEntry:
    """The memoized _AxisEntry of _coefficient_axis(f1, f2, k0, n, refine), built on a miss.

    The key is both profiles' defining fields (profile_key), the axis's node
    target and refine, which fix the axis, the samples and C1's panel width:
    an equal profile hits however it was built, and a table edited in place
    misses.
    """
    key = (profile_key(f1), profile_key(f2), _axis_target(f1, f2, k0, n, refine)[2], refine)
    entry = _C1_MEMO.get(key)
    if entry is None:
        entry = _C1_MEMO[key] = _AxisEntry(
            f1, f2, _coefficient_axis(f1, f2, k0, n, refine), refine)
        if len(_C1_MEMO) > _C1_MEMO_SIZE:
            _C1_MEMO.popitem(last=False)
    else:
        _C1_MEMO.move_to_end(key)
    return entry


def compute_C1(f1: PulseProfile, f2: PulseProfile, k0: float, *,
               rtol: float = _C1_RTOL) -> float:
    """First overlap coefficient as a k-box integral, with a resolution check.

    On a coefficient axis with weights w, the sinc identity
    sinc(k0 x) = (1/2k0) int_{-k0}^{k0} exp(i k x) dk turns C1's double sum
    into C1 = (1/k0) int_0^k0 Re(conj F(k) G(k)) dk, where F and G are the
    spectra of w f1 and w f1 |f2|^2 on the axis. The k integral runs over
    8-node Gauss panels of width pi/span (pi/(2 span) on the refined
    axis). The axis and the prefix sums of whole panels are memoized
    (_axis_entry) per profile pair, axis node target and resolution, in an
    LRU of _C1_MEMO_SIZE entries shared with C2; so every k0 of a lattice
    or a bisection on the same axis reuses one axis and one spectrum pass,
    and only the partial panel up to k0 is new. The panels are built in
    fixed chunks in a fixed order, so a value never depends on which calls
    came before. Evaluated at two axis resolutions (at least _AXIS_NODES
    and twice that many target nodes); disagreement beyond rtol raises an
    accuracy error carrying both estimates.
    """
    _check_coeff_inputs(f1, f2, k0)
    coarse, fine = (_axis_entry(f1, f2, k0, _AXIS_NODES, r).c1(k0) for r in (1, 2))
    return _converged("C1 quadrature", coarse, fine, rtol, max(1.0, abs(fine)),
                      at=f" at k0={k0}")


def compute_C2(f1: PulseProfile, f2: PulseProfile, k0: float) -> float:
    """Second overlap coefficient, diverging as 1/k0 for small k0.

    The integrand depends on Z1 only through the squared kernel, whose full
    line integral is pi/k0; what remains is a 1-D quadrature of
    |f1|^2 |f2|^2, checked at two resolutions (_C2_AXIS_NODES and twice
    that many nodes) to _C2_RTOL at every call. That integrand carries no
    kernel, so its axis resolves the profiles only and does not grow with
    k0: the sum on each axis is memoized with C1's entries (_axis_entry,
    per profile pair, node target and resolution, at most _C1_MEMO_SIZE
    entries), and C2(k0) is pi/k0 times it.
    """
    _check_coeff_inputs(f1, f2, k0)
    coarse, fine = (_axis_entry(f1, f2, 0.0, _C2_AXIS_NODES, r).c2(k0) for r in (1, 2))
    return _converged("C2 quadrature", coarse, fine, _C2_RTOL, max(1.0, abs(fine)),
                      at=f" at k0={k0}")


def overlap_coefficients(f1: PulseProfile, f2: PulseProfile, k0: float) -> OverlapCoeffs:
    """Bundle C1 and C2 for one (profile pair, k0), each at its own tolerance."""
    return OverlapCoeffs(c1=compute_C1(f1, f2, k0), c2=compute_C2(f1, f2, k0))


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


def conditional_phase_sweep(c1: float, phis: np.ndarray) -> np.ndarray:
    """Continuity-unwrapped theta(Phi) along an increasing Phi sweep.

    The raw arctangent is unwrapped to the nearest branch; any remaining
    jump of pi/2 or more means the sweep is too coarse to track the
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
        if step >= _MAX_PHASE_STEP:
            raise AccuracyError(
                f"phase step {step:.3g} >= {_MAX_PHASE_STEP:.3g} after unwrapping; "
                f"refine the phi sweep (C1={c1})")
    return theta


def fidelity_sweep(c1: float, c2: float, phis) -> np.ndarray:
    """Gate fidelity from the overlap coefficients at each Phi of a sequence.

    Requires C2 >= C1^2 (up to rounding), which keeps the result in [0, 1]
    and the denominator positive; a non-positive denominator raises at the
    first Phi that gives one. sin^2(Phi/2) is taken by math.sin per Phi,
    and the rest is row arithmetic in the order of the scalar formula, so
    each entry is the bits of fidelity_closed_form at that Phi.
    """
    if c1 <= 0.0 or c2 <= 0.0:
        raise CoefficientError(f"coefficients must be positive: C1={c1}, C2={c2}")
    if c2 < c1**2 - _COEFF_TOL * max(1.0, c1**2):
        raise CoefficientError(f"C2={c2} < C1^2={c1**2}: inconsistent coefficients")
    s2 = np.array([math.sin(0.5 * phi) ** 2 for phi in phis])
    num = 1.0 - 4.0 * c1 * (1.0 - c1) * s2
    den = 1.0 - 4.0 * (c1 - c2) * s2
    bad = np.flatnonzero(den <= 0.0)
    if bad.size:
        i = bad[0]
        raise CoefficientError(
            f"non-positive denominator {den[i]} at C1={c1}, C2={c2}, phi={phis[i]}")
    return np.minimum(np.maximum(num / den, 0.0), 1.0)


def fidelity_closed_form(c1: float, c2: float, phi: float) -> float:
    """Gate fidelity from the overlap coefficients at one Phi (fidelity_sweep)."""
    return float(fidelity_sweep(c1, c2, [phi])[0])


def transition_k0(f1: PulseProfile | None = None, f2: PulseProfile | None = None) -> float:
    """Bandwidth parameter where C1 crosses 1/2, located by bisection.

    C1(k0) decreases monotonically for the supported profiles, so the root
    marks the boundary between the two conditional-phase regimes. The
    bracket is _TRANSITION_BRACKET and the root is found to
    _TRANSITION_XTOL in k0.
    """
    if f1 is None:
        f1 = make_profile("gaussian")
    if f2 is None:
        f2 = make_profile("gaussian")
    lo, hi = _TRANSITION_BRACKET

    def gap(k0: float) -> float:
        return compute_C1(f1, f2, k0, rtol=1e-8) - 0.5

    g_lo, g_hi = gap(lo), gap(hi)
    if not g_lo > 0.0 > g_hi:
        raise ParameterError(
            f"bracket [{lo}, {hi}] does not straddle C1 = 0.5: "
            f"gap({lo})={g_lo:.4g}, gap({hi})={g_hi:.4g}")
    # the steps and the stopping rule of scipy.optimize.bisect (rtol = 4 eps),
    # reusing the two bracket evaluations; dm halves every step and the xtol
    # is positive, so the loop ends
    xa, dm = float(lo), float(hi) - float(lo)
    rtol = 4.0 * np.finfo(float).eps
    while True:
        dm *= 0.5
        xm = xa + dm
        fm = gap(xm)
        if fm * g_lo >= 0.0:
            xa = xm
        if fm == 0.0 or abs(dm) < _TRANSITION_XTOL + rtol * abs(xm):
            return xm


def interaction_grids(f1: PulseProfile, f2: PulseProfile, k0: float, *,
                      core_n: int = 401, tail_scale: float = 2400.0) -> tuple[Grid1D, Grid1D]:
    """Grid pair for the sampled interacting amplitude (the oracle route).

    The second axis only ever sees profile-damped integrands and stays on a
    uniform core window, _CORE_HALFWIDTH beyond both pulse centres. The
    first axis also carries the kernel's slowly decaying sinc tail (the
    correction term has no profile factor in Z1), so the core is extended
    by 8-node Gauss panels of length pi/k0 out to a radius tail_scale/k0^2,
    capped at 6000. The truncated |sinc|^2 mass still moves fidelities and
    entropies by up to 2.6e-4 at the defaults, less as tail_scale grows;
    entropy_phase_sweep traces Z1 out exactly instead.
    """
    if core_n < 3:
        raise ParameterError(f"core_n must be at least 3, got {core_n}")
    if k0 <= 0.0:
        raise ParameterError(f"k0 must be positive, got {k0}")
    lo = min(f1.center, f2.center) - _CORE_HALFWIDTH
    hi = max(f1.center, f2.center) + _CORE_HALFWIDTH
    core = make_grid(lo, hi, core_n, rule="uniform")
    radius = min(max(_CORE_HALFWIDTH + 40.0, tail_scale / k0**2), 6000.0)
    mid = 0.5 * (lo + hi)
    plen = math.pi / k0
    n_panels = max(1, int(math.ceil(((mid + radius) - hi) / plen)))
    right = composite_gauss_grid(hi, hi + n_panels * plen, n_panels)
    left = composite_gauss_grid(lo - n_panels * plen, lo, n_panels)
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
                          phi: float, *, with_entropy: bool = False) -> GateMetrics:
    """Closed-form fidelity and conditional phase, optional linear entropy.

    Within 1e-3 of the regime boundary C1 = 1/2 the pointwise arctangent at
    Phi near pi is dominated by the sign of (1 - 2 C1), which flips across
    the boundary while the physical curve approaches theta = Phi/2
    uniformly on [0, pi). Inside that band (and for Phi <= pi) the boundary
    curve itself is reported; conditional_phase gives the raw arctangent.
    """
    coeffs = overlap_coefficients(f1, f2, k0)
    on_boundary = abs(coeffs.c1 - 0.5) <= _BOUNDARY_TOL and phi <= math.pi + 1e-12
    if on_boundary:
        if phi < 0.0:
            raise ParameterError(f"phi must be non-negative, got {phi}")
        theta = 0.5 * phi
    else:
        theta = conditional_phase(coeffs.c1, phi)
    fid = fidelity_closed_form(coeffs.c1, coeffs.c2, phi)
    entropy = None
    if with_entropy:
        entropy = float(entropy_phase_sweep(f1, f2, k0, [phi])[0])
    return GateMetrics(fidelity=fid, phase=theta, linear_entropy=entropy)


# "last": (k0, copies of the samples, sums) of the last _kernel_sums call, one
# tuple replaced whole, so a reader never pairs one call's key with another's sums
_KERNEL_SUMS_MEMO: dict = {}

# _far_sums' bands of |rho|, the separation ratio of a far row, by upper edge.
# A band's rows take the fewest expansion terms whose tails at its edge are at
# most _FAR_TAIL (_far_terms); rows past the last edge take direct products.
_FAR_EDGES = (1 / 256, 1 / 16, 1 / 4, 1 / 2)
_FAR_TAIL = 2.0**-54


def _far_terms(edge: float) -> int:
    """Fewest terms N of _far_sums' two expansions with tails at |rho| = edge within _FAR_TAIL.

    With |u| <= 1 the terms from N on of sum rho^n u^n add up to at most
    rho^N / (1 - rho), and those of sum (n + 1) rho^n u^n to at most
    rho^N (N + 1 - N rho) / (1 - rho)^2, for rho = edge; N is the first count
    that takes both to _FAR_TAIL or below.
    """
    n = 1
    while max(edge**n / (1.0 - edge),
              edge**n * (n + 1 - n * edge) / (1.0 - edge) ** 2) > _FAR_TAIL:
        n += 1
    return n


_FAR_TERMS = tuple(_far_terms(edge) for edge in _FAR_EDGES)


def _powers(x: np.ndarray, n: int) -> np.ndarray:
    """x^0, ..., x^(n-1) as the rows of an (n, x.size) array, by running products."""
    out = np.empty((n, x.size))
    out[0] = 1.0
    # row by row: multiply.accumulate over axis 0 took nine times as long
    for i in range(1, n):
        np.multiply(out[i - 1], x, out=out[i])
    return out


def _far_sums(z1: np.ndarray, left: np.ndarray, w1: np.ndarray, z2: np.ndarray,
              right: np.ndarray, dens: np.ndarray, k0: float) -> tuple[complex, float]:
    """The two sums of _kernel_sums over rows z1 at least 1/k0 outside z2's range.

    There K = (s1 c2 - c1 s2) R / k0, with s, c = sin, cos(k0 z) and the
    Cauchy matrix R = 1/(z1 - z2), so the sums regroup exactly as
        <F, Kp>  = (1/k0) sum_i left_i [s1 (R (c2 right)) - c1 (R (s2 right))]_i,
        <Kp, Kp> = (1/k0^2) sum_i w1_i [s1^2 (R^2 (c2^2 dens))
                   - 2 s1 c1 (R^2 (s2 c2 dens)) + c1^2 (R^2 (s2^2 dens))]_i.
    Most rows apply R and R^2 to those seven columns without forming R, by
    the far-field step of the fast multipole method (Greengard & Rokhlin,
    J. Comput. Phys. 73, 325, 1987). With z2's range c +- L, d = z1 - c,
    u = (z2 - c)/L in [-1, 1] and a row's separation ratio rho = L/d,
        R = (1/d) sum_n rho^n u^n,  R^2 = (1/d^2) sum_n (n + 1) rho^n u^n.
    The columns' moments sum_j cols_j u_j^n are taken once per call. A row
    with |rho| <= 1/2 is then a product of its powers rho^n with them, cut
    after the term count of the band of |rho| it falls in (_FAR_EDGES,
    _far_terms: 8, 15, 30 and 61 terms up to 1/256, 1/16, 1/4 and 1/2), so
    its cut drops at most 2^-54 of sum_j |cols_j| / |d| (/ d^2 for R^2).
    The few rows with |rho| > 1/2 take R itself, in row blocks. Every
    product is sized by gemm_rows or is a numerics real product, so no
    kernel sample is built and OpenBLAS keeps every product on the calling
    thread. Since |k0 (z1 - z2)| >= 1 on these rows, the absolute error of
    sin(k0 z1), of the order of the rounding of k0 z1, is that of the direct
    argument k0 (z1 - z2), and the division by it cannot amplify that error.
    """
    s2, c2 = np.sin(k0 * z2), np.cos(k0 * z2)
    cols = np.stack([c2 * right.real, c2 * right.imag, s2 * right.real, s2 * right.imag,
                     c2 * c2 * dens, s2 * c2 * dens, s2 * s2 * dens], axis=1)
    lo, hi = z2.min(), z2.max()
    centre, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    d = z1 - centre
    rho = half / d
    band = np.searchsorted(_FAR_EDGES, np.abs(rho))
    u = (z2 - centre) / half if half > 0.0 else np.zeros_like(z2)
    most = _FAR_TERMS[-1]
    moments = real_products(_powers(u, most), cols, np.empty((most, 7)))
    moments[:, 4:] *= np.arange(1.0, most + 1.0)[:, None]
    # one column per row: the scalings by 1/d and the contraction run on
    # contiguous rows of sums
    sums = np.empty((7, z1.size))
    for b, terms in enumerate(_FAR_TERMS):
        rows = np.flatnonzero(band == b)
        powers = _powers(rho[rows], terms)
        step = gemm_rows(7 * terms)
        for i in range(0, rows.size, step):
            sums[:, rows[i:i + step]] = moments[:terms].T @ powers[:, i:i + step]
    sums[:4] /= d
    sums[4:] /= np.square(d)
    direct = np.flatnonzero(band == len(_FAR_EDGES))
    step = gemm_rows(4 * z2.size)
    for i in range(0, direct.size, step):
        rows = direct[i:i + step]
        inv = np.subtract.outer(z1[rows], z2)
        np.reciprocal(inv, out=inv)
        sums[:4, rows] = (inv @ cols[:, :4]).T
        np.square(inv, out=inv)
        sums[4:, rows] = (inv @ cols[:, 4:]).T
    s1, c1 = np.sin(k0 * z1), np.cos(k0 * z1)
    k_right = s1 * sums[:2] - c1 * sums[2:4]
    free_corr = complex(np.einsum("i,i->", left, k_right[0] + 1j * k_right[1])) / k0
    trig = np.stack([s1 * s1, -2.0 * s1 * c1, c1 * c1])
    return free_corr, float(np.einsum("i,ji,ji->", w1, trig, sums[4:])) / k0**2


def _kernel_sums(k0: float, samples: tuple) -> tuple[complex, float]:
    """<F, Kp> and <Kp, Kp> of grid_metrics_copropagating, memoized for one key.

    samples is (z1, w1, z2, w2, f1(z1), f2(z2), p): with k0, everything the
    two sums depend on. A call whose k0 and samples equal the last call's,
    value for value and dtype for dtype, returns the last sums without
    sampling K; any other call samples K and becomes the memo. The key holds
    copies, so a grid edited in place afterwards misses.

    Rows of K at least 1/k0 outside z2's range (the sinc tail of
    interaction_grids, nearly all of K) take no kernel samples: their sums
    come from the Cauchy matrix 1/(z1 - z2), mostly as a truncated multipole
    expansion in each row's separation ratio (_far_sums). The other rows take
    sinc_kernel, whose small-argument series they may need, in row blocks
    sized by numerics.gemm_rows; a grid pair with no far row gives
    sinc_kernel's bits.
    """
    last = _KERNEL_SUMS_MEMO.get("last")
    if last is not None and last[0] == k0 and all(
            h.dtype == x.dtype and np.array_equal(h, x) for h, x in zip(last[1], samples)):
        return last[2]
    z1, w1, z2, w2, a1, b2, pair = samples
    left = w1 * np.conj(a1)
    right = w2 * np.conj(b2) * pair
    dens = w2 * np.abs(pair) ** 2
    reach = 1.0 / k0
    far = (z1 <= z2.min() - reach) | (z1 >= z2.max() + reach)
    # K is real: apply it to the real and imaginary parts of w2 conj(f2) p,
    # then square it in place and apply it to w2 |p|^2
    cols = np.stack([right.real, right.imag], axis=1)
    near_z1, near_left, near_w1 = z1[~far], left[~far], w1[~far]
    free_corr = 0j
    corr_nsq = 0.0
    step = gemm_rows(2 * z2.size)
    for i in range(0, near_z1.size, step):
        block = sinc_kernel(near_z1[i:i + step, None] - z2[None, :], k0)
        applied = block @ cols
        free_corr += near_left[i:i + step] @ (applied[:, 0] + 1j * applied[:, 1])
        np.square(block, out=block)
        corr_nsq += float(near_w1[i:i + step] @ (block @ dens))
    if far.any():
        far_corr, far_nsq = _far_sums(z1[far], left[far], w1[far], z2, right, dens, k0)
        free_corr += far_corr
        corr_nsq += far_nsq
    _KERNEL_SUMS_MEMO["last"] = (k0, tuple(np.array(x, copy=True) for x in samples),
                                 (free_corr, corr_nsq))
    return free_corr, corr_nsq


def grid_metrics_copropagating(f1: PulseProfile, f2: PulseProfile,
                               params: SystemParams, *,
                               grids: tuple[Grid1D, Grid1D] | None = None) -> GateMetrics:
    """Gate metrics from the sampled amplitude and the overlap integral.

    The sampled amplitude of two_particle_copropagating is linear in
    alpha = exp(i Phi) - 1: psi = F + alpha K p, with the free product
    F = f1(Z1) f2(Z2), the kernel samples K = sinc(k0 (Z1 - Z2)) and
    p = f1(Z2) f2(Z2). Its weighted overlap with F and its squared norm
    therefore need only three Phi-independent sums on the same grids,
        <F, F>   = (w1 |f1|^2) (w2 |f2|^2),
        <F, Kp>  = (w1 conj(f1))^T K (w2 conj(f2) p),
        <Kp, Kp> = (w1^T K^2) (w2 |p|^2),
    as <F, psi> = <F, F> + alpha <F, Kp> and
    |psi|^2 = <F, F> + 2 Re(alpha <F, Kp>) + |alpha|^2 <Kp, Kp>; then
    F = |<F, psi>|^2 / (<F, F> |psi|^2) and theta = arg <F, psi>. These are
    the quadrature sums of normalize and overlap on the sampled state,
    regrouped: no n1 x n2 state is kept, and no closed form or overlap
    coefficient enters, so the route stays independent of C1 and C2. K's
    rows at least 1/k0 outside Z2's range, nearly all of K on the default
    grids, take no kernel samples: there K = sin(k0 (Z1 - Z2)) / (k0 (Z1 - Z2))
    splits by angle addition into sines and cosines of k0 Z1 and k0 Z2 and
    the Cauchy matrix 1/(Z1 - Z2). That matrix is applied, on all but the
    rows nearest Z2's range, as a truncated multipole expansion in the row's
    separation ratio: a few moments of Z2's columns per row in place of n2
    columns (_far_sums). The other rows sample K at the nodes of
    two_particle_copropagating (sinc_kernel). The two K sums do not depend
    on Phi, and the last pair is memoized (_kernel_sums): a call that
    repeats the last call's k0, both grids' nodes and weights, and the
    samples f1(Z1), f2(Z2) and p does O(n1 + n2) work. A grid edited in
    place, another profile or another k0 samples K again. The input and norm
    checks and the clamp F <= 1 run on every call. Supports complex profiles.
    """
    if params.mode != "copropagating":
        raise ModeError(
            f"equal velocities required, got v1={params.v1}, v2={params.v2}")
    if grids is None:
        grids = interaction_grids(f1, f2, params.k0)
    grid1, grid2 = grids
    z1, w1 = grid1.nodes, grid1.weights
    z2, w2 = grid2.nodes, grid2.weights
    a1, b2 = f1(z1), f2(z2)
    pair = f1(z2) * b2
    alpha = np.exp(1j * params.phi) - 1.0
    if not (np.isfinite(alpha) and all(np.all(np.isfinite(v)) for v in (a1, b2, pair))):
        raise ParameterError("psi contains non-finite entries")
    free_corr, corr_nsq = _kernel_sums(params.k0, (z1, w1, z2, w2, a1, b2, pair))
    free_nsq = (float(np.einsum("i,i->", w1, np.abs(a1) ** 2))
                * float(np.einsum("i,i->", w2, np.abs(b2) ** 2)))
    amp = free_nsq + alpha * free_corr
    out_nsq = free_nsq + 2.0 * (alpha * free_corr).real + abs(alpha) ** 2 * corr_nsq
    for nsq in (free_nsq, out_nsq):
        if nsq < 1e-28:
            raise DegenerateStateError(
                f"state norm {math.sqrt(max(nsq, 0.0)):.3e} too small to normalize")
    return GateMetrics(fidelity=min(abs(amp) ** 2 / (free_nsq * out_nsq), 1.0),
                       phase=math.atan2(amp.imag, amp.real))


def _entropy_sweep_on_axis(f1: PulseProfile, f2: PulseProfile, k0: float,
                           phis: np.ndarray, axis: Grid1D) -> np.ndarray:
    z, w = axis.nodes, axis.weights
    a1, a2 = f1(z), f2(z)
    pair = a1 * a2
    dens = w * np.abs(pair) ** 2
    # sinc applied to w f1 (giving g, as sinc is symmetric) and to w p conj(f2),
    # in row blocks sized by numerics.gemm_rows
    vecs = np.stack([w * a1, w * pair * np.conj(a2)], axis=1)
    applied = np.empty_like(vecs)
    sinc_sq = 0.0
    step = gemm_rows(2 * z.size)
    for i in range(0, z.size, step):
        block = sinc_kernel(z[i:i + step, None] - z[None, :], k0)
        applied[i:i + step] = block @ vecs
        sinc_sq += float(dens[i:i + step] @ block ** 2 @ dens)
    u = pair * np.conj(applied[:, 0])
    # blocks 1-3 are x y^H with these (x, y); block 4 is K = (pi/k0) (p p^H) o sinc
    xs = np.stack([float(w @ np.abs(a1) ** 2) * a2, u, a2], axis=1)
    ys = np.stack([a2, a2, u], axis=1)
    gram = np.empty((4, 4), dtype=complex)
    gram[:3, :3] = (((xs * w[:, None]).T @ np.conj(xs))
                    * ((np.conj(ys) * w[:, None]).T @ ys))
    # <x f2^H, K> for blocks 1 and 2; block 3 is block 2^H, so its entry is the conjugate
    gram[:2, 3] = (math.pi / k0) * ((xs[:, :2] * (w * np.conj(pair))[:, None]).T
                                    @ applied[:, 1])
    gram[2, 3] = np.conj(gram[1, 3])
    gram[3, :3] = np.conj(gram[:3, 3])
    gram[3, 3] = (math.pi / k0) ** 2 * sinc_sq
    trace = np.append(w @ (xs * np.conj(ys)), (math.pi / k0) * dens.sum())
    alpha = np.exp(1j * phis) - 1.0
    coef = np.stack([np.ones_like(alpha), alpha, np.conj(alpha),
                     np.abs(alpha) ** 2], axis=1)
    pur = np.real(np.einsum("pi,ij,pj->p", coef, gram, np.conj(coef)))
    return 1.0 - pur / np.real(coef @ trace) ** 2


def entropy_phase_sweep(f1: PulseProfile, f2: PulseProfile, k0: float,
                        phis: np.ndarray) -> np.ndarray:
    """Linear entropy of the interacting state across many Phi at one k0.

    Z1 is traced out exactly: with g(b) = int f1(x) sinc(k0 (x - b)) dx,
    p = f1 f2, u = p conj(g) and int sinc(k0 (x - a)) sinc(k0 (x - b)) dx
    = (pi/k0) sinc(k0 (a - b)), the reduced kernel on Z2 is
        rho = |f1|^2 f2 f2^H + alpha u f2^H + conj(alpha) f2 u^H
              + |alpha|^2 (pi/k0) (p p^H) o sinc(k0 (a - b)),
    alpha = exp(i Phi) - 1. Every factor is profile-damped, so the blocks
    live on the coefficient axis, and the purity is a quadratic form in
    (1, alpha, conj(alpha), |alpha|^2) over their 4 x 4 weighted Gram
    matrix: each Phi costs O(1). Evaluated at two axis resolutions;
    disagreement beyond 1e-8 raises an accuracy error.
    """
    phis = np.asarray(phis, dtype=float)
    if phis.ndim != 1 or phis.size < 1:
        raise ParameterError("phis must be a non-empty 1-D array")
    if np.any(phis < 0.0):
        raise ParameterError("phi values must be non-negative")
    coarse, fine = (_entropy_sweep_on_axis(f1, f2, k0, phis,
                                           _axis_entry(f1, f2, k0, _AXIS_NODES, r).axis)
                    for r in (1, 2))
    return _converged("linear entropy", coarse, fine, _ENTROPY_TOL,
                      at=lambda i: f" at k0={k0}, phi={phis[i]}")
