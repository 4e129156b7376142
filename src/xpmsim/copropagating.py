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
# least half-width of interaction_grids' uniform core around each pulse centre
_CORE_HALFWIDTH = 10.0
# interaction_grids' sinc tail: Gauss panels of pi/k0 on each side of the core.
# The grid route adds the rest of sinc^2 in closed form (_sinc2_tail), whose
# _TAIL_TERMS-term series reaches rounding from _TAIL_PANELS pi on; grids
# whose ends fall short of that by more than the relative _TAIL_SLACK raise
_TAIL_PANELS = 7
_TAIL_TERMS = 21
_TAIL_SLACK = 1e-12


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
                      core_n: int = 401) -> tuple[Grid1D, Grid1D]:
    """Grid pair for the sampled interacting amplitude (the oracle route).

    The second axis only ever sees profile-damped integrands and stays on a
    uniform core window that spans each profile's support_halfwidth() and
    at least _CORE_HALFWIDTH around each centre. The first axis also
    carries the kernel's slowly decaying sinc tail (the correction term has
    no profile factor in Z1), so the core is extended by _TAIL_PANELS
    8-node Gauss panels of length pi/k0 on each side. The grid route adds
    the squared kernel's line integral beyond them in closed form
    (_sinc2_tail); a state sampled on these grids (two_particle_copropagating)
    lacks that remainder, so its norm falls short of the closed form's.
    """
    if core_n < 3:
        raise ParameterError(f"core_n must be at least 3, got {core_n}")
    if k0 <= 0.0:
        raise ParameterError(f"k0 must be positive, got {k0}")
    reach = [max(f.support_halfwidth(), _CORE_HALFWIDTH) for f in (f1, f2)]
    lo = min(f.center - r for f, r in zip((f1, f2), reach))
    hi = max(f.center + r for f, r in zip((f1, f2), reach))
    core = make_grid(lo, hi, core_n, rule="uniform")
    tail = _TAIL_PANELS * math.pi / k0
    left = composite_gauss_grid(lo - tail, lo, _TAIL_PANELS)
    right = composite_gauss_grid(hi, hi + tail, _TAIL_PANELS)
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


# "last": (k0, grid1's domain, copies of the samples, sums) of the last
# _kernel_sums call, one tuple replaced whole, so a reader never pairs one
# call's key with another's sums
_KERNEL_SUMS_MEMO: dict = {}


def _sinc2_tail(x: np.ndarray) -> np.ndarray:
    """int_x^inf sin(v)^2 / v^2 dv at each x >= _TAIL_PANELS pi, by the auxiliary functions of Si.

    The integral is sin(x)^2 / x + pi/2 - Si(2x), and with u = 2x,
    pi/2 - Si(u) = f(u) cos(u) + g(u) sin(u), where (Abramowitz & Stegun
    5.2.8, 5.2.34-35)
        f(u) ~ (1/u) sum_n (-1)^n (2n)! / u^(2n),
        g(u) ~ (1/u^2) sum_n (-1)^n (2n+1)! / u^(2n).
    sin(x)^2 / x = (1 - cos u)/u cancels f's leading 1/u in closed form, so
    the integral is (1/u) (1 + cos(u) f_rest + sin(u) g_sum / u), with
    f_rest and g_sum the two sums without their 1/u, 1/u^2 factors and
    f_rest without its n = 0 term. Both series envelope their functions, so
    the first term each leaves out bounds its error: with _TAIL_TERMS terms
    of each, at u = 14 pi the two add up to 2.7e-18 of the integral, and
    they fall as u grows.
    """
    u = 2.0 * np.asarray(x, dtype=float)
    s = 1.0 / (u * u)
    term = np.ones_like(u)
    f_rest = np.zeros_like(u)
    g_sum = np.ones_like(u)
    for n in range(1, _TAIL_TERMS):
        term *= -(2 * n - 1) * (2 * n) * s
        f_rest += term
        g_sum += (2 * n + 1) * term
    return (1.0 + np.cos(u) * f_rest + np.sin(u) * g_sum / u) / u


def _kernel_sums(k0: float, domain: tuple[float, float],
                 samples: tuple) -> tuple[complex, float]:
    """<F, Kp> and <Kp, Kp> of grid_metrics_copropagating, memoized for one key.

    samples is (z1, w1, z2, w2, f1(z1), f2(z2), p) and domain is grid1's
    [lo, hi]: with k0, everything the two sums depend on. A call whose k0,
    domain and samples equal the last call's, value for value and dtype for
    dtype, returns the last sums without sampling K; any other call samples
    K and becomes the memo. The key holds copies, so a grid edited in place
    afterwards misses.

    Every row of K is sampled with sinc_kernel, in row blocks sized by
    numerics.gemm_rows. <Kp, Kp> then gains the squared kernel's line
    integral over Z1 outside [lo, hi], which no grid samples:
    sum_j w2_j |p_j|^2 [T(k0 (hi - z2_j)) + T(k0 (z2_j - lo))] / k0 with
    T = _sinc2_tail. <F, Kp> carries f1(Z1) and gains nothing.
    """
    last = _KERNEL_SUMS_MEMO.get("last")
    if last is not None and last[0] == k0 and last[1] == domain and all(
            h.dtype == x.dtype and np.array_equal(h, x) for h, x in zip(last[2], samples)):
        return last[3]
    z1, w1, z2, w2, a1, b2, pair = samples
    left = w1 * np.conj(a1)
    right = w2 * np.conj(b2) * pair
    dens = w2 * np.abs(pair) ** 2
    # K is real: apply it to the real and imaginary parts of w2 conj(f2) p,
    # then square it in place and apply it to w2 |p|^2
    cols = np.stack([right.real, right.imag], axis=1)
    free_corr = 0j
    corr_nsq = 0.0
    step = gemm_rows(2 * z2.size)
    for i in range(0, z1.size, step):
        block = sinc_kernel(z1[i:i + step, None] - z2[None, :], k0)
        applied = block @ cols
        free_corr += left[i:i + step] @ (applied[:, 0] + 1j * applied[:, 1])
        np.square(block, out=block)
        corr_nsq += float(w1[i:i + step] @ (block @ dens))
    lo, hi = domain
    tails = _sinc2_tail(k0 * (hi - z2)) + _sinc2_tail(k0 * (z2 - lo))
    corr_nsq += float(dens @ tails) / k0
    _KERNEL_SUMS_MEMO["last"] = (k0, domain, tuple(np.array(x, copy=True) for x in samples),
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
    regrouped: no n1 x n2 state is kept, and no gate-metric closed form or
    overlap coefficient enters, so the route stays independent of C1 and C2. K is
    sampled at the nodes of two_particle_copropagating (sinc_kernel), and
    <Kp, Kp> gains the exact line integral of sinc^2 over Z1 beyond grid1's
    domain (_kernel_sums), so grid1 needs only a short sinc tail. That
    closed form holds to rounding only where every Z2 node lies at least
    _TAIL_PANELS pi/k0 inside grid1's domain (to within the rounding of the
    grid ends), as on interaction_grids; grids that do not meet it raise a
    ParameterError. The two K sums do not depend on Phi, and the last pair
    is memoized (_kernel_sums): a call that repeats the last call's k0,
    grid1's domain, both grids' nodes and weights, and the samples f1(Z1),
    f2(Z2) and p does O(n1 + n2) work. A grid edited in place, another
    profile or another k0 samples K again. The input and norm checks and
    the clamp F <= 1 run on every call. Supports complex profiles.
    """
    if params.mode != "copropagating":
        raise ModeError(
            f"equal velocities required, got v1={params.v1}, v2={params.v2}")
    k0 = params.k0
    if grids is None:
        grids = interaction_grids(f1, f2, k0)
    grid1, grid2 = grids
    z1, w1 = grid1.nodes, grid1.weights
    z2, w2 = grid2.nodes, grid2.weights
    inside = k0 * min(grid1.hi - z2[-1], z2[0] - grid1.lo)
    if inside < _TAIL_PANELS * math.pi * (1.0 - _TAIL_SLACK):
        raise ParameterError(
            f"grid1 reaches {inside / k0:.6g} beyond the Z2 nodes, under the "
            f"{_TAIL_PANELS} pi/k0 = {_TAIL_PANELS * math.pi / k0:.6g} its sinc tail needs")
    a1, b2 = f1(z1), f2(z2)
    pair = f1(z2) * b2
    alpha = np.exp(1j * params.phi) - 1.0
    if not (np.isfinite(alpha) and all(np.all(np.isfinite(v)) for v in (a1, b2, pair))):
        raise ParameterError("psi contains non-finite entries")
    free_corr, corr_nsq = _kernel_sums(k0, grid1.domain, (z1, w1, z2, w2, a1, b2, pair))
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
