"""Counter-propagating pulse collisions in the slow-pulse regime.

For relative velocities small against the bandwidth scale (gauge
g(t) = k0 |v_r| t / sigma well below one), every chain factor of the
interaction series collapses to the kernel height kappa = k0/(pi sigma),
and the order-n amplitude reduces to elementary time integrals:

    A(z1', z2', t) = int_0^t C(z2' - z1' - v_r s) ds
    B(z2', t)      = int_0^t f1(z2' - v_r s) ds
    D(z1', z2', t) = int_0^t C(z2' - z1' - v_r s) f1(z2' - v_r s) ds

with z_i' = z_i - v_i t the co-moving offsets and C the commutator
kernel. The n = 1 term is i chi D f2(z2'); each n >= 2 term carries
t^(n-2) A B f2(z2'), so the whole series sums to a closed form in
x = chi kappa t. Everything here works on fixed co-moving grids, where
the free reference is time-independent.

The correction terms depend on z1 only through C, whose range pi/k_s can
dwarf any co-moving window, so the fidelity takes the correction's squared
norm over the whole z1 line: the box kernel obeys
int C(x - a) C(x - b) dx = C(a - b), which turns the z1 integral into a
time-kernel matrix C(v_r (s - s')). The linear entropy traces z1 over the
whole line as well, through C's box in k.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AccuracyError,
    ApproximationWarning,
    GridMismatchError,
    ModeError,
    ParameterError,
    TruncationError,
)
from .numerics import (
    Grid1D,
    PulseProfile,
    SystemParams,
    commutator_kernel,
    composite_gauss_grid,
    make_grid,
)
from .results import Axis, SweepResult
from .state import TwoParticleState, free_state, normalize, overlap
from .copropagating import GateMetrics

__all__ = [
    "CollisionSetup",
    "InteractionTables",
    "collision_entropy",
    "fidelity_evolution",
    "ideal_headon_metrics",
    "series_term",
    "two_particle_headon_closed",
    "two_particle_headon_series",
]

_GAUGE_LIMIT = 0.1
_STOP_TOL = 1e-12
_FAIL_TOL = 1e-6
_SMALL_X = 1e-3
_LINE_RTOL = 1e-8


@dataclass(frozen=True, eq=False)
class CollisionSetup:
    """Geometry, grids, and truncation policy for one collision run.

    Co-moving grids are windows of grid_halfwidth around each pulse center;
    in the offsets z_i' those windows never move, so one grid pair serves
    every time sample. Default time samples span a full pass,
    [0, 2 l / |v_r|]. The gauge g(t) = k0 |v_r| t / sigma monitors the
    slow-pulse approximation and triggers a warning beyond 0.1.
    """

    f1: PulseProfile
    f2: PulseProfile
    params: SystemParams
    times: tuple[float, ...] | None = None
    n_max: int = 40
    grid_halfwidth: float = 10.0
    grid_n: int = 401
    grid1: Grid1D = field(init=False, repr=False)
    grid2: Grid1D = field(init=False, repr=False)

    def __post_init__(self):
        if self.params.mode != "headon":
            raise ModeError("collision setup needs distinct velocities")
        sep = abs(self.f2.center - self.f1.center)
        if abs(sep - self.params.separation) > 1e-9 * max(1.0, sep):
            raise ParameterError(
                f"profile centers are {sep} apart but params.separation is "
                f"{self.params.separation}")
        if sep > 0.0:
            closing = (self.f2.center - self.f1.center) * self.params.v_r
            if closing <= 0.0:
                raise ParameterError(
                    "pulses must approach each other (center order and "
                    "velocity signs disagree)")
        if self.n_max < 1:
            raise ParameterError(f"n_max must be at least 1, got {self.n_max}")
        if self.grid_halfwidth <= 0.0:
            raise ParameterError("grid_halfwidth must be positive")
        if self.times is None:
            if sep == 0.0:
                raise ParameterError(
                    "co-centered setups need explicit time samples")
            times = np.linspace(0.0, 2.0 * sep / abs(self.params.v_r), 121)
        else:
            times = np.asarray(self.times, dtype=float)
        if times.ndim != 1 or times.size < 1:
            raise ParameterError("time samples must form a non-empty 1-D array")
        if times[0] < 0.0 or (times.size > 1 and not np.all(np.diff(times) > 0)):
            raise ParameterError("time samples must be non-negative and increasing")
        object.__setattr__(self, "times", tuple(float(t) for t in times))
        object.__setattr__(self, "grid1", make_grid(
            self.f1.center - self.grid_halfwidth,
            self.f1.center + self.grid_halfwidth, self.grid_n, rule="uniform"))
        object.__setattr__(self, "grid2", make_grid(
            self.f2.center - self.grid_halfwidth,
            self.f2.center + self.grid_halfwidth, self.grid_n, rule="uniform"))

    @property
    def kappa(self) -> float:
        return self.params.kappa

    @property
    def pass_time(self) -> float:
        return 2.0 * self.params.separation / abs(self.params.v_r)

    def gauge(self, t: float) -> float:
        """Slow-pulse validity monitor k0 |v_r| t / sigma."""
        return self.params.k0 * abs(self.params.v_r) * t / self.params.sigma

    def geometry_signature(self) -> tuple:
        """Everything the interaction tables depend on (chi excluded)."""
        return (self.f1.label, self.f2.label, self.params.k0, self.params.sigma,
                self.params.v1, self.params.v2, self.grid_halfwidth, self.grid_n)


def _segment_quadrature(t0: float, t1: float, v_r: float, sigma: float,
                        refine: int):
    """Composite Gauss nodes on [t0, t1], one panel per pulse width crossed."""
    panels = max(1, int(math.ceil(abs(v_r) * (t1 - t0) / sigma))) * refine
    grid = composite_gauss_grid(t0, t1, panels, nodes_per_panel=8)
    return grid.nodes, grid.weights


def _time_quadrature(t: float, v_r: float, sigma: float, refine: int):
    return _segment_quadrature(0.0, t, v_r, sigma, refine)


def _tables_dense(setup: CollisionSetup, t0: float, t1: float, refine: int):
    """A, B, D over [t0, t1] by direct evaluation, one time node at a time."""
    tq, wq = _segment_quadrature(t0, t1, setup.params.v_r,
                                 setup.params.sigma, refine)
    z1 = setup.grid1.nodes[:, None]
    z2 = setup.grid2.nodes[None, :]
    dtype = complex if not setup.f1.is_real else float
    a_tab = np.zeros((setup.grid1.n, setup.grid2.n))
    b_tab = np.zeros(setup.grid2.n, dtype=dtype)
    d_tab = np.zeros((setup.grid1.n, setup.grid2.n), dtype=dtype)
    for q in range(tq.size):
        kern_q = commutator_kernel(z2 - z1 - setup.params.v_r * tq[q],
                                   setup.params.k0, setup.params.sigma)
        front_q = setup.f1(setup.grid2.nodes - setup.params.v_r * tq[q])
        a_tab += wq[q] * kern_q
        b_tab += wq[q] * front_q
        d_tab += wq[q] * kern_q * front_q[None, :]
    return a_tab, b_tab, d_tab


def _tables_toeplitz(setup: CollisionSetup, t0: float, t1: float, refine: int):
    """A, B, D over [t0, t1] exploiting the uniform-grid difference structure.

    The kernel argument depends on (z1', z2') only through their difference,
    which on equal-spacing grids takes 2n - 1 distinct values; per time node
    the kernel is evaluated on that vector and gathered by a fixed index
    map instead of a full matrix evaluation. A stays in difference form
    (2n - 1 values); only D needs the full matrix.
    """
    tq, wq = _segment_quadrature(t0, t1, setup.params.v_r,
                                 setup.params.sigma, refine)
    n1, n2 = setup.grid1.n, setup.grid2.n
    h = setup.grid1.nodes[1] - setup.grid1.nodes[0]
    u0 = setup.grid2.nodes[0] - setup.grid1.nodes[0]
    diffs = u0 + h * np.arange(-(n1 - 1), n2)
    idx = np.arange(n2)[None, :] - np.arange(n1)[:, None] + (n1 - 1)
    a_vec = np.zeros(diffs.size)
    b_tab = np.zeros(n2)
    d_tab = np.zeros((n1, n2))
    for q in range(tq.size):
        kern_q = commutator_kernel(diffs - setup.params.v_r * tq[q],
                                   setup.params.k0, setup.params.sigma)
        front_q = setup.f1(setup.grid2.nodes - setup.params.v_r * tq[q])
        a_vec += wq[q] * kern_q
        b_tab += wq[q] * np.real(front_q)
        d_tab += wq[q] * kern_q[idx] * np.real(front_q)[None, :]
    return a_vec, b_tab, d_tab


def _line_moments(setup: CollisionSetup, t: float, refine: int):
    """Chi-independent moments of the correction's whole-line squared norm.

    The correction is f2(z2) int_0^t C(z2 - z1 - v_r s) g(z2, s) ds with
    g = i chi f1(z2 - v_r s) + beta B(z2), beta = (exp(ix) - 1 - ix)/(kappa t^2).
    Integrating z1 over the whole line with the box-kernel identity leaves
    sum_z2 w |f2|^2 sum_{s,s'} w_s w_s' g(z2, s) C(v_r (s - s')) conj g(z2, s'),
    which expands to chi^2 p - 2 chi Im(conj(beta) r) + |beta|^2 c; this
    returns (p, r, c).
    """
    p = setup.params
    tq, wq = _segment_quadrature(0.0, t, p.v_r, p.sigma, refine)
    z2 = setup.grid2.nodes
    front = setup.f1(z2[:, None] - p.v_r * tq[None, :]) * wq[None, :]
    kern = commutator_kernel(p.v_r * (tq[:, None] - tq[None, :]), p.k0, p.sigma)
    front_kern = front @ kern
    b_row = front.sum(axis=1)
    dens = setup.grid2.weights * np.abs(setup.f2(z2)) ** 2
    p_mom = float(dens @ np.real(np.sum(front_kern * np.conj(front), axis=1)))
    r_mom = complex(dens @ (np.conj(b_row) * (front_kern @ wq)))
    c_mom = float(wq @ kern @ wq) * float(dens @ np.abs(b_row) ** 2)
    return p_mom, r_mom, c_mom


def _entropy_blocks(setup: CollisionSetup, t: float, refine: int):
    """Chi-independent blocks of the z2 reduced kernel, z1 traced over the line.

    With C(x) = (1/2 pi) int_{-k_s}^{k_s} exp(ikx) dk, the correction is
    f2(z2) (1/2 pi) int G(z2, k) exp(-ik z1) dk with
    G(z2, k) = sum_s w_s g(z2, s) exp(ik (z2 - v_r s)) and g as in
    _line_moments, so G = i chi G_f + beta G_b. Parseval over z1 then gives
        rho(a, b) = f2(a) conj(f2(b)) (|f1|^2 + H(a) + conj(H(b))
                    + (1/2 pi) int G(a, k) conj(G(b, k)) dk),
    H(a) = (1/2 pi) int G(a, k) F(k) dk, F(k) = int conj(f1(z)) exp(-ikz) dz.
    This returns |f1|^2, the G_f and G_b parts of H, and the three k-Gram
    matrices of G_f and G_b; the cost is O(n2 ns nk + n2^2 nk).
    """
    p = setup.params
    tq, wq = _segment_quadrature(0.0, t, p.v_r, p.sigma, refine)
    g1, g2 = setup.grid1, setup.grid2
    # k (z2 - v_r s - z1) and k (a - b - v_r (s - s')) stay within ks * reach
    ks = p.k0 / p.sigma
    reach = max(g1.hi, g2.hi) - min(g1.lo, g2.lo) + abs(p.v_r) * t
    kgrid = composite_gauss_grid(-ks, ks, refine * max(1, math.ceil(ks * reach / math.pi)))
    k, wk = kgrid.nodes, kgrid.weights / (2.0 * math.pi)
    front = setup.f1(g2.nodes[:, None] - p.v_r * tq[None, :]) * wq[None, :]
    shift = np.exp(-1j * p.v_r * np.outer(tq, k))
    phase = np.exp(1j * np.outer(g2.nodes, k))
    g_f = phase * (front @ shift)
    g_b = phase * np.outer(front.sum(axis=1), wq @ shift)
    f1_row = setup.f1(g1.nodes)
    spec = (g1.weights * np.conj(f1_row)) @ np.exp(-1j * np.outer(g1.nodes, k))
    norm1 = float(g1.weights @ np.abs(f1_row) ** 2)
    return (norm1, g_f @ (wk * spec), g_b @ (wk * spec),
            (g_f * wk) @ np.conj(g_f.T), (g_f * wk) @ np.conj(g_b.T),
            (g_b * wk) @ np.conj(g_b.T))


def _grids_share_spacing(setup: CollisionSetup) -> bool:
    h1 = np.diff(setup.grid1.nodes)
    h2 = np.diff(setup.grid2.nodes)
    return (setup.grid1.n == setup.grid2.n
            and np.allclose(h1, h1[0], rtol=1e-12, atol=0.0)
            and np.allclose(h2, h1[0], rtol=1e-12, atol=0.0))


class InteractionTables:
    """Cache of the time-integral tables A, B, D per time sample.

    The tables are independent of the interaction rate chi, so one cache
    serves every accumulated-phase curve over the same geometry. Each entry
    is verified against a doubled time resolution; disagreement beyond atol
    raises an accuracy error. ensure() fills the cache along a whole time
    ladder in one incremental sweep, integrating segment by segment instead
    of restarting from zero at every sample. line_moments() and
    entropy_blocks() cache the whole-line correction moments and reduced-
    kernel blocks the same way, verified to a relative 1e-8.
    """

    def __init__(self, setup: CollisionSetup, *, atol: float = 1e-10):
        self.signature = setup.geometry_signature()
        self.atol = atol
        self._setup = setup
        self._fast = _grids_share_spacing(setup) and setup.f1.is_real
        if self._fast:
            n1, n2 = setup.grid1.n, setup.grid2.n
            self._idx = (np.arange(n2)[None, :] - np.arange(n1)[:, None]
                         + (n1 - 1))
        else:
            self._idx = None
        self._cache: dict[float, tuple] = {}
        self._line: dict[float, tuple] = {}
        self._entropy: dict[float, tuple] = {}

    def compatible(self, setup: CollisionSetup) -> bool:
        return setup.geometry_signature() == self.signature

    def _require_compatible(self, setup: CollisionSetup) -> None:
        if not self.compatible(setup):
            raise GridMismatchError("interaction tables built for a different "
                                    "collision geometry")

    def _zero_entry(self) -> tuple:
        n1, n2 = self._setup.grid1.n, self._setup.grid2.n
        dtype = float if self._setup.f1.is_real else complex
        a = np.zeros(n1 + n2 - 1) if self._fast else np.zeros((n1, n2))
        return a, np.zeros(n2, dtype=dtype), np.zeros((n1, n2), dtype=dtype)

    def _expand(self, entry: tuple) -> tuple:
        a_small, b_tab, d_tab = entry
        a_tab = a_small[self._idx] if self._fast else a_small
        return a_tab, b_tab, d_tab

    def _verify(self, t: float, coarse: tuple, fine: tuple) -> None:
        worst = max(float(np.max(np.abs(c - f))) for c, f in zip(coarse, fine))
        if worst > self.atol:
            raise AccuracyError(
                f"interaction time integrals not converged at t={t}: "
                f"max deviation {worst:.3e}", coarse=worst, fine=0.0)

    def at(self, setup: CollisionSetup, t: float):
        self._require_compatible(setup)
        if t < 0.0:
            raise ParameterError(f"time must be non-negative, got {t}")
        key = float(t)
        if key not in self._cache:
            if key == 0.0:
                self._cache[key] = self._zero_entry()
            else:
                build = _tables_toeplitz if self._fast else _tables_dense
                coarse = build(self._setup, 0.0, key, refine=1)
                fine = build(self._setup, 0.0, key, refine=2)
                self._verify(key, coarse, fine)
                self._cache[key] = fine
        return self._expand(self._cache[key])

    def _whole_line(self, store: dict, build, what: str,
                    setup: CollisionSetup, t: float) -> tuple:
        """build() at one time, cached and verified at doubled resolution."""
        self._require_compatible(setup)
        if t <= 0.0:
            raise ParameterError(f"{what} need a positive time, got {t}")
        key = float(t)
        if key not in store:
            coarse = build(self._setup, key, refine=1)
            fine = build(self._setup, key, refine=2)
            for c, f in zip(coarse, fine):
                dev = float(np.max(np.abs(c - f)))
                if dev > _LINE_RTOL * max(np.max(np.abs(c)), np.max(np.abs(f))):
                    raise AccuracyError(
                        f"{what} not converged at t={key}: max deviation "
                        f"{dev:.3e}", coarse=dev, fine=0.0)
            store[key] = fine
        return store[key]

    def line_moments(self, setup: CollisionSetup, t: float) -> tuple:
        """Whole-line correction moments (p, r, c) at one time; see _line_moments."""
        return self._whole_line(self._line, _line_moments,
                                "whole-line correction moments", setup, t)

    def entropy_blocks(self, setup: CollisionSetup, t: float) -> tuple:
        """Whole-line reduced-kernel blocks at one time; see _entropy_blocks."""
        return self._whole_line(self._entropy, _entropy_blocks,
                                "whole-line entropy blocks", setup, t)

    def ensure(self, setup: CollisionSetup, times) -> None:
        """Fill the cache for every listed time in one incremental sweep."""
        self._require_compatible(setup)
        wanted = np.asarray(times, dtype=float).ravel()
        if wanted.size == 0:
            return
        if np.any(wanted < 0.0):
            raise ParameterError("time samples must be non-negative")
        missing = sorted({float(t) for t in wanted} - set(self._cache))
        if missing and missing[0] == 0.0:
            self._cache[0.0] = self._zero_entry()
            missing = missing[1:]
        if not missing:
            return
        build = _tables_toeplitz if self._fast else _tables_dense
        acc1 = self._zero_entry()
        acc2 = self._zero_entry()
        prev = 0.0
        for t in missing:
            seg1 = build(self._setup, prev, t, refine=1)
            seg2 = build(self._setup, prev, t, refine=2)
            acc1 = tuple(a + s for a, s in zip(acc1, seg1))
            acc2 = tuple(a + s for a, s in zip(acc2, seg2))
            self._verify(t, acc1, acc2)
            self._cache[t] = acc2
            prev = t


def _free_psi(setup: CollisionSetup) -> np.ndarray:
    return np.outer(setup.f1(setup.grid1.nodes),
                    setup.f2(setup.grid2.nodes)).astype(complex)


def series_term(setup: CollisionSetup, n: int, z1, z2, t: float, *,
                refine: int = 1) -> np.ndarray | complex:
    """Order-n interaction amplitude at arbitrary points (broadcasting).

    n = 1 carries the full kernel-times-profile time integral D; higher
    orders factorize into A, B and the t^(n-2) weight. The order-0 free
    term is not a series member (build it with free_state).
    """
    if n < 1:
        raise ParameterError(f"series order must be >= 1, got {n}")
    if t < 0.0:
        raise ParameterError(f"time must be non-negative, got {t}")
    z1 = np.asarray(z1, dtype=float)
    z2 = np.asarray(z2, dtype=float)
    shape = np.broadcast_shapes(z1.shape, z2.shape)
    if t == 0.0:
        out = np.zeros(shape, dtype=complex)
        return complex(out) if out.ndim == 0 else out
    p = setup.params
    tq, wq = _time_quadrature(t, p.v_r, p.sigma, refine)
    kern = commutator_kernel(z2[..., None] - z1[..., None] - p.v_r * tq,
                             p.k0, p.sigma)
    x = p.chi * p.kappa * t
    if n == 1:
        front = setup.f1(z2[..., None] - p.v_r * tq)
        d_val = (kern * front) @ wq
        out = 1j * p.chi * d_val * setup.f2(z2)
    else:
        a_val = kern @ wq
        b_val = setup.f1(z2[..., None] - p.v_r * tq) @ wq
        coef = (1j * x) ** n / math.factorial(n) / (p.kappa * t * t)
        out = coef * a_val * b_val * setup.f2(z2)
    out = np.broadcast_to(out, shape).astype(complex)
    return complex(out) if out.ndim == 0 else out.copy()


def two_particle_headon_series(setup: CollisionSetup, t: float,
                               n_max: int | None = None, *,
                               tables: InteractionTables | None = None) -> TwoParticleState:
    """Partial sum of the interaction series on the co-moving grids.

    Terms are added until one falls below 1e-12 in sup-norm or n_max is
    reached; if the last term is still above 1e-6 the truncation is
    reported as an error. The result is not normalized.
    """
    if n_max is None:
        n_max = setup.n_max
    if n_max < 1:
        raise ParameterError(f"n_max must be at least 1, got {n_max}")
    if t < 0.0:
        raise ParameterError(f"time must be non-negative, got {t}")
    psi = _free_psi(setup)
    if t == 0.0:
        return TwoParticleState(setup.grid1, setup.grid2, psi)
    if tables is None:
        tables = InteractionTables(setup)
    a_tab, b_tab, d_tab = tables.at(setup, t)
    p = setup.params
    f2_row = setup.f2(setup.grid2.nodes)
    x = p.chi * p.kappa * t
    term = 1j * p.chi * d_tab * f2_row[None, :]
    psi = psi + term
    sup = float(np.max(np.abs(term)))
    if sup >= _STOP_TOL:
        ab_row = a_tab * (b_tab * f2_row)[None, :]
        scale = 1.0 / (p.kappa * t * t)
        coef = 1j * x
        for n in range(2, n_max + 1):
            coef = coef * (1j * x) / n
            term = (coef * scale) * ab_row
            psi = psi + term
            sup = float(np.max(np.abs(term)))
            if sup < _STOP_TOL:
                break
        else:
            if sup > _FAIL_TOL:
                raise TruncationError(
                    f"series not converged by order {n_max}: last term "
                    f"sup-norm {sup:.3e} (accumulated phase x={x:.3g})")
    return TwoParticleState(setup.grid1, setup.grid2, psi)


def _exp_remainder(x: float) -> complex:
    """exp(ix) - 1 - ix, via its series for small |x| to dodge cancellation."""
    if abs(x) < _SMALL_X:
        ix = 1j * x
        total = 0.0 + 0.0j
        power = ix
        fact = 1.0
        for n in range(2, 8):
            power *= ix
            fact *= n
            total += power / fact
        return total
    return complex(np.exp(1j * x) - 1.0 - 1j * x)


def _warn_gauge(setup: CollisionSetup, t: float) -> None:
    if setup.gauge(t) > _GAUGE_LIMIT:
        warnings.warn("slow-pulse approximation degraded: gauge k0|v_r|t/sigma "
                      "exceeds 0.1", ApproximationWarning, stacklevel=3)


def two_particle_headon_closed(setup: CollisionSetup, t: float, *,
                               tables: InteractionTables | None = None) -> TwoParticleState:
    """Summed interaction series on the co-moving grids (not normalized).

    psi = psi_free + i chi D f2 + A B f2 (exp(ix) - 1 - ix) / (kappa t^2),
    x = chi kappa t. At t = 0 the interaction vanishes and the free product
    is returned exactly. A warning is emitted when the slow-pulse gauge
    k0 |v_r| t / sigma exceeds 0.1.
    """
    if t < 0.0:
        raise ParameterError(f"time must be non-negative, got {t}")
    psi = _free_psi(setup)
    if t == 0.0:
        return TwoParticleState(setup.grid1, setup.grid2, psi)
    _warn_gauge(setup, t)
    if tables is None:
        tables = InteractionTables(setup)
    a_tab, b_tab, d_tab = tables.at(setup, t)
    p = setup.params
    f2_row = setup.f2(setup.grid2.nodes)
    x = p.chi * p.kappa * t
    psi = psi + 1j * p.chi * d_tab * f2_row[None, :]
    psi = psi + (_exp_remainder(x) / (p.kappa * t * t)) * (a_tab * (b_tab * f2_row)[None, :])
    return TwoParticleState(setup.grid1, setup.grid2, psi)


def _correction_line_norm(setup: CollisionSetup, t: float,
                          tables: InteractionTables) -> float:
    """Squared norm of the closed-form correction over the whole z1 line."""
    if t == 0.0:
        return 0.0
    p_mom, r_mom, c_mom = tables.line_moments(setup, t)
    p = setup.params
    beta = _exp_remainder(p.chi * p.kappa * t) / (p.kappa * t * t)
    return (p.chi ** 2 * p_mom - 2.0 * p.chi * (beta.conjugate() * r_mom).imag
            + abs(beta) ** 2 * c_mom)


def fidelity_evolution(setup: CollisionSetup, times=None, *,
                       tables: InteractionTables | None = None) -> SweepResult:
    """Fidelity and conditional phase against the free reference over time.

    Uses the closed-form amplitude per sample; the free reference on the
    co-moving grids is time-independent. The overlap and the free and
    cross parts of the norm are taken on the window, where f1 bounds z1;
    the correction's own squared norm is taken over the whole z1 line, so
    F does not depend on grid_halfwidth. The conditional phase is the
    argument of the overlap and needs no norm. Minimum and final fidelity
    are recorded in the provenance, the gauge monitor as a column.
    """
    samples = np.asarray(setup.times if times is None else times, dtype=float)
    if samples.ndim != 1 or samples.size < 1:
        raise ParameterError("time samples must form a non-empty 1-D array")
    if samples[0] < 0.0 or (samples.size > 1 and not np.all(np.diff(samples) > 0)):
        raise ParameterError("time samples must be non-negative and increasing")
    if tables is None:
        tables = InteractionTables(setup)
    tables.ensure(setup, samples)
    free = free_state(setup.f1, setup.f2, setup.grid1, setup.grid2)
    reference = normalize(free)
    w1, w2 = setup.grid1.weights, setup.grid2.weights
    fid = np.empty(samples.size)
    phase = np.empty(samples.size)
    gauge = np.empty(samples.size)
    for i, t in enumerate(samples):
        raw = two_particle_headon_closed(setup, float(t), tables=tables)
        amp = overlap(reference, normalize(raw))
        window_nsq = raw.norm_squared()
        window_corr = float(w1 @ np.abs(raw.psi - free.psi) ** 2 @ w2)
        line_nsq = (window_nsq - window_corr
                    + _correction_line_norm(setup, float(t), tables))
        fid[i] = min(abs(amp) ** 2 * window_nsq / line_nsq, 1.0)
        phase[i] = math.atan2(amp.imag, amp.real)
        gauge[i] = setup.gauge(float(t))
    notes = []
    if float(np.max(gauge)) > _GAUGE_LIMIT:
        notes.append("slow-pulse gauge exceeds 0.1 inside the time window")
    provenance = {
        "phi": setup.params.phi,
        "k0": setup.params.k0,
        "v_r": setup.params.v_r,
        "separation": float(setup.params.separation),
        "f_min": float(np.min(fid)),
        "f_final": float(fid[-1]),
    }
    return SweepResult(
        kind="evolution",
        axes=(Axis("phi", "rad", (setup.params.phi,)),
              Axis("t", "time", tuple(float(t) for t in samples))),
        columns={"F": tuple(fid), "theta": tuple(phase), "gauge": tuple(gauge)},
        provenance=provenance,
        warnings=tuple(notes),
    )


def collision_entropy(setup: CollisionSetup, t: float, *,
                      tables: InteractionTables | None = None) -> float:
    """Linear entropy of the normalized closed-form state at one time.

    z1 is traced over the whole line (see _entropy_blocks), so the kernel
    tail beyond grid_halfwidth is included; the reduced kernel lives on the
    z2 grid, where f2 bounds it. Warns like two_particle_headon_closed when
    the slow-pulse gauge exceeds 0.1.
    """
    if t < 0.0:
        raise ParameterError(f"time must be non-negative, got {t}")
    if t == 0.0:
        return 0.0
    _warn_gauge(setup, t)
    if tables is None:
        tables = InteractionTables(setup)
    norm1, h_f, h_b, p_ff, p_fb, p_bb = tables.entropy_blocks(setup, t)
    p = setup.params
    ichi = 1j * p.chi
    beta = _exp_remainder(p.chi * p.kappa * t) / (p.kappa * t * t)
    h = ichi * h_f + beta * h_b
    cross = ichi * beta.conjugate() * p_fb
    kern = (norm1 + h[:, None] + np.conj(h)[None, :] + p.chi ** 2 * p_ff
            + cross + np.conj(cross.T) + abs(beta) ** 2 * p_bb)
    f2_row = setup.f2(setup.grid2.nodes)
    rho = f2_row[:, None] * kern * np.conj(f2_row)[None, :]
    w2 = setup.grid2.weights
    nsq = float(np.real(w2 @ np.diag(rho)))
    return 1.0 - float(w2 @ np.abs(rho) ** 2 @ w2) / nsq ** 2


def ideal_headon_metrics(chi: float, v_r: float) -> GateMetrics:
    """Infinite-bandwidth limit: a pure conditional phase chi / v_r.

    The pulses pass through each other unchanged and pick up a uniform
    phase, so fidelity is one and no entanglement is generated.
    """
    if v_r == 0.0:
        raise ParameterError("ideal collision metrics need v_r != 0")
    return GateMetrics(fidelity=1.0, phase=chi / v_r, linear_entropy=0.0)
