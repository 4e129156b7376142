"""Counter-propagating pulse collisions in the slow-pulse regime.

For relative velocities small against the bandwidth scale (gauge
g(t) = k0 |v_r| t well below one, lengths in pulse widths), every chain
factor of the interaction series collapses to the kernel height
kappa = k0/pi, and the order-n amplitude reduces to elementary time
integrals:

    A(z1', z2', t) = int_0^t C(z2' - z1' - v_r s) ds
    B(z2', t)      = int_0^t f1(z2' - v_r s) ds
    D(z1', z2', t) = int_0^t C(z2' - z1' - v_r s) f1(z2' - v_r s) ds

with z_i' = z_i - v_i t the co-moving offsets and C the commutator
kernel. The n = 1 term is i chi D f2(z2'); each n >= 2 term carries
t^(n-2) A B f2(z2'), so the whole series sums to a closed form in
x = chi kappa t. The series and its closed form work on fixed co-moving
grids, where the free reference is time-independent.

The correction terms depend on z1 only through C, whose range pi/k0 can
dwarf any co-moving window, so the collision fidelity and entropy trace z1
over the whole line through C's box in k: C(x) = (1/2 pi) int exp(ikx) dk
over |k| <= k0. With y = z2 - v_r s every time integral then becomes an
oriented y-integral over [z2 - v_r t, z2] of f1(y) exp(iky) (or of
exp(iky) alone, in closed form), and the fidelity needs only five
chi-independent moments of those per time (see _trajectory_moments): each
(phi, t) sample costs O(1) and no two-photon state is built. The
y-integrals run over panels between the distinct query points; query
points that coincide up to rounding share one edge, because on a ladder
where v_r times the time step is a whole number of z2 steps (the default
one) most ends land on the z2 lattice, and keeping each rounded copy would
add panels about 1e-16 wide that cost as much as any other.

One k side serves the fidelity moments, the collision entropy and the
oracle tables alike. C's box is even, so _spectra works on its positive
nodes k+ alone: every spectrum here is a transform G(k) = int g(y)
exp(iky) dy, and with its cosine and sine transforms Cg and Sg it reads
Cg +- i Sg at +-k.
Per resolution _spectra builds one k basis (_KBasis), one trajectory, D's
spectrum G_f(z2, k) as the trajectory integrals [C_f | S_f], B as C_f at
k = 0, and A's time factor h(k), which angle addition turns into A's
spectrum [C_b | S_b] at each z2. Over a pair of nodes +-k every
contraction is a real one at k+: p = sum 2w (|C|^2 + |S|^2), o_f =
sum 2w (C F_c + S F_s), with F_c and F_s f1's spectrum; a real f1 keeps
every spectrum real, and a complex one takes the same code in complex
arithmetic. The z2 reduced kernel has rank at most 2 + 2 n_k+, 18 at the
default geometry, so the linear entropy takes its trace and purity from
one Gram of that size over z2 and forms no n2 x n2 array (_line_entropy).
For the series and its closed form, the oracle amplitude on the co-moving
grids, D(z1, z2) = (1/2 pi) int exp(-ik z1) G_f(z2, k) dk =
sum 2w (C_f cos kz1 + S_f sin kz1), and A likewise from its spectrum
basis.box(h). G_f has 2 n_k+ columns, 16 at the default geometry, against
n1 = n2 = 401. A and D are formed on demand as one real product of [cos kz1 | sin kz1] with
rows of their spectra, and each amplitude as one of [f1 | cos kz1 |
sin kz1] with rows of f2 and of the correction's spectrum, in row blocks
that stay on the calling thread. The cosine and sine transforms and the
row-blocked products are numerics' cos_sin and real_products, which C1
takes as well. No n1 x n2 table is stored. The series needs none to stop:
C's box in k gives |C| <= C(0) = kappa, so |A| <= kappa t everywhere and
each order n >= 2 is bounded through B alone. The tables' resolution check
forms none either: A is checked over its n1 + n2 - 1 differences z2 - z1,
and D's two resolutions are compared a row block at a time, with running
reductions. series_term, a time quadrature at arbitrary points, is the
position-side check of all of this.
"""

from __future__ import annotations

import functools
import math
import warnings
from itertools import repeat
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (
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
    _converged,
    _gauss_legendre,
    commutator_kernel,
    composite_gauss_grid,
    cos_sin,
    gemm_rows,
    make_grid,
    profile_key,
    real_products,
)
from .results import Axis, SweepResult
from .state import TwoParticleState, free_state
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
# the series' stop, its truncation bound and its order cap
_STOP_TOL = 1e-12
_FAIL_TOL = 1e-6
_N_MAX = 40
# series_term's time rule: 8-node Gauss panels per pulse width crossed
_SERIES_PANELS = 1
_SMALL_X = 1e-3
_LINE_RTOL = 1e-8
# collision_entropy's two resolutions agree within _LINE_RTOL of S_L plus this
# floor: they differ by rounding, up to 1.9e-15 on fig4's ladders (gaussian and
# square pulses, all four phi)
_ENTROPY_ATOL = 1e-14
# A, B, D against their doubled resolution: within _TABLE_RTOL of each table's
# largest entry at that time, and never by more than _TABLE_ATOL
_TABLE_RTOL = 1e-6
_TABLE_ATOL = 1e-10
_BLOCK = 1 << 20  # elements per temporary in the trajectory's panel sums
_ROWS = 1 << 16  # elements of G_f that _spectra builds at a time
# trajectory query points closer than this many ulps of the coordinate scale
# are one edge: z2 - v_r t misses the z2 lattice it lands on by up to 2 ulps
_EDGE_ULPS = 8


@dataclass(frozen=True, eq=False)
class CollisionSetup:
    """Geometry and grids for one collision run.

    Co-moving grids are windows of grid_halfwidth around each pulse center;
    in the offsets z_i' those windows never move, so one grid pair serves
    every time sample. times is an increasing ladder of samples
    (cli.sweeps.collision_setup builds one over a full pass,
    [0, 2 l / |v_r|]). The gauge g(t) = k0 |v_r| t monitors the
    slow-pulse approximation and triggers a warning beyond 0.1.
    """

    f1: PulseProfile
    f2: PulseProfile
    params: SystemParams
    times: tuple[float, ...]
    grid_halfwidth: float = 10.0
    grid_n: int = 401
    grid1: Grid1D = field(init=False, repr=False)
    grid2: Grid1D = field(init=False, repr=False)
    _signature: tuple = field(init=False, repr=False)

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
        if self.grid_halfwidth <= 0.0:
            raise ParameterError("grid_halfwidth must be positive")
        object.__setattr__(self, "times", tuple(_time_ladder(self.times).tolist()))
        object.__setattr__(self, "grid1", make_grid(
            self.f1.center - self.grid_halfwidth,
            self.f1.center + self.grid_halfwidth, self.grid_n, rule="uniform"))
        object.__setattr__(self, "grid2", make_grid(
            self.f2.center - self.grid_halfwidth,
            self.f2.center + self.grid_halfwidth, self.grid_n, rule="uniform"))
        p = self.params
        object.__setattr__(self, "_signature", (
            profile_key(self.f1), profile_key(self.f2), p.k0, p.v1, p.v2,
            self.grid_halfwidth, self.grid_n))

    @property
    def kappa(self) -> float:
        return self.params.kappa

    @property
    def pass_time(self) -> float:
        return 2.0 * self.params.separation / abs(self.params.v_r)

    def gauge(self, t: float) -> float:
        """Slow-pulse validity monitor k0 |v_r| t."""
        return self.params.k0 * abs(self.params.v_r) * t

    def geometry_signature(self) -> tuple:
        """Everything the interaction tables depend on (chi excluded).

        Built once per setup: the tables compare it on every call.
        """
        return self._signature

    @functools.cached_property
    def f1_samples(self) -> np.ndarray:
        """f1 on grid1's nodes, sampled once per setup (read-only)."""
        return _read_only(self.f1(self.grid1.nodes))

    @functools.cached_property
    def f2_samples(self) -> np.ndarray:
        """f2 on grid2's nodes, sampled once per setup (read-only)."""
        return _read_only(self.f2(self.grid2.nodes))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _time(t) -> float:
    """t as a float, checked to be finite and non-negative."""
    t = float(t)
    if not 0.0 <= t < math.inf:
        raise ParameterError(f"time must be finite and non-negative, got {t}")
    return t


def _times(times) -> np.ndarray:
    """times as a flat float array, each checked as _time does."""
    times = np.asarray(times, dtype=float).ravel()
    if not np.all((0.0 <= times) & (times < math.inf)):
        raise ParameterError("time samples must be finite and non-negative")
    return times


def _time_ladder(times) -> np.ndarray:
    """times as a float array, checked to be a non-empty increasing ladder of finite t >= 0."""
    if np.ndim(times) != 1 or np.size(times) < 1:
        raise ParameterError("time samples must form a non-empty 1-D array")
    times = _times(times)
    if not np.all(np.diff(times) > 0):
        raise ParameterError("time samples must be increasing")
    return times


class _KBasis:
    """_k_rule's positive nodes k+, with the z1 and z2 factors of the box transforms.

    No 8-node panel puts a node at 0, and _k_rule's box is even, so its nodes
    pair as +-k+ with one weight w over 2 pi. A spectrum G(k) = Cg + i Sg at
    k+ is Cg - i Sg at -k+ (see the module docstring), so over a pair
        (1/2 pi) int exp(-ik z1) G dk -> 2w (Cg cos(k z1) + Sg sin(k z1)),
        (1/2 pi) int G F dk            -> 2w (Cg F_c + Sg F_s),
        (1/2 pi) int G conj(G') dk     -> 2w (Cg conj(Cg') + Sg conj(Sg')),
    with F = F_c - i F_s f1's conjugate spectrum. A spectrum is therefore
    kept as [Cg | Sg] over 2 n_k+ columns, and w holds the pair weight 2w for
    each column. z1 holds [2w cos(k z1) | 2w sin(k z1)] (numerics.cos_sin),
    so a transform is a real left factor of numerics.real_products, and z2
    [cos(k z2) | sin(k z2)], from which box() forms A's spectrum by angle
    addition.
    """

    def __init__(self, setup: CollisionSetup, t: float, refine: int):
        k, wk = _k_rule(setup, t, refine)
        self.k = k[k > 0.0]
        self.w = np.tile(2.0 * wk[k > 0.0], 2)
        self.z1 = self.w * cos_sin(setup.grid1.nodes, self.k)
        self.z2 = cos_sin(setup.grid2.nodes, self.k)
        self._setup = setup

    @functools.cached_property
    def left(self) -> np.ndarray:
        """[f1 | 2w cos(k z1) | 2w sin(k z1)], the left factor of every amplitude (_amplitude)."""
        return _read_only(np.hstack([self._setup.f1_samples[:, None], self.z1]))

    def box(self, h: np.ndarray) -> np.ndarray:
        """A's spectrum [C_b | S_b] from its time factor h, shape (..., z2, 2 n_k+).

        With h = s [cos phi | sin phi] (_box_transform), C_b = s cos(k z2 - phi)
        and S_b = s sin(k z2 - phi), each written into its half of one array.
        """
        n = self.k.size
        hc, hs = h[..., None, :n], h[..., None, n:]
        cz, sz = self.z2[:, :n], self.z2[:, n:]
        out = np.empty(h.shape[:-1] + self.z2.shape)
        c_b, s_b = out[..., :n], out[..., n:]
        np.multiply(cz, hc, out=c_b)
        c_b += sz * hs
        np.multiply(sz, hc, out=s_b)
        s_b -= cz * hs
        return out

    def table(self, spec: np.ndarray, out: np.ndarray) -> np.ndarray:
        """out = (1/2 pi) int exp(-ik z1) spec(z2, k) dk, an n1 x n2 table."""
        return real_products(self.z1, spec.T, out)


def _k_rule(setup: CollisionSetup, t: float, refine: int):
    """Gauss rule on C's box [-k0, k0], weights divided by 2 pi.

    k times any z1 - z2 or trajectory distance up to time t stays within
    pi per panel.
    """
    p = setup.params
    g1, g2 = setup.grid1, setup.grid2
    reach = max(g1.hi, g2.hi) - min(g1.lo, g2.lo) + abs(p.v_r) * t
    kgrid = composite_gauss_grid(-p.k0, p.k0,
                                 refine * max(1, math.ceil(p.k0 * reach / math.pi)))
    return kgrid.nodes, kgrid.weights / (2.0 * math.pi)


def _f1_spectrum(setup: CollisionSetup, basis: _KBasis) -> np.ndarray:
    """[2w F_c | 2w F_s]: F(k) = F_c - i F_s = int conj(f1(z)) exp(-ikz) dz on the z1 window.

    An einsum, not a BLAS product (see numerics' note on real products);
    f1 may be complex.
    """
    g1 = setup.grid1
    return np.einsum("z,zm->m", g1.weights * np.conj(setup.f1(g1.nodes)), basis.z1)


def _window_nsq(grid: Grid1D, profile: PulseProfile) -> float:
    """|profile|^2 summed on a co-moving window."""
    return float(grid.weights @ np.abs(profile(grid.nodes)) ** 2)


def _box_transform(setup: CollisionSetup, times: np.ndarray, k: np.ndarray) -> np.ndarray:
    """The time factor of int_0^t exp(ik (z2 - v_r s)) ds, shape (times, 2 k).

    The integral is s(k) exp(i (k z2 - phi)) with s = t sinc(k v_r t / 2) and
    phi = k v_r t / 2; this returns h = s [cos phi | sin phi], which
    _KBasis.box turns into the cosine and sine transforms at each z2. Apart
    the two factors take (times + z2) x k cosines and sines instead of
    times x z2 x k, and a contraction over k can take them one at a time.
    """
    t = times[:, None]
    half = 0.5 * setup.params.v_r * t * k
    s = t * np.sinc(half / math.pi)
    return np.hstack([s * np.cos(half), s * np.sin(half)])


def _merge_edges(points: np.ndarray, tol: float):
    """Sorted edges with points closer than tol merged, and each point's edge.

    A run of sorted points whose neighbours lie within tol becomes one edge,
    its smallest point. Each point is mapped to the edge of its own run, so
    no query point is moved to a neighbouring edge.
    """
    values, inverse = np.unique(points, return_inverse=True)
    starts = np.concatenate(([True], np.diff(values) > tol))
    return values[starts], (np.cumsum(starts) - 1)[inverse]


class _Trajectory:
    """int_0^t f1(z2 - v_r s) [cos | sin](k (z2 - v_r s)) ds for every (t, z2) at once.

    With y = z2 - v_r s each integral is the oriented y-integral of
    f1(y) cos(ky), and of f1(y) sin(ky), over [z2 - v_r t, z2], divided by
    v_r: the cosine and sine transforms C_f and S_f of the trajectory
    integral G_f = C_f + i S_f, in f1's dtype. Panels run between
    consecutive query points (every z2 and z2 - v_r t), a lattice of at most
    one pulse width and pi/k0 spacing, and f1's breakpoints, so a square
    pulse's edges and a tabulated pulse's kinks fall on panel boundaries;
    each panel carries refine 8-node Gauss rules. Points within
    _EDGE_ULPS ulps of the coordinate scale share one edge: on the default
    fig4 ladder each end z2 - v_r t lands on the z2 lattice up to rounding,
    so 7160 raw points hold 2383 distinct ones, and every rounded copy kept
    apart would add a panel about 1e-16 wide at the full cost of a panel
    (edges and tol keep the merged edges and that tolerance). Panel sums
    accumulate inwards from both ends towards f1's centre. An interval with
    both ends on one side of the centre is the difference of that side's
    sums, so an interval deep in one of f1's tails is a difference of two
    tail-sized numbers, never of two order-one ones; an interval across the
    centre adds the two signed pieces.
    """

    def __init__(self, setup: CollisionSetup, times: np.ndarray, refine: int):
        p = setup.params
        z2 = setup.grid2.nodes
        ends = z2[None, :] - p.v_r * times[:, None]
        lo = min(float(ends.min()), float(z2[0]))
        hi = max(float(ends.max()), float(z2[-1]))
        centre = min(max(setup.f1.center, lo), hi)
        step = min(1.0, math.pi / p.k0)
        lattice = centre + step * np.arange(math.ceil((lo - centre) / step),
                                            math.floor((hi - centre) / step) + 1)
        breaks = np.asarray(setup.f1.breakpoints, dtype=float)
        breaks = breaks[(lo < breaks) & (breaks < hi)]
        self.tol = _EDGE_ULPS * math.ulp(max(abs(lo), abs(hi)))
        edges, at = _merge_edges(
            np.concatenate(([centre], z2, ends.ravel(), lattice, breaks)), self.tol)
        self.edges = edges
        centre_at = self._centre_at = int(at[0])
        self._upper = at[1:1 + z2.size][None, :]
        self._lower = at[1 + z2.size:1 + z2.size + ends.size].reshape(ends.shape)
        # which running sum serves each interval as upper minus lower: 0 the
        # sums from the left end, 1 those from the right end negated, 2 the
        # signed integrals from the centre (for intervals across it)
        left = (self._lower <= centre_at) & (self._upper <= centre_at)
        right = (self._lower >= centre_at) & (self._upper >= centre_at)
        self._side = np.where(left, 0, np.where(right, 1, 2))
        x, w = _gauss_legendre(8)
        width = np.diff(edges)[:, None, None] / refine
        offset = np.arange(refine)[:, None] + 0.5 * (1.0 + x)
        self._nodes = (edges[:-1, None, None] + width * offset).reshape(edges.size - 1, -1)
        weights = (0.5 * width * w).repeat(refine, axis=1).reshape(edges.size - 1, -1)
        self._front = weights * setup.f1(self._nodes)
        self._v_r = p.v_r

    def integrals(self, k: np.ndarray) -> np.ndarray:
        """The trajectory integrals [C_f | S_f] at wave numbers k, shape (times, z2, 2 k)."""
        return next(self.blocks(k, self._side.shape[0]))

    def blocks(self, k: np.ndarray, rows: int):
        """integrals(k) in blocks of at most rows times, the panels summed once."""
        sums = self._sums(k)
        # rows of the three running sums laid end to end
        upper = self._side * sums.shape[1] + self._upper
        lower = self._side * sums.shape[1] + self._lower
        sums = sums.reshape(-1, sums.shape[2])
        for i in range(0, upper.shape[0], rows):
            block = np.take(sums, upper[i:i + rows], axis=0)
            block -= np.take(sums, lower[i:i + rows], axis=0)
            block /= self._v_r
            yield block

    def _sums(self, k: np.ndarray) -> np.ndarray:
        """Panel sums at k from the left end, from the right end negated, and from the centre."""
        n_pan, n_node = self._nodes.shape
        panels = np.empty((n_pan, 2 * k.size), dtype=self._front.dtype)
        block = max(1, _BLOCK // (n_node * k.size))
        for i in range(0, n_pan, block):
            arg = self._nodes[i:i + block, :, None] * k
            front = self._front[i:i + block]
            np.einsum("pq,pqk->pk", front, np.cos(arg), out=panels[i:i + block, :k.size])
            np.einsum("pq,pqk->pk", front, np.sin(arg), out=panels[i:i + block, k.size:])
        sums = np.zeros((3, n_pan + 1, 2 * k.size), dtype=panels.dtype)
        np.cumsum(panels, axis=0, out=sums[0, 1:])
        np.cumsum(panels[::-1], axis=0, out=sums[1, -2::-1])
        c = self._centre_at
        past = (np.arange(n_pan + 1) >= c)[:, None]
        sums[2] = np.where(past, sums[1, c] - sums[1], sums[0] - sums[0, c])
        sums[1] *= -1.0
        return sums


def _spectra(setup: CollisionSetup, times: np.ndarray, refine: int):
    """The k side of every head-on quantity at one resolution: (basis, B, h, G_f).

    All times share one _KBasis, the k rule of the latest time. B (times x
    z2) and G_f = [C_f | S_f] are _Trajectory's integrals, in f1's dtype, B
    at k = 0, and h (times x 2 k+) is A's time factor from _box_transform, so
    A's spectrum is basis.box(h). G_f comes as a generator of
    (times, z2, 2 k+) blocks of consecutive times, each of at most _ROWS
    entries, so no (times, z2, k) array is held.
    """
    basis = _KBasis(setup, float(times[-1]), refine)
    traj = _Trajectory(setup, times, refine)
    b = traj.integrals(np.zeros(1))[..., 0]
    h = _box_transform(setup, times, basis.k)
    return basis, b, h, traj.blocks(basis.k, max(1, _ROWS // basis.z2.size))


def _trajectory_moments(setup: CollisionSetup, times: np.ndarray, refine: int):
    """Chi-independent moments of the collision fidelity, one row per time.

    The correction is f2(z2) int_0^t C(z2 - z1 - v_r s) g(z2, s) ds with
    g = i chi f1(z2 - v_r s) + beta B(z2), beta = (exp(ix) - 1 - ix)/(kappa t^2).
    Through C's box in k it reads f2(z2) (1/2 pi) int G(z2, k) exp(-ik z1) dk,
    G = i chi G_f + beta B G_b, with G_f the trajectory integral (B is G_f
    at k = 0) and G_b = int_0^t exp(ik (z2 - v_r s)) ds. Writing
    dens = w2 |f2|^2, int dk for the k rule over 2 pi, and F(k) for f1's
    conjugate spectrum, the moments
        p = sum dens int dk |G_f|^2,    r = sum dens conj(B) int dk G_f conj(G_b),
        c = sum dens |B|^2 int dk |G_b|^2,
        o_f = sum dens int dk F G_f,    o_b = sum dens B int dk F G_b
    give <free|raw> = |free|^2 + i chi o_f + beta o_b and the squared norm
    over the whole z1 line, |free|^2 + 2 Re(i chi o_f + beta o_b)
    + chi^2 p - 2 chi Im(conj(beta) r) + |beta|^2 c. Returns (p, r, c, o_f, o_b).
    Each int dk is a real sum over k+ (_KBasis): p = sum 2w (|C_f|^2 +
    |S_f|^2), o_f = sum 2w (C_f F_c + S_f F_s), and r and o_b likewise with
    G_b's real [C_b | S_b]. All of it is contracted from _spectra's basis and
    blocks of G_f, one block at a time, and G_b from h and the z2 phases one
    at a time: it is never formed as a (times, z2, k) array, and
    |G_b|^2 = C_b^2 + S_b^2 is |h|^2.
    """
    basis, b_row, h, g_f_blocks = _spectra(setup, times, refine)
    w = basis.w
    sc = _f1_spectrum(setup, basis)
    dens = setup.grid2.weights * np.abs(setup.f2(setup.grid2.nodes)) ** 2
    p_row = np.empty(b_row.shape)
    r_row = np.empty(b_row.shape, dtype=b_row.dtype)
    o_f_row = np.empty(b_row.shape, dtype=b_row.dtype)
    # r's sum_k w (C_f C_b + S_f S_b), with C_b = cos(k z2) hc + sin(k z2) hs
    # and S_b = sin(k z2) hc - cos(k z2) hs, gives G_f's [C_f | S_f] columns
    # the weights w [hc | -hs] cos(k z2) + w [hs | hc] sin(k z2)
    w_hc, w_hs = np.split(h * w, 2, axis=1)
    on_cos, on_sin = np.hstack([w_hc, -w_hs]), np.hstack([w_hs, w_hc])
    cz, sz = np.split(basis.z2, 2, axis=1)
    z_cos, z_sin = np.hstack([cz, cz]), np.hstack([sz, sz])
    # einsums, not matmul (see numerics' note on real products)
    start = 0
    for g_f in g_f_blocks:
        rows = slice(start, start + g_f.shape[0])
        start = rows.stop
        np.einsum("tjm,m->tj", np.abs(g_f) ** 2, w, out=p_row[rows])
        np.einsum("tjm,m->tj", g_f, sc, out=o_f_row[rows])
        np.einsum("tjm,tm,jm->tj", g_f, on_cos[rows], z_cos, out=r_row[rows])
        r_row[rows] += np.einsum("tjm,tm,jm->tj", g_f, on_sin[rows], z_sin)
    box_nsq = np.einsum("tm,m->t", h ** 2, w)
    # o_b's sum_k 2w (F_c C_b + F_s S_b) gives cos(k z2) the weight
    # 2w (hc F_c - hs F_s) and sin(k z2) the weight 2w (hs F_c + hc F_s)
    (hc, hs), (fc, fs) = np.split(h, 2, axis=1), np.split(sc, 2)
    o_b_row = np.einsum("tm,jm->tj", np.hstack([hc * fc - hs * fs, hs * fc + hc * fs]),
                        basis.z2)
    p_mom = np.sum(p_row * dens, axis=1)
    r_mom = np.sum(np.conj(b_row) * r_row * dens, axis=1)
    c_mom = box_nsq * np.sum(np.abs(b_row) ** 2 * dens, axis=1)
    o_f = np.sum(o_f_row * dens, axis=1)
    o_b = np.sum(b_row * o_b_row * dens, axis=1)
    return p_mom, r_mom, c_mom, o_f, o_b


def _line_entropy(setup: CollisionSetup, t: float, refine: int) -> float:
    """Linear entropy of the normalized closed-form state at one time and resolution.

    With G = i chi G_f + beta B G_b as in _trajectory_moments, the correction
    is f2(z2) (1/2 pi) int G(z2, k) exp(-ik z1) dk. Parseval over the whole
    z1 line gives the z2 reduced kernel rho(a, b) = f2(a) conj(f2(b)) K(a, b),
        K = |f1|^2 + H(a) + conj(H(b)) + (1/2 pi) int G(a, k) conj(G(b, k)) dk,
    H = (1/2 pi) int G F dk, F(k) = int conj(f1(z)) exp(-ikz) dz. Over k+
    (_KBasis) K = V M V^H with V = [1 | H | G sqrt(w)], n2 x (2 + 2 n_k+),
    and M = [[|f1|^2, 1, 0], [1, 0, 0], [0, 0, I]], so with the Gram
    Q = V^H diag(w2 |f2|^2) V, Tr rho = tr(MQ) and Tr rho^2 = tr((MQ)^2).
    Then S_L = 1 - Tr rho^2 / (Tr rho)^2 = 2 e2(MQ) / tr(MQ)^2, and by
    Cauchy-Binet e2(MQ), the sum of MQ's 2 x 2 principal minors, is the sum
    over index pairs of M's 2 x 2 minors times Q's: with the Gram minors
    m_ij = Q_ii Q_jj - |Q_ij|^2 (each >= 0),
        e2 = sum_{1<i<j} m_ij - m_01 + |f1|^2 sum_{j>1} m_0j
             + 2 Re sum_{j>1} (Q_01 Q_jj - Q_0j Q_j1).
    The free product has G = 0 and gives exactly 0, and no term is a
    difference of the order-one free norms: each carries at least two
    factors of G. Every product is an einsum on the calling thread (see
    numerics' note on real products).
    """
    basis, b, h, blocks = _spectra(setup, np.array([t]), refine)
    p = setup.params
    g = 1j * p.chi * next(blocks)[0] + (_beta(p, t) * b[0])[:, None] * basis.box(h[0])
    v = np.hstack([np.ones((g.shape[0], 1)),
                   np.einsum("jm,m->j", g, _f1_spectrum(setup, basis))[:, None],
                   g * np.sqrt(basis.w)])
    dens = setup.grid2.weights * np.abs(setup.f2_samples) ** 2
    q = np.einsum("ji,j,jk->ik", np.conj(v), dens, v)
    d = q.diagonal().real
    minors = np.outer(d, d) - np.abs(q) ** 2
    norm1 = _window_nsq(setup.grid1, setup.f1)
    e2 = (np.sum(np.triu(minors[2:, 2:], 1)) - minors[0, 1] + norm1 * np.sum(minors[0, 2:])
          + 2.0 * np.sum((q[0, 1] * d[2:] - q[0, 2:] * q[2:, 1]).real))
    return float(2.0 * e2 / (norm1 * d[0] + 2.0 * q[0, 1].real + np.sum(d[2:])) ** 2)


class _TimeTables(NamedTuple):
    """What InteractionTables keeps per time: no n1 x n2 array.

    Spectra are kept at k+ as their cosine and sine transforms (_KBasis), in
    f1's dtype: a real f1 keeps G_f real. A and D are formed from their
    spectra on demand (InteractionTables.at).
    """

    b: np.ndarray  # B per z2
    g_f: np.ndarray  # D's spectrum [C_f | S_f], shape (z2, 2 k+)
    h: np.ndarray  # A's time factor: its spectrum is basis.box(h), shape (2 k+,)
    basis: _KBasis


class InteractionTables:
    """Chi-independent caches for one collision geometry.

    The time-integral tables and the fidelity moments both come from one k
    side, _spectra's basis, B, h and G_f, at refine 1 and 2. The tables
    serve the series and its closed form. Per time sample they keep B, D's
    spectrum G_f as its cosine and sine transforms at k+ (n2 x 2 n_k+, real
    for a real f1), A's time factor h and the basis, never an n1 x n2 table
    (see ensure). Each table is verified against a doubled trajectory and k
    resolution; a gap beyond 1e-6 of the table's largest entry, or beyond
    1e-10, raises an accuracy error. The check of D forms no n1 x n2 table
    either unless it fails: it runs over row blocks of both resolutions.
    ensure() builds every missing listed time at once. at() fills a missing
    time as a ladder of one and forms A and D from their spectra. A time's
    tables keep the bits of the batch that built them: the k rule is the
    batch's latest time's, so the same time built in another batch may
    differ by rounding (at half the default fig4 pass, the closed-form psi
    from the whole ladder and from that time alone differ in 144 007 of
    160 801 entries, by up to 4.0e-16). line_moments() caches the
    fidelity's trajectory moments per ladder, verified at doubled
    resolution to a relative 1e-8, so a ladder's moments never depend on
    what the tables computed before. collision_entropy takes the same k
    side but keeps nothing here. Nothing here depends on the interaction
    rate chi, so one cache serves every accumulated-phase curve.
    """

    def __init__(self, setup: CollisionSetup):
        self.signature = setup.geometry_signature()
        self._setup = setup
        self._cache: dict[float, _TimeTables] = {}
        self._line: dict[tuple, tuple] = {}

    def compatible(self, setup: CollisionSetup) -> bool:
        return setup.geometry_signature() == self.signature

    def _require_compatible(self, setup: CollisionSetup) -> None:
        if not self.compatible(setup):
            raise GridMismatchError("interaction tables built for a different "
                                    "collision geometry")

    def at(self, setup: CollisionSetup, t: float):
        """A, B and D at time t, A and D as n1 x n2 tables formed from their spectra."""
        entry = self._entry(setup, t)
        basis = entry.basis
        n1, n2 = setup.grid1.n, setup.grid2.n
        a_tab = basis.table(basis.box(entry.h), np.empty((n1, n2)))
        d_tab = basis.table(entry.g_f, np.empty((n1, n2), dtype=entry.b.dtype))
        return a_tab, entry.b, d_tab

    def _entry(self, setup: CollisionSetup, t: float) -> _TimeTables:
        """The cached tables at time t, computed as a ladder of one if missing."""
        self._require_compatible(setup)
        key = _time(t)
        if key not in self._cache:
            self.ensure(setup, [key])
        return self._cache[key]

    def line_moments(self, setup: CollisionSetup, times) -> tuple:
        """Trajectory moments (p, r, c, o_f, o_b) on a ladder; see _trajectory_moments.

        times is an increasing ladder (_time_ladder). The whole ladder is
        computed as one batch at two resolutions, and each moment is checked
        at each time on its own, so a moment deep in f1's tail must converge
        as tightly as a large one. The result, one read-only array per
        moment, is cached under the ladder: another ladder is a batch of its
        own, so its moments do not depend on which ladders came before.
        """
        self._require_compatible(setup)
        ladder = _time_ladder(times)
        key = tuple(ladder.tolist())
        if key not in self._line:
            coarse = _trajectory_moments(self._setup, ladder, refine=1)
            fine = _trajectory_moments(self._setup, ladder, refine=2)
            for c, f in zip(coarse, fine):
                _converged("whole-line correction moments", c, f, _LINE_RTOL,
                           np.maximum(np.abs(c), np.abs(f)),
                           at=lambda i: f" at t={ladder[i]}")
            self._line[key] = tuple(_read_only(m) for m in fine)
        return self._line[key]

    def ensure(self, setup: CollisionSetup, times) -> None:
        """Fill the cache for every listed time.

        Each resolution takes the spectra of all the missing times from
        _spectra, as one batch whose bits each time keeps: a time cached by
        an earlier call is not rebuilt, so its tables may differ by rounding
        from those this batch would have given it. For the check A is
        formed by difference: A(u) = (1/2 pi) int exp(iku) h(k) dk
        = sum 2w (hc cos(ku) + hs sin(ku)) over k+, with h = [hc | hs], on
        the n1 + n2 - 1 differences u = z2 - z1 of the equal-spacing
        co-moving grids, for every time at once. Those differences hold
        every entry of the n1 x n2 table, so their peak is the table's. A, B
        and then D are checked at each time; D in row blocks, with running
        reductions and no n1 x n2 table (_check_d). A NaN or infinite entry
        leaves a gap that fails its check. Only the fine resolution's B,
        G_f, h and basis are kept. t = 0 needs no case of its own: its
        trajectory and box integrals vanish.
        """
        self._require_compatible(setup)
        wanted = _times(times)
        missing = np.array(sorted({float(t) for t in wanted} - set(self._cache)))
        if not missing.size:
            return
        setup = self._setup
        z1, z2 = setup.grid1.nodes, setup.grid2.nodes
        diffs = np.concatenate([z2[0] - z1[::-1], z2[1:] - z1[0]])
        both = []
        for refine in (1, 2):
            basis, b, h, blocks = _spectra(setup, missing, refine)
            a = real_products(h * basis.w, cos_sin(diffs, basis.k).T,
                              np.empty((missing.size, diffs.size)))
            g_f = (g for block in blocks for g in block)
            both.append(zip(a, b, g_f, h, repeat(basis)))
        for t, (a_c, b_c, g_c, _, basis_c), (a_f, b_f, g_f, h, basis) in zip(missing, *both):
            for c, f in ((a_c, a_f), (b_c, b_f)):
                peak = np.max((np.max(np.abs(c)), np.max(np.abs(f))))
                _converged("interaction time integrals", c, f,
                           min(_TABLE_ATOL, _TABLE_RTOL * peak), at=f" at t={t}")
            _check_d(t, basis_c, g_c, basis, g_f)
            self._cache[float(t)] = _TimeTables(b_f, g_f, h, basis)


def _check_d(t: float, basis_c: _KBasis, g_c: np.ndarray,
             basis: _KBasis, g_f: np.ndarray) -> None:
    """Raise unless D's two resolutions agree, forming no n1 x n2 table while they do.

    Coarse and fine D are formed a block of rows at a time, in the fine
    product's own real_products blocks, so each fine entry has the bits of
    the whole fine table's. Per block the peak of |D| over both resolutions
    and the worst gap |coarse - fine| are updated; a NaN gap stays the
    worst, as _converged fails it. The worst gap is held against
    min(_TABLE_ATOL, _TABLE_RTOL * peak). Only when it fails are both whole
    tables formed and handed to _converged, which raises for the worst
    entry with its two estimates. A NaN or infinite entry of either
    resolution leaves a NaN or infinite gap, so it fails too.
    """
    right_c, right_f = np.ascontiguousarray(g_c.T), np.ascontiguousarray(g_f.T)
    n1 = basis.z1.shape[0]
    rows = gemm_rows(right_f.view(float).size)  # real_products' rows for the fine D
    shape = (min(rows, n1), right_f.shape[1])
    block_c, block_f = np.empty(shape, dtype=g_f.dtype), np.empty(shape, dtype=g_f.dtype)
    moduli = np.empty(shape)
    peak, gap = 0.0, 0.0
    for i in range(0, n1, rows):
        c = real_products(basis_c.z1[i:i + rows], right_c, block_c[:n1 - i])
        f = real_products(basis.z1[i:i + rows], right_f, block_f[:n1 - i])
        mod = np.abs(c, out=moduli[:c.shape[0]])
        peak = np.max((peak, mod.max(), np.abs(f, out=mod).max()))
        # c's block takes the difference: both peaks are already taken
        np.abs(np.subtract(c, f, out=c), out=mod)
        gap = np.maximum(gap, mod.max())
    bound = min(_TABLE_ATOL, _TABLE_RTOL * peak)
    if not gap <= bound:
        n2 = right_f.shape[1]
        _converged("interaction time integrals",
                   basis_c.table(g_c, np.empty((n1, n2), dtype=g_f.dtype)),
                   basis.table(g_f, np.empty((n1, n2), dtype=g_f.dtype)),
                   bound, at=f" at t={t}")


def _amplitude(setup: CollisionSetup, entry: _TimeTables, weight: complex) -> np.ndarray:
    """psi_free + i chi D f2 + weight A B f2 as one row-blocked real product.

    D and A are the box transforms of G_f and of A's spectrum basis.box(h),
    so psi = f1(z1) f2(z2) + (1/2 pi) int exp(-ik z1) X(z2, k) dk with
    X = (i chi G_f + weight B G_b) f2, kept at k+ as [C_X | S_X] (_KBasis):
    the product of [f1 | 2w cos(k z1) | 2w sin(k z1)] with [f2 row; X rows],
    a real left against a complex right, written into psi's float64 view
    (numerics.real_products). The left factor is built once per basis
    (_KBasis.left) and f2's samples once per setup. No n1 x n2 table is
    formed.
    """
    basis = entry.basis
    f2_row = setup.f2_samples
    spec = 1j * setup.params.chi * entry.g_f + (weight * entry.b)[:, None] * basis.box(entry.h)
    spec *= f2_row[:, None]
    psi = np.empty((setup.grid1.n, setup.grid2.n), dtype=complex)
    return real_products(basis.left, np.vstack([f2_row[None, :], spec.T]), psi)


def series_term(setup: CollisionSetup, n: int, z1, z2, t: float) -> np.ndarray | complex:
    """Order-n interaction amplitude at arbitrary points (broadcasting).

    n = 1 carries the full kernel-times-profile time integral D; higher
    orders factorize into A, B and the t^(n-2) weight. The order-0 free
    term is not a series member (build it with free_state). The time
    integrals run on composite 8-node Gauss panels, _SERIES_PANELS per
    pulse width crossed, with no k rule: the position-side check of the
    tables.
    """
    if n < 1:
        raise ParameterError(f"series order must be >= 1, got {n}")
    t = _time(t)
    z1 = np.asarray(z1, dtype=float)
    z2 = np.asarray(z2, dtype=float)
    shape = np.broadcast_shapes(z1.shape, z2.shape)
    if t == 0.0:
        out = np.zeros(shape, dtype=complex)
        return complex(out) if out.ndim == 0 else out
    p = setup.params
    rule = composite_gauss_grid(0.0, t, max(1, math.ceil(abs(p.v_r) * t)) * _SERIES_PANELS)
    tq, wq = rule.nodes, rule.weights
    kern = commutator_kernel(z2[..., None] - z1[..., None] - p.v_r * tq, p.k0)
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


def two_particle_headon_series(setup: CollisionSetup, t: float, *,
                               tables: InteractionTables | None = None) -> TwoParticleState:
    """Partial sum of the interaction series on the co-moving grids.

    Order 1, i chi D f2, is always summed. Every order n >= 2 is the scalar
    weight w_n = (i x)^n / (n! kappa t^2) times the one row A B f2, so the
    weights are summed as scalars and the state is formed once, with the
    summed weight (_amplitude). C's box in k gives |A| <= kappa t (see the
    module docstring), so order n's sup-norm is at most
    |w_n| kappa t max|B f2|, a bound from B alone. Orders are added until
    that bound falls below 1e-12 or order _N_MAX = 40 is reached; if the
    last bound is still above 1e-6 the truncation is reported as an error.
    No n1 x n2 array but the state is built. The result is not normalized.
    """
    t = _time(t)
    if t == 0.0:
        return free_state(setup.f1, setup.f2, setup.grid1, setup.grid2)
    if tables is None:
        tables = InteractionTables(setup)
    entry = tables._entry(setup, t)
    p = setup.params
    x = p.chi * p.kappa * t
    ab_bound = p.kappa * t * float(np.max(np.abs(entry.b * setup.f2_samples)))
    scale = 1.0 / (p.kappa * t * t)
    coef, total = 1j * x, 0j
    for n in range(2, _N_MAX + 1):
        coef = coef * (1j * x) / n
        weight = coef * scale
        total += weight
        bound = abs(weight) * ab_bound
        if bound < _STOP_TOL:
            break
    else:
        if bound > _FAIL_TOL:
            raise TruncationError(
                f"series not converged by order {_N_MAX}: last term "
                f"sup-norm bound {bound:.3e} (accumulated phase x={x:.3g})")
    return TwoParticleState(setup.grid1, setup.grid2, _amplitude(setup, entry, total))


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
        warnings.warn("slow-pulse approximation degraded: gauge k0|v_r|t "
                      "exceeds 0.1", ApproximationWarning, stacklevel=3)


def two_particle_headon_closed(setup: CollisionSetup, t: float, *,
                               tables: InteractionTables | None = None) -> TwoParticleState:
    """Summed interaction series on the co-moving grids (not normalized).

    psi = psi_free + i chi D f2 + A B f2 (exp(ix) - 1 - ix) / (kappa t^2),
    x = chi kappa t. At t = 0 the interaction vanishes and the free product
    is returned exactly. A warning is emitted when the slow-pulse gauge
    k0 |v_r| t exceeds 0.1.
    """
    t = _time(t)
    if t == 0.0:
        return free_state(setup.f1, setup.f2, setup.grid1, setup.grid2)
    _warn_gauge(setup, t)
    if tables is None:
        tables = InteractionTables(setup)
    psi = _amplitude(setup, tables._entry(setup, t), _beta(setup.params, t))
    return TwoParticleState(setup.grid1, setup.grid2, psi)


def _beta(params: SystemParams, t: float) -> complex:
    """Weight (exp(ix) - 1 - ix) / (kappa t^2) of the summed n >= 2 orders."""
    return _exp_remainder(params.chi * params.kappa * t) / (params.kappa * t * t)


def fidelity_evolution(setup: CollisionSetup, *,
                       tables: InteractionTables | None = None) -> SweepResult:
    """Fidelity and conditional phase against the free reference over time.

    The samples are setup.times, a ladder CollisionSetup has already
    checked. Builds no two-photon state: with the chi-independent
    trajectory moments (p, r, c, o_f, o_b) of InteractionTables.line_moments,
        <free|raw> = |free|^2 + i chi o_f + beta o_b,
        |raw|^2    = |free|^2 + 2 Re(i chi o_f + beta o_b)
                     + chi^2 p - 2 chi Im(conj(beta) r) + |beta|^2 c,
    both with z1 over the whole line, so F = |<free|raw>|^2 / (|free|^2
    |raw|^2) does not depend on grid_halfwidth and each sample costs O(1).
    The conditional phase is the argument of <free|raw>. Minimum and final
    fidelity are recorded in the provenance, the gauge monitor as a column;
    like two_particle_headon_closed, this warns when the slow-pulse gauge
    exceeds 0.1.
    """
    samples = np.asarray(setup.times)
    _warn_gauge(setup, float(samples[-1]))
    if tables is None:
        tables = InteractionTables(setup)
    p_mom, r_mom, c_mom, o_f, o_b = tables.line_moments(setup, samples)
    p = setup.params
    free_nsq = _window_nsq(setup.grid1, setup.f1) * _window_nsq(setup.grid2, setup.f2)
    beta = np.array([_beta(p, float(t)) if t > 0.0 else 0.0 for t in samples])
    corr = 1j * p.chi * o_f + beta * o_b
    amp = free_nsq + corr
    line_nsq = (free_nsq + 2.0 * corr.real + p.chi ** 2 * p_mom
                - 2.0 * p.chi * (np.conj(beta) * r_mom).imag + np.abs(beta) ** 2 * c_mom)
    fid = np.minimum(np.abs(amp) ** 2 / (free_nsq * line_nsq), 1.0)
    phase = np.arctan2(amp.imag, amp.real)
    gauge = np.array([setup.gauge(float(t)) for t in samples])
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

    z1 is traced over the whole line (see _line_entropy), so the kernel
    tail beyond grid_halfwidth is included; the reduced kernel lives on the
    z2 grid, where f2 bounds it. S_L is computed at two resolutions, which
    must agree within _LINE_RTOL of S_L plus _ENTROPY_ATOL. The entropy
    reads no cache: tables is only checked against the setup's geometry.
    Warns like two_particle_headon_closed when the slow-pulse gauge exceeds
    0.1.
    """
    t = _time(t)
    if tables is not None:
        tables._require_compatible(setup)
    if t == 0.0:
        return 0.0
    _warn_gauge(setup, t)
    coarse, fine = (_line_entropy(setup, t, refine) for refine in (1, 2))
    return _converged("whole-line linear entropy", coarse, fine, 1.0,
                      _LINE_RTOL * max(abs(coarse), abs(fine)) + _ENTROPY_ATOL,
                      at=f" at t={t}")


def ideal_headon_metrics(chi: float, v_r: float) -> GateMetrics:
    """Infinite-bandwidth limit: a pure conditional phase chi / v_r.

    The pulses pass through each other unchanged and pick up a uniform
    phase, so fidelity is one and no entanglement is generated.
    """
    if v_r == 0.0:
        raise ParameterError("ideal collision metrics need v_r != 0")
    return GateMetrics(fidelity=1.0, phase=chi / v_r, linear_entropy=0.0)
