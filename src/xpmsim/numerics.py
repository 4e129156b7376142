"""Grids, quadrature rules, the bandwidth kernel, pulse profiles, and real k-side products.

Everything downstream works in pulse-width units: lengths are measured in
units of the common pulse width sigma, so a profile of unit width centered
at z0 and the dimensionless bandwidth parameter k0 fully describe the
single-pulse inputs.

The kernel is a box in k, so both engines take their k-side transforms from
here, as real cosine and sine transforms (cos_sin) multiplied in row blocks
that stay on the calling thread (real_products). Their composite Gauss
panels all use the 8-node Gauss-Legendre rule, kept here as literal
arrays, so no sweep or API call loads numpy.polynomial; only another
rule size (make_grid's 'gauss-legendre' rule) builds one with leggauss.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import AccuracyError, ModeError, ParameterError, ProfileError

__all__ = [
    "Grid1D",
    "PulseProfile",
    "SystemParams",
    "commutator_kernel",
    "composite_gauss_grid",
    "join_grids",
    "make_grid",
    "make_profile",
    "sinc_kernel",
]

_SINC_SERIES_CUTOFF = 1e-4


def sinc_kernel(x: np.ndarray | float, k0: float = 1.0) -> np.ndarray | float:
    """Unnormalized sinc kernel sin(k0 x)/(k0 x).

    The removable singularity is handled by the quartic Taylor series
    1 - u^2/6 + u^4/120 for |u| = |k0 x| below 1e-4, which is exact to
    double precision there.
    """
    if k0 <= 0.0:
        raise ParameterError(f"k0 must be positive, got {k0}")
    u = np.asarray(x, dtype=float) * k0
    shape = np.shape(u)
    # a 0-d product is a NumPy scalar, which takes no item assignment
    u = np.atleast_1d(u)
    out = np.sin(u)
    with np.errstate(invalid="ignore"):
        out /= u
    small = np.abs(u) < _SINC_SERIES_CUTOFF
    if small.any():
        us = u[small]
        out[small] = 1.0 - us * us / 6.0 + us**4 / 120.0
    if np.isscalar(x):
        return float(out[0])
    return out.reshape(shape)


def commutator_kernel(x: np.ndarray | float, k0: float):
    """Field commutator amplitude C(x) = k0/pi * sinc(k0 x), x in pulse widths.

    Integrates to one over the real line; its height k0/pi is the rate
    constant kappa used by the collision series.
    """
    return (k0 / math.pi) * sinc_kernel(x, k0)


def cos_sin(x: np.ndarray, k: np.ndarray) -> np.ndarray:
    """[cos(k x) | sin(k x)], shape (x, 2 k)."""
    arg = np.outer(x, k)
    out = np.empty((arg.shape[0], 2 * arg.shape[1]))
    np.cos(arg, out=out[:, :arg.shape[1]])
    np.sin(arg, out=out[:, arg.shape[1]:])
    return out


# Hot products are real: a real BLAS product in row blocks, or an einsum, never
# a complex BLAS product and never one large product. NumPy's bundled OpenBLAS
# (scipy-openblas 0.3.31, two threads on a 2-core machine) hands complex
# products as small as 32 x 184 x 16 (ZGEMM) or 401 x 16 (ZGEMV) to a helper
# thread, which then spins, and a handoff sometimes stalls for 4-8 ms: in one
# `coeffs --profile gaussian` run the 11 C1 chunk products took 73 ms that way
# and 0.6 ms on one thread, and threaded products stalled the head-on
# trajectory moments for up to 0.8 s at a time. A real DGEMM stays on the
# calling thread up to a size: on the 2-core machine products of up to 641600
# multiply-adds (m n k) stayed there and one of 1.03M did not, and a single
# 401 x 401 x 16 product took 4.5 ms where five row blocks of it took 0.15 ms.
# So real_products and the sampled sinc blocks of the grid route
# (copropagating._kernel_sums) and of the entropy sweep take blocks of fewer
# than _GEMM_MNK multiply-adds (gemm_rows), and so does the
# head-on tables' check of D (headon._check_d), which forms both
# resolutions a block of the fine product's real_products rows at a time
# (81 of 401 rows at the default geometry), never as one product. C1's
# chunk products of 1.0-6.3M multiply-adds at k0 = 30 and 100 woke the
# helper in every run while they were single products. Where one row alone reaches the
# limit (C1 of unit gaussians past k0 = 270), one-row products stream all of
# right per row: a 32 x 18128 x 32 product took 6.7 ms that way and 0.95 ms
# summed over slabs of right's rows. When the grid route sampled a sinc tail
# out to 6000 pulse widths (36 418 tail rows over criterion 05's lattice),
# those rows took 0.08-0.10 s of wall and 0.09-0.12 s of CPU in blocks, the
# process peaking at 38 MB; in row blocks of 4e6 elements, which thread, they
# took 0.13-0.32 s of wall, 0.24-0.32 s of CPU and 96 MB, so the second core
# does not pay there either. The route now samples 513 Z1 rows per k0 and
# adds the rest of the tail in closed form: over the lattice it takes 31-35 ms
# warm on the 2-core machine.
# Importing numpy starts the helper, which then spins for about 0.1 s (its
# thread timeout): 0.06 s of CPU during the import and 17-26 ms more in a
# short job that starts soon after. So when xpmsim is the first to import
# numpy and none of OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS and OMP_NUM_THREADS
# is set, numpy loads with one OpenBLAS thread (xpmsim/__init__.py); the
# variable is removed again, so child processes see the user's environment.
# The row blocks stay, because a process that loaded numpy first (pytest, or a
# library user who imports numpy before xpmsim) keeps numpy's pool:
# tests/test_threads.py loads numpy first and checks that no CLI figure task,
# no C1 at k0 = 30 or 100, no entropy sweep at k0 = 100, no pass of the
# head-on oracle, no collision entropy, no pass of the grid route and none of
# validate's criteria but 07, 08 and 12 wakes a helper. Those three use
# products that are not blocked and that OpenBLAS does thread under numpy's
# pool: state.reduced_kernel's complex n x n x n product (and so
# linear_entropy), ReducedKernel.eigenvalues' LAPACK call, validate's SVD and
# headon.series_term's matrix-vector product over all its points. On one
# thread, in ten alternating fresh-interpreter pairs on the 2-core machine,
# a 401-node linear_entropy took 10.9 ms of wall and CPU against 8.7 ms of
# wall and 17.2 ms of CPU with the helper; eigenvalues of a 401-node kernel
# took 22.8 ms against 22.0 ms of wall, with half the CPU; and
# `python -m xpmsim.cli.main validate` took 1.19 s against 1.17 s of wall
# (inside the helper runs' quartiles) and 1.22 s against 1.55 s of CPU.
_GEMM_MNK = 1 << 19


def gemm_rows(row_cost: int) -> int:
    """Rows per block of a real product whose every row costs row_cost multiply-adds."""
    return max(1, (_GEMM_MNK - 1) // row_cost)


def real_products(left: np.ndarray, right: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = left @ right as real BLAS products of fewer than _GEMM_MNK multiply-adds.

    left and right are each real or complex. A complex left is split into
    [Re left | Im left] against [right; i right]. A complex out is written
    through its float64 view, whose rows interleave real and imaginary parts
    as a complex right's float64 view does, so it needs a complex left or
    right; a real out takes the real part. out is filled a block of rows at
    a time (gemm_rows). Where one row alone reaches _GEMM_MNK, one-row
    products would each stream all of right, so all rows are summed over
    slabs of right's rows instead, which needs out below _GEMM_MNK entries.
    """
    if np.iscomplexobj(left):
        left = np.hstack([left.real, left.imag])
        right = np.concatenate([right, 1j * right])
    if np.iscomplexobj(out):
        rhs, dst = np.ascontiguousarray(right).view(float), out.view(float)
    else:
        rhs, dst = np.ascontiguousarray(right.real), out
    slab = rhs.shape[0] if rhs.size < _GEMM_MNK else gemm_rows(dst.size)
    rows = gemm_rows(slab * rhs.shape[1])
    for i in range(0, left.shape[0], rows):
        np.matmul(left[i:i + rows, :slab], rhs[:slab], out=dst[i:i + rows])
        for j in range(slab, rhs.shape[0], slab):
            dst[i:i + rows] += np.matmul(left[i:i + rows, j:j + slab], rhs[j:j + slab])
    return out


@dataclass(frozen=True, eq=False)
class Grid1D:
    """Quadrature grid: strictly increasing nodes with positive weights.

    The weights integrate a sampled function over the covered interval
    [lo, hi]; their sum equals that span, which is checked at construction.
    Open rules (Gauss nodes) do not touch the interval endpoints, so the
    covered domain is stored explicitly; when omitted it defaults to the
    node range, which is correct for closed rules.
    """

    nodes: np.ndarray
    weights: np.ndarray
    domain: tuple[float, float] | None = None

    def __post_init__(self):
        # copies: the grid freezes its arrays, and must not freeze the caller's
        nodes = np.array(self.nodes, dtype=float)
        weights = np.array(self.weights, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        if nodes.ndim != 1 or weights.ndim != 1 or nodes.size != weights.size:
            raise ParameterError("nodes and weights must be 1-D arrays of equal length")
        if nodes.size < 2:
            raise ParameterError("grid needs at least two nodes")
        if not np.all(np.diff(nodes) > 0):
            raise ParameterError("grid nodes must be strictly increasing")
        if not np.all(weights > 0):
            raise ParameterError("grid weights must be positive")
        if self.domain is None:
            dom = (float(nodes[0]), float(nodes[-1]))
        else:
            dom = (float(self.domain[0]), float(self.domain[1]))
        object.__setattr__(self, "domain", dom)
        if not (dom[0] <= nodes[0] and nodes[-1] <= dom[1]):
            raise ParameterError("grid nodes fall outside the stated domain")
        span = dom[1] - dom[0]
        if abs(float(weights.sum()) - span) > 1e-12 * max(span, 1.0):
            raise ParameterError("grid weights do not sum to the domain length")
        nodes.setflags(write=False)
        weights.setflags(write=False)

    @property
    def lo(self) -> float:
        return self.domain[0]

    @property
    def hi(self) -> float:
        return self.domain[1]

    @property
    def n(self) -> int:
        return int(self.nodes.size)

    def integrate(self, values: np.ndarray) -> complex:
        return complex(np.sum(self.weights * values))

    def same_as(self, other: "Grid1D") -> bool:
        return (
            self.n == other.n
            and self.domain == other.domain
            and np.array_equal(self.nodes, other.nodes)
            and np.array_equal(self.weights, other.weights)
        )


def _read_only(values: list[float]) -> np.ndarray:
    a = np.array(values)
    a.setflags(write=False)
    return a


# np.polynomial.legendre.leggauss(8), bit for bit: building it imports
# numpy.polynomial, about 4 ms in every process that needs one panel
_GAUSS_8 = (
    _read_only([-0.9602898564975362, -0.7966664774136267, -0.525532409916329,
                -0.18343464249564978, 0.18343464249564978, 0.525532409916329,
                0.7966664774136267, 0.9602898564975362]),
    _read_only([0.10122853629037706, 0.22238103445337443, 0.3137066458778869,
                0.36268378337836166, 0.36268378337836166, 0.3137066458778869,
                0.22238103445337443, 0.10122853629037706]),
)


@functools.lru_cache(maxsize=128)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre nodes and weights on [-1, 1], read-only.

    The coefficient axis, the k rules and the trajectory panels are
    composite panels of the 8-node rule, which is kept as literals
    (_GAUSS_8), so none of them loads numpy.polynomial. Any other n (a
    make_grid 'gauss-legendre' rule, such as validate's 400-node reference)
    is an eigen-solve by leggauss, built once per n. The arrays are shared
    by all callers, so they are read-only.
    """
    if n == 8:
        return _GAUSS_8
    x, w = np.polynomial.legendre.leggauss(n)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def make_grid(lo: float, hi: float, n: int, rule: str = "uniform") -> Grid1D:
    """Build a quadrature grid on [lo, hi].

    rule 'uniform' gives equispaced nodes with composite-trapezoid weights;
    rule 'gauss-legendre' gives the n-point Gauss-Legendre rule mapped onto
    the interval (exact for polynomials of degree 2n - 1).
    """
    if not lo < hi:
        raise ParameterError(f"need lo < hi, got [{lo}, {hi}]")
    if n < 2:
        raise ParameterError(f"need at least 2 nodes, got {n}")
    if rule == "uniform":
        nodes = np.linspace(lo, hi, n)
        h = (hi - lo) / (n - 1)
        weights = np.full(n, h)
        weights[0] = weights[-1] = h / 2.0
        return Grid1D(nodes, weights)
    if rule == "gauss-legendre":
        x, w = _gauss_legendre(n)
        half = 0.5 * (hi - lo)
        return Grid1D(half * x + 0.5 * (hi + lo), half * w, domain=(lo, hi))
    raise ParameterError(f"unknown grid rule {rule!r}")


def composite_gauss_grid(lo: float, hi: float, n_panels: int) -> Grid1D:
    """Composite Gauss-Legendre rule: n_panels equal 8-node panels on [lo, hi]."""
    if n_panels < 1:
        raise ParameterError(f"need at least one panel, got {n_panels}")
    x, w = _gauss_legendre(8)
    edges = np.linspace(lo, hi, n_panels + 1)
    half = 0.5 * (edges[1] - edges[0])
    nodes = (half * x[None, :] + 0.5 * (edges[:-1] + edges[1:])[:, None]).ravel()
    weights = np.broadcast_to(half * w, (n_panels, 8)).ravel()
    return Grid1D(nodes, weights.copy(), domain=(lo, hi))


def join_grids(*grids: Grid1D) -> Grid1D:
    """Concatenate contiguous grids (each starting where the previous ends).

    One grid is returned as it is: a Grid1D is immutable.
    """
    if len(grids) < 1:
        raise ParameterError("join_grids needs at least one grid")
    if len(grids) == 1:
        return grids[0]
    for a, b in zip(grids, grids[1:]):
        if b.lo < a.hi:
            raise ParameterError("grids to join must be ordered and non-overlapping")
    nodes = np.concatenate([g.nodes for g in grids])
    weights = np.concatenate([g.weights for g in grids])
    if not np.all(np.diff(nodes) > 0):
        raise ParameterError("joined grids share a node")
    return Grid1D(nodes, weights, domain=(grids[0].lo, grids[-1].hi))


def _converged(what: str, coarse, fine, tol: float, scale=1.0, at=""):
    """fine, once a quadrature's two resolutions agree entry by entry.

    coarse, fine and scale broadcast together; an entry agrees when its
    gap |coarse - fine| is at most tol * scale, so a NaN gap fails. Otherwise
    the first entry with a NaN gap, or else the entry whose gap exceeds its
    bound by most, raises an AccuracyError carrying that entry's two
    estimates, with the message
    "<what> not converged<at>: <coarse> vs <fine>"; a callable at is given
    that entry's index.
    """
    # Python's abs, unlike np.abs, lets NumPy reuse a real difference's own
    # buffer: a second table-sized temporary made the heap hand its pages
    # back and fault them in again on every check of the head-on tables.
    # inf - inf is a NaN gap, which fails below, so it needs no warning
    with np.errstate(invalid="ignore"):
        excess = abs(np.subtract(coarse, fine))
    excess -= tol * scale
    if (excess <= 0.0).all():
        return fine
    # argmax, unlike nanargmax, stops at the first NaN
    worst = np.unravel_index(np.argmax(excess), np.shape(excess))
    c = np.broadcast_to(coarse, np.shape(excess))[worst]
    f = np.broadcast_to(fine, np.shape(excess))[worst]
    where = at(worst) if callable(at) else at
    raise AccuracyError(f"{what} not converged{where}: {c} vs {f}", coarse=c, fine=f)


@dataclass(frozen=True)
class PulseProfile:
    """Single-photon spatial envelope f(z), unit L2 norm by construction.

    shape 'gaussian': f(z) = (1/(sigma sqrt(pi)))^(1/2) exp(-(z-center)^2/(2 sigma^2)).
    shape 'square':   f(z) = width^(-1/2) on [center - width/2, center + width/2]
                      (half value exactly on the edges), 0 outside.
    shape 'tabulated': linear interpolation of a sampled envelope, renormalized.
    """

    shape: str
    center: float = 0.0
    sigma: float = 1.0
    width: float | None = None
    table_nodes: np.ndarray | None = field(default=None, repr=False)
    table_values: np.ndarray | None = field(default=None, repr=False)
    scale: float = 1.0

    def __post_init__(self):
        if self.sigma <= 0.0:
            raise ParameterError(f"sigma must be positive, got {self.sigma}")
        if self.shape == "square":
            if self.width is None or self.width <= 0.0:
                raise ParameterError("square profile needs a positive width")
        elif self.shape == "tabulated":
            if self.table_nodes is None or self.table_values is None:
                raise ParameterError("tabulated profile needs nodes and values")
            nodes = np.asarray(self.table_nodes, dtype=float)
            vals = np.asarray(self.table_values)
            if nodes.ndim != 1 or vals.shape != nodes.shape:
                raise ParameterError("table nodes/values must be matching 1-D arrays")
            if not np.all(np.diff(nodes) > 0):
                raise ParameterError("table nodes must be strictly increasing")
            object.__setattr__(self, "table_nodes", nodes)
            object.__setattr__(self, "table_values", np.asarray(vals, dtype=complex))
        elif self.shape != "gaussian":
            raise ProfileError(f"unknown profile shape {self.shape!r}")

    def __call__(self, z: np.ndarray | float) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        if self.shape == "gaussian":
            amp = (1.0 / (self.sigma * math.sqrt(math.pi))) ** 0.5
            out = amp * np.exp(-((z - self.center) ** 2) / (2.0 * self.sigma**2))
        elif self.shape == "square":
            half = self.width / 2.0
            amp = self.width**-0.5
            d = np.abs(z - self.center)
            out = np.where(d < half, amp, 0.0)
            out = np.where(d == half, 0.5 * amp, out)
        else:
            re = np.interp(z, self.table_nodes, self.table_values.real, left=0.0, right=0.0)
            im = np.interp(z, self.table_nodes, self.table_values.imag, left=0.0, right=0.0)
            out = re + 1j * im if np.any(self.table_values.imag) else re
        return self.scale * out

    @property
    def is_real(self) -> bool:
        if self.shape == "tabulated":
            return not np.any(self.table_values.imag)
        return True

    @property
    def label(self) -> str:
        """Compact descriptor used in coefficient records and provenance."""
        if self.shape == "gaussian":
            return f"gaussian(center={self.center:g},sigma={self.sigma:g})"
        if self.shape == "square":
            return f"square(center={self.center:g},width={self.width:g})"
        return f"tabulated(n={self.table_nodes.size},center={self.center:g})"

    @property
    def breakpoints(self) -> tuple[float, ...]:
        """Where the profile jumps or kinks, for piecewise quadrature.

        A square's two edges; a tabulated profile's table nodes, where the
        slope of its linear interpolant jumps; none for a gaussian.
        """
        if self.shape == "square":
            return (self.center - self.width / 2.0, self.center + self.width / 2.0)
        if self.shape == "tabulated":
            return tuple(self.table_nodes.tolist())
        return ()

    def support_halfwidth(self) -> float:
        """Half-width beyond which the profile is negligible (or exactly zero).

        A gaussian's is ten sigma, where it has fallen to exp(-50).
        """
        if self.shape == "gaussian":
            return 10.0 * self.sigma
        if self.shape == "square":
            return self.width / 2.0
        return max(abs(self.table_nodes[0] - self.center),
                   abs(self.table_nodes[-1] - self.center))

    def norm_squared(self) -> float:
        """Exact (gaussian/square) or trapezoid (tabulated) L2 norm squared."""
        if self.shape in ("gaussian", "square"):
            return self.scale**2
        base = np.trapezoid(np.abs(self.table_values) ** 2, self.table_nodes)
        return float(self.scale**2 * base)

    def normalized(self) -> "PulseProfile":
        nsq = self.norm_squared()
        if nsq <= 0.0:
            raise ParameterError("cannot normalize an identically zero profile")
        return replace(self, scale=self.scale / math.sqrt(nsq))


def profile_key(f: PulseProfile) -> tuple:
    """Every field that defines a profile, its table arrays as raw bytes.

    The label is not enough: it prints center and sigma with %g and gives
    a tabulated profile only its node count. The bytes are copies, so a
    table edited in place gives another key.
    """
    tables = tuple(None if a is None else a.tobytes()
                   for a in (f.table_nodes, f.table_values))
    return (f.shape, f.center, f.sigma, f.width, f.scale) + tables


def make_profile(shape: str, center: float = 0.0, sigma: float = 1.0,
                 width: float | None = None,
                 table_nodes: np.ndarray | None = None,
                 table_values: np.ndarray | None = None) -> PulseProfile:
    """Build a unit-norm pulse profile.

    For 'square' the default width is 2 sigma. Tabulated profiles are
    renormalized on construction.
    """
    if shape == "square" and width is None:
        width = 2.0 * sigma
    prof = PulseProfile(shape=shape, center=center, sigma=sigma, width=width,
                        table_nodes=table_nodes, table_values=table_values)
    if shape == "tabulated":
        return prof.normalized()
    return prof


@dataclass(frozen=True)
class SystemParams:
    """Dimensionless system parameters shared by both propagation modes.

    k0 is the bandwidth parameter sigma * delta_omega_s / (2 c) of pulses of
    width sigma, the unit of every length; kappa = k0/pi is the commutator
    height; chi is the interaction rate.
    The stored accumulated phase phi must be consistent with (chi, kappa)
    and the mode geometry: phi = chi * kappa * interaction_time when
    co-propagating, phi = 2 chi kappa separation / |v_r| when colliding.
    """

    k0: float
    phi: float
    chi: float
    v1: float = 0.0
    v2: float = 0.0
    separation: float | None = None
    interaction_time: float | None = None

    def __post_init__(self):
        if self.k0 <= 0.0:
            raise ParameterError(f"k0 must be positive, got {self.k0}")
        if self.phi < 0.0:
            raise ParameterError(f"phi must be non-negative, got {self.phi}")
        tol = 1e-12 * max(1.0, abs(self.phi))
        if self.mode == "copropagating":
            if self.interaction_time is None:
                raise ParameterError("co-propagating parameters need interaction_time")
            if abs(self.phi - self.chi * self.kappa * self.interaction_time) > tol:
                raise ParameterError("phi inconsistent with chi * kappa * interaction_time")
        else:
            if self.separation is None or self.separation < 0.0:
                raise ParameterError("colliding parameters need a non-negative separation")
            if abs(self.phi - 2.0 * self.chi * self.kappa * self.separation / abs(self.v_r)) > tol:
                raise ParameterError("phi inconsistent with 2 chi kappa separation / |v_r|")

    @property
    def kappa(self) -> float:
        return self.k0 / math.pi

    @property
    def v_r(self) -> float:
        return self.v1 - self.v2

    @property
    def mode(self) -> str:
        return "copropagating" if self.v1 == self.v2 else "headon"

    @classmethod
    def copropagating(cls, k0: float, phi: float) -> "SystemParams":
        """Equal-velocity parameters at rest, with chi fixed by phi = chi kappa t at t = 1.

        The copropagating engine reads only k0 and phi.
        """
        return cls(k0=k0, phi=phi, chi=phi / (k0 / math.pi), interaction_time=1.0)

    @classmethod
    def headon(cls, k0: float, separation: float, v1: float, v2: float,
               phi: float | None = None, chi: float | None = None) -> "SystemParams":
        """Colliding-pulse parameters; give exactly one of phi or chi.

        The other is derived from phi = 2 chi kappa separation / |v_r|, the
        full-pass phase accumulated while the pulses cross.
        """
        if v1 == v2:
            raise ModeError("colliding mode needs v1 != v2")
        if (phi is None) == (chi is None):
            raise ParameterError("give exactly one of phi or chi")
        kappa = k0 / math.pi
        v_r = abs(v1 - v2)
        if chi is None:
            if separation <= 0.0:
                raise ParameterError("phi-specified collision needs a positive separation")
            chi = phi * v_r / (2.0 * kappa * separation)
        else:
            phi = 2.0 * chi * kappa * separation / v_r
        return cls(k0=k0, phi=phi, chi=chi, v1=v1, v2=v2, separation=separation)
