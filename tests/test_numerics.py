"""Grids, kernels, pulse profiles, and system parameters."""

import math
import warnings

import numpy as np
import pytest

from xpmsim import (
    AccuracyError,
    Grid1D,
    ModeError,
    ParameterError,
    ProfileError,
    SystemParams,
    commutator_kernel,
    composite_gauss_grid,
    join_grids,
    make_grid,
    make_profile,
    sinc_kernel,
)
from xpmsim import numerics


# ---------------------------------------------------------------- grids

def test_uniform_grid_trapezoid_weights():
    g = make_grid(0.0, 1.0, 5, rule="uniform")
    h = 0.25
    assert np.allclose(g.weights, [h / 2, h, h, h, h / 2])
    assert g.lo == 0.0 and g.hi == 1.0 and g.n == 5
    # trapezoid rule is exact for linear integrands
    assert g.integrate(g.nodes).real == pytest.approx(0.5, abs=1e-15)


def test_gauss_legendre_polynomial_exactness():
    # n-point Gauss-Legendre integrates degree 2n-1 exactly
    g = make_grid(0.0, 1.0, 6, rule="gauss-legendre")
    val = g.integrate(g.nodes**10).real
    assert val == pytest.approx(1.0 / 11.0, abs=1e-14)


def test_gauss_legendre_domain_covers_endpoints():
    # open rule: nodes stay interior but the grid still reports [lo, hi]
    g = make_grid(-2.0, 3.0, 8, rule="gauss-legendre")
    assert g.lo == -2.0 and g.hi == 3.0
    assert g.nodes[0] > -2.0 and g.nodes[-1] < 3.0
    assert math.fsum(g.weights) == pytest.approx(5.0, abs=1e-12)


def test_cached_gauss_rule_is_read_only():
    # one rule object serves every caller, so no caller may write into it
    x, w = numerics._gauss_legendre(7)
    ref_x, ref_w = np.polynomial.legendre.leggauss(7)
    assert np.array_equal(x, ref_x) and np.array_equal(w, ref_w)
    with pytest.raises(ValueError):
        x[0] = 0.0
    with pytest.raises(ValueError):
        w[0] = 0.0


def test_eight_node_gauss_rule_is_leggauss_bit_for_bit():
    # every composite panel takes the literal 8-node rule, never leggauss
    x, w = numerics._gauss_legendre(8)
    ref_x, ref_w = np.polynomial.legendre.leggauss(8)
    assert x.dtype == w.dtype == np.float64
    assert x.tobytes() == ref_x.tobytes() and w.tobytes() == ref_w.tobytes()
    assert not x.flags.writeable and not w.flags.writeable
    with pytest.raises(ValueError):
        x[0] = 0.0
    with pytest.raises(ValueError):
        w[0] = 0.0


def test_composite_gauss_grid_oscillatory():
    g = composite_gauss_grid(0.0, 2.0 * math.pi, 6)
    assert abs(g.integrate(np.cos(g.nodes))) < 1e-12
    assert g.lo == 0.0 and g.hi == pytest.approx(2.0 * math.pi)


def test_join_grids_preserves_integral():
    left = make_grid(-4.0, -1.0, 40, rule="gauss-legendre")
    right = make_grid(-1.0, 4.0, 60, rule="gauss-legendre")
    joined = join_grids(left, right)
    assert joined.n == 100
    assert np.all(np.diff(joined.nodes) > 0)
    ref = np.sqrt(math.pi)  # integral of exp(-x^2) over the line, tails < 1e-7
    assert joined.integrate(np.exp(-joined.nodes**2)).real == pytest.approx(ref, abs=1e-7)
    assert joined.lo == -4.0 and joined.hi == 4.0


def test_join_grids_rejects_overlap_and_shared_nodes():
    a = make_grid(0.0, 1.0, 5)
    with pytest.raises(ParameterError):
        join_grids(a, make_grid(0.5, 1.5, 5))
    with pytest.raises(ParameterError):
        join_grids(a, make_grid(1.0, 2.0, 5))  # uniform rules share the node at 1
    with pytest.raises(ParameterError):
        join_grids()


def test_grid_validation():
    with pytest.raises(ParameterError):
        Grid1D(np.array([0.0, 1.0, 0.5]), np.array([0.3, 0.3, 0.4]))
    with pytest.raises(ParameterError):
        Grid1D(np.array([0.0, 1.0]), np.array([0.5, -0.5]))
    with pytest.raises(ParameterError):
        Grid1D(np.array([0.0, 1.0]), np.array([1.0]))
    with pytest.raises(ParameterError):
        Grid1D(np.array([1.0]), np.array([1.0]))
    with pytest.raises(ParameterError, match="outside the stated domain"):
        Grid1D(np.array([0.0, 1.0]), np.array([0.4, 0.4]), domain=(0.2, 1.0))
    with pytest.raises(ParameterError, match="do not sum"):
        Grid1D(np.array([0.0, 1.0]), np.array([1.0, 1.0]), domain=(0.0, 1.0))
    with pytest.raises(ParameterError):
        make_grid(1.0, 0.0, 5)
    with pytest.raises(ParameterError):
        make_grid(0.0, 1.0, 1)
    with pytest.raises(ParameterError):
        make_grid(0.0, 1.0, 5, rule="simpson")


def test_grid_leaves_the_callers_arrays_writable():
    nodes = np.linspace(0.0, 1.0, 5)
    weights = np.full(5, 0.25)
    weights[0] = weights[-1] = 0.125
    grid = Grid1D(nodes, weights)
    nodes[0] = -1.0
    weights[0] = 9.0
    # the grid keeps its own frozen copies
    assert grid.nodes[0] == 0.0 and grid.weights[0] == 0.125
    assert not grid.nodes.flags.writeable and not grid.weights.flags.writeable


def test_grid_same_as():
    a = make_grid(0.0, 1.0, 7)
    b = make_grid(0.0, 1.0, 7)
    c = make_grid(0.0, 1.0, 9)
    assert a.same_as(b)
    assert not a.same_as(c)


# ------------------------------------------------- two-resolution check

def test_converged_returns_fine_when_every_entry_agrees():
    fine = np.array([1.0, 2.0 + 1e-12, 3.0])
    assert numerics._converged("x", np.array([1.0, 2.0, 3.0]), fine, 1e-9) is fine
    # a NaN gap fails, and its entry is reported before a finite miss of any size
    for coarse, fine, shown in (([1.0, 2.5, np.nan], [1.0, 2.0, 3.0], "nan vs 3.0"),
                                ([1.0, 2.5, np.inf], [1.0, 2.0, np.inf], "inf vs inf")):
        with pytest.raises(AccuracyError, match=f"^x not converged at 2: {shown}$"):
            numerics._converged("x", np.array(coarse), np.array(fine), 1e-9,
                                at=lambda i: f" at {i[0]}")


def test_converged_fails_inf_vs_inf_without_a_warning():
    # inf - inf is a NaN gap: the AccuracyError reports it, and NumPy's
    # "invalid value encountered in subtract" is not printed above it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(AccuracyError, match="^x not converged: inf vs inf$"):
            numerics._converged("x", np.array([1.0, np.inf]), np.array([1.0, np.inf]), 1e-9)


def test_converged_reports_the_entry_that_misses_by_most():
    coarse = np.array([[1.0, 2.0], [3.0, 4.0]])
    fine = coarse + np.array([[2e-3, 0.0], [0.0, 5e-2]])
    scale = np.array([[1.0, 1.0], [1.0, 10.0]])
    # bounds 1e-3 and 1e-2: entry (0, 0) misses by 1e-3, entry (1, 1) by 4e-2
    with pytest.raises(AccuracyError, match=r"^m not converged at \(1, 1\): 4\.0 vs 4\.05$") as err:
        numerics._converged("m", coarse, fine, 1e-3, scale,
                            at=lambda i: f" at ({i[0]}, {i[1]})")
    assert (err.value.coarse, err.value.fine) == (4.0, 4.05)
    with pytest.raises(AccuracyError, match=r"^C1 not converged at k0=2: 0\.5 vs 0\.25$"):
        numerics._converged("C1", 0.5, 0.25, 1e-6, at=" at k0=2")


# --------------------------------------------------------- real products

def _dyadic(rng, shape, dtype):
    # multiples of 1/64 in [-1, 1]: every product and sum below is exact, so
    # any blocking or summation order gives the same bits, and a misplaced
    # block or a wrong sign moves whole entries
    parts = rng.integers(-64, 65, (2, *shape)) / 64.0
    return parts[0] + 1j * parts[1] if dtype is complex else parts[0]


# (left, right, out) dtypes of each caller, with _GEMM_MNK as a multiple of
# right's size: 8 gives row blocks of 7, 3 and 1 rows for a real, a complex
# right and a complex left; "c1 slabs" makes one row alone reach _GEMM_MNK
REAL_PRODUCT_CASES = {
    "c1 chunk": ((25, 60), (60, 32), float, float, float, 8),
    "c1 slabs": ((25, 600), (600, 4), float, float, float, 1),
    "ensure A, table of a real f1": ((25, 16), (16, 81), float, float, float, 8),
    "amplitude": ((25, 17), (17, 41), float, complex, complex, 8),
    "entropy gram of a complex f1": ((25, 16), (16, 25), complex, complex, complex, 8),
}


@pytest.mark.parametrize("case", sorted(REAL_PRODUCT_CASES))
def test_real_products_match_matmul_in_every_caller_dtype(case, monkeypatch):
    lshape, rshape, ltype, rtype, otype, budget = REAL_PRODUCT_CASES[case]
    rng = np.random.default_rng(21)
    left, right = _dyadic(rng, lshape, ltype), _dyadic(rng, rshape, rtype)
    monkeypatch.setattr(numerics, "_GEMM_MNK", budget * right.size)
    products = []
    matmul = np.matmul

    def counting(a, b, **kwargs):
        products.append(a.shape)
        return matmul(a, b, **kwargs)

    monkeypatch.setattr(numerics.np, "matmul", counting)
    out = numerics.real_products(left, right, np.empty((lshape[0], rshape[1]), dtype=otype))
    assert len(products) >= 3
    want = left @ right
    scale = np.max(np.abs(want), axis=1, keepdims=True)
    assert np.all(np.abs(out - want) <= 4.0 * np.spacing(scale))


@pytest.mark.parametrize("shape", [(8, 320), (320, 8), (32, 9064)])
def test_cos_sin_writes_the_bits_of_the_stacked_form(shape):
    # cos and sin go straight into the two halves of one array; the shapes are
    # C1's panel turns, a transposed block and a refine-2 chunk at k0 = 300
    rng = np.random.default_rng(17)
    x, k = rng.uniform(-40.0, 40.0, shape[0]), rng.uniform(-20.0, 20.0, shape[1])
    arg = np.outer(x, k)
    want = np.hstack([np.cos(arg), np.sin(arg)])
    got = numerics.cos_sin(x, k)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


# -------------------------------------------------------------- kernels

def test_sinc_kernel_values():
    assert sinc_kernel(0.0, 2.0) == 1.0
    x = np.array([0.5, 1.0, 3.0])
    k0 = 2.0
    assert np.allclose(sinc_kernel(x, k0), np.sin(k0 * x) / (k0 * x), atol=1e-15)
    # zeros at multiples of pi/k0
    assert abs(sinc_kernel(math.pi / k0, k0)) < 1e-15


def test_sinc_kernel_small_argument_series():
    # the series branch must join the direct ratio smoothly
    k0 = 3.0
    for x in (1e-9, 1e-6, 5e-5, 2e-4):
        direct = np.sinc(k0 * x / np.pi)
        assert sinc_kernel(x, k0) == pytest.approx(direct, abs=1e-15)
    with pytest.raises(ParameterError):
        sinc_kernel(1.0, 0.0)


def _sinc_two_branch(x, k0):
    # the formula sinc_kernel used before it evaluated only one branch per entry
    u = np.asarray(x, dtype=float) * k0
    small = np.abs(u) < 1e-4
    safe = np.where(small, 1.0, u)
    out = np.where(small, 1.0 - u * u / 6.0 + u**4 / 120.0, np.sin(safe) / safe)
    if np.isscalar(x):
        return float(out)
    return out


@pytest.mark.parametrize("k0", [1e-3, 0.1, 2.5, 10.0])
def test_sinc_kernel_bitwise_matches_two_branch_formula(k0):
    edge = 1e-4 / k0
    near = edge * np.array([1.0 - 1e-6, 1.0 - 1e-12, 1.0, 1.0 + 1e-12, 1.0 + 1e-6])
    z = np.concatenate([np.linspace(-7.0, 7.0, 141), [0.0], near, -near,
                        3.0 + near, 0.5 * near])
    diff = z[:, None] - z[None, :]
    assert np.any(diff == 0.0) and np.any(diff < 0.0)
    u = np.abs(diff * k0)
    assert np.any((u > 0.0) & (u < 1e-4)) and np.any((u >= 1e-4) & (u < 1.0001e-4))
    assert np.array_equal(sinc_kernel(diff, k0), _sinc_two_branch(diff, k0))
    assert np.array_equal(sinc_kernel(diff[3], k0), _sinc_two_branch(diff[3], k0))
    for x in (0.0, near[0], near[-1], -near[2], -1.3):
        got = sinc_kernel(float(x), k0)
        assert type(got) is float and got == _sinc_two_branch(float(x), k0)
        got = sinc_kernel(np.array(x), k0)
        assert np.ndim(got) == 0 and float(got) == float(_sinc_two_branch(np.array(x), k0))
    assert np.array_equal(commutator_kernel(diff, k0),
                          (k0 / math.pi) * _sinc_two_branch(diff, k0))


def test_commutator_kernel_shape_and_height():
    k0 = 2.0
    assert commutator_kernel(0.0, k0) == pytest.approx(k0 / math.pi, abs=1e-15)
    x = np.linspace(-3.0, 3.0, 11)
    expected = (k0 / math.pi) * np.sinc(k0 * x / math.pi)
    assert np.allclose(commutator_kernel(x, k0), expected, atol=1e-14)


# ------------------------------------------------------------- profiles

def test_gaussian_profile():
    f = make_profile("gaussian")
    assert f.norm_squared() == pytest.approx(1.0)
    assert f.is_real
    assert f.breakpoints == ()
    assert f.support_halfwidth() == 10.0
    assert f.label == "gaussian(center=0,sigma=1)"
    # numeric L2 norm agrees with the analytic one
    g = make_grid(-12.0, 12.0, 2001)
    assert g.integrate(np.abs(f(g.nodes)) ** 2).real == pytest.approx(1.0, abs=1e-10)
    # peak value of the normalized gaussian
    assert f(0.0) == pytest.approx(math.pi ** -0.25, abs=1e-15)


def test_gaussian_profile_center_shift():
    f = make_profile("gaussian", center=3.0, sigma=0.5)
    assert f(3.0) == pytest.approx((0.5 * math.sqrt(math.pi)) ** -0.5)
    assert f(3.0) == pytest.approx(f(3.7) * math.exp(0.7**2 / (2 * 0.25)), rel=1e-12)


def test_square_profile_default_width():
    f = make_profile("square", sigma=1.5)
    assert f.width == 3.0  # default width is two sigma
    assert f.norm_squared() == pytest.approx(1.0)
    amp = 3.0 ** -0.5
    assert f(0.0) == pytest.approx(amp)
    assert f(1.5) == pytest.approx(0.5 * amp)  # midpoint value at the jump
    assert f(1.6) == 0.0
    assert f.breakpoints == (-1.5, 1.5)
    assert f.support_halfwidth() == 1.5
    assert f.label == "square(center=0,width=3)"


def test_tabulated_profile_normalization_and_interp():
    nodes = np.linspace(-4.0, 4.0, 81)
    f = make_profile("tabulated", table_nodes=nodes,
                     table_values=np.exp(-nodes**2 / 2.0))
    assert f.norm_squared() == pytest.approx(1.0, abs=1e-12)
    assert f.is_real
    assert f(5.0) == 0.0 and f(-5.0) == 0.0
    # linear interpolation between table nodes
    mid = 0.5 * (f(nodes[3]) + f(nodes[4]))
    assert f(0.5 * (nodes[3] + nodes[4])) == pytest.approx(mid, rel=1e-12)


def test_tabulated_profile_complex():
    nodes = np.linspace(-3.0, 3.0, 61)
    vals = np.exp(-nodes**2 / 2.0) * np.exp(1j * nodes)
    f = make_profile("tabulated", table_nodes=nodes, table_values=vals)
    assert not f.is_real
    assert f.norm_squared() == pytest.approx(1.0, abs=1e-12)


def test_profile_validation():
    with pytest.raises(ProfileError):
        make_profile("triangle")
    with pytest.raises(ParameterError):
        make_profile("square", width=-1.0)
    with pytest.raises(ParameterError):
        make_profile("gaussian", sigma=0.0)
    with pytest.raises(ParameterError):
        make_profile("tabulated")
    with pytest.raises(ParameterError):
        make_profile("tabulated", table_nodes=np.array([0.0, 1.0, 0.5]),
                     table_values=np.ones(3))
    with pytest.raises(ParameterError):
        make_profile("tabulated", table_nodes=np.linspace(0, 1, 4),
                     table_values=np.zeros(4))  # zero norm cannot be normalized


# ---------------------------------------------------------- parameters

def test_copropagating_params():
    p = SystemParams.copropagating(1.0, 2.0)
    assert p.mode == "copropagating"
    assert p.kappa == pytest.approx(1.0 / math.pi)
    assert p.chi == pytest.approx(2.0 * math.pi)  # phi = chi * kappa * t with t = 1
    assert p.v_r == 0.0
    moving = SystemParams.copropagating(1.0, 2.0, velocity=3.0)
    assert moving.mode == "copropagating" and moving.v1 == moving.v2 == 3.0


def test_headon_params_phi_chi_duality():
    p = SystemParams.headon(0.001, 10.0, 5e3, -5e3, phi=math.pi)
    assert p.mode == "headon"
    assert p.v_r == pytest.approx(1e4)
    # chi recovers phi through the full-pass relation
    assert 2.0 * p.chi * p.kappa * p.separation / abs(p.v_r) == pytest.approx(math.pi)
    q = SystemParams.headon(0.001, 10.0, 5e3, -5e3, chi=p.chi)
    assert q.phi == pytest.approx(math.pi, rel=1e-12)


def test_params_validation():
    with pytest.raises(ParameterError):
        SystemParams.headon(0.001, 10.0, 5e3, -5e3)  # neither phi nor chi
    with pytest.raises(ParameterError):
        SystemParams.headon(0.001, 10.0, 5e3, -5e3, phi=1.0, chi=1.0)
    with pytest.raises(ModeError):
        SystemParams.headon(0.001, 10.0, 5e3, 5e3, phi=1.0)
    with pytest.raises(ParameterError):
        SystemParams.headon(0.001, 0.0, 5e3, -5e3, phi=1.0)  # no pass to accumulate phi over
    with pytest.raises(ParameterError):
        SystemParams.copropagating(-1.0, 2.0)
    with pytest.raises(ParameterError):
        SystemParams.copropagating(1.0, -2.0)
    with pytest.raises(ParameterError):
        SystemParams.copropagating(1.0, 2.0, interaction_time=0.0)
    with pytest.raises(ParameterError, match="inconsistent"):
        SystemParams(k0=1.0, phi=1.0, chi=99.0, interaction_time=1.0)
    with pytest.raises(ParameterError, match="inconsistent"):
        SystemParams(k0=1.0, phi=1.0, chi=99.0, v1=1.0, v2=-1.0, separation=10.0)


def test_headon_zero_separation_with_chi():
    # co-centered pulses accumulate no full-pass phase but chi is still defined
    p = SystemParams.headon(2.5, 0.0, 1e-6, -1e-6, chi=3.0)
    assert p.phi == 0.0
    assert p.chi == 3.0
