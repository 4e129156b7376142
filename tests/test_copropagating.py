"""Overlap coefficients, closed-form metrics, and the grid cross-route.

The Gaussian coefficients have elementary closed forms used here as
independent oracles:

    C1(k0) = sqrt(pi/2) erf(sqrt(2/3) k0) / k0
    C2(k0) = sqrt(pi/2) / k0

and for square pulses of width w the double integral reduces to the sine
integral, C1(k0) = 2 (k0 w Si(k0 w) + cos(k0 w) - 1) / (k0 w)^2.
"""

import math
import os
import subprocess
import sys
import textwrap
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import bisect, brentq
from scipy.special import erf, sici

from xpmsim import (
    AccuracyError,
    CoefficientError,
    DegeneratePhaseError,
    DegenerateStateError,
    GateMetrics,
    ModeError,
    OverlapCoeffs,
    ParameterError,
    ProfileError,
    PulseProfile,
    SystemParams,
    compute_C1,
    compute_C2,
    conditional_phase,
    conditional_phase_sweep,
    entropy_phase_sweep,
    fidelity_closed_form,
    fidelity_sweep,
    free_state,
    grid_metrics_copropagating,
    interaction_grids,
    linear_entropy,
    make_profile,
    metrics_copropagating,
    normalize,
    overlap,
    overlap_coefficients,
    transition_k0,
    two_particle_copropagating,
)
import xpmsim
from xpmsim import copropagating, numerics

GAUSS = make_profile("gaussian")


def c1_gaussian(k0: float) -> float:
    return math.sqrt(math.pi / 2.0) * erf(math.sqrt(2.0 / 3.0) * k0) / k0


def c1_square(k0: float, w: float = 2.0) -> float:
    u = k0 * w
    si, _ = sici(u)
    return 2.0 * (u * si + math.cos(u) - 1.0) / u**2


# --------------------------------------------------------- coefficients

@pytest.mark.parametrize("k0", [0.3, 0.5, 1.0, 2.5, 5.0, 10.0, 100.0])
def test_c1_matches_erf_closed_form(k0):
    assert compute_C1(GAUSS, GAUSS, k0) == pytest.approx(c1_gaussian(k0), abs=1e-8)


@pytest.mark.parametrize("k0", [0.3, 0.5, 1.0, 2.5, 5.0, 10.0, 100.0])
def test_c1_square_matches_sici_closed_form(k0):
    # the square pulse's edges are axis breakpoints, so the real spectrum
    # basis runs on pieces of unequal panels
    sq = make_profile("square")
    assert compute_C1(sq, sq, k0) == pytest.approx(c1_square(k0), abs=1e-12)


def test_c1_pinned_values():
    # frozen references, independently computed from the erf closed form
    assert compute_C1(GAUSS, GAUSS, 2.5) == pytest.approx(0.499374286362854, abs=1e-8)
    assert compute_C1(GAUSS, GAUSS, 5.0) == pytest.approx(0.2506628255169331, abs=1e-8)
    assert compute_C1(GAUSS, GAUSS, 10.0) == pytest.approx(0.12533141373154424, abs=1e-8)


def test_c1_broadband_limit():
    # k0 -> 0: the kernel flattens and C1 -> 2/sqrt(3)
    assert compute_C1(GAUSS, GAUSS, 1e-4) == pytest.approx(2.0 / math.sqrt(3.0), abs=1e-3)


@pytest.mark.parametrize("k0", [0.1, 1.0, 2.5, 10.0])
def test_c2_analytic_reduction(k0):
    assert compute_C2(GAUSS, GAUSS, k0) == pytest.approx(
        math.sqrt(math.pi / 2.0) / k0, abs=1e-10)


def test_c2_axis_does_not_grow_with_k0():
    # |f1|^2 |f2|^2 carries no kernel: at k0 = 1000 C2 still meets its closed
    # form, on the same profile axis as at k0 = 1
    assert compute_C2(GAUSS, GAUSS, 1000.0) == pytest.approx(
        math.sqrt(math.pi / 2.0) / 1000.0, rel=1e-9)
    assert compute_C2(GAUSS, GAUSS, 1000.0) * 1000.0 == pytest.approx(
        compute_C2(GAUSS, GAUSS, 1.0), rel=1e-15)


def test_c2_small_k0_divergence():
    assert compute_C2(GAUSS, GAUSS, 0.01) > 100.0


def test_coefficient_inequality():
    # C2 >= C1^2 keeps the fidelity in [0, 1]; check across the sweep range
    for k0 in np.geomspace(0.1, 10.0, 13):
        c = overlap_coefficients(GAUSS, GAUSS, float(k0))
        assert c.c2 + 1e-12 >= c.c1**2


def test_coefficient_errors():
    with pytest.raises(ParameterError):
        compute_C1(GAUSS, GAUSS, 0.0)
    with pytest.raises(ProfileError, match="not unit-normalized"):
        off = PulseProfile(shape="gaussian", scale=0.9)
        compute_C1(off, GAUSS, 1.0)
    nodes = np.linspace(-3.0, 3.0, 61)
    cplx = make_profile("tabulated", table_nodes=nodes,
                        table_values=np.exp(-nodes**2 / 2.0) * np.exp(1j * nodes))
    with pytest.raises(ProfileError, match="complex"):
        compute_C1(cplx, GAUSS, 1.0)
    with pytest.raises(CoefficientError):
        OverlapCoeffs(c1=0.9, c2=0.5)


def test_quadrature_disagreement_is_reported():
    # rtol = 0 turns any coarse/fine difference into a hard failure and the
    # error must carry both estimates
    with pytest.raises(AccuracyError) as err:
        compute_C1(GAUSS, GAUSS, 3.7, rtol=0.0)
    assert err.value.coarse is not None and err.value.fine is not None
    assert err.value.coarse != err.value.fine
    assert err.value.fine == pytest.approx(c1_gaussian(3.7), abs=1e-8)


# ------------------------------------------------- C1 as a k-box integral

def sinc_double_sum(f1, f2, k0, axis):
    """C1 on one coefficient axis as the direct sinc double sum.

    sum_z sum_z' w f1(z) sinc(k0 (z - z')) w f1(z') |f2(z')|^2, in row blocks
    of about 32 MB: the sum the k route integrates exactly in k.
    """
    z, w = axis.nodes, axis.weights
    left = w * np.real(f1(z))
    right = w * np.real(f1(z)) * np.abs(f2(z)) ** 2
    step = max(1, int(4e6) // z.size)
    total = 0.0
    for i in range(0, z.size, step):
        block = numerics.sinc_kernel(z[i:i + step, None] - z[None, :], k0)
        total += float(left[i:i + step] @ block @ right)
    return total


_TAB_NODES = np.linspace(-4.0, 5.0, 91)
K_ROUTE_PAIRS = {
    "gaussian": (GAUSS, GAUSS),
    "square": (make_profile("square"), make_profile("square")),
    "off-centre": (make_profile("gaussian", center=0.7, sigma=1.3),
                   make_profile("gaussian", center=-0.4, sigma=0.8)),
    "tabulated": (make_profile("tabulated", table_nodes=_TAB_NODES,
                               table_values=np.exp(-_TAB_NODES**2 / 2.0)
                               * (1.0 + 0.3 * np.tanh(_TAB_NODES))),
                  make_profile("tabulated", table_nodes=_TAB_NODES,
                               table_values=1.0 / np.cosh(_TAB_NODES - 0.5))),
}
FIG3_K0 = [float(k) for k in np.linspace(0.1, 8.0, 80)]


@pytest.mark.parametrize("pair", sorted(K_ROUTE_PAIRS))
def test_k_route_matches_sinc_double_sum(pair):
    f1, f2 = K_ROUTE_PAIRS[pair]
    for k0 in (0.1, 0.5, 1.0, 2.5, 3.7, 8.0, 10.0, 30.0):
        for refine in (1, 2):
            axis = copropagating._coefficient_axis(f1, f2, k0, 160, refine)
            got = copropagating._AxisEntry(f1, f2, axis, refine).c1(k0)
            assert abs(got - sinc_double_sum(f1, f2, k0, axis)) <= 1e-14, (k0, refine)
        # compute_C1 returns the refined axis's value; the axis is cut at
        # every table node, so the tables' kinks and end jumps pass its check
        assert compute_C1(f1, f2, k0) == got


def test_table_nodes_are_coefficient_axis_breakpoints():
    # a 241-node table's interpolant kinks at every node, where a Gauss rule
    # across the kink is low order: uncut, C1's two resolutions were 2.9e-4
    # apart. The reference is the sinc double sum on 8 Gauss nodes per table
    # interval, where the interpolant is linear, with no k rule
    z = np.linspace(-6.0, 6.0, 241)
    f = make_profile("tabulated", table_nodes=z,
                     table_values=np.exp(-z**2 / 2.0) * (1.0 + 0.1 * z))
    assert f.breakpoints == tuple(z)
    x, w = numerics._gauss_legendre(8)
    half = 0.5 * np.diff(z)[:, None]
    nodes = (z[:-1, None] + half * (1.0 + x)).ravel()
    weights = (half * w).ravel()
    values = weights * f(nodes)
    kernel = np.sinc(0.5 * (nodes[:, None] - nodes[None, :]) / math.pi)
    ref = values @ kernel @ (values * f(nodes) ** 2)
    assert compute_C1(f, f, 0.5) == pytest.approx(ref, rel=1e-12)
    at_zero, s = entropy_phase_sweep(f, f, 0.5, [0.0, math.pi])
    assert abs(at_zero) < 1e-12 and 0.0 < s < 1.0


def per_node_spectra(z, left, right, k):
    """[C_F | S_F | C_G | S_G] at each k from its own cosines and sines of k z."""
    c, s = np.split(numerics.cos_sin(k, z), 2, axis=1)
    return np.stack([c @ left, s @ left, c @ right, s @ right], axis=1)


@pytest.mark.parametrize("refine", [1, 2])
@pytest.mark.parametrize("k0", [0.5, 10.0, 100.0])
@pytest.mark.parametrize("shape", ["gaussian", "square"])
def test_c1_angle_addition_matches_per_node_spectra(shape, k0, refine):
    prof = make_profile(shape)
    axis = copropagating._coefficient_axis(prof, prof, k0, 160, refine)
    z = axis.nodes
    left = axis.weights * prof(z)
    right = left * prof(z) ** 2
    h = math.pi / (refine * (axis.hi - axis.lo))
    box = copropagating._BoxIntegral(z, left, right, h)
    x = numerics._gauss_legendre(8)[0]
    chunk = copropagating._C1_CHUNK
    m = math.floor(k0 / h)
    half = 0.5 * (k0 - m * h)
    # the samples are non-negative, so the spectra at k = 0 (the first chunk's
    # largest entries) bound every entry; near k0 = 100 a gaussian's spectra
    # are rounding noise, so a chunk there has no scale of its own, and only
    # the first chunk shows a wrong turn
    scale = max(left.sum(), right.sum())
    # the first chunk and the one holding k0's panel, their starts turned by
    # the panel nodes, and up_to's partial panel, its nodes turned by its start
    panels = [(h * np.arange(first, first + chunk), 0.5 * h * (1.0 + x))
              for first in sorted({0, m - m % chunk})]
    panels.append((half * (1.0 + x), np.array([m * h])))
    for a, t in panels:
        got = numerics.cos_sin(a, z) @ box._turned(t)  # columns: 4 spectra x t
        got = got.reshape(a.size, 4, t.size).transpose(0, 2, 1).reshape(-1, 4)
        want = per_node_spectra(z, left, right, (a[:, None] + t).ravel())
        assert np.max(np.abs(got - want)) <= 1e-14 * scale


@pytest.mark.parametrize("shape", ["gaussian", "square"])
def test_c1_lattice_is_history_independent(shape):
    # chunks have fixed boundaries and are summed in a fixed order, so the
    # order of the calls and a cleared memo change no bit
    prof = make_profile(shape)
    copropagating._C1_MEMO.clear()
    forward = {k0: compute_C1(prof, prof, k0) for k0 in FIG3_K0}
    reverse = {k0: compute_C1(prof, prof, k0) for k0 in reversed(FIG3_K0)}
    order = list(FIG3_K0)
    np.random.default_rng(11).shuffle(order)
    shuffled = {k0: compute_C1(prof, prof, k0) for k0 in order}
    assert reverse == forward and shuffled == forward
    for k0 in (8.0, 0.1, 4.5):
        copropagating._C1_MEMO.clear()
        assert compute_C1(prof, prof, k0) == forward[k0]
    # a lattice point that is also a coeffs point agrees exactly
    assert compute_C1(prof, prof, 2.5) == overlap_coefficients(prof, prof, 2.5).c1


@pytest.fixture
def box_builds(monkeypatch):
    built = []
    real = copropagating._BoxIntegral

    def counting(*args):
        built.append(args)
        return real(*args)

    copropagating._C1_MEMO.clear()
    monkeypatch.setattr(copropagating, "_BoxIntegral", counting)
    return built


def test_c1_memo_shares_one_spectrum_pass_per_resolution(box_builds):
    sq = make_profile("square")
    for k0 in FIG3_K0:
        compute_C1(GAUSS, GAUSS, k0)
    assert len(box_builds) == 2  # one axis per resolution over the whole lattice
    found = transition_k0(GAUSS, GAUSS)
    assert len(box_builds) == 2 and 2.4 < found < 2.6
    compute_C1(sq, sq, 1.0)
    assert len(box_builds) == 4
    assert len(copropagating._C1_MEMO) <= copropagating._C1_MEMO_SIZE


def test_c1_memo_misses_on_changed_inputs(box_builds, monkeypatch):
    base = compute_C1(GAUSS, GAUSS, 2.5)
    assert len(box_builds) == 2
    narrow = make_profile("gaussian", sigma=0.5)
    shifted = make_profile("gaussian", center=0.25)
    axis = copropagating._coefficient_axis(GAUSS, GAUSS, 2.5, 160)
    assert copropagating._coefficient_axis(GAUSS, narrow, 2.5, 160).same_as(axis)
    # a narrower f2 changes only the right-hand samples, a narrower f1 both
    # samples on the same axis, and a shifted f1 moves the axis
    for f1, f2 in ((GAUSS, narrow), (narrow, GAUSS), (shifted, GAUSS)):
        count = len(box_builds)
        value = compute_C1(f1, f2, 2.5)
        assert len(box_builds) == count + 2
        copropagating._C1_MEMO.clear()
        assert compute_C1(f1, f2, 2.5) == value != base
    # another axis resolution
    count = len(box_builds)
    with monkeypatch.context() as m:
        m.setattr(copropagating, "_AXIS_NODES", 200)
        assert compute_C1(GAUSS, GAUSS, 2.5) == pytest.approx(base, abs=1e-12)
    assert len(box_builds) == count + 2
    # an equal axis rebuilt from scratch hits
    compute_C1(GAUSS, GAUSS, 2.5)
    count = len(box_builds)
    assert compute_C1(GAUSS, GAUSS, 2.5) == base
    assert len(box_builds) == count


@pytest.fixture
def axis_builds(monkeypatch):
    built = []
    real = copropagating._coefficient_axis

    def counting(*args):
        built.append(args)
        assert len(copropagating._C1_MEMO) <= copropagating._C1_MEMO_SIZE
        return real(*args)

    copropagating._C1_MEMO.clear()
    monkeypatch.setattr(copropagating, "_coefficient_axis", counting)
    return built


def both_coefficients(f1, f2, k0, **kwargs):
    return compute_C1(f1, f2, k0, **kwargs), compute_C2(f1, f2, k0)


@pytest.mark.parametrize("shape", ["gaussian", "square"])
def test_coefficient_memo_hits_a_rebuilt_profile(axis_builds, shape):
    prof = make_profile(shape)
    values = both_coefficients(prof, prof, 2.5)
    assert len(axis_builds) == 4  # C1's and C2's axes, two resolutions each
    again = make_profile(shape)
    assert again is not prof
    assert both_coefficients(again, again, 2.5) == values
    assert len(axis_builds) == 4


def test_coefficient_memo_misses_on_every_defining_field(axis_builds, monkeypatch):
    # each changed profile takes four new axes, and its values equal those
    # computed with a cleared memo
    sq = make_profile("square")
    tab = make_profile("tabulated", table_nodes=_TAB_NODES,
                       table_values=np.exp(-_TAB_NODES**2 / 2.0)
                       * (1.0 + 0.3 * np.tanh(_TAB_NODES)))
    changes = (
        ((GAUSS, GAUSS), (make_profile("gaussian", center=0.25), GAUSS)),
        ((GAUSS, GAUSS), (GAUSS, make_profile("gaussian", sigma=0.5))),
        ((sq, sq), (make_profile("square", width=2.5), sq)),
        ((GAUSS, GAUSS), (GAUSS, replace(GAUSS, scale=1.0 + 1e-12))),
    )
    for base, changed in changes:
        before = both_coefficients(*base, 2.5)
        count = len(axis_builds)
        after = both_coefficients(*changed, 2.5)
        assert len(axis_builds) == count + 4 and after != before
        copropagating._C1_MEMO.clear()
        assert both_coefficients(*changed, 2.5) == after
    # a tabulated profile's table edited in place; rtol=1, and C2's tolerance
    # 1, because the axis does not put the table's kinks on panel edges
    with monkeypatch.context() as m:
        m.setattr(copropagating, "_C2_RTOL", 1.0)
        before = both_coefficients(tab, GAUSS, 2.5, rtol=1.0)
        tab.table_values[:] = tab.table_values[::-1].copy()
        count = len(axis_builds)
        after = both_coefficients(tab, GAUSS, 2.5, rtol=1.0)
        assert len(axis_builds) == count + 4 and after != before
        copropagating._C1_MEMO.clear()
        assert both_coefficients(tab, GAUSS, 2.5, rtol=1.0) == after
    # another node floor; at 300 C1's target is the floor at k0 = 2.5, as
    # C2's is, so the two share an entry per resolution
    count = len(axis_builds)
    monkeypatch.setattr(copropagating, "_AXIS_NODES", 300)
    monkeypatch.setattr(copropagating, "_C2_AXIS_NODES", 300)
    both_coefficients(GAUSS, GAUSS, 2.5)
    assert len(axis_builds) == count + 2
    # another refine on the same axis: C1's panels are half as wide
    coarse = copropagating._axis_entry(GAUSS, GAUSS, 2.5, 320, 1)
    fine = copropagating._axis_entry(GAUSS, GAUSS, 2.5, 160, 2)
    assert fine is not coarse and fine.axis.same_as(coarse.axis)
    assert fine.c1(2.5) != coarse.c1(2.5)


def test_coefficient_memo_builds_each_fig3_axis_once(monkeypatch):
    from xpmsim.cli.config import RunConfig
    from xpmsim.cli.sweeps import run_fig3

    built = Counter()
    real = copropagating.composite_gauss_grid

    def counting(*args):
        built[args] += 1
        return real(*args)

    copropagating._C1_MEMO.clear()
    monkeypatch.setattr(copropagating, "composite_gauss_grid", counting)
    for shape in ("gaussian", "square"):
        run_fig3(RunConfig(task="fig3", profile_shape=shape))
        assert len(copropagating._C1_MEMO) <= copropagating._C1_MEMO_SIZE
    # one piece per axis: a profile, a resolution, C1's axis or C2's
    assert sum(built.values()) == len(built) == 2 * 2 * 2


@pytest.mark.parametrize("shape", ["gaussian", "square"])
def test_c2_lattice_is_history_independent(shape):
    prof = make_profile(shape)
    copropagating._C1_MEMO.clear()
    forward = {k0: compute_C2(prof, prof, k0) for k0 in FIG3_K0}
    reverse = {k0: compute_C2(prof, prof, k0) for k0 in reversed(FIG3_K0)}
    order = list(FIG3_K0)
    np.random.default_rng(12).shuffle(order)
    shuffled = {k0: compute_C2(prof, prof, k0) for k0 in order}
    assert reverse == forward and shuffled == forward
    for k0 in FIG3_K0:
        copropagating._C1_MEMO.clear()
        assert compute_C2(prof, prof, k0) == forward[k0]


# ----------------------------------------------------------- transition

def test_transition_point_gaussian():
    root = brentq(lambda k: c1_gaussian(k) - 0.5, 1.0, 5.0, xtol=1e-10)
    found = transition_k0(GAUSS, GAUSS)
    assert 2.4 < found < 2.6
    assert found == pytest.approx(root, abs=1.5e-4)


def test_transition_point_square():
    sq = make_profile("square")  # width 2 sigma
    root = brentq(lambda k: c1_square(k) - 0.5, 1.0, 5.0, xtol=1e-10)
    found = transition_k0(sq, sq)
    assert found == pytest.approx(root, abs=1.5e-4)
    # a genuinely different profile moves the transition
    assert abs(found - 2.4967546) > 0.05


def test_transition_bracket_errors(monkeypatch):
    monkeypatch.setattr(copropagating, "_TRANSITION_BRACKET", (4.0, 6.0))
    with pytest.raises(ParameterError, match="does not straddle"):
        transition_k0(GAUSS, GAUSS)


@pytest.mark.parametrize("shape", ["gaussian", "square"])
def test_transition_matches_scipy_bisect(shape, monkeypatch):
    prof = make_profile(shape)
    k0s = []
    real = copropagating.compute_C1

    def counting(*args, **kwargs):
        k0s.append(args[2])
        return real(*args, **kwargs)

    monkeypatch.setattr(copropagating, "compute_C1", counting)
    found = transition_k0(prof, prof)
    calls = len(k0s)
    k0s.clear()

    def gap(k0):
        return copropagating.compute_C1(prof, prof, k0, rtol=1e-8) - 0.5

    assert gap(0.5) > 0.0 > gap(6.0)  # the bracket check transition_k0 makes
    expected = bisect(gap, 0.5, 6.0, xtol=1e-4)
    assert found == expected
    # the in-house loop reuses the bracket values bisect evaluates again
    assert calls == len(k0s) - 2


def test_coefficient_quadrature_builds_only_the_8_node_rule_once(monkeypatch):
    # every coefficient and entropy axis is made of 8-node Gauss panels,
    # whose rule is literal, so no call builds a Legendre rule at all,
    # whatever k0 and profile
    built = Counter()
    real = np.polynomial.legendre.leggauss

    def counting(n):
        built[n] += 1
        return real(n)

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counting)
    numerics._gauss_legendre.cache_clear()
    sq = make_profile("square")
    for k0 in (1.0, 2.5, 1.0, 9.0, 2.5, 40.0):
        overlap_coefficients(GAUSS, GAUSS, k0)
        overlap_coefficients(sq, sq, k0)
    for k0 in (0.5, 5.0):
        entropy_phase_sweep(GAUSS, GAUSS, k0, np.linspace(0.0, math.pi, 5))
        entropy_phase_sweep(sq, sq, k0, np.linspace(0.0, math.pi, 5))
    assert built == {}


# ------------------------------------------------------ conditional phase

def test_conditional_phase_regime_dichotomy():
    # at Phi = pi the arctangent collapses to 0 below C1 = 1/2 and pi above
    assert abs(conditional_phase(0.3, math.pi)) < 1e-15
    assert conditional_phase(0.7, math.pi) == pytest.approx(math.pi, abs=1e-14)
    assert conditional_phase(0.3, 0.0) == 0.0


def test_conditional_phase_matches_complex_angle():
    rng = np.random.default_rng(7)
    for _ in range(50):
        c1 = float(rng.uniform(0.05, 1.2))
        phi = float(rng.uniform(0.0, 2.0 * math.pi))
        direct = float(np.angle(1.0 + c1 * (np.exp(1j * phi) - 1.0)))
        assert conditional_phase(c1, phi) == pytest.approx(direct, abs=1e-14)


def test_conditional_phase_errors():
    with pytest.raises(ParameterError):
        conditional_phase(0.0, 1.0)
    with pytest.raises(ParameterError):
        conditional_phase(0.5, -0.1)
    with pytest.raises(DegeneratePhaseError):
        conditional_phase(0.5, math.pi)


def test_phase_sweep_unwraps_high_c1():
    phis = np.linspace(0.0, 2.0 * math.pi, 2001)
    theta = conditional_phase_sweep(0.98, phis)
    assert theta[0] == 0.0
    assert theta[-1] == pytest.approx(2.0 * math.pi, abs=1e-9)
    assert np.max(np.abs(np.diff(theta))) < math.pi / 2
    # monotone growth through the full winding
    assert np.all(np.diff(theta) > 0)


def test_phase_sweep_low_c1_stays_bounded():
    phis = np.linspace(0.0, 2.0 * math.pi, 2001)
    theta = conditional_phase_sweep(0.2, phis)
    assert np.max(np.abs(theta)) < math.pi / 2
    assert theta[-1] == pytest.approx(0.0, abs=1e-9)


def test_phase_sweep_guards():
    with pytest.raises(AccuracyError, match="refine"):
        conditional_phase_sweep(0.98, np.array([0.0, math.pi, 2.0 * math.pi]))
    with pytest.raises(DegeneratePhaseError):
        conditional_phase_sweep(0.5, np.linspace(0.0, 2.0 * math.pi, 9))
    with pytest.raises(ParameterError):
        conditional_phase_sweep(0.3, np.array([0.0, 1.0, 0.5]))
    with pytest.raises(ParameterError):
        conditional_phase_sweep(0.3, np.array([-0.5, 0.5]))
    with pytest.raises(ParameterError):
        conditional_phase_sweep(0.3, np.array([]))


# -------------------------------------------------------------- fidelity

def test_fidelity_closed_form_basics():
    assert fidelity_closed_form(0.3, 0.2, 0.0) == 1.0
    c = overlap_coefficients(GAUSS, GAUSS, 5.0)
    assert fidelity_closed_form(c.c1, c.c2, math.pi) == pytest.approx(0.248676104, abs=1e-6)
    c = overlap_coefficients(GAUSS, GAUSS, 10.0)
    assert fidelity_closed_form(c.c1, c.c2, math.pi) == pytest.approx(0.561506198, abs=1e-6)


def test_fidelity_vanishes_at_transition():
    k0 = transition_k0(GAUSS, GAUSS)
    c = overlap_coefficients(GAUSS, GAUSS, k0)
    assert fidelity_closed_form(c.c1, c.c2, math.pi) < 1e-6


def test_fidelity_stays_in_unit_interval():
    rng = np.random.default_rng(11)
    for _ in range(200):
        c1 = float(rng.uniform(0.05, 1.2))
        c2 = c1**2 + float(rng.uniform(0.0, 1.0))
        phi = float(rng.uniform(0.0, 2.0 * math.pi))
        f = fidelity_closed_form(c1, c2, phi)
        assert 0.0 <= f <= 1.0


def test_fidelity_closed_form_errors():
    with pytest.raises(CoefficientError):
        fidelity_closed_form(0.0, 1.0, 1.0)
    with pytest.raises(CoefficientError, match="C1"):
        fidelity_closed_form(0.9, 0.5, 1.0)
    with pytest.raises(CoefficientError, match="denominator"):
        fidelity_closed_form(0.5, 0.25, math.pi)


def _fidelity_reference(c1, c2, phi):
    # the scalar closed form as it read before fidelity_sweep served it
    if c1 <= 0.0 or c2 <= 0.0:
        raise CoefficientError(f"coefficients must be positive: C1={c1}, C2={c2}")
    if c2 < c1**2 - 1e-9 * max(1.0, c1**2):
        raise CoefficientError(f"C2={c2} < C1^2={c1**2}: inconsistent coefficients")
    s2 = math.sin(0.5 * phi) ** 2
    num = 1.0 - 4.0 * c1 * (1.0 - c1) * s2
    den = 1.0 - 4.0 * (c1 - c2) * s2
    if den <= 0.0:
        raise CoefficientError(
            f"non-positive denominator {den} at C1={c1}, C2={c2}, phi={phi}")
    return min(max(num / den, 0.0), 1.0)


@pytest.mark.parametrize("lattice", ["fig2", "fig3"])
@pytest.mark.parametrize("shape", ["gaussian", "square"])
def test_fidelity_sweep_writes_the_bits_of_the_scalar_form(shape, lattice):
    from xpmsim.cli.config import RunConfig
    from xpmsim.cli.sweeps import DEFAULT_K0_SET

    cfg = RunConfig(task=lattice)
    if lattice == "fig2":
        k0s, phis = DEFAULT_K0_SET, np.linspace(0.0, math.pi, 65)
    else:
        k0s = np.linspace(cfg.lattice_k0_min, cfg.lattice_k0_max, cfg.lattice_k0_n)
        phis = np.linspace(0.0, math.pi, cfg.lattice_phi_n)
    prof = make_profile(shape, width=cfg.profile_width if shape == "square" else None)
    for k0 in k0s:
        c = overlap_coefficients(prof, prof, float(k0))
        row = fidelity_sweep(c.c1, c.c2, phis.tolist())
        assert row.shape == phis.shape
        got = [float(v).hex() for v in row]
        assert got == [fidelity_closed_form(c.c1, c.c2, float(p)).hex() for p in phis]
        assert got == [_fidelity_reference(c.c1, c.c2, float(p)).hex() for p in phis]


def _first_error(c1, c2, phis):
    for phi in phis:
        try:
            _fidelity_reference(c1, c2, phi)
        except CoefficientError as exc:
            return str(exc)
    raise AssertionError("the reference raised nothing")


@pytest.mark.parametrize("c1, c2", [
    (0.0, 0.5),                  # C1 <= 0
    (-0.3, 0.5),
    (0.4, 0.0),                  # C2 <= 0
    (0.9, 0.5),                  # C2 < C1^2
    (0.5, 0.25),                 # zero denominator at Phi = pi
    (0.5, 0.25 - 1e-9),          # negative denominators near Phi = pi
])
def test_fidelity_sweep_raises_at_the_first_bad_phi(c1, c2):
    # a row that starts well and turns bad after its first entries
    phis = [0.0, 1.0, 2.0] + (math.pi + np.linspace(-1e-4, 1e-4, 5)).tolist() + [3.5]
    with pytest.raises(CoefficientError) as err:
        fidelity_sweep(c1, c2, phis)
    assert str(err.value) == _first_error(c1, c2, phis)


# ------------------------------------------------------- grid cross-route

def test_closed_form_agrees_with_grid_route():
    # same physics along two independent routes: coefficients + closed forms
    # versus sampled amplitude + overlap integrals
    k0, phi = 5.0, 2.0
    c = overlap_coefficients(GAUSS, GAUSS, k0)
    f_closed = fidelity_closed_form(c.c1, c.c2, phi)
    th_closed = conditional_phase(c.c1, phi)
    got = grid_metrics_copropagating(GAUSS, GAUSS, SystemParams.copropagating(k0, phi))
    assert got.fidelity == pytest.approx(f_closed, abs=1e-3)
    assert got.phase == pytest.approx(th_closed, abs=1e-3)


_CHIRP_NODES = np.linspace(-8.0, 8.0, 1601)
ROUTE_PROFILES = {
    "gaussian": GAUSS,
    "square": make_profile("square"),
    "chirped": make_profile("tabulated", table_nodes=_CHIRP_NODES,
                            table_values=np.exp(-_CHIRP_NODES**2 / 2.0 + 0.7j * _CHIRP_NODES)),
}


def sici_sinc2_tail(x):
    """int_x^inf sin(v)^2 / v^2 dv = sin(x)^2 / x + pi/2 - Si(2x), by scipy's sine integral."""
    return np.sin(x) ** 2 / x + math.pi / 2.0 - sici(2.0 * x)[0]


def sinc2_remainder(f1, f2, k0, grids):
    """int |p(Z2)|^2 sinc^2(k0 (Z1 - Z2)) over Z1 outside grid1's domain, on grid2."""
    grid1, grid2 = grids
    z2 = grid2.nodes
    dens = grid2.weights * np.abs(f1(z2) * f2(z2)) ** 2
    return float(dens @ (sici_sinc2_tail(k0 * (grid1.hi - z2))
                         + sici_sinc2_tail(k0 * (z2 - grid1.lo)))) / k0


def state_route(f1, f2, params, grids):
    """F and theta from the sampled state overlapped with the free product.

    The state has only grid1's nodes, so its squared norm gains the sinc^2
    remainder beyond grid1 (sinc2_remainder), times |exp(i Phi) - 1|^2.
    """
    reference = normalize(free_state(f1, f2, *grids))
    out = two_particle_copropagating(f1, f2, params, *grids)
    amp = overlap(reference, normalize(out))
    nsq = out.norm_squared()
    rest = abs(np.exp(1j * params.phi) - 1.0) ** 2 * sinc2_remainder(f1, f2, params.k0, grids)
    return abs(amp) ** 2 * nsq / (nsq + rest), math.atan2(amp.imag, amp.real)


def test_sinc2_tail_matches_sici():
    # from the shortest tail interaction_grids leaves, 7 pi, out to 1e3.
    # scipy's pi/2 - Si(2x) keeps Si's absolute rounding, about a unit in the
    # last place of pi/2 and so up to 2x times the tail in relative terms:
    # the bound is absolute, two units in the last place of pi/2
    x = np.geomspace(7.0 * math.pi, 1e3, 20001)
    err = np.abs(copropagating._sinc2_tail(x) - sici_sinc2_tail(x))
    assert np.max(err) <= 2.0 * np.spacing(math.pi / 2.0)


@pytest.mark.parametrize("k0", [0.5, 2.5, 10.0])
@pytest.mark.parametrize("shape", sorted(ROUTE_PROFILES))
def test_grid_route_sums_match_state_route(shape, k0):
    # the three-sum route regroups the state's quadrature sums and adds the
    # sinc^2 remainder beyond grid1, on the default grids
    prof = ROUTE_PROFILES[shape]
    grids = interaction_grids(prof, prof, k0)
    for phi in (0.5, math.pi):
        params = SystemParams.copropagating(k0, phi)
        got = grid_metrics_copropagating(prof, prof, params, grids=grids)
        fid, theta = state_route(prof, prof, params, grids)
        assert abs(got.fidelity - fid) <= 1e-12
        assert abs(got.phase - theta) <= 1e-12


@pytest.mark.parametrize("k0", [0.05, 0.1])
def test_grid_route_at_small_k0(k0):
    # a nearly flat kernel: C1 close to 1, and sinc tail panels of pi/k0,
    # 31 to 63 pulse widths long
    co = overlap_coefficients(GAUSS, GAUSS, k0)
    grids = interaction_grids(GAUSS, GAUSS, k0)
    for phi in (1.0, math.pi):
        got = grid_metrics_copropagating(GAUSS, GAUSS, SystemParams.copropagating(k0, phi),
                                         grids=grids)
        assert got.fidelity == pytest.approx(fidelity_closed_form(co.c1, co.c2, phi), abs=1e-3)
        assert got.phase == pytest.approx(conditional_phase(co.c1, phi), abs=1e-3)


def test_grid_route_guards():
    grids = interaction_grids(GAUSS, GAUSS, 1.0)
    with pytest.raises(ModeError):
        grid_metrics_copropagating(GAUSS, GAUSS,
                                   SystemParams.headon(1.0, 10.0, 5e3, -5e3, phi=1.0),
                                   grids=grids)
    far = make_profile("gaussian", center=1e3)
    with pytest.raises(DegenerateStateError):
        grid_metrics_copropagating(far, far, SystemParams.copropagating(1.0, 1.0), grids=grids)
    blown = PulseProfile(shape="gaussian", scale=math.inf)  # inf, and inf * 0 = nan
    with np.errstate(invalid="ignore"), pytest.raises(ParameterError, match="non-finite"):
        grid_metrics_copropagating(blown, GAUSS, SystemParams.copropagating(1.0, 1.0),
                                   grids=grids)


def test_grid_route_refuses_grids_with_a_short_sinc_tail():
    # the sinc^2 remainder's series holds from 7 pi/k0 beyond every Z2 node,
    # which interaction_grids' tail panels just reach
    k0 = 1.0
    params = SystemParams.copropagating(k0, 1.0)
    grid1, grid2 = interaction_grids(GAUSS, GAUSS, k0)
    reach = 7.0 * math.pi / k0
    assert grid1.hi - grid2.nodes[-1] == pytest.approx(reach, rel=1e-14)
    assert grid2.nodes[0] - grid1.lo == pytest.approx(reach, rel=1e-14)
    # Z2 windows 0.01 too near either end of grid1 or past it, and grid1 no
    # wider than grid2
    windows = [(grid1.lo + reach - 0.01, 0.0), (0.0, grid1.hi - reach + 0.01),
               (grid1.hi + 1.0, grid1.hi + 2.0)]
    pairs = [(grid1, numerics.make_grid(lo, hi, 401)) for lo, hi in windows]
    for grids in pairs + [(grid2, grid2)]:
        with pytest.raises(ParameterError, match="sinc tail"):
            grid_metrics_copropagating(GAUSS, GAUSS, params, grids=grids)


@pytest.fixture
def kernel_blocks(monkeypatch):
    """Count the kernel row blocks the grid route samples, from an empty memo."""
    calls = []
    sample = copropagating.sinc_block

    def counted(*args, **kwargs):
        calls.append(1)
        return sample(*args, **kwargs)

    monkeypatch.setattr(copropagating, "sinc_block", counted)
    copropagating._KERNEL_SUMS_MEMO.clear()
    yield calls
    copropagating._KERNEL_SUMS_MEMO.clear()


def missing_memo(f1, f2, params, grids):
    """The grid route with its kernel sums computed afresh."""
    copropagating._KERNEL_SUMS_MEMO.clear()
    return grid_metrics_copropagating(f1, f2, params, grids=grids)


# F and theta on the default k0 = 2.5 grids with the kernel sums computed
# afresh, at criterion 05's Phi values
C05_PHIS = (0.5, 1.5, 2.5, math.pi)
UNMEMOIZED = ((0.9383430803991455, 0.24968045816640155),
              (0.5334347774519391, 0.7488341753096115),
              (0.09873556614140841, 1.2462337602339737),
              (1.5539412255116085e-06, 4.8868770399740987e-14))


def test_grid_route_memo_over_phi(kernel_blocks):
    # one kernel pass serves every Phi on a grid pair, with unchanged results
    grids = interaction_grids(GAUSS, GAUSS, 2.5)
    memo = [grid_metrics_copropagating(GAUSS, GAUSS, SystemParams.copropagating(2.5, phi),
                                       grids=grids) for phi in C05_PHIS]
    one_pass = len(kernel_blocks)
    assert one_pass > 0
    fresh = [missing_memo(GAUSS, GAUSS, SystemParams.copropagating(2.5, phi), grids)
             for phi in C05_PHIS]
    assert len(kernel_blocks) == 5 * one_pass
    for m, f, (fid, theta) in zip(memo, fresh, UNMEMOIZED):
        assert (m.fidelity, m.phase) == (f.fidelity, f.phase)
        # bit-identical on the machine that recorded them; the slack allows
        # another BLAS's summation order
        assert m.fidelity == pytest.approx(fid, rel=0.0, abs=1e-15)
        assert m.phase == pytest.approx(theta, rel=0.0, abs=1e-15)


def test_grid_route_memo_misses_on_changed_inputs(kernel_blocks):
    grids = interaction_grids(GAUSS, GAUSS, 2.5)
    params = SystemParams.copropagating(2.5, 1.5)
    first = grid_metrics_copropagating(GAUSS, GAUSS, params, grids=grids)
    one_pass = len(kernel_blocks)
    assert grid_metrics_copropagating(GAUSS, GAUSS, params, grids=grids) == first
    assert len(kernel_blocks) == one_pass
    square = make_profile("square")
    cases = [
        (GAUSS, GAUSS, SystemParams.copropagating(2.6, 1.5)),  # another k0
        (square, GAUSS, params),                               # another profile
        (GAUSS, square, params),
    ]
    for f1, f2, other in cases:
        before = len(kernel_blocks)
        got = grid_metrics_copropagating(f1, f2, other, grids=grids)
        assert len(kernel_blocks) > before
        assert got.fidelity != first.fidelity
        assert got == missing_memo(f1, f2, other, grids)
    # the key is content, not identity: an equal grid pair rebuilt hits
    grid_metrics_copropagating(GAUSS, GAUSS, params, grids=grids)
    twin = interaction_grids(GAUSS, GAUSS, 2.5)
    before = len(kernel_blocks)
    assert grid_metrics_copropagating(GAUSS, GAUSS, params, grids=twin) == first
    assert len(kernel_blocks) == before
    # a grid edited in place after the call misses (Grid1D arrays are
    # read-only, so this takes a deliberate setflags)
    weights = grids[0].weights
    weights.setflags(write=True)
    weights[: weights.size // 2] *= 1.5
    before = len(kernel_blocks)
    got = grid_metrics_copropagating(GAUSS, GAUSS, params, grids=grids)
    assert len(kernel_blocks) > before
    assert got.fidelity != first.fidelity
    assert got == missing_memo(GAUSS, GAUSS, params, grids)


def test_grid_route_guards_on_a_memo_hit(kernel_blocks):
    grids = interaction_grids(GAUSS, GAUSS, 1.0)
    for _ in range(2):
        assert grid_metrics_copropagating(
            GAUSS, GAUSS, SystemParams.copropagating(1.0, 0.0), grids=grids).fidelity <= 1.0
    one_pass = len(kernel_blocks)
    with pytest.raises(ParameterError, match="non-finite"):
        grid_metrics_copropagating(GAUSS, GAUSS, SystemParams.copropagating(1.0, math.nan),
                                   grids=grids)
    with pytest.raises(ModeError):
        grid_metrics_copropagating(GAUSS, GAUSS,
                                   SystemParams.headon(1.0, 10.0, 5e3, -5e3, phi=1.0),
                                   grids=grids)
    far = make_profile("gaussian", center=1e3)
    for _ in range(2):
        with pytest.raises(DegenerateStateError):
            grid_metrics_copropagating(far, far, SystemParams.copropagating(1.0, 1.0),
                                       grids=grids)
    assert len(kernel_blocks) == 2 * one_pass


@pytest.mark.skipif(not os.path.isfile("/proc/self/status"),
                    reason="needs the process's own VmHWM from /proc/self/status")
def test_grid_route_memory_stays_bounded():
    # the rows sample the kernel in row blocks near 32 MB, so the route builds
    # no n1 x n2 state: with a sinc tail sampled out to 6000 pulse widths
    # (15 665 x 401 at k0 = 0.5) the complex state alone took 100 MB, and
    # building it with its normalized and free copies grew the peak by about
    # 440 MB. The child reads its own high-water mark, VmHWM (kB): its
    # ru_maxrss starts at the spawning process's, which hides growth below it.
    src = os.path.dirname(os.path.dirname(os.path.abspath(xpmsim.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = textwrap.dedent("""
        from xpmsim import (SystemParams, grid_metrics_copropagating,
                            interaction_grids, make_profile)

        def hwm():
            with open("/proc/self/status", encoding="ascii") as fh:
                return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))

        prof = make_profile("gaussian")
        grids = interaction_grids(prof, prof, 0.5)
        assert (grids[0].n, grids[1].n) == (513, 401), (grids[0].n, grids[1].n)
        before = hwm()
        grid_metrics_copropagating(prof, prof, SystemParams.copropagating(0.5, 1.0),
                                   grids=grids)
        print((hwm() - before) / 1024.0)
    """)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert float(out.stdout) < 200.0


def route_samples(f1, f2, z1, w1, z2, w2):
    """The samples tuple _kernel_sums takes."""
    return (z1, w1, z2, w2, f1(z1), f2(z2), f1(z2) * f2(z2))


def sinc_kernel_sums(k0, samples):
    """<F, Kp> and <Kp, Kp> with every kernel row from sinc_kernel, on the grid alone.

    The grid route's row blocks and sum algebra, without the sinc^2
    remainder beyond grid1.
    """
    z1, w1, z2, w2, a1, b2, pair = samples
    left = w1 * np.conj(a1)
    right = w2 * np.conj(b2) * pair
    cols = np.stack([right.real, right.imag], axis=1)
    dens = w2 * np.abs(pair) ** 2
    free_corr, corr_nsq = 0j, 0.0
    step = numerics.gemm_rows(2 * z2.size)
    for i in range(0, z1.size, step):
        block = numerics.sinc_kernel(z1[i:i + step, None] - z2[None, :], k0)
        applied = block @ cols
        free_corr += left[i:i + step] @ (applied[:, 0] + 1j * applied[:, 1])
        np.square(block, out=block)
        corr_nsq += float(w1[i:i + step] @ (block @ dens))
    return free_corr, corr_nsq


_WIDE_NODES = np.linspace(-40.0, 40.0, 4001)
WIDE_CHIRP = make_profile("tabulated", table_nodes=_WIDE_NODES,
                          table_values=np.exp(-_WIDE_NODES**2 / 2.0 + 0.7j * _WIDE_NODES))


@pytest.mark.parametrize("k0", [0.5, 1.0, 2.5, 5.0, 10.0])
def test_kernel_sums_match_sinc_kernel_sums_and_the_sici_remainder(k0):
    # criterion 05's k0 on the default grids; a chirped f1 makes
    # w2 conj(f2) p complex, and the wide table widens the core to its support
    for f1, f2 in [(GAUSS, GAUSS), (WIDE_CHIRP, GAUSS), (GAUSS, WIDE_CHIRP)]:
        shapes = (f1.label, f2.label)
        grids = interaction_grids(f1, f2, k0)
        grid1, grid2 = grids
        wide = any(f is WIDE_CHIRP for f in (f1, f2))
        assert (grid2.lo, grid2.hi) == ((-40.0, 40.0) if wide else (-10.0, 10.0))
        samples = route_samples(f1, f2, grid1.nodes, grid1.weights,
                                grid2.nodes, grid2.weights)
        copropagating._KERNEL_SUMS_MEMO.clear()
        corr, nsq = copropagating._kernel_sums(k0, grid1.domain, samples)
        ref_corr, ref_nsq = sinc_kernel_sums(k0, samples)
        assert corr == ref_corr, shapes
        ref_nsq += sinc2_remainder(f1, f2, k0, grids)
        assert abs(nsq - ref_nsq) <= 1e-14 * ref_nsq, shapes


def test_kernel_sums_keep_sinc_kernel_bits():
    # every row is sampled; 4001 z2 nodes make 39 row blocks, and the
    # remainder is _sinc2_tail's on grid1's ends
    k0 = 2.5
    chirped = ROUTE_PROFILES["chirped"]
    z1 = np.linspace(-10.0 - 30.0 / k0, 10.0 + 30.0 / k0, 2500)
    z2 = np.linspace(-10.0, 10.0, 4001)
    samples = route_samples(chirped, GAUSS, z1, np.full(z1.size, z1[1] - z1[0]),
                            z2, np.full(z2.size, z2[1] - z2[0]))
    corr, nsq = sinc_kernel_sums(k0, samples)
    dens = samples[3] * np.abs(samples[6]) ** 2
    nsq += float(dens @ (copropagating._sinc2_tail(k0 * (z1[-1] - z2))
                         + copropagating._sinc2_tail(k0 * (z2 - z1[0])))) / k0
    copropagating._KERNEL_SUMS_MEMO.clear()
    assert copropagating._kernel_sums(k0, (z1[0], z1[-1]), samples) == (corr, nsq)


def sinc_block_row_blocks(rows, cols, k0):
    """Row blocks of gemm_rows(2 n) rows whose sinc_block differs from sinc_kernel's.

    The whole block is compared too, as two_particle_copropagating samples
    it. Returns (the count of row blocks, the starts of those that differ).
    """
    dense = numerics.sinc_kernel(rows[:, None] - cols[None, :], k0)
    assert np.array_equal(numerics.sinc_block(rows, cols, k0), dense)
    step = numerics.gemm_rows(2 * cols.size)
    starts = range(0, rows.size, step)
    return len(starts), [i for i in starts if not np.array_equal(
        numerics.sinc_block(rows[i:i + step], cols, k0), dense[i:i + step])]


@pytest.mark.parametrize("k0, refine, blocks", [(0.5, 1, 1), (0.5, 2, 1), (10.0, 1, 1),
                                                (10.0, 2, 1), (30.0, 2, 4)])
def test_sinc_block_keeps_sinc_kernel_bits_on_the_sweep_axis(k0, refine, blocks):
    # fig2's axes fit one row block, whose whole square is mirrored; at
    # k0 = 30 the refined axis takes several, and each mirrors its diagonal square
    z = copropagating._axis_entry(GAUSS, GAUSS, k0, copropagating._AXIS_NODES, refine).axis.nodes
    assert numerics._shared_run(z, z) == (0, 0, z.size)
    assert sinc_block_row_blocks(z, z, k0) == (blocks, [])


@pytest.mark.parametrize("k0", [0.5, 2.5, 10.0])
def test_sinc_block_keeps_sinc_kernel_bits_on_interaction_grids(k0):
    # Z2 is the core of Z1, so the core rows mirror their square and the
    # tail rows are sampled plainly
    grid1, grid2 = interaction_grids(GAUSS, GAUSS, k0)
    z1, z2 = grid1.nodes, grid2.nodes
    tail = 8 * copropagating._TAIL_PANELS
    assert numerics._shared_run(z1, z2) == (tail, 0, z2.size)
    assert sinc_block_row_blocks(z1, z2, k0) == (1, [])


def test_sinc_block_keeps_sinc_kernel_bits_off_shared_nodes():
    # a Z2 that is no run of Z1 takes the plain path; nodes 1e-6 apart take
    # the small-argument series off the diagonal, mirrored like the sines
    z1, z2 = interaction_grids(GAUSS, GAUSS, 2.5)
    shifted = z2.nodes + 0.5 * (z2.nodes[1] - z2.nodes[0])
    assert numerics._shared_run(z1.nodes, shifted)[2] == 0
    assert sinc_block_row_blocks(z1.nodes, shifted, 2.5) == (1, [])
    close = np.linspace(-1.0, 1.0, 1201) * 6e-4
    assert numerics._shared_run(close[100:], close) == (0, 100, 1101)
    assert sinc_block_row_blocks(close[100:], close, 0.5) == (6, [])
    assert sinc_block_row_blocks(close, close[100:], 0.5) == (6, [])


@pytest.mark.skipif(not os.path.isfile("/proc/self/status"),
                    reason="needs the process's own VmHWM from /proc/self/status")
def test_entropy_sweep_memory_stays_within_a_few_blocks(fresh_python):
    # at k0 = 100 the refined axis has 3064 nodes, so the sweep takes 37 row
    # blocks of 85 x 3064 (2.1 MB). Sampled whole, each block's temporaries
    # grew the peak by 11.2 MB; sampled in strips, by 5.2 MB
    code = textwrap.dedent("""
        import numpy as np
        from xpmsim import entropy_phase_sweep, make_profile

        def hwm():
            with open("/proc/self/status", encoding="ascii") as fh:
                return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))

        prof = make_profile("gaussian")
        before = hwm()
        entropy_phase_sweep(prof, prof, 100.0, np.linspace(0.0, np.pi, 5))
        print((hwm() - before) / 1024.0)
    """)
    assert float(fresh_python("-c", code).stdout) < 8.0


@pytest.mark.parametrize("sigma", [1.0, 3.0])
def test_grid_route_meets_the_closed_form_on_the_c05_lattice(sigma):
    # with the sinc^2 remainder in closed form, what is left is the uniform
    # core's trapezoid error on undamped kernel rows: 5.1e-7 (unit gaussians)
    # and 4.2e-7 (sigma = 3), where a tail sampled out to 6000 pulse widths
    # left 2.0e-4 and 1.5e-4
    from xpmsim.cli.validate import _LATTICE_K0, _LATTICE_PHI

    prof = make_profile("gaussian", sigma=sigma)
    for k0 in _LATTICE_K0:
        co = overlap_coefficients(prof, prof, k0)
        grids = interaction_grids(prof, prof, k0)
        for phi in _LATTICE_PHI:
            got = grid_metrics_copropagating(prof, prof, SystemParams.copropagating(k0, phi),
                                             grids=grids)
            assert abs(got.fidelity - fidelity_closed_form(co.c1, co.c2, phi)) <= 1e-6
            assert abs(got.phase - conditional_phase(co.c1, phi)) <= 1e-6


def test_norm_identity_on_grid(long_tail_grids):
    # || psi ||^2 = 1 - 4 (C1 - C2) sin^2(phi/2) ties the sampled amplitude
    # to both coefficients at once; the state holds only the sinc tail it
    # samples, so Z1 runs out to 2400 pulse widths
    k0, phi = 1.0, math.pi
    c = overlap_coefficients(GAUSS, GAUSS, k0)
    closed = 1.0 - 4.0 * (c.c1 - c.c2) * math.sin(phi / 2.0) ** 2
    grids = long_tail_grids(GAUSS, GAUSS, k0)
    state = two_particle_copropagating(GAUSS, GAUSS,
                                       SystemParams.copropagating(k0, phi), *grids)
    assert state.norm_squared() == pytest.approx(closed, rel=1e-3)


def test_narrowband_limit_preserves_fidelity():
    # k0 >> 1: the correction is point-supported and the gate degrades little
    # at small phi
    m = metrics_copropagating(GAUSS, GAUSS, 100.0, 0.2)
    assert m.fidelity == pytest.approx(1.0, abs=1e-3)


def test_copropagating_mode_guard():
    grids = interaction_grids(GAUSS, GAUSS, 1.0)
    params = SystemParams.headon(1.0, 10.0, 5e3, -5e3, phi=1.0)
    from xpmsim import ModeError
    with pytest.raises(ModeError):
        two_particle_copropagating(GAUSS, GAUSS, params, *grids)


# ------------------------------------------------------ composite metrics

def test_metrics_boundary_band():
    k0 = transition_k0(GAUSS, GAUSS)  # C1 within 1e-3 of 1/2 here
    banded = metrics_copropagating(GAUSS, GAUSS, k0, math.pi)
    assert banded.phase == pytest.approx(math.pi / 2.0, abs=1e-12)
    # the raw arctangent collapses to a regime endpoint instead of the
    # boundary line
    raw = conditional_phase(overlap_coefficients(GAUSS, GAUSS, k0).c1, math.pi)
    assert min(abs(raw), abs(raw - math.pi)) < 1e-3
    assert abs(banded.phase - raw) > 1.0


def test_metrics_boundary_band_only_below_pi():
    k0 = transition_k0(GAUSS, GAUSS)
    c = overlap_coefficients(GAUSS, GAUSS, k0)
    above = metrics_copropagating(GAUSS, GAUSS, k0, 3.5)
    assert above.phase == pytest.approx(conditional_phase(c.c1, 3.5), abs=1e-12)


def test_metrics_with_entropy_pinned():
    # Z1 traced exactly; fourier_entropy below gives the same value
    m = metrics_copropagating(GAUSS, GAUSS, 2.5, math.pi, with_entropy=True)
    assert m.linear_entropy == pytest.approx(0.5589970741772, abs=1e-10)
    assert m.fidelity < 1e-4  # k0 = 2.5 sits essentially on the transition
    plain = metrics_copropagating(GAUSS, GAUSS, 2.5, math.pi)
    assert plain.linear_entropy is None


def _ft_power(shape: str, n: int, k):
    """int f(x)^n exp(-ikx) dx for the unit Gaussian or the width-2 square pulse."""
    if shape == "gaussian":
        return math.pi ** (-n / 4.0) * math.sqrt(2.0 * math.pi / n) * np.exp(-k * k / (2.0 * n))
    return 2.0 ** (1.0 - n / 2.0) * np.sinc(k / math.pi)


def fourier_entropy(shape: str, k0: float, phi: float) -> float:
    """Linear entropy with Z2 traced out, in the Fourier variable k of Z1.

    For f(Z1) f(Z2) + alpha f(Z2)^2 sinc(k0 (Z1 - Z2)) the Z1 transform is
    fhat(k) f(Z2) + alpha (pi/k0) box(k) f(Z2)^2 exp(-ik Z2), so the kernel
    sigma(k, k') = int dZ2 psi_hat(k, Z2) conj(psi_hat(k', Z2)) is
        fhat fhat^T + conj(alpha) fhat v^T + alpha v fhat^T + |alpha|^2 K,
    v = (pi/k0) box FT[f^3], K(k, k') = (pi/k0)^2 box(k) box(k') FT[f^4](k - k').
    Only <fhat, fhat> = 2 pi reaches outside the box (Parseval); every other
    product is an integral over [-k0, k0], here on Gauss-Legendre panels of
    unit width. No Z-space grid and no sinc kernel matrix is involved.
    """
    panels = max(1, math.ceil(2.0 * k0))
    x, w = np.polynomial.legendre.leggauss(16)
    edges = np.linspace(-k0, k0, panels + 1)
    half = 0.5 * (edges[1] - edges[0])
    k = (half * x[None, :] + 0.5 * (edges[:-1] + edges[1:])[:, None]).ravel()
    wk = np.tile(half * w, panels)
    vecs = np.stack([_ft_power(shape, 1, k), (math.pi / k0) * _ft_power(shape, 3, k)])
    kern = (math.pi / k0) ** 2 * _ft_power(shape, 4, k[:, None] - k[None, :])
    dots = (vecs * wk) @ vecs.T
    dots[0, 0] = 2.0 * math.pi
    forms = (vecs * wk) @ kern @ (vecs * wk).T
    pairs = ((0, 0), (0, 1), (1, 0))  # the rank-one blocks x y^T
    gram = np.empty((4, 4))
    for i, (xi, yi) in enumerate(pairs):
        for j, (xj, yj) in enumerate(pairs):
            gram[i, j] = dots[xi, xj] * dots[yi, yj]
        gram[i, 3] = gram[3, i] = forms[xi, yi]
    gram[3, 3] = float(wk @ kern ** 2 @ wk)
    trace = np.array([dots[0, 0], dots[0, 1], dots[0, 1], wk @ np.diag(kern)])
    alpha = complex(np.exp(1j * phi) - 1.0)
    coef = np.array([1.0, alpha.conjugate(), alpha, abs(alpha) ** 2])
    purity = float(np.real(coef @ gram @ np.conj(coef)))
    return 1.0 - purity / float(np.real(coef @ trace)) ** 2


@pytest.mark.parametrize("shape, k0s", [("square", (0.5, 2.5, 10.0)),
                                        ("gaussian", (100.0,))])
def test_fig2_entropy_matches_fourier_reference(shape, k0s):
    # the cases a sampled Z1 grid gets wrong: the square pulse's edges, and
    # a k0 = 100 kernel that a 401-node core cannot resolve
    from xpmsim.cli.config import RunConfig
    from xpmsim.cli.sweeps import run_fig2

    result = run_fig2(RunConfig(task="fig2", profile_shape=shape, k0_values=k0s,
                                phi_min=0.0, phi_max=math.pi, phi_n=5))
    phis = result.axis("Phi").values
    ent = np.asarray(result.columns["S_L"]).reshape(len(k0s), len(phis))
    for a, k0 in enumerate(k0s):
        for b, phi in enumerate(phis):
            assert ent[a, b] == pytest.approx(fourier_entropy(shape, k0, phi), abs=1e-10)


def test_entropy_sweep_approaches_sampled_oracle(long_tail_grids):
    # the sampled route converges to the exact-Z1 entropy: in the sinc tail
    # radius for the Gaussian, in the (first-order) core spacing for the
    # square pulse, whose edges the uniform core straddles
    def gap(prof, k0, phi, **grid):
        grids = long_tail_grids(prof, prof, k0, **grid)
        sampled = linear_entropy(normalize(two_particle_copropagating(
            prof, prof, SystemParams.copropagating(k0, phi), *grids)))
        return abs(sampled - entropy_phase_sweep(prof, prof, k0, [phi])[0])

    tails = [gap(GAUSS, 2.5, 2.0, tail_scale=s, core_n=161) for s in (150.0, 600.0, 2400.0)]
    square = make_profile("square")
    cores = [gap(square, 5.0, math.pi, core_n=n) for n in (101, 201, 401)]
    for gaps in (tails, cores):
        assert all(b < 0.6 * a for a, b in zip(gaps, gaps[1:])), gaps
    assert tails[-1] < 1e-4


def test_entropy_sweep_validation():
    with pytest.raises(ParameterError):
        entropy_phase_sweep(GAUSS, GAUSS, 1.0, np.array([]))
    with pytest.raises(ParameterError):
        entropy_phase_sweep(GAUSS, GAUSS, 1.0, np.array([-1.0]))


def test_entropy_small_k0_ordering():
    # entanglement at phi = pi shrinks as the kernel flattens
    phis = np.array([math.pi])
    s_01 = entropy_phase_sweep(GAUSS, GAUSS, 0.1, phis)[0]
    s_05 = entropy_phase_sweep(GAUSS, GAUSS, 0.5, phis)[0]
    assert s_01 < s_05 < 0.2


def test_gate_metrics_validation():
    with pytest.raises(ParameterError):
        GateMetrics(fidelity=1.5, phase=0.0)
    with pytest.raises(ParameterError):
        GateMetrics(fidelity=0.5, phase=math.inf)
    with pytest.raises(ParameterError):
        GateMetrics(fidelity=0.5, phase=0.0, linear_entropy=1.0)
