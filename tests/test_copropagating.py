"""Overlap coefficients, closed-form metrics, and the grid cross-route.

The Gaussian coefficients have elementary closed forms used here as
independent oracles:

    C1(k0) = sqrt(pi/2) erf(sqrt(2/3) k0) / k0
    C2(k0) = sqrt(pi/2) / k0

and for square pulses of width w the double integral reduces to the sine
integral, C1(k0) = 2 (k0 w Si(k0 w) + cos(k0 w) - 1) / (k0 w)^2.
"""

import math
from collections import Counter

import numpy as np
import pytest
from scipy.optimize import bisect, brentq
from scipy.special import erf, sici

from xpmsim import (
    AccuracyError,
    CoefficientError,
    DegeneratePhaseError,
    GateMetrics,
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
    grid_metrics_copropagating,
    interaction_grids,
    make_profile,
    metrics_copropagating,
    overlap_coefficients,
    transition_k0,
    two_particle_copropagating,
)
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
        OverlapCoeffs(c1=0.9, c2=0.5, k0=1.0, profile1="a", profile2="b")


def test_quadrature_disagreement_is_reported():
    # rtol = 0 turns any coarse/fine difference into a hard failure and the
    # error must carry both estimates
    with pytest.raises(AccuracyError) as err:
        compute_C1(GAUSS, GAUSS, 3.7, rtol=0.0)
    assert err.value.coarse is not None and err.value.fine is not None
    assert err.value.coarse != err.value.fine
    assert err.value.fine == pytest.approx(c1_gaussian(3.7), abs=1e-8)


# ----------------------------------------------------------- transition

def test_transition_point_gaussian():
    root = brentq(lambda k: c1_gaussian(k) - 0.5, 1.0, 5.0, xtol=1e-10)
    found = transition_k0()
    assert 2.4 < found < 2.6
    assert found == pytest.approx(root, abs=1.5e-4)


def test_transition_point_square():
    sq = make_profile("square")  # width 2 sigma
    root = brentq(lambda k: c1_square(k) - 0.5, 1.0, 5.0, xtol=1e-10)
    found = transition_k0(sq, sq)
    assert found == pytest.approx(root, abs=1.5e-4)
    # a genuinely different profile moves the transition
    assert abs(found - 2.4967546) > 0.05


def test_transition_bracket_errors():
    with pytest.raises(ParameterError, match="does not straddle"):
        transition_k0(lo=4.0, hi=6.0)
    with pytest.raises(ParameterError):
        transition_k0(xtol=0.0)


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


def test_gauss_rules_built_once_per_node_count(monkeypatch):
    built = Counter()
    real = np.polynomial.legendre.leggauss

    def counting(n):
        built[n] += 1
        return real(n)

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counting)
    numerics._gauss_legendre.cache_clear()
    sq = make_profile("square")
    for k0 in (1.0, 2.5, 1.0, 9.0, 2.5):
        overlap_coefficients(GAUSS, GAUSS, k0)
        overlap_coefficients(sq, sq, k0)
    assert {160, 320, 240, 480} <= set(built)
    assert max(built.values()) == 1


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
    k0 = transition_k0()
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


def test_norm_identity_on_grid():
    # || psi ||^2 = 1 - 4 (C1 - C2) sin^2(phi/2) ties the sampled amplitude
    # to both coefficients at once
    k0, phi = 1.0, math.pi
    c = overlap_coefficients(GAUSS, GAUSS, k0)
    closed = 1.0 - 4.0 * (c.c1 - c.c2) * math.sin(phi / 2.0) ** 2
    grids = interaction_grids(GAUSS, GAUSS, k0)
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
    k0 = transition_k0()  # C1 within 1e-3 of 1/2 here
    banded = metrics_copropagating(GAUSS, GAUSS, k0, math.pi)
    assert banded.phase == pytest.approx(math.pi / 2.0, abs=1e-12)
    # disabling the band exposes the raw arctangent, which collapses to a
    # regime endpoint instead of the boundary line
    raw = metrics_copropagating(GAUSS, GAUSS, k0, math.pi, boundary_tol=0.0)
    assert min(abs(raw.phase), abs(raw.phase - math.pi)) < 1e-3
    assert abs(banded.phase - raw.phase) > 1.0


def test_metrics_boundary_band_only_below_pi():
    k0 = transition_k0()
    c = overlap_coefficients(GAUSS, GAUSS, k0)
    above = metrics_copropagating(GAUSS, GAUSS, k0, 3.5)
    assert above.phase == pytest.approx(conditional_phase(c.c1, 3.5), abs=1e-12)


def test_metrics_with_entropy_pinned():
    m = metrics_copropagating(GAUSS, GAUSS, 2.5, math.pi, with_entropy=True)
    assert m.linear_entropy == pytest.approx(0.558993694, abs=1e-4)
    assert m.fidelity < 1e-4  # k0 = 2.5 sits essentially on the transition
    plain = metrics_copropagating(GAUSS, GAUSS, 2.5, math.pi)
    assert plain.linear_entropy is None


def test_entropy_sweep_matches_direct_state():
    k0, phi = 1.0, 2.0
    grids = interaction_grids(GAUSS, GAUSS, k0)
    swept = entropy_phase_sweep(GAUSS, GAUSS, k0, np.array([phi]), grids=grids)
    direct = metrics_copropagating(GAUSS, GAUSS, k0, phi,
                                   with_entropy=True, grids=grids)
    assert swept[0] == pytest.approx(direct.linear_entropy, abs=1e-10)


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
