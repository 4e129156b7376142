"""Colliding-pulse series, closed form, and evolution diagnostics.

The order-n amplitudes are built from three time integrals (kernel,
profile, kernel-times-profile along the relative trajectory). Here each is
recomputed with adaptive quadrature (scipy.integrate.quad) and compared
against the packaged Gauss-Legendre assembly at scattered points.
"""

import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
import warnings
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from scipy.integrate import quad

import xpmsim
from xpmsim import (
    AccuracyError,
    ApproximationWarning,
    CollisionSetup,
    GridMismatchError,
    InteractionTables,
    ModeError,
    ParameterError,
    SystemParams,
    TruncationError,
    collision_entropy,
    commutator_kernel,
    compute_C1,
    compute_C2,
    conditional_phase,
    entropy_phase_sweep,
    fidelity_closed_form,
    fidelity_evolution,
    free_state,
    ideal_headon_metrics,
    make_profile,
    normalize,
    overlap,
    series_term,
    two_particle_headon_closed,
    two_particle_headon_series,
)
from xpmsim import headon
from xpmsim.cli.config import RunConfig
from xpmsim.cli.sweeps import collision_setup, run_fig4
from xpmsim.headon import (
    _beta,
    _box_transform,
    _exp_remainder,
    _k_rule,
    _KBasis,
    _line_entropy,
    _Trajectory,
)
from xpmsim.numerics import PulseProfile, _converged, real_products

SEP = 10.0
V = 5e3
T_PASS = 2.0 * SEP / (2.0 * V)


def collision(phi=math.pi, k0=1e-3, times=(5e-4, 1e-3), grid_n=161, grid_halfwidth=10.0):
    f1 = make_profile("gaussian", center=-SEP / 2.0)
    f2 = make_profile("gaussian", center=SEP / 2.0)
    params = SystemParams.headon(k0, SEP, V, -V, phi=phi)
    return CollisionSetup(f1, f2, params, times=tuple(times), grid_n=grid_n,
                          grid_halfwidth=grid_halfwidth)


def kernel_product_integral(a, b, k0):
    """int C(x - a) C(x - b) dx over the real line by adaptive quadrature.

    quad takes [-L, L] directly; beyond it the product
    sin(k0 (x - a)) sin(k0 (x - b)) / (pi^2 (x - a)(x - b)) splits into a
    smooth 1/x^2 part and cos/sin(2 k0 x)-weighted parts, which quad's
    Fourier rule integrates out to infinity.
    """
    half = 40.0 * math.pi / k0
    core, _ = quad(lambda x: commutator_kernel(x - a, k0) * commutator_kernel(x - b, k0),
                   -half, half, limit=400, epsabs=1e-14, epsrel=1e-12)

    def right_tail(a, b):
        def env(x):
            return 1.0 / (math.pi ** 2 * (x - a) * (x - b))
        flat, _ = quad(env, half, np.inf, epsabs=1e-14)
        cos_part, _ = quad(env, half, np.inf, weight="cos", wvar=2.0 * k0)
        sin_part, _ = quad(env, half, np.inf, weight="sin", wvar=2.0 * k0)
        return 0.5 * (math.cos(k0 * (a - b)) * flat
                      - math.cos(k0 * (a + b)) * cos_part
                      - math.sin(k0 * (a + b)) * sin_part)

    # C is even, so the left tail is the right tail of the mirrored pair
    return core + right_tail(a, b) + right_tail(-a, -b)


# ------------------------------------------------------- quad oracles

def test_first_order_term_against_quad():
    setup = collision()
    p = setup.params
    z1, z2, t = -0.5, 4.8, 1e-3

    def integrand(s):
        return (commutator_kernel(z2 - z1 - p.v_r * s, p.k0)
                * setup.f1(z2 - p.v_r * s))

    d_ref, _ = quad(integrand, 0.0, t, epsabs=1e-16, epsrel=1e-12, limit=200)
    expected = 1j * p.chi * d_ref * setup.f2(z2)
    got = series_term(setup, 1, z1, z2, t)
    assert got == pytest.approx(expected, rel=1e-8)


def test_third_order_term_against_quad():
    setup = collision()
    p = setup.params
    z1, z2, t = 1.0, 3.5, 8e-4

    a_ref, _ = quad(lambda s: commutator_kernel(z2 - z1 - p.v_r * s, p.k0),
                    0.0, t, epsabs=1e-16, epsrel=1e-12, limit=200)
    b_ref, _ = quad(lambda s: float(setup.f1(z2 - p.v_r * s)),
                    0.0, t, epsabs=1e-16, epsrel=1e-12, limit=200)
    x = p.chi * p.kappa * t
    expected = ((1j * x) ** 3 / math.factorial(3) / (p.kappa * t * t)
                * a_ref * b_ref * setup.f2(z2))
    got = series_term(setup, 3, z1, z2, t)
    assert got == pytest.approx(expected, rel=1e-8)


def test_series_term_broadcasting_and_edges():
    setup = collision()
    z1 = np.array([-1.0, 0.0, 1.0])
    z2 = np.array([3.0, 4.0])
    out = series_term(setup, 2, z1[:, None], z2[None, :], 5e-4)
    assert out.shape == (3, 2)
    assert series_term(setup, 1, 0.0, 4.0, 0.0) == 0.0
    with pytest.raises(ParameterError):
        series_term(setup, 0, 0.0, 4.0, 1e-3)
    with pytest.raises(ParameterError):
        series_term(setup, 1, 0.0, 4.0, -1e-3)


# ------------------------------------------- series against closed form

def test_closed_form_matches_converged_series():
    setup = collision(phi=math.pi / 2.0, times=(2e-4, 6e-4, 1.2e-3, 2e-3))
    tables = InteractionTables(setup)
    for t in setup.times:
        closed = two_particle_headon_closed(setup, t, tables=tables)
        series = two_particle_headon_series(setup, t, tables=tables)
        assert np.max(np.abs(closed.psi - series.psi)) < 1e-10


def test_small_phase_truncates_at_second_order(monkeypatch):
    # x stays ~1e-3 through the pass, so orders above 2 are invisible
    monkeypatch.setattr(headon, "_N_MAX", 2)
    setup = collision(phi=1e-3, times=(1e-3, 2e-3))
    closed = two_particle_headon_closed(setup, 2e-3)
    series = two_particle_headon_series(setup, 2e-3)
    assert np.max(np.abs(closed.psi - series.psi)) < 1e-9


def test_truncation_reported_at_full_phase(monkeypatch):
    monkeypatch.setattr(headon, "_N_MAX", 12)
    setup = collision(phi=math.pi, times=(1e-3, 2e-3))
    tables = InteractionTables(setup)
    with pytest.raises(TruncationError, match="order 12: last term sup-norm bound"):
        two_particle_headon_series(setup, 2e-3, tables=tables)
    # half the accumulated phase converges within the same order budget
    half = collision(phi=math.pi / 2.0, times=(1e-3, 2e-3))
    closed = two_particle_headon_closed(half, 2e-3)
    series = two_particle_headon_series(half, 2e-3)
    assert np.max(np.abs(closed.psi - series.psi)) < 1e-6


def test_zero_time_returns_free_product():
    setup = collision()
    ref = free_state(setup.f1, setup.f2, setup.grid1, setup.grid2)
    for state in (two_particle_headon_closed(setup, 0.0),
                  two_particle_headon_series(setup, 0.0)):
        assert np.array_equal(state.psi, ref.psi)


def test_zero_coupling_keeps_fidelity_flat():
    f1 = make_profile("gaussian", center=-SEP / 2.0)
    f2 = make_profile("gaussian", center=SEP / 2.0)
    params = SystemParams.headon(1e-3, SEP, V, -V, chi=0.0)
    setup = CollisionSetup(f1, f2, params, times=(0.0, 5e-4, 1e-3, 2e-3),
                           grid_n=121)
    curve = fidelity_evolution(setup)
    assert np.allclose(curve.columns["F"], 1.0, atol=1e-12)
    assert np.allclose(curve.columns["theta"], 0.0, atol=1e-12)


# ----------------------------------------------------- interaction tables

def test_incremental_tables_match_single_shot():
    setup = collision(times=(4e-4, 9e-4, 1.6e-3))
    ladder = InteractionTables(setup)
    ladder.ensure(setup, setup.times)
    oneshot = InteractionTables(setup)
    for t in setup.times:
        for inc, ref in zip(ladder.at(setup, t), oneshot.at(setup, t)):
            assert np.max(np.abs(np.asarray(inc) - np.asarray(ref))) < 1e-12


def node_by_node_tables(setup, t, refine=2):
    """A, B, D at time t, one full (z1, z2) kernel matrix per time node.

    The time rule has 8 Gauss nodes per panel, one panel per pulse width
    crossed, times refine.
    """
    p = setup.params
    panels = max(1, math.ceil(abs(p.v_r) * t)) * refine
    x, w = np.polynomial.legendre.leggauss(8)
    edges = np.linspace(0.0, t, panels + 1)
    z1, z2 = setup.grid1.nodes, setup.grid2.nodes
    a_tab = np.zeros((z1.size, z2.size))
    b_tab = np.zeros(z2.size, dtype=complex)
    d_tab = np.zeros((z1.size, z2.size), dtype=complex)
    for lo, hi in zip(edges, edges[1:]):
        for xq, wq in zip(x, w):
            s, ws = 0.5 * (lo + hi) + 0.5 * (hi - lo) * xq, 0.5 * (hi - lo) * wq
            kern = commutator_kernel(z2[None, :] - z1[:, None] - p.v_r * s, p.k0)
            front = setup.f1(z2 - p.v_r * s)
            a_tab += ws * kern
            b_tab += ws * front
            d_tab += ws * kern * front[None, :]
    return a_tab, b_tab, d_tab


def interpolant_integrals(setup, t, nodes=4):
    """B and D at time t for a tabulated f1, its linear interpolant integrated exactly.

    With y = z2 - v_r s, B = (P(z2) - P(z2 - v_r t)) / v_r for P an
    antiderivative of f1: the trapezoid rule over whole table cells, and
    over the part of a cell up to y, is exact for the interpolant. D takes
    the antiderivative of C(y - z1) f1(y) the same way, with a Gauss rule on
    each cell and part cell, where f1 is linear and C smooth. No time rule
    and no k rule.
    """
    p, f1 = setup.params, setup.f1
    x = f1.table_nodes
    z1, z2 = setup.grid1.nodes, setup.grid2.nodes
    g, w = np.polynomial.legendre.leggauss(nodes)

    def gauss(lo, hi):
        half = 0.5 * (hi - lo)[:, None]
        return 0.5 * (lo + hi)[:, None] + half * g, half * w

    def kernel_sums(y, wy):
        kern = commutator_kernel(y[..., None] - z1, p.k0)
        return np.einsum("mq,mqz->mz", wy * f1(y), kern)

    vals = f1(x)
    cum_b = np.concatenate(([0.0], np.cumsum(0.5 * np.diff(x) * (vals[1:] + vals[:-1]))))
    cum_d = np.concatenate((np.zeros((1, z1.size)),
                            np.cumsum(kernel_sums(*gauss(x[:-1], x[1:])), axis=0)))

    def antiderivatives(y):
        y = np.clip(y, x[0], x[-1])
        i = np.clip(np.searchsorted(x, y, side="right") - 1, 0, x.size - 2)
        return (cum_b[i] + 0.5 * (y - x[i]) * (vals[i] + f1(y)),
                cum_d[i] + kernel_sums(*gauss(x[i], y)))

    (b_hi, d_hi), (b_lo, d_lo) = antiderivatives(z2), antiderivatives(z2 - p.v_r * t)
    return (b_hi - b_lo) / p.v_r, ((d_hi - d_lo) / p.v_r).T


def reference_tables(setup, t):
    """A, B, D at time t, and the bound on each gap relative to the table's peak.

    A gaussian f1 takes the node-by-node loop, to 1e-12. A time rule does
    not follow a tabulated f1's kinks (it reaches about 5e-8), so there B and
    D integrate the interpolant exactly, to 1e-8; A does not involve f1.
    """
    ref = node_by_node_tables(setup, t)
    if setup.f1.shape != "tabulated":
        return ref, (1e-12,) * 3
    return (ref[0], *interpolant_integrals(setup, t)), (1e-12, 1e-8, 1e-8)


def assert_tables_close(got, ref, rtols=(1e-12,) * 3):
    for g, r, rtol in zip(got, ref, rtols):
        assert np.max(np.abs(np.asarray(g) - r)) <= rtol * np.max(np.abs(r))


def test_tables_shared_across_coupling_strengths():
    # the time integrals depend on geometry only, not on chi
    strong = collision(phi=math.pi)
    weak = collision(phi=math.pi / 4.0)
    tables = InteractionTables(strong)
    assert tables.compatible(weak)
    a = two_particle_headon_closed(weak, 1e-3, tables=tables)
    b = two_particle_headon_closed(weak, 1e-3)
    assert np.max(np.abs(a.psi - b.psi)) < 1e-12


def test_tables_reject_different_geometry():
    tables = InteractionTables(collision())
    other = collision(k0=2e-3)
    assert not tables.compatible(other)
    with pytest.raises(GridMismatchError):
        tables.ensure(other, other.times)
    with pytest.raises(ParameterError):
        tables.at(collision(), -1.0)


def test_tables_reject_profiles_that_share_a_label():
    # labels print centres with %g and a table by its node count only, so
    # each pair below shares both labels and must still not share tables
    nodes = np.linspace(-SEP / 2.0 - 8.0, -SEP / 2.0 + 8.0, 4001)

    def tabulated(width):
        values = np.exp(-(nodes + SEP / 2.0) ** 2 / (2.0 * width ** 2))
        f1 = make_profile("tabulated", center=-SEP / 2.0, table_nodes=nodes,
                          table_values=values)
        return f1, make_profile("gaussian", center=SEP / 2.0)

    def shifted(offset):
        return (make_profile("gaussian", center=-SEP / 2.0 + offset),
                make_profile("gaussian", center=SEP / 2.0 + offset))

    params = SystemParams.headon(1e-3, SEP, V, -V, phi=math.pi)
    for pair in ((tabulated(1.0), tabulated(1.3)), (shifted(0.0), shifted(1e-7))):
        first, second = (CollisionSetup(*fs, params, times=(1e-3,), grid_n=61)
                         for fs in pair)
        assert first.f1.label == second.f1.label
        assert first.f2.label == second.f2.label
        tables = InteractionTables(first)
        assert tables.compatible(first)
        assert not tables.compatible(second)
        with pytest.raises(GridMismatchError):
            tables.at(second, 1e-3)
        with pytest.raises(GridMismatchError):
            tables.ensure(second, second.times)
        with pytest.raises(GridMismatchError):
            tables.line_moments(second, second.times)


# ----------------------------------------------------------- evolution

def test_fidelity_evolution_structure():
    setup = collision(phi=math.pi, times=(0.0, 2.5e-4, 5e-4, 1e-3, 2e-3))
    curve = fidelity_evolution(setup)
    assert curve.kind == "evolution"
    f = np.asarray(curve.columns["F"])
    assert f[0] == pytest.approx(1.0, abs=1e-12)
    # before the pulses touch, the gate looks like the identity
    assert f[1] > 1.0 - 1e-6
    assert np.all((f >= 0.0) & (f <= 1.0))
    gauges = np.asarray(curve.columns["gauge"])
    assert gauges[-1] == pytest.approx(setup.gauge(2e-3))
    assert curve.provenance["f_min"] == pytest.approx(float(f.min()))
    assert curve.provenance["f_final"] == pytest.approx(float(f[-1]))


def test_box_kernel_identity_against_quad():
    # the whole-line collision norm rests on int C(x - a) C(x - b) dx = C(a - b)
    for k0 in (1.0, 2.5):
        for a, b in ((0.0, 0.0), (0.3, -1.7), (5.0, 2.0), (-4.0, 9.5)):
            expected = commutator_kernel(a - b, k0)
            assert kernel_product_integral(a, b, k0) == pytest.approx(expected, abs=1e-10)


def test_collision_fidelity_free_of_window():
    phis = (math.pi / 4.0, math.pi / 2.0, 3.0 * math.pi / 4.0, math.pi)
    finals = {}
    for halfwidth in (10.0, 40.0):
        tables = None
        for phi in phis:
            setup = collision(phi=phi, times=(T_PASS,), grid_halfwidth=halfwidth)
            if tables is None:
                tables = InteractionTables(setup)
            curve = fidelity_evolution(setup, tables=tables)
            finals[halfwidth, phi] = curve.columns["F"][-1]
    for phi in phis:
        assert finals[10.0, phi] == pytest.approx(finals[40.0, phi], abs=1e-9)
    assert finals[10.0, math.pi] < 0.01  # far below the windowed 0.42


def test_windowed_fidelity_approaches_window_free():
    # the window norm misses the kernel tail, so widening it drives the old
    # windowed F monotonically down towards the whole-line value
    windowed = []
    for halfwidth in (10.0, 20.0, 40.0):
        setup = collision(phi=math.pi / 4.0, times=(T_PASS,),
                          grid_halfwidth=halfwidth)
        tables = InteractionTables(setup)
        reference = normalize(free_state(setup.f1, setup.f2,
                                         setup.grid1, setup.grid2))
        state = normalize(two_particle_headon_closed(setup, T_PASS, tables=tables))
        windowed.append(abs(overlap(reference, state)) ** 2)
    line = fidelity_evolution(setup, tables=tables).columns["F"][-1]
    assert windowed[0] > windowed[1] > windowed[2] > line


def time_rule(t, v_r, nodes=8):
    """Gauss nodes on [0, t], one panel per unit width crossed at speed v_r."""
    panels = max(1, math.ceil(abs(v_r) * t))
    x, w = np.polynomial.legendre.leggauss(nodes)
    edges = np.linspace(0.0, t, panels + 1)
    half = 0.5 * (edges[1] - edges[0])
    s = (half * x[None, :] + 0.5 * (edges[:-1] + edges[1:])[:, None]).ravel()
    return s, np.tile(half * w, panels)


def per_time_moments(setup, t):
    """Trajectory moments (p, r, c, o_f, o_b) at one time, by time quadrature.

    No k rule: p, r and c take the correction's whole-line norm through the
    box-kernel identity as a time-kernel matrix C(v_r (s - s')), and o_f and
    o_b take h = conj(f1) * C on the z1 window, where f1 bounds it.
    """
    p = setup.params
    s, ws = time_rule(t, p.v_r)
    z1, w1 = setup.grid1.nodes, setup.grid1.weights
    z2 = setup.grid2.nodes
    y = z2[:, None] - p.v_r * s[None, :]
    front = setup.f1(y) * ws
    kern = commutator_kernel(p.v_r * (s[:, None] - s[None, :]), p.k0)
    b_row = front.sum(axis=1)
    dens = setup.grid2.weights * np.abs(setup.f2(z2)) ** 2
    p_mom = dens @ np.real(np.sum((front @ kern) * np.conj(front), axis=1))
    r_mom = dens @ (np.conj(b_row) * (front @ kern @ ws))
    c_mom = (ws @ kern @ ws) * (dens @ np.abs(b_row) ** 2)
    h = commutator_kernel(y[..., None] - z1, p.k0) @ (w1 * np.conj(setup.f1(z1)))
    return p_mom, r_mom, c_mom, dens @ np.sum(front * h, axis=1), dens @ (b_row * (h @ ws))


def closed_state_metrics(setup, t, tables):
    """F and theta from the closed-form state on the co-moving window.

    The overlap and the free and cross parts of the norm are window sums of
    the full amplitude; the correction's own squared norm comes from the
    time-quadrature moments.
    """
    p = setup.params
    free = free_state(setup.f1, setup.f2, setup.grid1, setup.grid2)
    raw = two_particle_headon_closed(setup, t, tables=tables)
    amp = overlap(normalize(free), normalize(raw))
    window_nsq = raw.norm_squared()
    corr = raw.psi - free.psi
    window_corr = setup.grid1.weights @ np.abs(corr) ** 2 @ setup.grid2.weights
    p_mom, r_mom, c_mom, _, _ = per_time_moments(setup, t)
    xt = p.chi * p.kappa * t
    beta = (np.exp(1j * xt) - 1.0 - 1j * xt) / (p.kappa * t * t)
    line = (p.chi ** 2 * p_mom - 2.0 * p.chi * (np.conj(beta) * r_mom).imag
            + abs(beta) ** 2 * c_mom)
    return abs(amp) ** 2 * window_nsq / (window_nsq - window_corr + line), np.angle(amp)


def centred(times=(2.5e-4, 5e-4, 1e-3)):
    """Both pulses on one center, with the default geometry's coupling."""
    f = make_profile("gaussian")
    chi = collision().params.chi
    params = SystemParams.headon(1e-3, 0.0, V, -V, chi=chi)
    return CollisionSetup(f, f, params, times=times, grid_n=161)


def mirrored(phi=math.pi, times=(5e-4, 1e-3)):
    """The default geometry reflected: f1 on the right, v_r < 0."""
    f1 = make_profile("gaussian", center=SEP / 2.0)
    f2 = make_profile("gaussian", center=-SEP / 2.0)
    params = SystemParams.headon(1e-3, SEP, -V, V, phi=phi)
    return CollisionSetup(f1, f2, params, times=tuple(times), grid_n=161)


# the first sample of a default pass, where both ends of every trajectory
# lie deep in f1's tail and o_f is about 4e-23
@pytest.mark.parametrize("t", (T_PASS / 120.0, 4e-4, 1e-3, 2e-3))
def test_trajectory_moments_match_time_quadrature(t):
    setup = collision(times=(t,))
    got = InteractionTables(setup).line_moments(setup, [t])
    for name, g, ref in zip(("p", "r", "c", "o_f", "o_b"), got, per_time_moments(setup, t)):
        assert abs(g[0] - ref) <= 1e-12 * abs(ref), name


@pytest.mark.parametrize("make", (collision, centred, mirrored),
                         ids=("default", "co-centred", "mirrored"))
def test_fidelity_matches_closed_form_state(make):
    setup = make()
    tables = InteractionTables(setup)
    curve = fidelity_evolution(setup, tables=tables)
    for t, f, theta in zip(setup.times, curve.columns["F"], curve.columns["theta"]):
        f_ref, theta_ref = closed_state_metrics(setup, t, tables)
        assert f == pytest.approx(f_ref, abs=1e-12)
        assert theta == pytest.approx(theta_ref, abs=1e-12)


def test_mirrored_collision_matches_default():
    times = np.linspace(0.0, T_PASS, 31)
    for phi in (math.pi / 4.0, math.pi):
        ref = fidelity_evolution(collision(phi=phi, times=times))
        got = fidelity_evolution(mirrored(phi=phi, times=times))
        for col in ("F", "theta"):
            assert np.max(np.abs(np.subtract(got.columns[col], ref.columns[col]))) < 1e-13


def test_co_centred_collision_starts_inside_the_interaction():
    setup = centred(times=(0.0, 1e-4, 5e-4))
    f = np.asarray(fidelity_evolution(setup).columns["F"])
    assert f[0] == 1.0
    assert np.all((f >= 0.0) & (f <= 1.0))
    assert f[1] < 1.0 - 1e-3  # no approach: the phase builds from t = 0


def square(times=(1e-3,), grid_n=401):
    """The default geometry with square pulses of width 2."""
    f1 = make_profile("square", center=-SEP / 2.0)
    f2 = make_profile("square", center=SEP / 2.0)
    params = SystemParams.headon(1e-3, SEP, V, -V, phi=math.pi)
    return CollisionSetup(f1, f2, params, times=tuple(times), grid_n=grid_n)


def test_square_collision_entropy_converges():
    # the pulses' edges fall on trajectory panel boundaries, so the
    # resolution check passes; the z2 trace still converges in grid_n
    values = []
    for grid_n in (101, 201, 401):
        setup = square(grid_n=grid_n)
        values.append(collision_entropy(setup, 1e-3))
    assert all(0.0 < s < 1.0 for s in values)
    gaps = np.abs(np.diff(values))
    assert gaps[1] < 0.6 * gaps[0]


def complex_front(grid_n=121, k0=1e-3):
    """A chirped gaussian f1 tabulated as complex values."""
    nodes = np.linspace(-SEP / 2.0 - 8.0, -SEP / 2.0 + 8.0, 4001)
    values = np.exp(-(nodes + SEP / 2.0) ** 2 / 2.0 + 0.7j * nodes)
    f1 = make_profile("tabulated", center=-SEP / 2.0, table_nodes=nodes,
                      table_values=values)
    f2 = make_profile("gaussian", center=SEP / 2.0)
    params = SystemParams.headon(k0, SEP, V, -V, phi=math.pi / 2.0)
    return CollisionSetup(f1, f2, params, times=(1e-3,), grid_n=grid_n)


def test_tabulated_front_passes_the_whole_line_checks():
    # the trajectory's panels end at f1's table nodes; panels across them
    # left the two resolutions of the line moments (at t = 5e-4) and of the
    # chirped pulse's entropy blocks further apart than their 1e-8 checks
    nodes = np.linspace(-SEP / 2.0 - 8.0, -SEP / 2.0 + 8.0, 4001)
    f1 = make_profile("tabulated", center=-SEP / 2.0, table_nodes=nodes,
                      table_values=np.exp(-(nodes + SEP / 2.0) ** 2 / 2.0))
    f2 = make_profile("gaussian", center=SEP / 2.0)
    params = SystemParams.headon(1e-3, SEP, V, -V, phi=math.pi)
    got = fidelity_evolution(CollisionSetup(f1, f2, params,
                                            times=tuple(np.linspace(0.0, T_PASS, 121))))
    ref = fidelity_evolution(collision(times=got.axis("t").values, grid_n=401))
    # the interpolant is the gaussian to about 2e-6
    assert np.max(np.abs(np.subtract(got.columns["F"], ref.columns["F"]))) < 1e-5
    assert 0.0 < collision_entropy(complex_front(), 1e-3) < 1.0


@pytest.mark.parametrize("make", [lambda: collision(grid_n=121), complex_front],
                         ids=["real", "complex"])
def test_tables_match_node_by_node_loop(make):
    setup = make()
    times = (4e-4, 9e-4, 1.6e-3)
    refs = [reference_tables(setup, t) for t in times]
    oneshot = InteractionTables(setup)
    for t, ref in zip(times, refs):
        got = oneshot.at(setup, t)
        assert got[2].dtype == (float if setup.f1.is_real else complex)
        assert_tables_close(got, *ref)
    ladder = InteractionTables(setup)
    ladder.ensure(setup, times)
    # a one-shot time is a ladder of one on its own k rule and trajectory
    # edges: the same tables up to rounding
    for g, l in zip(oneshot.at(setup, times[0]), ladder.at(setup, times[0])):
        assert np.max(np.abs(g - l)) <= 1e-13 * np.max(np.abs(l))
    for t, ref in zip(times, refs):
        assert_tables_close(ladder.at(setup, t), *ref)


@pytest.mark.parametrize("make", [lambda: collision(k0=0.3, grid_n=61),
                                  lambda: complex_front(grid_n=61, k0=0.3)],
                         ids=["real", "complex"])
def test_tables_match_node_by_node_loop_over_several_k_panels(make):
    # k_s times the reach of z1 - z2 - v_r s is about 14 here, so D's k rule
    # takes five panels, ten at the doubled resolution, where k0 = 1e-3 takes one
    setup = make()
    times = (4e-4, 9e-4, 1.6e-3)
    assert _k_rule(setup, times[-1], 1)[0].size == 5 * 8
    tables = InteractionTables(setup)
    tables.ensure(setup, times)
    for t in times:
        got = tables.at(setup, t)
        assert got[2].dtype == (float if setup.f1.is_real else complex)
        assert_tables_close(got, *reference_tables(setup, t))


def test_square_pulse_tables_and_amplitudes():
    # the trajectory takes f1's edges as panel edges, so B is the plateau
    # height times the overlap of [z2 - v_r t, z2] with f1's support, over
    # |v_r|; a time rule blind to the edges failed its resolution check here
    setup = fig4_setup(profile="square")
    f1, v_r = setup.f1, setup.params.v_r
    z2 = setup.grid2.nodes
    tables = InteractionTables(setup)
    for q in (1, 30, 59, 60, 90, 120):
        t = setup.times[q]
        two_particle_headon_closed(setup, t, tables=tables)
        two_particle_headon_series(setup, t, tables=tables)
        _, b_tab, _ = tables.at(setup, t)
        lo, hi = np.minimum(z2, z2 - v_r * t), np.maximum(z2, z2 - v_r * t)
        overlap = np.clip(np.minimum(hi, f1.center + f1.width / 2.0)
                          - np.maximum(lo, f1.center - f1.width / 2.0), 0.0, None)
        exact = f1.width ** -0.5 * overlap / abs(v_r)
        assert np.max(np.abs(b_tab - exact)) <= 1e-12 * np.max(exact)


# the tables keep B, D's n2 x 2 n_k+ spectrum, A's time factor and the basis per time:
# over the 121 times of the fig4 ladder, n1 x n2 tables per time grew a fresh
# process by about 155 MB. The moments contract G_f a block of times at a
# time; over the whole ladder at once they grew it by about 45 MB. The child
# reads its own high-water mark, VmHWM (kB): its ru_maxrss starts at the
# spawning process's, which hides growth below it.
@pytest.mark.skipif(not os.path.isfile("/proc/self/status"),
                    reason="needs the process's own VmHWM from /proc/self/status")
@pytest.mark.parametrize("call, bound_mb", (("ensure", 40), ("line_moments", 30)),
                         ids=("ensure", "line_moments"))
def test_table_ladder_memory(call, bound_mb):
    src = os.path.dirname(os.path.dirname(os.path.abspath(xpmsim.__file__)))
    script = textwrap.dedent(f"""
        import math
        from xpmsim import InteractionTables
        from xpmsim.cli.config import RunConfig
        from xpmsim.cli.sweeps import collision_setup

        def hwm():
            with open("/proc/self/status", encoding="ascii") as fh:
                return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))

        setup = collision_setup(RunConfig(task="fig4"), math.pi)
        before = hwm()
        InteractionTables(setup).{call}(setup, setup.times)
        print(hwm() - before)
    """)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert int(out.stdout.split()[-1]) < bound_mb * 1024


def test_complex_front_closed_form_against_series_terms(monkeypatch):
    # the series order by order, i chi D f2 and then
    # (i x)^n / (n! kappa t^2) A B f2, on integrals that follow f1's table
    # kinks, as no time rule does (see reference_tables)
    setup = complex_front()
    t = 1e-3
    tables = InteractionTables(setup)
    _, b_tab, d_tab = tables.at(setup, t)
    assert b_tab.dtype == complex and d_tab.dtype == complex
    closed = two_particle_headon_closed(setup, t, tables=tables)
    rng = np.random.default_rng(7)
    i = rng.integers(0, setup.grid1.n, 12)
    j = rng.integers(0, setup.grid2.n, 12)
    (a_ref, b_ref, d_ref), _ = reference_tables(setup, t)
    p = setup.params
    x = p.chi * p.kappa * t
    f2 = setup.f2(setup.grid2.nodes[j])
    summed = setup.f1(setup.grid1.nodes[i]) * f2 + 1j * p.chi * d_ref[i, j] * f2
    for n in range(2, 31):
        weight = (1j * x) ** n / math.factorial(n) / (p.kappa * t * t)
        summed = summed + weight * a_ref[i, j] * b_ref[j] * f2
    scale = np.max(np.abs(closed.psi))
    assert np.max(np.abs(closed.psi[i, j] - summed)) < 1e-12 * scale
    # series_term on complex f1 values, at two time panels per pulse width:
    # its time rule misses the table kinks by about 5e-8 of B's and D's
    # peaks (reference_tables), and each of psi's two interaction parts is
    # smaller than psi, so 1e-7 of psi bounds the gap
    monkeypatch.setattr(headon, "_SERIES_PANELS", 2)
    z1, z2 = setup.grid1.nodes[i], setup.grid2.nodes[j]
    summed = setup.f1(z1) * setup.f2(z2)
    for n in range(1, 31):
        summed = summed + series_term(setup, n, z1, z2, t)
    assert np.max(np.abs(closed.psi[i, j] - summed)) < 1e-7 * scale


# ------------------------------- series and closed form against full arrays

def series_by_full_arrays(setup, t, n_max, tables):
    """The series partial sum built order by order on full n x n arrays.

    Order 1 is always added. Each later order's term is formed, added and
    measured in sup-norm as an array, with the same 1e-12 stop; truncation
    is not checked here.
    """
    a_tab, b_tab, d_tab = tables.at(setup, t)
    p = setup.params
    f2_row = setup.f2(setup.grid2.nodes)
    psi = np.outer(setup.f1(setup.grid1.nodes), f2_row).astype(complex)
    x = p.chi * p.kappa * t
    psi = psi + 1j * p.chi * d_tab * f2_row[None, :]
    ab_row = a_tab * (b_tab * f2_row)[None, :]
    scale = 1.0 / (p.kappa * t * t)
    coef = 1j * x
    for n in range(2, n_max + 1):
        coef = coef * (1j * x) / n
        term = (coef * scale) * ab_row
        psi = psi + term
        if float(np.max(np.abs(term))) < 1e-12:
            break
    return psi


SERIES_CASES = [(f"phi={phi:.3f}, t={t:.3g}", partial(collision, phi=phi), t, 40)
                for phi in (math.pi / 4.0, math.pi / 2.0, math.pi)
                for t in (T_PASS / 120.0, 5e-4, 1e-3, 2e-3)]
SERIES_CASES += [("n_max=2", partial(collision, phi=1e-3), 2e-3, 2),
                 ("complex f1", complex_front, 1e-3, 40)]


@pytest.mark.parametrize("make, t, n_max", [c[1:] for c in SERIES_CASES],
                         ids=[c[0] for c in SERIES_CASES])
def test_series_matches_per_order_arrays(make, t, n_max, monkeypatch):
    # T_PASS / 120 is the first nonzero time of the default ladder; summing the
    # orders as scalars moves psi by rounding only, while stopping one order
    # early or late would move it by up to 1e-12
    monkeypatch.setattr(headon, "_N_MAX", n_max)
    setup = make()
    tables = InteractionTables(setup)
    got = two_particle_headon_series(setup, t, tables=tables)
    ref = series_by_full_arrays(setup, t, n_max, tables)
    assert np.max(np.abs(got.psi - ref)) <= 2e-15


@pytest.mark.parametrize("phi", [math.pi / 4.0, math.pi])
def test_series_peak_memory_is_independent_of_order(phi):
    # at Phi = pi the series runs past order 12 (see the truncation test); the
    # call holds the state and the product's factors of 1 + 2 n_k rows, whatever
    # the order, since it bounds each order through |A| <= kappa t and B: 1.37
    # n x n complex arrays on these 161-node grids. Building a fresh term, sum
    # and modulus per order peaked at 4.3. The closed form holds the same arrays.
    setup = collision(phi=phi, times=(2e-3,))
    tables = InteractionTables(setup)
    tables.at(setup, 2e-3)
    for build in (two_particle_headon_series, two_particle_headon_closed):
        tracemalloc.start()
        try:
            build(setup, 2e-3, tables=tables)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * 16 * setup.grid1.n * setup.grid2.n, build.__name__


@pytest.mark.parametrize("make", [lambda: collision(phi=math.pi / 2.0), complex_front],
                         ids=["real", "complex"])
def test_series_makes_one_real_product(make, monkeypatch):
    # the state is the one n1 x n2 product of a series call: it bounds each
    # order through |A| <= kappa t and B, and forms neither A nor D
    setup = make()
    t = 1e-3
    tables = InteractionTables(setup)
    tables.ensure(setup, [t])
    calls = []

    def counted(left, right, out):
        calls.append(out.shape)
        return real_products(left, right, out)

    monkeypatch.setattr(headon, "real_products", counted)
    two_particle_headon_series(setup, t, tables=tables)
    assert calls == [(setup.grid1.n, setup.grid2.n)]


@pytest.mark.parametrize("make", [lambda: collision(phi=math.pi / 2.0), complex_front],
                         ids=["real", "complex"])
def test_amplitudes_match_full_array_expression(make, monkeypatch):
    # both amplitudes are one real product over [f1 | cos kz1 | sin kz1], of
    # at most 2 (1 + n_k) = 34 columns at k0 = 1e-3: each entry is the full
    # array expression up to 64 roundings of the largest
    def assert_close(got, ref):
        assert np.max(np.abs(got - ref)) <= 64 * np.finfo(float).eps * np.max(np.abs(ref))

    setup = make()
    t = 1e-3
    tables = InteractionTables(setup)
    a_tab, b_tab, d_tab = tables.at(setup, t)
    p = setup.params
    f2_row = setup.f2(setup.grid2.nodes)
    x = p.chi * p.kappa * t
    free = np.outer(setup.f1(setup.grid1.nodes), f2_row).astype(complex)
    # orders 1 and 2 alone converge only for a small phase; the tables do
    # not depend on it
    weak = replace(setup, params=SystemParams.headon(p.k0, SEP, V, -V, phi=1e-7))
    x_weak = weak.params.chi * p.kappa * t
    w_2 = (1j * x_weak) ** 2 / 2.0 / (p.kappa * t * t)
    monkeypatch.setattr(headon, "_N_MAX", 2)
    first = two_particle_headon_series(weak, t, tables=tables)
    assert_close(first.psi, free + 1j * weak.params.chi * d_tab * f2_row[None, :]
                 + w_2 * (a_tab * (b_tab * f2_row)[None, :]))
    ref = free + 1j * p.chi * d_tab * f2_row[None, :]
    ref = ref + (_exp_remainder(x) / (p.kappa * t * t)) * (a_tab * (b_tab * f2_row)[None, :])
    assert_close(two_particle_headon_closed(setup, t, tables=tables).psi, ref)


def line_traced_entropy(setup, t, nodes=8):
    """Collision S_L with z1 traced over the whole line in position space.

    No k-box: the correction-correction block sums
    w_s w_s' g(a, s) conj(g(b, s')) C(a - b - v_r (s - s')) over both time
    nodes (by the box-kernel identity, checked above against quad), and the
    cross term takes h = f1 * C on the z1 window, where f1 bounds it.
    """
    p = setup.params
    z1, w1 = setup.grid1.nodes, setup.grid1.weights
    z2, w2 = setup.grid2.nodes, setup.grid2.weights
    s, ws = time_rule(t, p.v_r, nodes)
    xt = p.chi * p.kappa * t
    beta = (np.exp(1j * xt) - 1.0 - 1j * xt) / (p.kappa * t * t)
    y = z2[:, None] - p.v_r * s[None, :]
    front = setup.f1(y)
    g = (1j * p.chi * front + beta * (front @ ws)[:, None]) * ws[None, :]
    h = commutator_kernel(y[..., None] - z1, p.k0) @ (w1 * setup.f1(z1))
    big_h = np.sum(g * h, axis=1)
    n2, step = z2.size, z2[1] - z2[0]
    lags = step * np.arange(-(n2 - 1), n2)[:, None, None] - p.v_r * (s[:, None] - s[None, :])
    kern = commutator_kernel(lags, p.k0)
    cc = np.array([np.einsum("s,bst,bt->b", g[i], kern[i - np.arange(n2) + n2 - 1], np.conj(g))
                   for i in range(n2)])
    f2 = setup.f2(z2)
    rho = np.outer(f2, f2) * (float(w1 @ setup.f1(z1) ** 2) + big_h[:, None]
                              + np.conj(big_h)[None, :] + cc)
    nsq = float(np.real(w2 @ np.diag(rho)))
    return 1.0 - float(w2 @ np.abs(rho) ** 2 @ w2) / nsq ** 2


def test_collision_entanglement_transient():
    # z1 is traced over the whole line: the kernel's tail beyond the window
    # carries most of the correction (a window-only trace gives 0.109 and
    # 9e-12 here). Entanglement peaks mid-pass and nearly dies out once the
    # pulses separate.
    setup = collision(phi=math.pi, times=(1e-3, 2e-3))
    tables = InteractionTables(setup)
    coarse = collision(phi=math.pi, times=(1e-3, 2e-3), grid_n=41)
    assert collision_entropy(setup, 0.0, tables=tables) == 0.0
    for t, pinned in ((1e-3, 5.148e-3), (2e-3, 1.153e-6)):
        s_l = collision_entropy(setup, t, tables=tables)
        assert s_l == pytest.approx(pinned, rel=1e-3)
        assert s_l == pytest.approx(line_traced_entropy(coarse, t), rel=1e-6)


@pytest.mark.parametrize("profile", ["gaussian", "square"])
def test_collision_entropy_vanishes_without_coupling_and_is_never_negative(profile):
    # S_L = 2 e2 / tr^2 with e2 a sum of Gram minors: the free product gives
    # exactly 0, and S_L = 1 - purity, which read down to -1.3e-15 on this
    # ladder, no longer rounds below 0
    free = fig4_setup(0.0, profile)
    assert all(collision_entropy(free, t) == 0.0 for t in free.times[::12])
    for phi in RunConfig().headon_phis:
        setup = fig4_setup(phi, profile)
        assert all(collision_entropy(setup, t) >= 0.0 for t in setup.times)


# --------------------------------------------------- trajectory panels

def fig4_setup(phi=math.pi, profile="gaussian"):
    """One curve of the default fig4 run: 401-node grids, 121 times per pass."""
    return collision_setup(RunConfig(task="fig4", profile_shape=profile), phi)


def keep_every_edge(points, tol):
    """Edges without merging: every distinct float is an edge, found by search."""
    edges = np.unique(points)
    return edges, np.searchsorted(edges, points)


# On the default ladder v_r times the time step is 10/3 z2 steps, so every
# third end z2 - v_r t lands on the z2 lattice, up to rounding: 7160 raw
# points, 2383 distinct. 37 times give 100/9 steps, and fewer landings.
@pytest.mark.parametrize("n_times, raw, panels", ((121, 7160, 2382), (37, 9830, 6408)))
def test_trajectory_merges_only_rounding_duplicates(n_times, raw, panels):
    setup = fig4_setup()
    times = np.linspace(0.0, setup.pass_time, n_times)
    traj = _Trajectory(setup, times, refine=1)
    assert traj.edges.size - 1 == traj._nodes.shape[0] == panels
    assert np.min(np.diff(traj.edges)) > traj.tol
    z2 = setup.grid2.nodes
    ends = z2[None, :] - setup.params.v_r * times[:, None]
    assert np.max(np.abs(traj.edges[traj._upper] - z2)) <= traj.tol
    assert np.max(np.abs(traj.edges[traj._lower] - ends)) <= traj.tol
    # two query points share an edge exactly when they agree to rounding
    points = np.concatenate((z2, ends.ravel()))
    assert np.unique(points).size == raw
    used = np.unique(np.concatenate((traj._upper.ravel(), traj._lower.ravel())))
    assert used.size == np.unique(np.round(points, 9)).size


MERGE_CASES = {
    "default": fig4_setup,
    "mirrored": lambda: mirrored(times=np.linspace(0.0, T_PASS, 31)),
    "co-centred": centred,
    "square": square,
    "complex": complex_front,
}


@pytest.mark.parametrize("make", MERGE_CASES.values(), ids=MERGE_CASES.keys())
def test_merged_edges_match_every_edge_construction(make, monkeypatch):
    setup = make()
    times = np.asarray(setup.times)
    k, _ = _k_rule(setup, float(times[-1]), 1)

    def results():
        traj = _Trajectory(setup, times, 1)
        moments = InteractionTables(setup).line_moments(setup, times)
        # both resolutions' entropies, not only the checked fine one
        entropies = [_line_entropy(setup, float(times[-1]), r) for r in (1, 2)]
        return traj.edges.size, traj.integrals(k), (*moments, *entropies)

    n_merged, g_merged, merged = results()
    monkeypatch.setattr(headon, "_merge_edges", keep_every_edge)
    n_all, g_all, every = results()
    assert n_merged <= n_all
    # a bound moved by a rounding error moves an integral 1e-63 deep in f1's
    # tail by 9e-14 of itself, so the integrals are compared per time
    scale = np.max(np.abs(g_all), axis=(1, 2), keepdims=True)
    assert np.all(np.abs(g_merged - g_all) <= 1e-13 * scale)
    for got, ref in zip(merged, every):
        assert np.all(np.abs(got - ref) <= 1e-13 * np.abs(ref))


def complex_trajectory(traj, k):
    """The trajectory integrals of f1 exp(iky) at wave numbers k, shape (times, z2, k).

    Complex exponentials on the trajectory's own panels, the panel sums
    accumulated from both ends and from the centre as _Trajectory does.
    """
    panels = np.einsum("pq,pqk->pk", traj._front, np.exp(1j * traj._nodes[..., None] * k))
    zero = np.zeros((1, k.size))
    left = np.concatenate([zero, np.cumsum(panels, axis=0)])
    right = np.concatenate([np.cumsum(panels[::-1], axis=0)[::-1], zero])
    c = traj._centre_at
    past = (np.arange(left.shape[0]) >= c)[:, None]
    sums = np.stack([left, -right, np.where(past, right[c] - right, left - left[c])])
    return (sums[traj._side, traj._upper] - sums[traj._side, traj._lower]) / traj._v_r


def complex_k_side(setup, times, refine):
    """The k side in complex form over both halves of C's box: (k, w, B, G_f, G_b, F).

    The spectra at every node of [-k_s, k_s] with its weight over 2 pi, from
    complex exponentials (complex_trajectory for G_f and B). Every
    contraction is then a plain complex sum over k, with no pairing of nodes.
    """
    k, w = _k_rule(setup, float(times[-1]), refine)
    pos = k > 0.0
    k, w = np.concatenate([k[pos], -k[pos]]), np.concatenate([w[pos], w[pos]])
    traj = _Trajectory(setup, times, refine)
    v_r, t = setup.params.v_r, times[:, None, None]
    g_b = (t * np.sinc(k * v_r * t / (2.0 * math.pi))
           * np.exp(1j * k * (setup.grid2.nodes[None, :, None] - 0.5 * v_r * t)))
    g1 = setup.grid1
    f = np.exp(-1j * np.outer(k, g1.nodes)) @ (g1.weights * np.conj(setup.f1(g1.nodes)))
    return (k, w, complex_trajectory(traj, np.zeros(1))[..., 0], complex_trajectory(traj, k),
            g_b, f)


def complex_moments(setup, times, refine):
    """(p, r, c, o_f, o_b) of _trajectory_moments as complex sums over +-k."""
    _, w, b, g_f, g_b, f = complex_k_side(setup, times, refine)
    dens = setup.grid2.weights * np.abs(setup.f2(setup.grid2.nodes)) ** 2
    return ((np.abs(g_f) ** 2 @ w) @ dens,
            (np.conj(b) * ((g_f * np.conj(g_b)) @ w)) @ dens,
            (np.abs(b) ** 2 * (np.abs(g_b) ** 2 @ w)) @ dens,
            (g_f @ (w * f)) @ dens,
            (b * (g_b @ (w * f))) @ dens)


def dense_entropy(setup, t, refine):
    """S_L from the dense n2 x n2 reduced kernel, built from complex sums over +-k.

    rho(a, b) = f2(a) conj(f2(b)) (|f1|^2 + H(a) + conj(H(b)) + sum_k w G(a) conj(G(b)))
    with G and H as in _line_entropy, and 2 e2(rho) summed as the Gram minors
    rho_aa rho_bb - |rho_ab|^2 over every pair of z2 nodes (Lagrange's identity).
    """
    _, w, b, g_f, g_b, f = complex_k_side(setup, np.array([t]), refine)
    p = setup.params
    g = 1j * p.chi * g_f[0] + _beta(p, t) * b[0][:, None] * g_b[0]
    big_h = g @ (w * f)
    g1 = setup.grid1
    f2 = setup.f2(setup.grid2.nodes)
    rho = np.outer(f2, np.conj(f2)) * (g1.weights @ np.abs(setup.f1(g1.nodes)) ** 2
                                       + big_h[:, None] + np.conj(big_h)[None, :]
                                       + (g * w) @ np.conj(g.T))
    w2 = setup.grid2.weights
    diag = np.real(np.diag(rho)) * w2
    minors = np.outer(diag, diag) - np.abs(rho) ** 2 * np.outer(w2, w2)
    return float(np.sum(minors) / np.sum(diag) ** 2)


@pytest.mark.parametrize("make", MERGE_CASES.values(), ids=MERGE_CASES.keys())
def test_cos_sin_k_side_matches_complex_form(make):
    # over a mirrored pair of nodes every contraction of G(+-k) = C +- i S
    # is a real one of C and S at k+; the complex sums over both halves of
    # the box must give the same moments and tables up to rounding, and the
    # rank-(2 + 2 n_k+) entropy the dense kernel's
    setup = make()
    times = np.asarray(setup.times)
    for refine in (1, 2):
        got = headon._trajectory_moments(setup, times, refine)
        ref = complex_moments(setup, times, refine)
        for g, r in zip(got, ref):
            assert np.all(np.abs(g - r) <= 1e-13 * np.abs(r))
        got = _line_entropy(setup, float(times[-1]), refine)
        ref = dense_entropy(setup, float(times[-1]), refine)
        # at the default pass end S_L is about 1e-6, and both forms keep an
        # absolute rounding error of a few 1e-16 there (3.5e-16 apart at most)
        assert abs(got - ref) <= 1e-13 * ref + 1e-15
    tables = InteractionTables(setup)
    tables.ensure(setup, times)
    k, w, b, g_f, g_b, _ = complex_k_side(setup, times, 2)
    back = np.exp(-1j * np.outer(setup.grid1.nodes, k)) * w
    for i in sorted({times.size // 2, times.size - 1}):
        ref = back @ g_b[i].T, b[i], back @ g_f[i].T
        for g, r in zip(tables.at(setup, times[i]), ref):
            assert np.max(np.abs(g - r)) <= 1e-13 * np.max(np.abs(r))


@pytest.mark.parametrize("make", (fig4_setup, partial(collision, k0=0.06, phi=0.5, grid_n=101,
                                                      times=np.linspace(0.0, 2e-3, 25))),
                         ids=("default", "k0=0.06"))
def test_box_transform_factors_match_direct_transform(make):
    # the time factor turned by the basis' z2 cosines and sines (angle
    # addition) is the whole box transform at k+: C_b + i S_b
    setup = make()
    times = np.asarray(setup.times)
    basis = _KBasis(setup, float(times[-1]), 2)
    k = basis.k
    c_b, s_b = np.split(basis.box(_box_transform(setup, times, k)), 2, axis=-1)
    v_r, t = setup.params.v_r, times[:, None, None]
    direct = (t * np.sinc(k * v_r * t / (2.0 * math.pi))
              * np.exp(1j * k * (setup.grid2.nodes[None, :, None] - 0.5 * v_r * t)))
    assert np.all(np.abs(c_b + 1j * s_b - direct) <= 1e-15 * np.abs(direct))


def concatenated_box(basis, h):
    """A's spectrum as two sums joined by np.concatenate, each half formed apart."""
    hc, hs = np.split(h[..., None, :], 2, axis=-1)
    cz, sz = np.split(basis.z2, 2, axis=1)
    return np.concatenate([cz * hc + sz * hs, sz * hc - cz * hs], axis=-1)


def resampling_amplitude(setup, entry, weight):
    """_amplitude with the concatenated box and the profiles and left factor sampled per call."""
    basis = entry.basis
    f2_row = setup.f2(setup.grid2.nodes)
    spec = (1j * setup.params.chi * entry.g_f
            + (weight * entry.b)[:, None] * concatenated_box(basis, entry.h))
    spec *= f2_row[:, None]
    psi = np.empty((setup.grid1.n, setup.grid2.n), dtype=complex)
    return real_products(np.hstack([setup.f1(setup.grid1.nodes)[:, None], basis.z1]),
                         np.vstack([f2_row[None, :], spec.T]), psi)


def test_box_writes_the_bits_of_the_concatenated_form():
    setup = fig4_setup()
    times = np.asarray(setup.times)
    basis = _KBasis(setup, float(times[-1]), 2)
    h = _box_transform(setup, times, basis.k)
    for arg in (h, h[-1]):
        got, ref = basis.box(arg), concatenated_box(basis, arg)
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes()


FIG4_LADDERS = (fig4_setup, partial(fig4_setup, profile="square"),
                lambda: replace(complex_front(grid_n=401), times=fig4_setup().times))


@pytest.mark.parametrize("make", FIG4_LADDERS, ids=("gaussian", "square", "complex"))
def test_ensure_keeps_the_amplitudes_of_whole_tables(make, monkeypatch):
    # every amplitude the tables feed must equal, bit for bit, the amplitude
    # that resamples its profiles and joins A's spectrum per call
    setup = make()
    times = np.asarray(setup.times)
    assert times.size == 121
    tables = InteractionTables(setup)
    tables.ensure(setup, times)
    builds = (two_particle_headon_closed, two_particle_headon_series)
    got = [[build(setup, t, tables=tables).psi for t in times] for build in builds]
    monkeypatch.setattr(headon, "_amplitude", resampling_amplitude)
    for build, psis in zip(builds, got):
        for t, psi in zip(times, psis):
            assert psi.tobytes() == build(setup, t, tables=tables).psi.tobytes(), (build, t)


@pytest.mark.parametrize("make", FIG4_LADDERS + (lambda: collision(k0=0.3, grid_n=61),),
                         ids=("gaussian", "square", "complex", "k0=0.3"))
def test_a_is_bounded_by_kappa_t(make):
    # C is a box in k, so |C| <= C(0) = kappa and |A| <= kappa t: the bound
    # the series stops on. The fig4 ladders reach 0.99999999957 of it, and
    # k0 = 0.3 reaches 0.99834
    setup = make()
    tables = InteractionTables(setup)
    tables.ensure(setup, setup.times)
    for t in setup.times:
        a_tab = tables.at(setup, t)[0]
        assert np.max(np.abs(a_tab)) <= setup.kappa * t * (1.0 + 1e-6), t


def test_series_sums_the_later_orders_where_the_first_is_below_the_stop():
    # at the first times of the fig4 ladder sup|chi D f2| is below the 1e-12
    # stop while the orders n >= 2 are not: a series that stopped at order 1
    # there sat up to 1.5e-14 from the closed form, one that sums them 2e-16
    phis = RunConfig(task="fig4").headon_phis
    setups = [fig4_setup(phi) for phi in phis]
    tables = InteractionTables(setups[0])
    tables.ensure(setups[0], setups[0].times)
    f2_row = np.abs(setups[0].f2_samples)
    points = []
    for t in setups[0].times[1:]:
        d_sup = float(np.max(np.abs(tables.at(setups[0], t)[2]) * f2_row))
        for setup in setups:
            if abs(setup.params.chi) * d_sup < 1e-12:
                points.append((setup.params.phi, t))
                series = two_particle_headon_series(setup, t, tables=tables)
                closed = two_particle_headon_closed(setup, t, tables=tables)
                assert np.max(np.abs(series.psi - closed.psi)) <= 1e-15, points[-1]
    assert len(points) == 8


def perturbed_spectra(monkeypatch, edit):
    """Patch _spectra so that edit(G_f) alters the coarse G_f of all times, (times, z2, 2 k+).

    Returns the dict that collects each resolution's basis and G_f.
    """
    spectra, seen = headon._spectra, {}

    def perturbed(setup, times, refine):
        basis, b, h, blocks = spectra(setup, times, refine)
        g_f = np.concatenate(list(blocks))
        if refine == 1:
            edit(g_f)
        seen[refine] = basis, g_f
        return basis, b, h, iter([g_f])

    monkeypatch.setattr(headon, "_spectra", perturbed)
    return seen


@pytest.mark.parametrize("with_nan", (False, True), ids=("alone", "beside a NaN"))
def test_failing_d_check_raises_as_the_whole_table_check(with_nan, monkeypatch):
    # one coarse G_f entry at the middle time, off by a tenth of G_f's peak,
    # moves a column of the coarse D by about 2e-9, and fails D's check
    # alone: A and B do not involve G_f. ensure forms the whole tables only
    # then, and raises what _converged raises on them. A NaN entry in
    # another column makes that column's gaps NaN, which fail as well, and
    # _converged reports the first of them; it also makes the peak NaN,
    # which leaves the bound at _TABLE_ATOL = 1e-10
    setup = collision(times=(5e-4, 1e-3, 1.5e-3))
    q, j = 1, setup.grid2.n // 2

    def edit(g_f):
        g_f[q, j, 0] += 0.1 * np.max(np.abs(g_f))
        if with_nan:
            g_f[q, j // 2, 0] = np.nan

    seen = perturbed_spectra(monkeypatch, edit)
    table_checks = []

    def counted(what, coarse, fine, *args, **kwargs):
        table_checks.append(np.ndim(coarse) == 2)
        return _converged(what, coarse, fine, *args, **kwargs)

    monkeypatch.setattr(headon, "_converged", counted)
    t = setup.times[q]
    with pytest.raises(AccuracyError,
                       match=f"interaction time integrals not converged at t={t}:") as err:
        InteractionTables(setup).ensure(setup, setup.times)
    # A and B at both times, then the whole D tables at the failing one only
    assert table_checks == [False] * 4 + [True]
    (basis_c, g_c), (basis_f, g_f) = seen[1], seen[2]
    shape = (setup.grid1.n, setup.grid2.n)
    d_c = real_products(basis_c.z1, g_c[q].T, np.empty(shape))
    d_f = real_products(basis_f.z1, g_f[q].T, np.empty(shape))
    peak = max(np.max(np.abs(d_c)), np.max(np.abs(d_f)))
    with pytest.raises(AccuracyError) as whole:
        _converged("interaction time integrals", d_c, d_f,
                   min(headon._TABLE_ATOL, headon._TABLE_RTOL * peak), at=f" at t={t}")
    # assert_array_equal, unlike ==, takes a NaN estimate as equal to a NaN
    np.testing.assert_array_equal((err.value.coarse, err.value.fine),
                                  (whole.value.coarse, whole.value.fine))
    assert str(err.value) == str(whole.value)


def test_d_check_raises_on_a_nan_peak(monkeypatch):
    # a NaN coarse entry of G_f turns one column of the coarse D into NaN: its
    # gaps are NaN, which _converged fails, so the check fails at that time
    # and names a NaN coarse estimate
    setup = collision(times=(5e-4, 1e-3))

    def edit(g_f):
        g_f[1, setup.grid2.n // 2, 0] = np.nan

    perturbed_spectra(monkeypatch, edit)
    with pytest.raises(AccuracyError, match="interaction time integrals not converged at "
                                            "t=0.001: nan vs "):
        InteractionTables(setup).ensure(setup, setup.times)


@pytest.mark.parametrize("with_nan", (False, True), ids=("alone", "beside a NaN"))
def test_d_check_fails_closed_beside_a_nan(with_nan, monkeypatch):
    # one coarse G_f entry moved by 1e-4 of G_f's peak gives a D gap of about
    # 2e-12 against a relative bound of about 6e-14, so the check fails on it
    # alone; beside a NaN coarse entry in another column, which leaves the
    # bound at _TABLE_ATOL = 1e-10, it fails at the same time on the NaN gap
    setup = collision(times=(5e-4, 1e-3, 1.5e-3))
    q, j = 1, setup.grid2.n // 2

    def edit(g_f):
        g_f[q, j, 0] += 1e-4 * np.max(np.abs(g_f))
        if with_nan:
            g_f[q, j // 2, 0] = np.nan

    perturbed_spectra(monkeypatch, edit)
    t = setup.times[q]
    with pytest.raises(AccuracyError, match=f"interaction time integrals not converged at t={t}:"):
        InteractionTables(setup).ensure(setup, setup.times)


@pytest.mark.parametrize("table", ("A", "B"))
def test_a_and_b_checks_raise_on_a_nan_peak(table, monkeypatch):
    # a NaN in the coarse h makes the coarse A of its time NaN throughout, one
    # in the coarse B one entry; either makes a gap of that check NaN
    setup = collision(times=(5e-4, 1e-3))
    spectra = headon._spectra

    def perturbed(setup, times, refine):
        basis, b, h, blocks = spectra(setup, times, refine)
        if refine == 1:
            (h if table == "A" else b)[1, 0] = np.nan
        return basis, b, h, blocks

    monkeypatch.setattr(headon, "_spectra", perturbed)
    with pytest.raises(AccuracyError, match="interaction time integrals not converged at "
                                            "t=0.001: nan vs "):
        InteractionTables(setup).ensure(setup, setup.times)


def test_amplitudes_sample_the_profiles_once(monkeypatch):
    # f1 and f2 are sampled on the co-moving grids once per setup, and the
    # left factor [f1 | 2w cos kz1 | 2w sin kz1] once per basis
    setup = collision(times=(5e-4, 1e-3))
    tables = InteractionTables(setup)
    tables.ensure(setup, setup.times)
    two_particle_headon_closed(setup, 5e-4, tables=tables)
    calls = []
    sample = PulseProfile.__call__

    def counted(profile, z):
        calls.append(profile)
        return sample(profile, z)

    monkeypatch.setattr(PulseProfile, "__call__", counted)
    for t in setup.times:
        two_particle_headon_closed(setup, t, tables=tables)
        two_particle_headon_series(setup, t, tables=tables)
    assert calls == []
    basis = tables._entry(setup, 1e-3).basis
    assert basis.left is basis.left and not basis.left.flags.writeable


def test_fig4_final_fidelities_pinned():
    # digits of the construction that kept every rounded copy of an edge
    pinned = {"0.785398": 0.053156273280740275, "1.5708": 0.012575181115779557,
              "2.35619": 0.0052603606277139975, "3.14159": 0.003731849285663056}
    prov = run_fig4(RunConfig(task="fig4")).provenance
    for phi, value in pinned.items():
        assert prov[f"f_final[phi={phi}]"] == pytest.approx(value, abs=1e-13)


def test_moments_do_not_depend_on_earlier_ladders():
    # the moments are cached per ladder, so tables that first ran the
    # 31-time ladder of the same geometry, which shares every fourth time
    # with the default one, give the default curve the bits of fresh tables
    setup = fig4_setup()
    fresh = fidelity_evolution(setup, tables=InteractionTables(setup))
    short = collision_setup(RunConfig(task="fig4", headon_time_n=31), math.pi)
    tables = InteractionTables(short)
    fidelity_evolution(short, tables=tables)
    seen = fidelity_evolution(setup, tables=tables)
    for column in ("F", "theta"):
        assert seen.columns[column] == fresh.columns[column]
    assert seen.provenance["f_final"] == fresh.provenance["f_final"]


def test_line_checks_compare_separate_resolutions(monkeypatch):
    # no two separately built resolutions agree to 1e-20 of the moments or
    # of the entropy, once the entropy's absolute floor is gone too
    monkeypatch.setattr(headon, "_LINE_RTOL", 1e-20)
    monkeypatch.setattr(headon, "_ENTROPY_ATOL", 0.0)
    setup = collision()
    with pytest.raises(AccuracyError, match="moments not converged"):
        InteractionTables(setup).line_moments(setup, setup.times)
    with pytest.raises(AccuracyError, match="linear entropy not converged"):
        collision_entropy(setup, 1e-3)


def test_line_and_table_errors_carry_both_estimates(monkeypatch):
    # each check raises for its worst entry with that entry's two estimates,
    # so the gap in the message is the difference of the two it carries
    monkeypatch.setattr(headon, "_LINE_RTOL", 1e-20)
    monkeypatch.setattr(headon, "_ENTROPY_ATOL", 0.0)
    monkeypatch.setattr(headon, "_TABLE_ATOL", 0.0)
    setup = collision()
    checks = {
        "moments": lambda tables: tables.line_moments(setup, setup.times),
        "linear entropy": lambda tables: collision_entropy(setup, 1e-3, tables=tables),
        "time integrals": lambda tables: tables.ensure(setup, setup.times),
    }
    for what, check in checks.items():
        with pytest.raises(AccuracyError, match=f"{what} not converged at t=") as err:
            check(InteractionTables(setup))
        coarse, fine = err.value.coarse, err.value.fine
        assert coarse != 0.0 and fine != 0.0 and coarse != fine
        assert str(err.value).endswith(f": {coarse} vs {fine}")


def test_gauge_monitor_and_warning():
    setup = collision()
    assert setup.gauge(2e-3) == pytest.approx(0.02)
    assert setup.pass_time == pytest.approx(T_PASS)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        two_particle_headon_closed(setup, 1e-3)  # gauge 0.01, no warning
    fast = collision(k0=0.06, phi=0.5, grid_n=101)
    with pytest.warns(ApproximationWarning, match="gauge"):
        two_particle_headon_closed(fast, 2e-3)
    # fig4's route builds no state, yet warns the same way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fidelity_evolution(setup)
    with pytest.warns(ApproximationWarning, match="gauge"):
        fidelity_evolution(fast)


def test_ideal_limit_metrics():
    m = ideal_headon_metrics(3700.0, 1e4)
    assert (m.fidelity, m.phase, m.linear_entropy) == (1.0, 0.37, 0.0)
    assert ideal_headon_metrics(-2.0, 0.5).phase == -4.0
    with pytest.raises(ParameterError):
        ideal_headon_metrics(1.0, 0.0)


@pytest.mark.parametrize("k0", [0.5, 2.5, 10.0])
def test_slow_collision_meets_the_copropagating_closed_forms(k0):
    # at v_r = 0 the head-on closed form is the copropagating amplitude with
    # Phi = x = chi kappa t, and the two engines share no code; at
    # v_r t = 1e-5 gaussian pulses agree to about 1e-10. theta is compared
    # modulo 2 pi and scaled by the overlap |1 - C1 + C1 exp(i Phi)|, which
    # falls to 1.2e-3 at k0 = 2.5, Phi = pi
    f = make_profile("gaussian")
    c1, c2 = compute_C1(f, f, k0), compute_C2(f, f, k0)
    t = 1.0
    for phi in (0.5, 1.5, 2.5, math.pi):
        params = SystemParams.headon(k0, 0.0, 5e-6, -5e-6, chi=phi / (k0 / math.pi * t))
        setup = CollisionSetup(f, f, params, times=(t,))
        curve = fidelity_evolution(setup)
        assert abs(curve.columns["F"][0] - fidelity_closed_form(c1, c2, phi)) <= 1e-9
        gap = math.remainder(curve.columns["theta"][0] - conditional_phase(c1, phi), 2 * math.pi)
        assert abs(gap) * abs(1.0 - c1 + c1 * np.exp(1j * phi)) <= 1e-9
        entropy = entropy_phase_sweep(f, f, k0, [phi])[0]
        assert abs(collision_entropy(setup, t) - entropy) <= 1e-9


# ----------------------------------------------------------- validation

def test_setup_validation():
    f1 = make_profile("gaussian", center=-SEP / 2.0)
    f2 = make_profile("gaussian", center=SEP / 2.0)
    times = (1e-3,)
    with pytest.raises(ModeError):
        CollisionSetup(f1, f2, SystemParams.copropagating(1e-3, 1.0), times)
    with pytest.raises(ParameterError, match="separation"):
        params = SystemParams.headon(1e-3, 12.0, V, -V, phi=1.0)
        CollisionSetup(f1, f2, params, times)
    with pytest.raises(ParameterError, match="approach"):
        params = SystemParams.headon(1e-3, SEP, -V, V, phi=1.0)
        CollisionSetup(f1, f2, params, times)
    good = SystemParams.headon(1e-3, SEP, V, -V, phi=1.0)
    with pytest.raises(ParameterError):
        CollisionSetup(f1, f2, good, times=(-1e-3, 1e-3))
    with pytest.raises(ParameterError):
        CollisionSetup(f1, f2, good, times=(1e-3, 1e-3))
    with pytest.raises(ParameterError):
        CollisionSetup(f1, f2, good, times, grid_halfwidth=0.0)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_non_finite_times_raise_parameter_error(t):
    setup = collision()
    tables = InteractionTables(setup)
    calls = (
        lambda: collision_entropy(setup, t),
        lambda: two_particle_headon_closed(setup, t),
        lambda: two_particle_headon_series(setup, t),
        lambda: series_term(setup, 2, 0.0, 0.0, t),
        lambda: tables.at(setup, t),
        lambda: tables.line_moments(setup, [1e-3, t]),
        lambda: tables.ensure(setup, [t]),
        lambda: replace(setup, times=(t,)),
        lambda: replace(setup, times=(0.0, 1e-3, t)),
    )
    for call in calls:
        with pytest.raises(ParameterError, match="finite and non-negative"):
            call()


def test_default_time_window():
    # the CLI's collision_setup builds the one pass ladder
    setup = collision_setup(RunConfig(task="fig4"), math.pi)
    assert len(setup.times) == 121
    assert setup.times[0] == 0.0
    assert setup.times[-1] == pytest.approx(T_PASS)
    assert setup.kappa == pytest.approx(1e-3 / math.pi)
