"""Acceptance validation: the twelve numbered checks behind `xpmsim validate`.

Each criterion measures a quantitative property of the solvers against an
independent reference (closed forms, a dual computation route, or a pinned
geometry) and reports one pass/fail line with the measured values. The
criteria run on the default configuration, and every bound is a literal
in its criterion, so no config key or flag reaches the gate. They run in
one pass that writes nothing; the only value they share is the transition
point, bisected once on first use.
"""

from __future__ import annotations

import cmath
import math
import time
from dataclasses import dataclass

import numpy as np

from ..copropagating import (
    conditional_phase,
    conditional_phase_sweep,
    compute_C2,
    entropy_phase_sweep,
    fidelity_closed_form,
    grid_metrics_copropagating,
    interaction_grids,
    overlap_coefficients,
    transition_k0,
    two_particle_copropagating,
)
from ..headon import (
    CollisionSetup,
    InteractionTables,
    ideal_headon_metrics,
    series_term,
    two_particle_headon_closed,
)
from ..numerics import SystemParams, make_grid, make_profile, sinc_kernel
from ..state import (
    TwoParticleState,
    free_state,
    linear_entropy,
    normalize,
    reduced_kernel,
)
from .config import RunConfig
from .output import RENDERERS
from .sweeps import collision_setup, run_fig4, run_task

__all__ = ["CriterionResult", "ValidationReport", "run_validate"]

_LATTICE_K0 = (0.5, 1.0, 2.5, 5.0, 10.0)
_LATTICE_PHI = (0.5, 1.5, 2.5, math.pi)
_LOW_C1 = (0.20, 0.36, 0.45)
_HIGH_C1 = (0.55, 0.63, 0.78, 0.98)


def _c1_gaussian_reference(k0: float) -> float:
    """Unit-Gaussian first overlap coefficient in closed form (erf route)."""
    return math.sqrt(math.pi / 2.0) * math.erf(math.sqrt(2.0 / 3.0) * k0) / k0


def _transition_reference() -> float:
    """Root of the erf closed form at C1 = 1/2, bisected on [1, 5] to 1e-10.

    An independent route: it never calls the production C1 quadrature.
    """
    lo, hi = 1.0, 5.0
    # the closed form decreases in k0, so the root keeps gap(lo) > 0 > gap(hi)
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if _c1_gaussian_reference(mid) > 0.5:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    measured: str
    runtime: float

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return (f"criterion {self.number:2d} [{tag}] {self.name}: "
                f"{self.measured} ({self.runtime:.1f} s)")


@dataclass(frozen=True)
class ValidationReport:
    results: tuple[CriterionResult, ...]
    text: str

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)


class _Context:
    """What the criteria share: the profiles and the transition point."""

    def __init__(self):
        self.f1 = make_profile("gaussian")
        self.f2 = make_profile("gaussian")
        self._kstar: float | None = None

    def transition(self) -> float:
        if self._kstar is None:
            self._kstar = transition_k0(self.f1, self.f2)
        return self._kstar


def _c01_transition(ctx: _Context):
    kstar = ctx.transition()
    ref = _transition_reference()
    ok = 2.4 <= kstar <= 2.6
    return ok, f"k0*={kstar:.7f} in [2.4, 2.6], closed-form root {ref:.7f}"


def _c02_fidelity_zero(ctx: _Context):
    kstar = ctx.transition()
    co = overlap_coefficients(ctx.f1, ctx.f2, kstar)
    f_closed = fidelity_closed_form(co.c1, co.c2, math.pi)
    params = SystemParams.copropagating(kstar, math.pi)
    grids = interaction_grids(ctx.f1, ctx.f2, kstar)
    f_grid = grid_metrics_copropagating(ctx.f1, ctx.f2, params, grids=grids).fidelity
    tol = 1e-3
    ok = f_closed <= tol and f_grid <= tol
    return ok, (f"F(k0*, pi): closed {f_closed:.3e}, grid {f_grid:.3e}, "
                f"tolerance {tol:.1e}")


def _c03_boundary_line(ctx: _Context):
    phis = np.linspace(0.0, math.pi - 0.01, 400)
    theta = conditional_phase_sweep(0.5, phis)
    dev = float(np.max(np.abs(theta - 0.5 * phis)))
    tol = 1e-9
    return dev < tol, f"max |theta - phi/2| = {dev:.2e} at C1=0.5 (tol {tol:.1e})"


def _c04_regimes(ctx: _Context):
    phis = np.linspace(0.0, 2.0 * math.pi, 2001)
    half_pi = math.pi / 2.0
    parts = []
    ok = True
    for c1 in _LOW_C1:
        sup = float(np.max(conditional_phase_sweep(c1, phis)))
        ok &= sup < half_pi
        parts.append(f"sup({c1:g})={sup:.4f}")
    theta_at_pi = None
    for c1 in _HIGH_C1:
        theta = conditional_phase_sweep(c1, phis)
        sup = float(np.max(theta))
        ok &= sup > half_pi
        parts.append(f"sup({c1:g})={sup:.4f}")
        if c1 == 0.98:
            theta_at_pi = float(theta[int(np.argmin(np.abs(phis - math.pi)))])
            ok &= abs(theta_at_pi - math.pi) <= 1e-3
    return ok, ", ".join(parts) + f"; theta(pi)@0.98 = {theta_at_pi:.6f}"


def _c05_dual_route(ctx: _Context):
    worst_f = worst_t = 0.0
    for k0 in _LATTICE_K0:
        co = overlap_coefficients(ctx.f1, ctx.f2, k0)
        grids = interaction_grids(ctx.f1, ctx.f2, k0)
        for phi in _LATTICE_PHI:
            f_closed = fidelity_closed_form(co.c1, co.c2, phi)
            t_closed = conditional_phase(co.c1, phi)
            params = SystemParams.copropagating(k0, phi)
            m = grid_metrics_copropagating(ctx.f1, ctx.f2, params, grids=grids)
            worst_f = max(worst_f, abs(m.fidelity - f_closed))
            worst_t = max(worst_t, abs(m.phase - t_closed))
    tol = 1e-3
    ok = worst_f < tol and worst_t < tol
    return ok, (f"max |F_grid - F_closed| = {worst_f:.2e}, "
                f"max |theta_grid - theta_closed| = {worst_t:.2e} (tol {tol:.1e})")


def _c06_c2_analytic(ctx: _Context):
    worst = 0.0
    for k0 in (0.1, 1.0, 2.5, 10.0):
        ref = math.sqrt(math.pi / 2.0) / k0
        worst = max(worst, abs(compute_C2(ctx.f1, ctx.f2, k0) - ref))
    c2_small = compute_C2(ctx.f1, ctx.f2, 0.01)
    tol = 1e-6
    ok = worst < tol and c2_small > 100.0
    return ok, (f"max |C2 - sqrt(pi/2)/k0| = {worst:.2e} (tol {tol:.1e}); "
                f"C2(0.01) = {c2_small:.1f}")


def _schmidt_pair(grid):
    """Two grid-orthonormal modes: a Gaussian and its first odd partner."""
    z, w = grid.nodes, grid.weights
    u = np.exp(-z * z / 2.0)
    u = u / math.sqrt(float(w @ (u * u)))
    v = z * np.exp(-z * z / 2.0)
    v = v - float(w @ (u * v)) * u
    v = v / math.sqrt(float(w @ (v * v)))
    return u, v


def _entropy_reference(f1, f2, k0: float, phi: float, n: int = 400) -> float:
    """Copropagating linear entropy with Z1 integrated exactly (real profiles).

    Tracing Z1 out of f1(Z1) f2(Z2) + alpha p(Z2) sinc(k0 (Z1 - Z2)),
    p = f1 f2, alpha = exp(i phi) - 1, with
    int sinc(k0 (x - a)) sinc(k0 (x - b)) dx = (pi/k0) sinc(k0 (a - b)) and
    g(b) = int f1(x) sinc(k0 (x - b)) dx leaves the Z2 kernel
        rho(a, b) = |f1|^2 f2(a) f2(b) + alpha (p g)(a) f2(b)
                    + conj(alpha) f2(a) (p g)(b)
                    + |alpha|^2 (pi/k0) p(a) p(b) sinc(k0 (a - b)),
    with |f1|^2 the squared norm; every factor is profile-damped. An n-node Gauss-Legendre rule on
    the pulse support then needs no kernel tail grid; 400 nodes hold it to
    1e-13 for k0 <= 10.
    """
    lo = min(f.center - f.support_halfwidth() for f in (f1, f2))
    hi = max(f.center + f.support_halfwidth() for f in (f1, f2))
    grid = make_grid(lo, hi, n, rule="gauss-legendre")
    z, w = grid.nodes, grid.weights
    a1, a2 = f1(z), f2(z)
    pair = a1 * a2
    sinc = sinc_kernel(z[:, None] - z[None, :], k0)
    pg = pair * ((w * a1) @ sinc)
    alpha = cmath.exp(1j * phi) - 1.0
    rho = (float(w @ (a1 * a1)) * np.outer(a2, a2)
           + alpha * np.outer(pg, a2) + alpha.conjugate() * np.outer(a2, pg)
           + abs(alpha) ** 2 * (math.pi / k0) * np.outer(pair, pair) * sinc)
    nsq = float(w @ np.real(np.diag(rho)))
    return 1.0 - float(w @ np.abs(rho) ** 2 @ w) / nsq ** 2


def _c07_entropy(ctx: _Context):
    grid = make_grid(-10.0, 10.0, 401)
    product = normalize(free_state(ctx.f1, ctx.f2, grid))
    s_prod = linear_entropy(product)

    u, v = _schmidt_pair(grid)
    psi = (np.outer(u, v) + np.outer(v, u)) / math.sqrt(2.0)
    balanced = normalize(TwoParticleState(grid, grid, psi))
    s_bal = linear_entropy(balanced)
    weighted = (np.sqrt(grid.weights)[:, None] * balanced.psi
                * np.sqrt(grid.weights)[None, :])
    svals = np.linalg.svd(weighted, compute_uv=False)
    s_svd = 1.0 - float(np.sum(svals ** 4))

    kstar = ctx.transition()
    phis = np.linspace(0.0, math.pi, 129)
    ent = entropy_phase_sweep(ctx.f1, ctx.f2, kstar, phis)
    i_max = int(np.argmax(ent))
    interior = 0 < i_max < phis.size - 1 and ent[i_max] > ent[-1]
    phi_star = float(phis[i_max])

    # S_L(pi) is not monotone in k0: the correction's weight 4 C2 vanishes
    # as k0 grows, and its norm swamps the state as k0 shrinks, so the chain
    # peaks inside (near k0 = 6) and the middle value lies above both ends.
    chain, gaps = {}, {}
    for k0 in (2.5, 5.0, 10.0):
        chain[k0] = float(entropy_phase_sweep(ctx.f1, ctx.f2, k0,
                                              np.array([math.pi]))[0])
        gaps[k0] = abs(chain[k0] - _entropy_reference(ctx.f1, ctx.f2, k0, math.pi))
    tol = 1e-3
    agrees = all(g <= tol for g in gaps.values())
    peaked = chain[5.0] > chain[2.5] and chain[5.0] > chain[10.0]

    ok = (s_prod < 1e-9
          and abs(s_bal - 0.5) <= 1e-6
          and interior and agrees and peaked)
    return ok, (f"S_L(product)={s_prod:.1e}; S_L(balanced)={s_bal:.9f} "
                f"(svd {s_svd:.9f}); interior max at phi*={phi_star:.3f} "
                f"(S={ent[i_max]:.4f} vs {ent[-1]:.4f} at pi); chain at pi: "
                + ", ".join(f"k0={k:g}: {chain[k]:.4f} (gap {gaps[k]:.1e})"
                            for k in chain)
                + f", exact-Z1 tol {tol:.1e}; k0=5 above both={peaked}")


def _c08_series_structure(ctx: _Context):
    k0, t = 2.5, 0.01
    kappa = k0 / math.pi
    chi = math.pi / (kappa * t)
    prof = make_profile("gaussian")
    params = SystemParams.headon(k0, 0.0, 5e-7, -5e-7, chi=chi)
    setup = CollisionSetup(prof, prof, params, times=(t,))
    z1 = setup.grid1.nodes[:, None]
    z2 = setup.grid2.nodes[None, :]
    x = chi * kappa * t
    pair = prof(setup.grid2.nodes) ** 2
    base = np.sinc(k0 * (z2 - z1) / math.pi) * pair[None, :]
    partial = np.zeros_like(base, dtype=complex)
    taylor = 0.0 + 0.0j
    power = 1.0 + 0.0j
    worst = 0.0
    for n in range(1, 7):
        partial = partial + series_term(setup, n, z1, z2, t)
        power *= 1j * x / n
        taylor += power
        worst = max(worst, float(np.max(np.abs(partial - taylor * base))))
    tol = 1e-6
    return worst < tol, (f"max deviation through order 6 = {worst:.2e} "
                         f"at x = pi, v_r = 1e-6 (tol {tol:.1e})")


def _series_on_nodes(setup: CollisionSetup, z1, z2, t: float):
    """psi_free plus the interaction series at (z1, z2), and the last order summed.

    The orders come from series_term, a time quadrature at points with no
    tables and no k rule. Orders 1 and 2 are always summed; the sum stops at
    the first order n >= 2 whose sup-norm on the nodes is below 1e-12, and
    at order 40 at most. Order 1 alone can fall below that while later
    orders, which the closed form keeps, do not. Orders past 2 share order
    2's integrals A and B, so each is the one before times i x / n.
    """
    series = setup.f1(z1) * setup.f2(z2) + 0j
    x = setup.params.chi * setup.params.kappa * t
    for n in range(1, 41):
        term = series_term(setup, n, z1, z2, t) if n <= 2 else term * (1j * x / n)
        series += term
        if n >= 2 and np.max(np.abs(term)) < 1e-12:
            break
    return series, n


def _c09_closed_vs_series(ctx: _Context):
    # the closed form against the series (_series_on_nodes) on every 40th
    # node of both co-moving grids
    setups = [collision_setup(RunConfig(task="fig4"), phi)
              for phi in (math.pi / 4, math.pi / 2, math.pi)]
    # the tables do not depend on chi, so the three curves share one cache
    tables = InteractionTables(setups[0])
    sub = slice(None, None, 40)
    worst, top = 0.0, 0
    for setup in setups:
        tables.ensure(setup, setup.times)
        z1, z2 = setup.grid1.nodes[sub, None], setup.grid2.nodes[None, sub]
        for t in setup.times[1:]:  # the ladder starts at t = 0, the free product
            series, n = _series_on_nodes(setup, z1, z2, t)
            top = max(top, n)
            closed = two_particle_headon_closed(setup, t, tables=tables).psi[sub, sub]
            worst = max(worst, float(np.max(np.abs(closed - series))))
    tol = 1e-6
    return worst < tol, (f"sup |psi_closed - psi_series| = {worst:.2e} over "
                         f"3 curves x {len(setup.times) - 1} times on {z1.size} x {z2.size} "
                         f"nodes, series_term to order {top} (tol {tol:.1e})")


def _c10_collision_quality(ctx: _Context):
    config = RunConfig(task="fig4")
    result = run_fig4(config)
    phis = result.axis("phi").values
    times = np.asarray(result.axis("t").values)
    n_t = times.size
    fid = np.asarray(result.columns["F"]).reshape(len(phis), n_t)
    v_r = abs(config.headon_v1 - config.headon_v2)
    t_contact = 0.5 * config.headon_separation / v_r
    pre_mask = times <= t_contact
    i_late = int(np.argmin(np.abs(times - 0.8 * times[-1])))

    f_pre = float(np.min(fid[:, pre_mask]))
    drifts = [float(abs(fid[i, -1] - fid[i, i_late])) for i in range(len(phis))]
    finals = [float(fid[i, -1]) for i in range(len(phis))]
    decreasing = all(a > b for a, b in zip(finals, finals[1:]))

    pre_ok = f_pre >= 1.0 - 1e-3
    stab_ok = all(d < 1e-3 for d in drifts)
    ok = pre_ok and stab_ok and decreasing
    return ok, (f"pre-contact min F = {f_pre:.6f}; |dF| over last 20%: "
                + ", ".join(f"{d:.2e}" for d in drifts)
                + "; finals: " + ", ".join(f"{f:.4f}" for f in finals)
                + f", strictly decreasing={decreasing}")


def _c11_ideal_limit(ctx: _Context):
    pairs = ((3700.0, 1e4), (math.pi, 1.0), (-2.0, 0.5))
    ok = True
    for chi, v_r in pairs:
        m = ideal_headon_metrics(chi, v_r)
        ok &= (m.fidelity == 1.0 and m.phase == chi / v_r
               and m.linear_entropy == 0.0)
    return ok, f"(F, theta, S_L) == (1, chi/v_r, 0) exactly on {len(pairs)} pairs"


def _c12_sanity(ctx: _Context):
    problems = []
    battery = (
        RunConfig(task="coeffs"),
        RunConfig(task="fig1"),
        RunConfig(task="fig2", k0_values=(2.5, 5.0), phi_n=17),
        RunConfig(task="fig3", lattice_k0_n=20, lattice_phi_n=16),
        RunConfig(task="fig4", headon_time_n=31),
    )
    for cfg in battery:
        first = run_task(cfg)
        second = run_task(cfg)
        for col, vals in first.columns.items():
            arr = np.asarray(vals)
            if col.startswith("F") and (arr.min() < 0.0 or arr.max() > 1.0 + 1e-9):
                problems.append(f"{cfg.task}: F out of [0, 1+1e-9]")
            if col.startswith("S_L") and (arr.min() < -1e-9 or arr.max() >= 1.0):
                problems.append(f"{cfg.task}: S_L out of [-1e-9, 1)")
        for fmt, render in RENDERERS.items():
            if render(first) != render(second):
                problems.append(f"{cfg.task}/{fmt}: rerun not byte-identical")

    grid = make_grid(-10.0, 10.0, 401)
    params = SystemParams.copropagating(2.5, 2.0)
    state = normalize(two_particle_copropagating(ctx.f1, ctx.f2, params,
                                                 grid, grid))
    kern_tol = 1e-8
    for axis in (0, 1):
        kern = reduced_kernel(state, axis=axis)
        w_mat = kern.weighted_matrix()
        herm = float(np.max(np.abs(w_mat - w_mat.conj().T)))
        tr_dev = abs(kern.trace() - 1.0)
        if herm > kern_tol:
            problems.append(f"axis {axis}: Hermiticity deviation {herm:.1e}")
        if tr_dev > kern_tol:
            problems.append(f"axis {axis}: trace deviation {tr_dev:.1e}")
    if problems:
        return False, "; ".join(problems)
    return True, ("bounds, kernel Hermiticity/trace, and byte-identical "
                  "reruns hold over 5 scaled-down sweeps")


_CRITERIA = (
    (1, "transition point", _c01_transition, 10.0),
    (2, "fidelity zero at the transition", _c02_fidelity_zero, None),
    (3, "boundary line theta = phi/2", _c03_boundary_line, None),
    (4, "phase regimes below/above C1 = 1/2", _c04_regimes, None),
    (5, "closed form vs grid quadrature", _c05_dual_route, 60.0),
    (6, "analytic C2 reduction", _c06_c2_analytic, None),
    (7, "entanglement entropy structure", _c07_entropy, None),
    (8, "series order structure at small v_r", _c08_series_structure, None),
    (9, "collision closed form vs series", _c09_closed_vs_series, 120.0),
    (10, "collision fidelity phenomenology", _c10_collision_quality, None),
    (11, "ideal collision limit", _c11_ideal_limit, None),
    (12, "output sanity and determinism", _c12_sanity, None),
)


def run_validate() -> ValidationReport:
    """Run all criteria in order and assemble the one-line-each report.

    The criteria take no configuration: grids, geometry and profiles are
    the defaults (RunConfig's for criteria 09, 10 and 12, interaction_grids'
    for 02 and 05), and the bounds are literals. An exception inside a criterion counts as its failure, and a
    criterion with a runtime budget fails when it overruns it.
    """
    ctx = _Context()
    results = []
    for number, name, fn, budget in _CRITERIA:
        start = time.perf_counter()
        try:
            passed, measured = fn(ctx)
        except Exception as exc:
            passed, measured = False, f"raised {type(exc).__name__}: {exc}"
        runtime = time.perf_counter() - start
        if budget is not None and runtime > budget:
            passed = False
            measured += f"; runtime exceeded the {budget:.0f} s budget"
        results.append(CriterionResult(number, name, passed, measured, runtime))
    n_pass = sum(r.passed for r in results)
    lines = [r.line() for r in results]
    lines.append(f"{n_pass}/{len(results)} criteria passed")
    return ValidationReport(results=tuple(results), text="\n".join(lines) + "\n")
