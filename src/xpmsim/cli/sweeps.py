"""Parameter sweeps behind the CLI tasks.

Each runner maps a RunConfig to a SweepResult whose rows cover the axis
product in row-major order. All numeric work is delegated to the solver
modules; runners only organize axes, defaults, and provenance.
"""

from __future__ import annotations

import math

import numpy as np

from ..copropagating import (
    _C1_RTOL,
    _TRANSITION_XTOL,
    conditional_phase_sweep,
    entropy_phase_sweep,
    fidelity_sweep,
    overlap_coefficients,
    transition_k0,
)
from ..errors import ConfigError
from ..headon import CollisionSetup, InteractionTables, fidelity_evolution
from ..numerics import SystemParams, make_profile
from ..results import Axis, SweepResult
from .config import RunConfig, config_hash

__all__ = ["collision_profiles", "collision_setup", "run_coeffs", "run_fig1",
           "run_fig2", "run_fig3", "run_fig4", "run_task"]

DEFAULT_K0_SET = (0.5, 1.0, 2.5, 5.0, 10.0)
DEFAULT_C1_SET = (0.20, 0.36, 0.45, 0.50, 0.55, 0.63, 0.78, 0.98)
_BOUNDARY_C1 = 1e-12


def _version() -> str:
    from .. import __version__
    return __version__


def _profile(config: RunConfig, center: float = 0.0):
    if config.profile_shape == "square":
        return make_profile("square", center=center, width=config.profile_width)
    return make_profile("gaussian", center=center)


def _phi_axis(config: RunConfig, default_max: float, default_n: int) -> np.ndarray:
    lo = 0.0 if config.phi_min is None else config.phi_min
    hi = default_max if config.phi_max is None else config.phi_max
    n = default_n if config.phi_n is None else config.phi_n
    if lo < 0.0:
        raise ConfigError("phi.min must be non-negative")
    if not lo < hi:
        raise ConfigError("phi.min must be below phi.max")
    return np.linspace(lo, hi, n)


def _base_provenance(config: RunConfig, label: str) -> dict:
    return {
        "task": config.task,
        "config_hash": config_hash(config),
        "version": _version(),
        "profile": label,
    }


def run_coeffs(config: RunConfig) -> SweepResult:
    """Overlap coefficients over k0, plus the bisected transition point."""
    f1 = f2 = _profile(config)
    k0s = config.k0_values if config.k0_values is not None else DEFAULT_K0_SET
    coeffs = [overlap_coefficients(f1, f2, k) for k in k0s]
    transition = transition_k0(f1, f2)
    prov = _base_provenance(config, f1.label)
    prov.update({
        "transition_k0": transition,
        "transition_xtol": _TRANSITION_XTOL,
        "coefficient_rtol": _C1_RTOL,
    })
    return SweepResult(
        kind="coeffs",
        axes=(Axis("k0", "dimensionless", tuple(k0s)),),
        columns={"C1": tuple(c.c1 for c in coeffs),
                 "C2": tuple(c.c2 for c in coeffs)},
        provenance=prov,
    )


def run_fig1(config: RunConfig) -> SweepResult:
    """Unwrapped conditional-phase curves theta(Phi) for a set of C1 values.

    The C1 = 1/2 row is the regime boundary: its pointwise arctangent has a
    genuine branch discontinuity at Phi = pi, while the family of curves
    approaches the straight line theta = Phi/2 from both sides, so that row
    is rendered as the boundary line itself.
    """
    c1s = config.c1_values if config.c1_values is not None else DEFAULT_C1_SET
    if any(c <= 0.0 for c in c1s):
        raise ConfigError("c1.list entries must be positive")
    phis = _phi_axis(config, default_max=2.0 * math.pi, default_n=630)
    notes = []
    rows = []
    for c1 in c1s:
        if abs(c1 - 0.5) < _BOUNDARY_C1:
            rows.append(0.5 * phis)
            notes.append("C1=0.5 rendered as the boundary line theta=phi/2")
        else:
            rows.append(conditional_phase_sweep(c1, phis))
    prov = _base_provenance(config, "analytic in C1")
    prov["phi_step"] = float(phis[1] - phis[0])
    return SweepResult(
        kind="fig1",
        axes=(Axis("C1", "dimensionless", tuple(c1s)),
              Axis("Phi", "rad", tuple(float(p) for p in phis))),
        columns={"theta": tuple(float(v) for row in rows for v in row)},
        provenance=prov,
        warnings=tuple(dict.fromkeys(notes)),
    )


def run_fig2(config: RunConfig) -> SweepResult:
    """Linear entropy and fidelity versus Phi, one curve per k0."""
    f1 = f2 = _profile(config)
    k0s = config.k0_values if config.k0_values is not None else DEFAULT_K0_SET
    phis = _phi_axis(config, default_max=math.pi, default_n=65)

    fid, ent = [], []
    phi_row = phis.tolist()
    for k0 in k0s:
        coeffs = overlap_coefficients(f1, f2, k0)
        fid.extend(fidelity_sweep(coeffs.c1, coeffs.c2, phi_row).tolist())
        ent.extend(entropy_phase_sweep(f1, f2, k0, phis).tolist())
    prov = _base_provenance(config, f1.label)
    prov["phi_max"] = float(phis[-1])
    return SweepResult(
        kind="fig2",
        axes=(Axis("k0", "dimensionless", tuple(k0s)),
              Axis("Phi", "rad", tuple(float(p) for p in phis))),
        columns={"F": tuple(fid), "S_L": tuple(ent)},
        provenance=prov,
    )


def run_fig3(config: RunConfig) -> SweepResult:
    """Closed-form fidelity over a rectangular (k0, Phi) lattice.

    Shares the coefficient and fidelity code path with run_fig2, so any
    lattice point that also lies on a fig2 curve agrees exactly.
    """
    f1 = f2 = _profile(config)
    k0s = np.linspace(config.lattice_k0_min, config.lattice_k0_max,
                      config.lattice_k0_n)
    lo = 0.0 if config.phi_min is None else config.phi_min
    hi = math.pi if config.phi_max is None else config.phi_max
    if not 0.0 <= lo < hi:
        raise ConfigError("need 0 <= phi.min < phi.max")
    phis = np.linspace(lo, hi, config.lattice_phi_n)

    fid = []
    phi_row = phis.tolist()
    for k0 in k0s:
        coeffs = overlap_coefficients(f1, f2, float(k0))
        fid.extend(fidelity_sweep(coeffs.c1, coeffs.c2, phi_row).tolist())
    return SweepResult(
        kind="fig3",
        axes=(Axis("k0", "dimensionless", tuple(float(k) for k in k0s)),
              Axis("Phi", "rad", tuple(float(p) for p in phis))),
        columns={"F": tuple(fid)},
        provenance=_base_provenance(config, f1.label),
    )


def collision_profiles(config: RunConfig):
    """Pulse pair at -separation/2 and +separation/2 per the config."""
    half = config.headon_separation / 2.0
    return _profile(config, -half), _profile(config, half)


def collision_setup(config: RunConfig, phi: float) -> CollisionSetup:
    """One full-pass collision setup for the configured geometry."""
    f1, f2 = collision_profiles(config)
    params = SystemParams.headon(config.headon_k0, config.headon_separation,
                                 config.headon_v1, config.headon_v2, phi=phi)
    v_r = abs(config.headon_v1 - config.headon_v2)
    t_pass = 2.0 * config.headon_separation / v_r
    times = tuple(float(t) for t in
                  np.linspace(0.0, t_pass, config.headon_time_n))
    return CollisionSetup(f1, f2, params, times=times,
                          grid_halfwidth=config.grid_halfwidth,
                          grid_n=config.grid_core_n)


def run_fig4(config: RunConfig) -> SweepResult:
    """Collision fidelity evolution, one curve per accumulated phase.

    The time-integral tables depend only on the geometry, so one cache,
    built from the first setup, is shared by every curve.
    """
    setups = [collision_setup(config, phi) for phi in config.headon_phis]
    tables = InteractionTables(setups[0])
    prov = _base_provenance(config, setups[0].f1.label)
    fid_cols, theta_cols, gauge_col = [], [], None
    notes = []
    for phi, setup in zip(config.headon_phis, setups):
        curve = fidelity_evolution(setup, tables=tables)
        fid_cols.extend(curve.columns["F"])
        theta_cols.extend(curve.columns["theta"])
        gauge_col = curve.columns["gauge"]
        prov[f"f_final[phi={phi:.6g}]"] = curve.provenance["f_final"]
        prov[f"f_min[phi={phi:.6g}]"] = curve.provenance["f_min"]
        notes.extend(curve.warnings)
    n_phi = len(config.headon_phis)
    return SweepResult(
        kind="fig4",
        axes=(Axis("phi", "rad", tuple(config.headon_phis)),
              Axis("t", "time", setups[0].times)),
        columns={
            "F": tuple(fid_cols),
            "theta": tuple(theta_cols),
            "gauge": tuple(gauge_col) * n_phi,
        },
        provenance=prov,
        warnings=tuple(dict.fromkeys(notes)),
    )


def run_task(config: RunConfig) -> SweepResult:
    """Dispatch the sweep named by config.task (validate is handled apart)."""
    runners = {
        "coeffs": run_coeffs,
        "fig1": run_fig1,
        "fig2": run_fig2,
        "fig3": run_fig3,
        "fig4": run_fig4,
    }
    if config.task not in runners:
        raise ConfigError(f"task {config.task!r} does not produce a sweep")
    return runners[config.task](config)
