"""The public API's settings: every parameter with a default, by name.

A setting is added to or removed from the API only together with this
ledger, as a config key is only together with the CLI's key map.
"""

import inspect

import xpmsim

LEDGER = {
    "AccuracyError": ("coarse", "fine"),
    "CollisionSetup": ("times", "grid_halfwidth", "grid_n"),
    "GateMetrics": ("linear_entropy",),
    "Grid1D": ("domain",),
    "PulseProfile": ("center", "sigma", "width", "table_nodes", "table_values", "scale"),
    "SweepResult": ("provenance", "warnings"),
    "SystemParams": ("v1", "v2", "separation", "interaction_time"),
    "SystemParams.copropagating": ("velocity", "interaction_time"),
    "SystemParams.headon": ("phi", "chi"),
    "TwoParticleState": ("normalized",),
    "collision_entropy": ("tables",),
    "compute_C1": ("rtol",),
    "fidelity_evolution": ("tables",),
    "free_state": ("grid2",),
    "grid_metrics_copropagating": ("grids",),
    "interaction_grids": ("core_n", "tail_scale"),
    "linear_entropy": ("axis",),
    "make_grid": ("rule",),
    "make_profile": ("center", "sigma", "width", "table_nodes", "table_values"),
    "metrics_copropagating": ("with_entropy",),
    "reduced_kernel": ("axis",),
    "series_term": ("refine",),
    "sinc_kernel": ("k0",),
    "transition_k0": ("f1", "f2"),
    "two_particle_copropagating": ("grid2",),
    "two_particle_headon_closed": ("tables",),
    "two_particle_headon_series": ("n_max", "tables"),
}


def _defaults(f) -> tuple:
    try:
        params = inspect.signature(f).parameters.values()
    except ValueError:  # an exception class that keeps Exception's constructor
        return ()
    return tuple(p.name for p in params if p.default is not p.empty)


def test_every_setting_of_the_api_is_in_the_ledger():
    api = {name: getattr(xpmsim, name) for name in xpmsim.__all__
           if callable(getattr(xpmsim, name))}
    api["SystemParams.copropagating"] = xpmsim.SystemParams.copropagating
    api["SystemParams.headon"] = xpmsim.SystemParams.headon
    found = {name: _defaults(f) for name, f in api.items()}
    assert {name: d for name, d in found.items() if d} == LEDGER
