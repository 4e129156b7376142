"""Performance metrics of photon-photon conditional-phase gates at finite bandwidth.

Two-particle amplitudes for co-propagating and colliding single-photon
pulses, their overlap coefficients, fidelity, conditional phase, and
entanglement entropy, in closed form and by grid quadrature.

When xpmsim is the first to import numpy and no BLAS thread variable is
set, numpy loads with one OpenBLAS thread (see numerics' note on real
products). To keep numpy's thread pool, import numpy first.
"""

import os as _os

# OpenBLAS reads its thread count once, when numpy loads it; a numpy already
# loaded has read it, so the variable changes nothing then. Its helper thread
# spins for about 0.1 s after it starts, which a short CLI run pays in CPU.
# The figure tasks keep their products on the calling thread anyway; some
# state API products do not, and those lose wall time on one thread (see
# numerics' note on real products). The variable is removed again, so the
# environment child processes inherit is the user's own.
if not any(var in _os.environ
           for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")):
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy as _numpy  # noqa: F401
    finally:
        del _os.environ["OPENBLAS_NUM_THREADS"]

from .copropagating import (
    GateMetrics,
    OverlapCoeffs,
    compute_C1,
    compute_C2,
    conditional_phase,
    conditional_phase_sweep,
    entropy_phase_sweep,
    fidelity_closed_form,
    fidelity_sweep,
    grid_metrics_copropagating,
    interaction_grids,
    metrics_copropagating,
    overlap_coefficients,
    transition_k0,
    two_particle_copropagating,
)
from .errors import (
    AccuracyError,
    ApproximationWarning,
    CoefficientError,
    ConfigError,
    DegeneratePhaseError,
    DegenerateStateError,
    GridMismatchError,
    ModeError,
    NormalizationError,
    ParameterError,
    ProfileError,
    TruncationError,
    XpmsimError,
)
from .headon import (
    CollisionSetup,
    InteractionTables,
    collision_entropy,
    fidelity_evolution,
    ideal_headon_metrics,
    series_term,
    two_particle_headon_closed,
    two_particle_headon_series,
)
from .numerics import (
    Grid1D,
    PulseProfile,
    SystemParams,
    commutator_kernel,
    composite_gauss_grid,
    join_grids,
    make_grid,
    make_profile,
    sinc_kernel,
)
from .results import Axis, SweepResult
from .state import (
    ReducedKernel,
    TwoParticleState,
    free_state,
    linear_entropy,
    normalize,
    overlap,
    purity,
    reduced_kernel,
)

__version__ = "0.1.0"

__all__ = [
    "AccuracyError",
    "ApproximationWarning",
    "Axis",
    "CoefficientError",
    "CollisionSetup",
    "ConfigError",
    "DegeneratePhaseError",
    "DegenerateStateError",
    "GateMetrics",
    "Grid1D",
    "GridMismatchError",
    "InteractionTables",
    "ModeError",
    "NormalizationError",
    "OverlapCoeffs",
    "ParameterError",
    "ProfileError",
    "PulseProfile",
    "ReducedKernel",
    "SweepResult",
    "SystemParams",
    "TruncationError",
    "TwoParticleState",
    "XpmsimError",
    "collision_entropy",
    "commutator_kernel",
    "composite_gauss_grid",
    "compute_C1",
    "compute_C2",
    "conditional_phase",
    "conditional_phase_sweep",
    "entropy_phase_sweep",
    "fidelity_closed_form",
    "fidelity_evolution",
    "fidelity_sweep",
    "free_state",
    "grid_metrics_copropagating",
    "ideal_headon_metrics",
    "interaction_grids",
    "join_grids",
    "linear_entropy",
    "make_grid",
    "make_profile",
    "metrics_copropagating",
    "normalize",
    "overlap",
    "overlap_coefficients",
    "purity",
    "reduced_kernel",
    "series_term",
    "sinc_kernel",
    "transition_k0",
    "two_particle_copropagating",
    "two_particle_headon_closed",
    "two_particle_headon_series",
    "__version__",
]
