"""Property tests: the closed-form gate metrics and the exact-Z1 entropy stay physical,
and the sampled states keep the identities of normalization and partial traces.

Hypothesis draws the profile shape, k0 in [0.2, 20] (in [0.2, 5] for the
sampled states, whose sinc tail panels grow with k0) and Phi in [0, 2 pi].
Examples are derandomized and bounded so the suite stays fast and repeatable.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from xpmsim import (
    SystemParams,
    entropy_phase_sweep,
    fidelity_closed_form,
    linear_entropy,
    make_profile,
    normalize,
    overlap_coefficients,
    two_particle_copropagating,
)

PROFILES = {"gaussian": make_profile("gaussian"), "square": make_profile("square")}

bounded = settings(max_examples=40, deadline=None, derandomize=True, database=None)
shapes = st.sampled_from(sorted(PROFILES))
k0s = st.floats(min_value=0.2, max_value=20.0)
phis = st.floats(min_value=0.0, max_value=2.0 * math.pi)


@bounded
@given(shape=shapes, k0=k0s, phi=phis)
def test_fidelity_and_coefficients_are_physical(shape, k0, phi):
    f = PROFILES[shape]
    co = overlap_coefficients(f, f, k0)
    assert co.c2 >= co.c1 ** 2
    assert 0.0 <= fidelity_closed_form(co.c1, co.c2, phi) <= 1.0


@bounded
@given(shape=shapes, k0=k0s, phi=phis)
def test_linear_entropy_is_physical(shape, k0, phi):
    f = PROFILES[shape]
    at_zero, s = entropy_phase_sweep(f, f, k0, [0.0, phi])
    assert abs(at_zero) < 1e-12  # no interaction phase, product state
    assert -1e-12 <= s < 1.0


def sampled_state(grids_for, shape, k0, phi):
    """Interacting copropagating state on small oracle grids (a 101-node core, short sinc tail).

    grids_for is the long_tail_grids fixture's builder.
    """
    f = PROFILES[shape]
    grids = grids_for(f, f, k0, core_n=101, tail_scale=20.0)
    return two_particle_copropagating(f, f, SystemParams.copropagating(k0, phi), *grids)


@bounded
@given(shape=shapes, k0=st.floats(min_value=0.2, max_value=5.0), phi=phis)
def test_normalize_gives_unit_weighted_norm(long_tail_grids, shape, k0, phi):
    state = normalize(sampled_state(long_tail_grids, shape, k0, phi))
    assert abs(state.norm_squared() - 1.0) < 1e-12


@bounded
@given(shape=shapes, k0=st.floats(min_value=0.2, max_value=5.0), phi=phis)
def test_linear_entropy_same_from_either_axis(long_tail_grids, shape, k0, phi):
    state = normalize(sampled_state(long_tail_grids, shape, k0, phi))
    assert abs(linear_entropy(state, axis=0) - linear_entropy(state, axis=1)) < 1e-12
