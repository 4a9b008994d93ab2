"""Property tests: the batched sweep kernel against the closed-form Bloch oracle.

States share one momentum per slot, along +z or -z, and superpose one to
four helicity-pair terms with random complex coefficients; boosts have random
rapidities and directions.  The kernel boosts the state's coefficient matrix;
the oracle never builds a boosted state, so agreement checks both routes.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from diracboost.kinematics import E_Z, BoostSpec, FourMomentum
from diracboost.measures import _analytic_bloch_batch, analytic_boosted_bloch
from diracboost.states import SuperpositionTerm, TwoParticleState, assemble_state_vector
from diracboost.sweep import _measure_chunk

TOL = 1e-10

unit = st.floats(-1.0, 1.0)


@st.composite
def shared_momentum_states(draw):
    pa, pb = (
        FourMomentum.from_rapidity(
            1.0, draw(st.floats(0.0, 2.0)), draw(st.sampled_from((1.0, -1.0))) * E_Z
        )
        for _ in range(2)
    )
    helicity = st.sampled_from((1, 2))
    pairs = draw(st.lists(st.tuples(helicity, helicity), min_size=1, max_size=4))
    coeffs = [complex(draw(unit), draw(unit)) for _ in pairs]
    # same-momentum helicity spinors are orthonormal, so the norm is that of
    # the coefficients summed per helicity pair
    totals: dict = {}
    for c, pair in zip(coeffs, pairs):
        totals[pair] = totals.get(pair, 0.0) + c
    assume(sum(abs(c) ** 2 for c in totals.values()) > 1e-2)
    terms = tuple(SuperpositionTerm(c, (pa, sa), (pb, sb)) for c, (sa, sb) in zip(coeffs, pairs))
    return TwoParticleState(terms, 1.0)


@st.composite
def boosts(draw):
    count = draw(st.integers(1, 6))
    rapidities = np.array([draw(st.floats(-4.0, 4.0)) for _ in range(count)])
    directions = np.array([[draw(unit) for _ in range(3)] for _ in range(count)])
    norms = np.linalg.norm(directions, axis=1)
    assume(np.all(norms > 0.1))
    return rapidities, directions / norms[:, None]


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(state=shared_momentum_states(), batch=boosts())
def test_kernel_matches_closed_form_oracle(state, batch):
    rapidities, directions = batch
    psi = assemble_state_vector(state).reshape(4, 4)
    _, eg, neg, bloch = _measure_chunk(psi, rapidities, np.zeros_like(rapidities), directions)
    analytic = _analytic_bloch_batch(state, rapidities, directions)
    assert np.max(np.abs(bloch - analytic)) <= TOL
    # Meyer-Wallach / Brennen: E_G = 1 - mean |a|^2 over the four qubits
    assert np.max(np.abs(eg - (1.0 - np.mean(np.sum(analytic**2, axis=2), axis=1)))) <= TOL
    assert np.all((eg >= 0.0) & (eg <= 1.0))
    assert np.all((neg >= 0.0) & (neg <= 1.0))
    # a batch row is bit-identical to the public oracle on that boost alone
    for k, (w, n) in enumerate(zip(rapidities, directions)):
        single = analytic_boosted_bloch(state, BoostSpec(float(w), n))
        np.testing.assert_array_equal(
            np.stack([single[tag].as_array() for tag in ("PA", "SA", "PB", "SB")]), analytic[k]
        )
