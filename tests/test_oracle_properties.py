"""Property tests: the batched sweep kernel against the closed-form Bloch oracle,
boost reversibility, and local-unitary invariance of the measures.

States share one momentum per slot, along +z or -z, and superpose one to
four helicity-pair terms with random complex coefficients; boosts have random
rapidities and directions.  The kernel boosts the state's coefficient matrix;
the oracle never builds a boosted state, so agreement checks both routes.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from diracboost.kinematics import E_Z, BoostSpec, FourMomentum, bispinor_boost
from diracboost.measures import _analytic_bloch_batch, analytic_boosted_bloch
from diracboost.states import SuperpositionTerm, TwoParticleState, assemble_state_vector
from diracboost.sweep import _measure_chunk
from diracboost.tensor import kron

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


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(state=shared_momentum_states(), batch=boosts())
def test_inverse_boost_restores_the_state(state, batch):
    psi = assemble_state_vector(state).reshape(4, 4)
    for w, n in zip(*batch):
        b = BoostSpec(float(w), n)
        s, s_back = bispinor_boost(b), bispinor_boost(b.reversed())
        boosted = s @ psi @ s.T
        boosted /= np.linalg.norm(boosted)
        restored = s_back @ boosted @ s_back.T
        assert np.max(np.abs(restored / np.linalg.norm(restored) - psi)) <= 1e-12


@st.composite
def qubit_unitaries(draw):
    """A random SU(2) element from a unit quaternion."""
    q = np.array([draw(unit) for _ in range(4)])
    assume(np.linalg.norm(q) > 0.1)
    a, b, c, d = q / np.linalg.norm(q)
    return np.array([[a + 1j * d, c + 1j * b], [-c + 1j * b, a - 1j * d]])


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(state=shared_momentum_states(), batch=boosts(), u_parity=qubit_unitaries(),
       u_spin=qubit_unitaries())
def test_measures_are_invariant_under_local_unitaries_on_slot_a(state, batch, u_parity, u_spin):
    psi = assemble_state_vector(state).reshape(4, 4)
    local = kron(u_parity, u_spin)  # acts on the rows of psi: parity A (x) spin A
    rest = np.zeros(1)
    for w, n in zip(*batch):
        s = bispinor_boost(BoostSpec(float(w), n))
        boosted = s @ psi @ s.T
        boosted /= np.linalg.norm(boosted)
        _, eg, neg, _ = _measure_chunk(boosted, rest, rest, E_Z[None, :])
        _, eg_local, neg_local, _ = _measure_chunk(local @ boosted, rest, rest, E_Z[None, :])
        assert abs(eg_local[0] - eg[0]) <= 1e-12
        assert abs(neg_local[0] - neg[0]) <= 1e-12
