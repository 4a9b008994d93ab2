"""Property tests: the batched sweep kernel against the boosted Bloch-vector oracle,
boost reversibility, local-unitary invariance of the measures, the Lorentz
invariance of the chirality-block determinants of any coefficient matrix, and the
per-point state-vector boost against the cosh/sinh formula of ``bispinor_boost``.

States either share one momentum per slot, along +z or -z, and superpose one to
four helicity-pair terms with random complex coefficients, or are general unit
16-vectors; boosts have random rapidities and directions.  The kernel boosts the
state in the boost generator's eigenbasis; the oracle builds ``S Psi S^T`` from the
cosh/sinh formula and shares no code with it, so agreement checks both routes.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from diracboost.kernel import _measure_chunk, _tables
from diracboost.kinematics import E_Z, BoostSpec, FourMomentum, bispinor_boost
from diracboost.measures import _analytic_bloch_batch, analytic_boosted_bloch
from diracboost.states import (
    SuperpositionTerm,
    assemble_state_vector,
    boost_two_particle,
)
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
    return tuple(SuperpositionTerm(c, (pa, sa), (pb, sb)) for c, (sa, sb) in zip(coeffs, pairs))


@st.composite
def boosts(draw):
    count = draw(st.integers(1, 6))
    rapidities = np.array([draw(st.floats(-4.0, 4.0)) for _ in range(count)])
    directions = np.array([[draw(unit) for _ in range(3)] for _ in range(count)])
    norms = np.linalg.norm(directions, axis=1)
    assume(np.all(norms > 0.1))
    return rapidities, directions / norms[:, None]


@st.composite
def state_vectors(draw):
    """A unit 16-vector of amplitudes."""
    psi = np.array([complex(draw(unit), draw(unit)) for _ in range(16)])
    assume(np.linalg.norm(psi) > 0.3)
    return psi / np.linalg.norm(psi)


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(state=st.one_of(shared_momentum_states(), state_vectors()), batch=boosts())
def test_kernel_matches_the_boost_oracle(state, batch):
    rapidities, directions = batch
    psi = state if isinstance(state, np.ndarray) else assemble_state_vector(state)
    columns = np.arange(len(rapidities))
    nu, eg, neg, bloch = _measure_chunk(
        _tables(psi.reshape(4, 4), directions), rapidities, np.zeros_like(rapidities), columns
    )
    analytic, analytic_nu = _analytic_bloch_batch(psi, rapidities, directions)
    assert np.max(np.abs(bloch - analytic)) <= TOL
    assert np.max(np.abs(nu / analytic_nu - 1.0)) <= TOL
    # Meyer-Wallach / Brennen: E_G = 1 - mean |a|^2 over the four qubits
    assert np.max(np.abs(eg - (1.0 - np.mean(np.sum(analytic**2, axis=2), axis=1)))) <= TOL
    assert np.all((eg >= 0.0) & (eg <= 1.0))
    assert np.all((neg >= 0.0) & (neg <= 1.0))
    # a batch row is bit-identical to the oracle on that boost alone
    for k, (w, n) in enumerate(zip(rapidities, directions)):
        if isinstance(state, np.ndarray):
            single = _analytic_bloch_batch(psi, rapidities[k : k + 1], directions[k : k + 1])[0][0]
        else:
            vectors = analytic_boosted_bloch(state, BoostSpec(float(w), n))
            single = [[vectors[t].x, vectors[t].y, vectors[t].z] for t in ("PA", "SA", "PB", "SB")]
        np.testing.assert_array_equal(single, analytic[k])


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(state=shared_momentum_states(), batch=boosts())
def test_inverse_boost_restores_the_state(state, batch):
    psi = assemble_state_vector(state).reshape(4, 4)
    for w, n in zip(*batch):
        b = BoostSpec(float(w), n)
        s, s_back = bispinor_boost(b), bispinor_boost(BoostSpec(-b.rapidity, b.direction))
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
    rest, column = np.zeros(1), np.zeros(1, int)
    for w, n in zip(*batch):
        s = bispinor_boost(BoostSpec(float(w), n))
        boosted = s @ psi @ s.T
        boosted /= np.linalg.norm(boosted)
        _, eg, neg, _ = _measure_chunk(_tables(boosted, E_Z[None, :]), rest, rest, column)
        _, eg_local, neg_local, _ = _measure_chunk(
            _tables(local @ boosted, E_Z[None, :]), rest, rest, column
        )
        assert abs(eg_local[0] - eg[0]) <= 1e-12
        assert abs(neg_local[0] - neg[0]) <= 1e-12


#: V = H (x) I takes the parity qubit to chirality, where the boost is blockwise in SL(2,C).
CHIRALITY = kron(np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0), np.eye(2))


def _chirality_block_determinants(psi):
    """``det Psi_fg`` of the four 2x2 blocks of ``V Psi V^T``, indexed [f, g]."""
    return np.linalg.det((CHIRALITY @ psi @ CHIRALITY.T).reshape(2, 2, 2, 2).transpose(0, 2, 1, 3))


@st.composite
def unit_coefficient_matrices(draw):
    z = np.array([complex(draw(unit), draw(unit)) for _ in range(16)])
    assume(np.linalg.norm(z) > 0.1)
    return (z / np.linalg.norm(z)).reshape(4, 4)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(psi=unit_coefficient_matrices(), rapidity=st.floats(-8.0, 8.0),
       direction=st.tuples(unit, unit, unit))
def test_chirality_block_determinants_are_lorentz_invariant(psi, rapidity, direction):
    """``S`` acts on block (f, g) as ``M_f Psi_fg M_g^T`` with ``det M = 1``, so the four
    determinants of any unnormalized ``S Psi S^T`` equal those of ``Psi``.  Its entries grow
    like ``e^|w|``, so the rounding of a determinant grows like ``e^{2|w|}``."""
    n = np.array(direction)
    assume(np.linalg.norm(n) > 0.1)
    s = bispinor_boost(BoostSpec(rapidity, n / np.linalg.norm(n)))
    drift = _chirality_block_determinants(s @ psi @ s.T) - _chirality_block_determinants(psi)
    assert np.max(np.abs(drift)) <= 1e-15 * np.exp(2.0 * abs(rapidity))


@st.composite
def unit_directions(draw):
    n = np.array([draw(unit) for _ in range(3)])
    assume(np.linalg.norm(n) > 0.1)
    return n / np.linalg.norm(n)


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(psi=state_vectors(), rapidity=st.floats(-4.0, 4.0), n=unit_directions())
def test_state_boost_matches_the_cosh_sinh_formula(psi, rapidity, n):
    """``boost_two_particle`` works in the generator's eigenbasis; the reference forms the
    16x16 product ``(S (x) S) psi`` from ``bispinor_boost``, whose rounding grows as
    ``eps e^{|w|}``, which stays far below the tolerance for |w| <= 4."""
    b = BoostSpec(rapidity, n)
    product = kron(bispinor_boost(b), bispinor_boost(b)) @ psi
    nu = np.vdot(product, product).real
    boosted, got_nu = boost_two_particle(psi, b)
    assert abs(got_nu - nu) <= 1e-12 * nu
    assert np.max(np.abs(boosted - product / np.sqrt(nu))) <= 1e-12


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(psi=state_vectors(), rapidity=st.floats(-1.0, 1.0), n=unit_directions())
def test_state_boost_round_trip(psi, rapidity, n):
    """A boost shrinks some amplitudes of psi' by up to ``e^{-2|w|}``, and a float vector keeps
    them only to ``eps`` of its largest, so the way back restores psi to about ``eps e^{2|w|}``:
    within 1e-13 for |w| <= 1."""
    b = BoostSpec(rapidity, n)
    boosted, nu = boost_two_particle(psi, b)
    back, nu_back = boost_two_particle(boosted, BoostSpec(-b.rapidity, b.direction))
    assert np.max(np.abs(back - psi)) <= 1e-13
    assert abs(nu * nu_back - 1.0) <= 1e-13
