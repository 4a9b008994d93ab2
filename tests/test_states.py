import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from diracboost.kinematics import (
    E_Z,
    GAMMA5,
    BoostSpec,
    FourMomentum,
    bispinor_boost,
    bispinor_u,
)
from diracboost.states import (
    ChiralLabelPair,
    SuperpositionTerm,
    TwoParticleState,
    assemble_state_vector,
    boost_two_particle,
    chiral_project,
    density_matrix,
    make_psi1,
    make_psi2,
    make_psi3,
)
from diracboost.tensor import kron

M = 1.0
SECH2_1 = 1.0 / math.cosh(1.0) ** 2  # 0.4199743416140261
INV_SQRT2 = 1.0 / math.sqrt(2.0)


def momentum(w, sign=+1):
    return FourMomentum.from_rapidity(M, w, sign * E_Z)


def random_state(rng, n_terms=3):
    pool = [momentum(0.0), momentum(0.7), momentum(1.3, -1), momentum(2.0)]
    terms = []
    for _ in range(n_terms):
        c = complex(rng.normal(), rng.normal())
        slot_a = (pool[rng.integers(len(pool))], int(rng.integers(1, 3)))
        slot_b = (pool[rng.integers(len(pool))], int(rng.integers(1, 3)))
        terms.append(SuperpositionTerm(c, slot_a, slot_b))
    return TwoParticleState(tuple(terms), M)


# --------------------------------------------------------------------------
# construction and validation
# --------------------------------------------------------------------------


def test_term_validation():
    p = momentum(1.0)
    with pytest.raises(ValueError, match="helicity label"):
        SuperpositionTerm(1.0, (p, 3), (p, 1))
    with pytest.raises(TypeError, match="FourMomentum"):
        SuperpositionTerm(1.0, ("p", 1), (p, 1))


def test_state_validation():
    p = momentum(1.0)
    with pytest.raises(ValueError, match="at least one term"):
        TwoParticleState((), M)
    heavy = FourMomentum.from_rapidity(2.0, 1.0, E_Z)
    with pytest.raises(ValueError, match="differs from"):
        TwoParticleState((SuperpositionTerm(1.0, (p, 1), (heavy, 1)),), M)


def test_chiral_label_validation():
    with pytest.raises(ValueError, match="must be 0 or 1"):
        ChiralLabelPair(0, 2)


def test_single_term_assembles_to_kron():
    p, q = momentum(0.9), momentum(1.4, -1)
    st = TwoParticleState((SuperpositionTerm(2.0, (p, 1), (q, 2)),), M)
    vec = assemble_state_vector(st)
    expected = kron(bispinor_u(p, 1).amplitudes, bispinor_u(q, 2).amplitudes)
    assert_allclose(vec, expected, atol=1e-15)  # coefficient scale divides out


def test_cancelling_superposition_raises():
    p = momentum(1.0)
    st = TwoParticleState(
        (
            SuperpositionTerm(1.0, (p, 1), (p, 2)),
            SuperpositionTerm(-1.0, (p, 1), (p, 2)),
        ),
        M,
    )
    with pytest.raises(ValueError, match="cancels to the zero vector"):
        assemble_state_vector(st)


def test_density_matrix_matches_blockwise_oracle():
    """Independent construction: rho = sum_ij c_i c_j^* (uA_i uA_j^+) x (uB_i uB_j^+)."""
    rng = np.random.default_rng(201)
    for _ in range(6):
        st = random_state(rng)
        vec = np.zeros(16, dtype=complex)
        for t in st.terms:
            vec += t.coefficient * kron(
                bispinor_u(*t.slot_a).amplitudes, bispinor_u(*t.slot_b).amplitudes
            )
        norm_sq = float(np.real(np.vdot(vec, vec)))
        if norm_sq < 1e-12:
            continue
        expected = np.zeros((16, 16), dtype=complex)
        for ti in st.terms:
            for tj in st.terms:
                ua_i = bispinor_u(*ti.slot_a).amplitudes
                ua_j = bispinor_u(*tj.slot_a).amplitudes
                ub_i = bispinor_u(*ti.slot_b).amplitudes
                ub_j = bispinor_u(*tj.slot_b).amplitudes
                w = ti.coefficient * np.conj(tj.coefficient)
                expected += w * kron(np.outer(ua_i, ua_j.conj()), np.outer(ub_i, ub_j.conj()))
        assert_allclose(density_matrix(st), expected / norm_sq, atol=1e-12)


def test_density_matrix_is_pure():
    rng = np.random.default_rng(202)
    for _ in range(5):
        rho = density_matrix(random_state(rng))
        assert abs(np.trace(rho) - 1.0) < 1e-12
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-14
        assert abs(np.trace(rho @ rho).real - 1.0) < 1e-12
        assert np.linalg.eigvalsh(rho).min() > -1e-12


# --------------------------------------------------------------------------
# scenario states
# --------------------------------------------------------------------------


def test_psi1_term_overlap_and_norm():
    """The two terms overlap by sech^2(w0), so the raw norm is tanh(w0)."""
    for w0 in (0.5, 1.0, 2.0):
        st = make_psi1(w0)
        t1, t2 = st.terms
        v1 = kron(bispinor_u(*t1.slot_a).amplitudes, bispinor_u(*t1.slot_b).amplitudes)
        v2 = kron(bispinor_u(*t2.slot_a).amplitudes, bispinor_u(*t2.slot_b).amplitudes)
        overlap = np.vdot(v1, v2)
        assert_allclose(overlap, 1.0 / math.cosh(w0) ** 2, atol=1e-13)
        raw = t1.coefficient * v1 + t2.coefficient * v2
        assert_allclose(np.linalg.norm(raw), math.tanh(w0), atol=1e-13)


def test_psi1_at_zero_rapidity_is_rest_singlet():
    """At exactly w0 = 0 the rest-frame convention decouples the helicity
    labels from the (vanishing) momentum directions, so the construction
    degenerates to the rest-frame spin singlet instead of cancelling."""
    vec = assemble_state_vector(make_psi1(0.0))
    u1 = bispinor_u(FourMomentum.at_rest(M), 1).amplitudes
    u2 = bispinor_u(FourMomentum.at_rest(M), 2).amplitudes
    expected = INV_SQRT2 * (kron(u1, u2) - kron(u2, u1))
    assert_allclose(vec, expected, atol=1e-14)


def test_psi3_at_zero_rapidity_hand_assembly():
    vec = assemble_state_vector(make_psi3(0.0))
    expected = np.zeros(16, dtype=complex)
    expected[0 * 4 + 1] = INV_SQRT2  # |+ z+> (x) |+ z->
    expected[1 * 4 + 0] = -INV_SQRT2  # |+ z-> (x) |+ z+>
    assert_allclose(vec, expected, atol=0)


#: Term layouts: (coefficient, slot A, slot B) with each slot (rapidity, direction, helicity).
LAYOUTS = {
    "psi1": [(INV_SQRT2, (1.0, 1, 1), (1.0, -1, 2)), (-INV_SQRT2, (1.0, -1, 2), (1.0, 1, 1))],
    "psi2": [(INV_SQRT2, (1.0, 1, 1), (1.0, -1, 1)), (-INV_SQRT2, (1.0, 1, 2), (1.0, -1, 2))],
    "psi3": [(INV_SQRT2, (1.0, 1, 1), (1.0, 1, 2)), (-INV_SQRT2, (1.0, 1, 2), (1.0, 1, 1))],
    "custom": [(1.0, (1.0, 1, 1), (1.0, -1, 2)), (0.5j, (1.3, -1, 2), (0.6, 1, 1))],
}


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_assembled_state_is_the_same_at_every_mass(layout):
    """The fact that lets every scenario state be built at unit mass."""

    def build(mass):
        def slot(w, sign, s):
            return FourMomentum.from_rapidity(mass, w, sign * E_Z), s

        terms = [SuperpositionTerm(c, slot(*a), slot(*b)) for c, a, b in LAYOUTS[layout]]
        return assemble_state_vector(TwoParticleState(tuple(terms), mass))

    unit = build(1.0)
    makers = {"psi1": make_psi1, "psi2": make_psi2, "psi3": make_psi3}
    if layout in makers:
        assert np.array_equal(unit, assemble_state_vector(makers[layout](1.0)))
    for mass in (1e-6, 0.37, 2.0, 50.0, 1e6):
        assert_allclose(build(mass), unit, rtol=0, atol=1e-15)


def test_scenarios_reject_negative_rapidity():
    for maker in (make_psi1, make_psi2, make_psi3):
        with pytest.raises(ValueError, match="nonnegative"):
            maker(-0.5)


def test_psi1_psi3_antisymmetric_under_slot_swap():
    for st in (make_psi1(1.0), make_psi3(1.0)):
        swapped = TwoParticleState(
            tuple(
                SuperpositionTerm(-t.coefficient, t.slot_b, t.slot_a) for t in st.terms
            ),
            st.mass,
        )
        assert_allclose(
            assemble_state_vector(swapped), assemble_state_vector(st), atol=1e-14
        )


def test_psi2_not_antisymmetric_under_slot_swap():
    """The equal-helicity-label pair keeps its momenta attached to slots, so
    exchanging the slots produces a genuinely different state."""
    st = make_psi2(1.0)
    swapped = TwoParticleState(
        tuple(SuperpositionTerm(-t.coefficient, t.slot_b, t.slot_a) for t in st.terms),
        st.mass,
    )
    overlap = abs(np.vdot(assemble_state_vector(swapped), assemble_state_vector(st)))
    assert overlap < 0.9


def test_psi2_differs_from_antisymmetrized_variant():
    """The two-term antisymmetrized state built from helicity-1 bispinors at
    opposite momenta is not the equal-label pair: their overlap is
    (1 + sech^2(w0))/2, frozen here at w0 = 1."""
    p, q = momentum(1.0), momentum(1.0, -1)
    anti = TwoParticleState(
        (
            SuperpositionTerm(INV_SQRT2, (p, 1), (q, 1)),
            SuperpositionTerm(-INV_SQRT2, (q, 1), (p, 1)),
        ),
        M,
    )
    overlap = abs(np.vdot(assemble_state_vector(anti), assemble_state_vector(make_psi2(1.0))))
    assert_allclose(overlap, (1.0 + SECH2_1) / 2.0, atol=1e-12)
    assert_allclose(overlap, 0.709987170807013, atol=1e-12)


# --------------------------------------------------------------------------
# chiral projection
# --------------------------------------------------------------------------


def test_chiral_project_matches_direct_projection():
    from diracboost.kinematics import chiral_projector

    st = make_psi2(1.0)
    rho = density_matrix(st)
    for f in (0, 1):
        for g in (0, 1):
            proj = kron(chiral_projector(f), chiral_projector(g))
            raw = proj @ rho @ proj
            expected = raw / np.trace(raw).real
            got = chiral_project(st, ChiralLabelPair(f, g))
            assert_allclose(got, expected, atol=1e-12)


def test_chiral_project_output_is_chirality_eigenstate():
    gamma5_a = kron(GAMMA5, np.eye(4, dtype=complex))
    gamma5_b = kron(np.eye(4, dtype=complex), GAMMA5)
    st = make_psi3(1.0)
    for f in (0, 1):
        for g in (0, 1):
            rho = chiral_project(st, ChiralLabelPair(f, g))
            assert abs(np.trace(rho) - 1.0) < 1e-12
            assert abs(np.trace(rho @ rho).real - 1.0) < 1e-12
            assert_allclose(gamma5_a @ rho, (-1.0) ** f * rho, atol=1e-12)
            assert_allclose(gamma5_b @ rho, (-1.0) ** g * rho, atol=1e-12)


def test_chiral_project_annihilation_raises():
    """A superposition engineered so one chirality component cancels exactly."""
    p, q = momentum(1.0), momentum(1.0, -1)
    e, k = p.energy, p.p_norm
    norm = math.sqrt(2.0 * e * (e + M))
    a, b = (e + M) / norm, k / norm
    # slot A carries u1(p) and u2(q); their f=0 components are a+b and a-b
    # times the same spin ket, so the weights below cancel that projection.
    c1, c2 = a - b, -(a + b)
    scale = math.hypot(c1, c2)
    st = TwoParticleState(
        (
            SuperpositionTerm(c1 / scale, (p, 1), (q, 1)),
            SuperpositionTerm(c2 / scale, (q, 2), (q, 1)),
        ),
        M,
    )
    with pytest.raises(ValueError, match="annihilates"):
        chiral_project(st, ChiralLabelPair(0, 0))
    # the complementary label survives
    rho = chiral_project(st, ChiralLabelPair(1, 0))
    assert abs(np.trace(rho) - 1.0) < 1e-12


def test_equal_label_chiral_projection_boost_invariant_for_shared_momentum():
    """Both-slots-equal chirality of the shared-momentum singlet survives
    boosts untouched (spot check; the verification suite sweeps this)."""
    st = make_psi3(1.0)
    for f in (0, 1):
        rho = chiral_project(st, ChiralLabelPair(f, f))
        for w, th in ((0.8, 0.3), (2.0, 1.2)):
            boosted, _ = boost_two_particle(rho, BoostSpec.from_polar_angle(w, th))
            assert np.max(np.abs(boosted - rho)) < 1e-12


# --------------------------------------------------------------------------
# boosts of two-particle density matrices
# --------------------------------------------------------------------------


def test_boost_preserves_purity_and_trace():
    rng = np.random.default_rng(211)
    for _ in range(6):
        rho = density_matrix(random_state(rng))
        b = BoostSpec.from_polar_angle(rng.uniform(0.0, 3.0), rng.uniform(0.0, math.pi))
        boosted, nu = boost_two_particle(rho, b)
        assert nu > 0.0
        assert abs(np.trace(boosted) - 1.0) < 1e-12
        assert abs(np.trace(boosted @ boosted).real - 1.0) < 1e-10
        assert np.max(np.abs(boosted - boosted.conj().T)) < 1e-12


def test_boost_inverse_recovers_state():
    rho = density_matrix(make_psi2(1.0))
    b = BoostSpec.from_polar_angle(1.7, 0.6)
    boosted, _ = boost_two_particle(rho, b)
    back, _ = boost_two_particle(boosted, b.reversed())
    assert np.max(np.abs(back - rho)) < 1e-10


def test_boost_identity_is_exact():
    rho = density_matrix(make_psi1(1.0))
    out, nu = boost_two_particle(rho, BoostSpec(0.0, E_Z))
    assert nu == 1.0
    assert np.array_equal(out, rho)
    assert out is not rho  # a copy, so callers cannot mutate the input


def test_boost_normalizer_equals_trace_form():
    """nu agrees with Tr[(S x S)^2 rho] — the operator is Hermitian."""
    rho = density_matrix(make_psi2(1.0))
    for w, th in ((0.5, 0.0), (1.5, 1.0), (3.0, math.pi / 2)):
        b = BoostSpec.from_polar_angle(w, th)
        _, nu = boost_two_particle(rho, b)
        s_pair = kron(bispinor_boost(b), bispinor_boost(b))
        expected = float(np.real(np.trace(s_pair @ s_pair @ rho)))
        assert_allclose(nu, expected, atol=1e-10)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("omega", [400.0, 1500.0])
def test_boost_overflow_names_the_rapidity(omega):
    rho = density_matrix(make_psi2(1.0))
    with pytest.raises(ValueError, match=f"rapidity {omega:g} "):
        boost_two_particle(rho, BoostSpec(omega, E_Z))


def test_boost_input_validation():
    b = BoostSpec(1.0, E_Z)
    with pytest.raises(ValueError, match="16x16"):
        boost_two_particle(np.eye(4) / 4, b)
    with pytest.raises(ValueError, match="unit trace"):
        boost_two_particle(np.eye(16), b)
    skewed = np.eye(16, dtype=complex) / 16
    skewed[0, 1] = 1e-3
    with pytest.raises(ValueError, match="Hermitian"):
        boost_two_particle(skewed, b)


@pytest.mark.parametrize("omega", [20.0, 28.0])
def test_boost_that_loses_the_density_matrix_rule_names_its_rapidity(omega):
    """psi1 boosted along its momenta keeps nu = 1, but the 16x16 product carries
    eps cond(S (x) S)^2 of rounding: rho' is 4.4e-9 from Hermitian at omega = 20 and
    3.9e-5 at 28.  boost_two_particle checks its own output, so the error names the boost."""
    rho = density_matrix(make_psi1(1.0))
    message = rf"boost at rapidity {omega:g} lost precision: density matrix is not Hermitian"
    with pytest.raises(ValueError, match=message):
        boost_two_particle(rho, BoostSpec(omega, E_Z))


def test_offdiagonal_spin_blocks_are_boost_invariant():
    """Spin blocks that anticommute with n.sigma pass through the boost
    unchanged: Tr_P[S (rho_P x Xi) S] = Tr[rho_P] Xi for Xi = |z+><z-|,
    n = e_z.  This is the algebraic seed of every parallel-boost invariance."""
    rng = np.random.default_rng(212)
    xi = np.zeros((2, 2), dtype=complex)
    xi[0, 1] = 1.0
    for w in (0.5, 1.0, 2.5):
        s = bispinor_boost(BoostSpec(w, E_Z))
        for _ in range(5):
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            rho_p = a @ a.conj().T
            rho_p /= np.trace(rho_p)
            moved = s @ kron(rho_p, xi) @ s
            reduced = moved[:2, :2] + moved[2:, 2:]
            assert_allclose(reduced, xi, atol=1e-12)
