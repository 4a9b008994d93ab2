import contextlib
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from diracboost.kinematics import (
    E_Z,
    GAMMA5,
    BoostSpec,
    FourMomentum,
    _polar_directions,
    bispinor_boost,
    bispinor_u,
)
from diracboost.measures import analytic_boosted_bloch, delta_global, global_entanglement
from diracboost.states import (
    _boost_batch,
    SuperpositionTerm,
    assemble_state_vector,
    boost_two_particle,
    chiral_project_vector,
    make_psi1,
    make_psi2,
    make_psi3,
)
from diracboost.tensor import kron, outer

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
    return tuple(terms)


# --------------------------------------------------------------------------
# construction and validation
# --------------------------------------------------------------------------


def test_term_validation():
    """A term is checked where it is assembled, not where it is built."""
    p = momentum(1.0)
    with pytest.raises(ValueError, match="helicity label"):
        assemble_state_vector((SuperpositionTerm(1.0, (p, 3), (p, 1)),))
    with pytest.raises(TypeError, match="FourMomentum"):
        assemble_state_vector((SuperpositionTerm(1.0, ("p", 1), (p, 1)),))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("c", [math.nan, complex(0.0, math.inf)])
def test_term_rejects_a_non_finite_coefficient(c):
    p = momentum(1.0)
    with pytest.raises(ValueError, match="coefficient must be finite"):
        assemble_state_vector((SuperpositionTerm(c, (p, 1), (p, 2)),))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad, error, message", [
    (lambda p: SuperpositionTerm(1.0, (p, 3), (p, 1)), ValueError,
     "helicity label must be 1 or 2, got 3"),
    (lambda p: SuperpositionTerm(1.0, ("p", 1), (p, 1)), TypeError,
     "slot_a must be (FourMomentum, helicity)"),
    (lambda p: SuperpositionTerm(math.nan, (p, 1), (p, 2)), ValueError,
     "coefficient must be finite, got (nan+0j)"),
], ids=["helicity", "slot", "coefficient"])
def test_every_consumer_of_a_superposition_refuses_a_bad_term_as_assembly_does(bad, error, message):
    """``assemble_state_vector`` is the superposition's one boundary: each consumer of the terms
    goes through it, so each refuses a bad second term with the same error."""
    p = momentum(1.0)
    terms = (SuperpositionTerm(1.0, (p, 1), (p, 2)), bad(p))
    b = BoostSpec.from_polar_angle(1.0, 0.5)
    consumers = {
        "assemble_state_vector": assemble_state_vector,
        "chiral_project_vector": lambda t: chiral_project_vector(t, 0, 1),
        "delta_global": lambda t: delta_global(t, b),
        "analytic_boosted_bloch": lambda t: analytic_boosted_bloch(t, b),
    }
    for name, consume in consumers.items():
        with pytest.raises(error) as info:
            consume(terms)
        assert str(info.value) == message, name


def test_assembly_refuses_an_empty_or_mixed_mass_superposition():
    """``assemble_state_vector`` is the superposition's one boundary: it needs a term, and every
    slot of every term at one mass, to 1e-12 relative."""
    p = momentum(1.0)
    with pytest.raises(ValueError, match="superposition needs at least one term"):
        assemble_state_vector(())
    heavy = FourMomentum.from_rapidity(2.0, 1.0, E_Z)
    with pytest.raises(ValueError, match=r"slot masses differ: 1\.0 and 2\.0"):
        assemble_state_vector([SuperpositionTerm(1.0, (p, 1), (heavy, 1))])
    mixed = (SuperpositionTerm(1.0, (p, 1), (p, 2)), SuperpositionTerm(1.0, (heavy, 1), (heavy, 2)))
    with pytest.raises(ValueError, match="slot masses differ"):
        assemble_state_vector(mixed)
    near = FourMomentum.from_rapidity(1.0 + 5e-13, 1.0, E_Z)  # within the 1e-12 rule
    assemble_state_vector((SuperpositionTerm(1.0, (p, 1), (near, 2)),))


def test_chiral_label_validation():
    with pytest.raises(ValueError, match="must be 0 or 1"):
        chiral_project_vector(make_psi2(1.0), 0, 2)


def test_single_term_assembles_to_kron():
    p, q = momentum(0.9), momentum(1.4, -1)
    vec = assemble_state_vector((SuperpositionTerm(2.0, (p, 1), (q, 2)),))
    expected = kron(bispinor_u(p, 1), bispinor_u(q, 2))
    assert_allclose(vec, expected, atol=1e-15)  # coefficient scale divides out


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [1e300, 1.7e308, 1e-320, 5e-324])
def test_coefficients_are_scale_free_across_the_float_range(scale):
    """Neither the squared norm's overflow nor a subnormal coefficient reaches the state."""
    p, q = momentum(0.9), momentum(1.4, -1)

    def state(c):
        return SuperpositionTerm(c, (p, 1), (q, 2)), SuperpositionTerm(1j * c, (q, 1), (p, 1))

    vec = assemble_state_vector(state(scale))
    assert abs(np.linalg.norm(vec) - 1.0) <= 1e-15
    assert_allclose(vec, assemble_state_vector(state(1.0)), rtol=0, atol=1e-16)


def test_cancelling_superposition_raises():
    p = momentum(1.0)
    st = (
        SuperpositionTerm(1.0, (p, 1), (p, 2)),
        SuperpositionTerm(-1.0, (p, 1), (p, 2)),
    )
    with pytest.raises(ValueError, match="cancels to the zero vector"):
        assemble_state_vector(st)


def test_outer_of_state_vector_matches_blockwise_oracle():
    """Independent construction: rho = sum_ij c_i c_j^* (uA_i uA_j^+) x (uB_i uB_j^+)."""
    rng = np.random.default_rng(201)
    for _ in range(6):
        st = random_state(rng)
        vec = np.zeros(16, dtype=complex)
        for t in st:
            vec += t.coefficient * kron(
                bispinor_u(*t.slot_a), bispinor_u(*t.slot_b)
            )
        norm_sq = float(np.real(np.vdot(vec, vec)))
        if norm_sq < 1e-12:
            continue
        expected = np.zeros((16, 16), dtype=complex)
        for ti in st:
            for tj in st:
                ua_i = bispinor_u(*ti.slot_a)
                ua_j = bispinor_u(*tj.slot_a)
                ub_i = bispinor_u(*ti.slot_b)
                ub_j = bispinor_u(*tj.slot_b)
                w = ti.coefficient * np.conj(tj.coefficient)
                expected += w * kron(np.outer(ua_i, ua_j.conj()), np.outer(ub_i, ub_j.conj()))
        assert_allclose(outer(assemble_state_vector(st)), expected / norm_sq, atol=1e-12)


def test_state_vector_has_unit_norm():
    rng = np.random.default_rng(202)
    for _ in range(5):
        vec = assemble_state_vector(random_state(rng))
        assert vec.shape == (16,)
        assert abs(np.linalg.norm(vec) - 1.0) < 1e-15


# --------------------------------------------------------------------------
# scenario states
# --------------------------------------------------------------------------


def test_psi1_term_overlap_and_norm():
    """The two terms overlap by sech^2(w0), so the raw norm is tanh(w0)."""
    for w0 in (0.5, 1.0, 2.0):
        t1, t2 = make_psi1(w0)
        v1 = kron(bispinor_u(*t1.slot_a), bispinor_u(*t1.slot_b))
        v2 = kron(bispinor_u(*t2.slot_a), bispinor_u(*t2.slot_b))
        overlap = np.vdot(v1, v2)
        assert_allclose(overlap, 1.0 / math.cosh(w0) ** 2, atol=1e-13)
        raw = t1.coefficient * v1 + t2.coefficient * v2
        assert_allclose(np.linalg.norm(raw), math.tanh(w0), atol=1e-13)


def test_psi1_at_zero_rapidity_is_rest_singlet():
    """At exactly w0 = 0 the rest-frame convention decouples the helicity
    labels from the (vanishing) momentum directions, so the construction
    degenerates to the rest-frame spin singlet instead of cancelling."""
    vec = assemble_state_vector(make_psi1(0.0))
    rest = FourMomentum(M, M, np.zeros(3))
    u1, u2 = bispinor_u(rest, 1), bispinor_u(rest, 2)
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
        return assemble_state_vector(terms)

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
        swapped = tuple(SuperpositionTerm(-t.coefficient, t.slot_b, t.slot_a) for t in st)
        assert_allclose(
            assemble_state_vector(swapped), assemble_state_vector(st), atol=1e-14
        )


def test_psi2_not_antisymmetric_under_slot_swap():
    """The equal-helicity-label pair keeps its momenta attached to slots, so
    exchanging the slots produces a genuinely different state."""
    st = make_psi2(1.0)
    swapped = tuple(SuperpositionTerm(-t.coefficient, t.slot_b, t.slot_a) for t in st)
    overlap = abs(np.vdot(assemble_state_vector(swapped), assemble_state_vector(st)))
    assert overlap < 0.9


def test_psi2_differs_from_antisymmetrized_variant():
    """The two-term antisymmetrized state built from helicity-1 bispinors at
    opposite momenta is not the equal-label pair: their overlap is
    (1 + sech^2(w0))/2, frozen here at w0 = 1."""
    p, q = momentum(1.0), momentum(1.0, -1)
    anti = (
        SuperpositionTerm(INV_SQRT2, (p, 1), (q, 1)),
        SuperpositionTerm(-INV_SQRT2, (q, 1), (p, 1)),
    )
    overlap = abs(np.vdot(assemble_state_vector(anti), assemble_state_vector(make_psi2(1.0))))
    assert_allclose(overlap, (1.0 + SECH2_1) / 2.0, atol=1e-12)
    assert_allclose(overlap, 0.709987170807013, atol=1e-12)


# --------------------------------------------------------------------------
# chiral projection
# --------------------------------------------------------------------------


def test_the_package_exports_the_vector_edge_only():
    """The 16-index edge takes state vectors: the density-matrix builders are gone.  A
    superposition is a tuple of terms, a custom term a tuple of eight fields and a layout a tuple
    of tags, with no wrapper class."""
    import diracboost

    assert "chiral_project_vector" in diracboost.__all__
    assert "assemble_state_vector" in diracboost.__all__
    for module, gone in (
        (diracboost.states, "density_matrix"), (diracboost.states, "chiral_project"),
        (diracboost.states, "TwoParticleState"), (diracboost.tensor, "SubsystemLayout"),
        (diracboost.sweep, "CustomTermSpec"),
    ):
        assert gone not in diracboost.__all__
        assert not hasattr(diracboost, gone)
        assert not hasattr(module, gone)
    assert diracboost.TWO_PARTICLE_LAYOUT == ("PA", "SA", "PB", "SB")
    assert isinstance(make_psi2(1.0), tuple)


def test_chiral_project_matches_direct_projection():
    from diracboost.kinematics import chiral_projector

    st = make_psi2(1.0)
    vec = assemble_state_vector(st)
    for f in (0, 1):
        for g in (0, 1):
            raw = kron(chiral_projector(f), chiral_projector(g)) @ vec
            got = chiral_project_vector(st, f, g)
            assert_allclose(got, raw / np.linalg.norm(raw), atol=1e-15)


def test_chiral_project_output_is_chirality_eigenstate():
    gamma5_a = kron(GAMMA5, np.eye(4, dtype=complex))
    gamma5_b = kron(np.eye(4, dtype=complex), GAMMA5)
    st = make_psi3(1.0)
    for f in (0, 1):
        for g in (0, 1):
            vec = chiral_project_vector(st, f, g)
            assert abs(np.linalg.norm(vec) - 1.0) < 1e-15
            assert_allclose(gamma5_a @ vec, (-1.0) ** f * vec, atol=1e-15)
            assert_allclose(gamma5_b @ vec, (-1.0) ** g * vec, atol=1e-15)


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
    st = (
        SuperpositionTerm(c1 / scale, (p, 1), (q, 1)),
        SuperpositionTerm(c2 / scale, (q, 2), (q, 1)),
    )
    with pytest.raises(ValueError, match="annihilates"):
        chiral_project_vector(st, 0, 0)
    # the complementary label survives
    vec = chiral_project_vector(st, 1, 0)
    assert abs(np.linalg.norm(vec) - 1.0) < 1e-15


def test_equal_label_chiral_projection_boost_invariant_for_shared_momentum():
    """Both-slots-equal chirality of the shared-momentum singlet survives
    boosts untouched (spot check; the verification suite sweeps this)."""
    st = make_psi3(1.0)
    for f in (0, 1):
        vec = chiral_project_vector(st, f, f)
        for w, th in ((0.8, 0.3), (2.0, 1.2)):
            boosted, nu = boost_two_particle(vec, BoostSpec.from_polar_angle(w, th))
            assert abs(nu - 1.0) < 1e-12
            assert np.max(np.abs(boosted - vec)) < 1e-12


# --------------------------------------------------------------------------
# boosts of two-particle state vectors
# --------------------------------------------------------------------------


def test_boost_keeps_a_unit_vector():
    rng = np.random.default_rng(211)
    for _ in range(6):
        vec = assemble_state_vector(random_state(rng))
        b = BoostSpec.from_polar_angle(rng.uniform(0.0, 3.0), rng.uniform(0.0, math.pi))
        boosted, nu = boost_two_particle(vec, b)
        assert nu > 0.0
        assert boosted.shape == (16,)
        assert abs(np.linalg.norm(boosted) - 1.0) < 1e-15


def test_boost_inverse_recovers_state():
    vec = assemble_state_vector(make_psi2(1.0))
    b = BoostSpec.from_polar_angle(1.7, 0.6)
    boosted, _ = boost_two_particle(vec, b)
    back, _ = boost_two_particle(boosted, BoostSpec(-b.rapidity, b.direction))
    assert np.max(np.abs(back - vec)) < 1e-10


def test_boost_identity_is_exact():
    vec = assemble_state_vector(make_psi1(1.0))
    out, nu = boost_two_particle(vec, BoostSpec(0.0, E_Z))
    assert nu == 1.0
    assert np.array_equal(out, vec)
    assert out is not vec  # a copy, so callers cannot mutate the input


def test_boost_normalizer_equals_trace_form():
    """nu agrees with Tr[(S x S)^2 rho] — the operator is Hermitian."""
    vec = assemble_state_vector(make_psi2(1.0))
    for w, th in ((0.5, 0.0), (1.5, 1.0), (3.0, math.pi / 2)):
        b = BoostSpec.from_polar_angle(w, th)
        _, nu = boost_two_particle(vec, b)
        s_pair = kron(bispinor_boost(b), bispinor_boost(b))
        expected = float(np.real(np.trace(s_pair @ s_pair @ outer(vec))))
        assert_allclose(nu, expected, atol=1e-10)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("omega", [400.0, 1500.0])
def test_boost_overflow_names_the_rapidity(omega):
    vec = assemble_state_vector(make_psi2(1.0))
    with pytest.raises(ValueError, match=f"rapidity {omega:g} "):
        boost_two_particle(vec, BoostSpec(omega, E_Z))


def _states_to_boost() -> list[np.ndarray]:
    """psi1-psi3, every chiral projection of theirs that exists, and eight drawn unit vectors."""
    states = []
    for maker in (make_psi1, make_psi2, make_psi3):
        terms = maker(1.0)
        states.append(assemble_state_vector(terms))
        for f in (0, 1):
            for g in (0, 1):
                with contextlib.suppress(ValueError):  # the projection annihilates the state
                    states.append(chiral_project_vector(terms, f, g))
    drawn = np.random.default_rng(215).normal(size=(8, 16, 2)).view(complex)[..., 0]
    return states + list(drawn / np.linalg.norm(drawn, axis=1)[:, None])


def test_boost_batch_rows_equal_the_per_point_boost_bit_for_bit():
    """Each row of ``_boost_batch`` is ``boost_two_particle`` of its own boost, bits included:
    the identity rows (signed zeros too), negative rapidities, rapidities up to 60, polar and
    drawn 3-D directions."""
    rng = np.random.default_rng(216)
    rapidities = np.concatenate([[0.0, -0.0, 1e-8, -2.5, 60.0, -60.0], rng.uniform(-60, 60, 10)])
    thetas = rng.uniform(0.0, math.pi, len(rapidities))
    drawn = rng.normal(size=(len(rapidities), 3))
    states = _states_to_boost()
    assert len(states) == 3 + 10 + 8  # psi1's (0, 0) and (1, 1) projections annihilate it
    for directions in (_polar_directions(thetas), drawn / np.linalg.norm(drawn, axis=1)[:, None]):
        for psi in states:
            boosted, nu = _boost_batch(psi, rapidities, directions)
            for w, n, row, row_nu in zip(rapidities, directions, boosted, nu):
                want, want_nu = boost_two_particle(psi, BoostSpec(w, n))
                assert np.array_equal(row, want) and row_nu == want_nu, (w, n)


@pytest.mark.filterwarnings("error")
def test_boost_batch_names_the_rapidity_whose_nu_overflows():
    psi = assemble_state_vector(make_psi2(1.0))
    with pytest.raises(ValueError, match="at rapidity 400 "):
        _boost_batch(psi, [1.0, 400.0, 2.0], np.tile(E_Z, (3, 1)))


def test_boost_input_validation():
    """The boost takes a state's unit 16-vector; its density matrix is refused."""
    b = BoostSpec(1.0, E_Z)
    vec = assemble_state_vector(make_psi2(1.0))
    with pytest.raises(ValueError, match=r"shape \(16,\), got shape \(16, 16\)"):
        boost_two_particle(outer(vec), b)
    with pytest.raises(ValueError, match="unit norm"):
        boost_two_particle(2.0 * vec, b)


@pytest.mark.parametrize("omega", [16.5, 20.0, 28.0, 40.0, 60.0, 350.0, 1000.0])
def test_boost_along_the_momenta_keeps_nu_and_eg_at_any_rapidity(omega):
    """psi1 boosted along its momenta is unchanged: nu = 1 and E_G = 1/2.  The 16x16 product
    (S (x) S) rho (S (x) S)^dag lost this from omega = 16.5 (its rounding grows as
    eps cond(S (x) S)^2); in the eigenbasis of the boost nothing cancels, so it holds up to
    the largest rapidity a float boost can carry."""
    vec = assemble_state_vector(make_psi1(1.0))
    boosted, nu = boost_two_particle(vec, BoostSpec(omega, E_Z))
    assert abs(np.linalg.norm(boosted) - 1.0) <= 1e-12
    assert abs(nu - 1.0) <= 1e-12
    assert abs(global_entanglement(boosted) - 0.5) <= 1e-12


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
