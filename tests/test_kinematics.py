import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from diracboost.kinematics import (
    BOOST_GENERATORS,
    E_Z,
    GAMMA5,
    BoostSpec,
    FourMomentum,
    bispinor_boost,
    bispinor_u,
    bispinor_v,
    boost_four_vector,
    chiral_projector,
    helicity_spinor,
    sigma_dot,
    _boost_eigenbasis,
)
from diracboost.tensor import PAULI_X, kron

M = 1.0


def random_direction(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def random_momentum(rng, mass=M):
    return FourMomentum.from_rapidity(mass, rng.uniform(0.0, 3.0), random_direction(rng))


# --------------------------------------------------------------------------
# four-momenta
# --------------------------------------------------------------------------


def test_four_momentum_from_rapidity():
    w = 1.0
    p = FourMomentum.from_rapidity(M, w, E_Z)
    assert_allclose(p.energy, M * math.cosh(w), atol=1e-15)
    assert_allclose(p.p3, [0.0, 0.0, M * math.sinh(w)], atol=1e-15)
    assert_allclose(p.minkowski_norm_sq(), M**2, atol=1e-14)


def test_four_momentum_at_rest_and_on_shell():
    rest = FourMomentum(2.5, 2.5, np.zeros(3))
    assert rest.energy == 2.5 and rest.p_norm == 0.0
    p = FourMomentum(2.5, math.sqrt(2.5**2 + 0.09 + 0.16 + 1.44), [0.3, -0.4, 1.2])
    assert_allclose(p.p_norm, 1.3, atol=1e-15)


@pytest.mark.parametrize("w", [7.5, 10.0, 15.0, 20.0])
def test_four_momentum_from_large_rapidity_is_on_shell(w):
    # E^2 - p^2 rounds at eps E^2, far above 1e-10 m^2 once w >= 7.5
    p = FourMomentum.from_rapidity(M, w, E_Z)
    assert p.energy == M * math.cosh(w)
    with pytest.raises(ValueError, match="off shell.*relative to E\\^2"):
        FourMomentum(M, p.energy, p.p3 * (1.0 + 1e-6))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("w", [356.0, 800.0])
def test_four_momentum_beyond_the_float_range_names_the_rapidity(w):
    with pytest.raises(ValueError, match=f"rapidity {w:g} leaves the float range"):
        FourMomentum.from_rapidity(M, w, E_Z)


def test_four_momentum_validation():
    with pytest.raises(ValueError, match="off shell"):
        FourMomentum(M, 2.0, [0.0, 0.0, 0.1])
    with pytest.raises(ValueError, match="below mass"):
        FourMomentum(M, 0.5, [0.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="mass must be positive"):
        FourMomentum(-1.0, 1.0, [0.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="3-vector"):
        FourMomentum(M, 1.0, [0.0, 0.0])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_four_momentum_rejects_a_non_finite_component(bad):
    with pytest.raises(ValueError, match="off shell"):
        FourMomentum(M, 1.0, [bad, 0.0, 0.0])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_four_momentum_rejects_a_non_finite_energy(bad):
    with pytest.raises(ValueError, match=f"^energy must be finite, got {bad!r}$"):
        FourMomentum(M, bad, [0.0, 0.0, 0.0])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("build,message", [
    (lambda: BoostSpec(1.0, [1e300, 1e300, 0.0]), r"unit vector, \|n\| = 1.414213562373095.e\+300"),
    (lambda: BoostSpec(1.0, [1.7e308] * 3), r"unit vector, \|n\| = inf$"),
    (lambda: FourMomentum(M, 2.0, [1e200, 0.0, 0.0]), r"off shell: .* = inf exceeds"),
    (lambda: FourMomentum.from_rapidity(1e300, 300.0, E_Z), r"^four-momentum at rapidity 300 "),
    (lambda: FourMomentum(M, np.float64(1e200), [1e200, 0.0, 0.0]), r"rapidity 461.21 leaves"),
    (lambda: FourMomentum.from_rapidity(math.inf, 1.0, E_Z), r"^mass must be .* got inf$"),
    (lambda: FourMomentum.from_rapidity(-math.inf, 1.0, E_Z), r"^mass must be .* got -inf$"),
], ids=["direction", "direction-past-the-float-range", "momentum", "mass-times-cosh",
        "numpy-energy", "infinite-mass", "negative-infinite-mass"])
def test_a_component_past_1e154_is_refused_without_a_warning(build, message):
    """Squared or multiplied, such a value overflows; the checks refuse it with no numpy
    warning, before ``inf * 0`` or a numpy scalar product can raise one."""
    with pytest.raises(ValueError, match=message):
        build()


def test_boost_spec_validation():
    with pytest.raises(ValueError, match="unit vector"):
        BoostSpec(1.0, [0.0, 0.0, 2.0])
    with pytest.raises(ValueError, match="finite"):
        BoostSpec(math.inf, E_Z)
    b = BoostSpec.from_polar_angle(0.7, math.pi / 3)
    assert_allclose(b.direction, [math.sin(math.pi / 3), 0.0, math.cos(math.pi / 3)], atol=1e-15)


# --------------------------------------------------------------------------
# helicity spinors
# --------------------------------------------------------------------------


def test_helicity_spinor_along_axes():
    pz = FourMomentum.from_rapidity(M, 1.0, E_Z)
    assert_allclose(helicity_spinor(pz, 1), [1.0, 0.0], atol=1e-15)
    assert_allclose(helicity_spinor(pz, 2), [0.0, 1.0], atol=1e-15)
    mz = FourMomentum.from_rapidity(M, 1.0, -E_Z)
    assert_allclose(helicity_spinor(mz, 1), [0.0, 1.0], atol=1e-15)
    assert_allclose(helicity_spinor(mz, 2), [1.0, 0.0], atol=1e-15)
    px = FourMomentum.from_rapidity(M, 1.0, [1.0, 0.0, 0.0])
    inv = 1.0 / math.sqrt(2.0)
    assert_allclose(helicity_spinor(px, 1), [inv, inv], atol=1e-15)
    # the phase fix makes the leading component positive: (1, -1)/sqrt(2)
    assert_allclose(helicity_spinor(px, 2), [inv, -inv], atol=1e-15)


def test_helicity_spinor_rest_convention():
    rest = FourMomentum(M, M, np.zeros(3))
    assert_allclose(helicity_spinor(rest, 1), [1.0, 0.0], atol=0)
    assert_allclose(helicity_spinor(rest, 2), [0.0, 1.0], atol=0)


def test_helicity_spinor_eigenrelation():
    """(e_p . sigma) chi_s = +chi_1 and -chi_2 for random directions."""
    rng = np.random.default_rng(101)
    for _ in range(50):
        p = random_momentum(rng)
        n = p.p3 / p.p_norm
        for s, sign in ((1, +1.0), (2, -1.0)):
            chi = helicity_spinor(p, s)
            assert abs(np.linalg.norm(chi) - 1.0) < 1e-13
            assert_allclose(sigma_dot(n) @ chi, sign * chi, atol=1e-12)


def test_helicity_spinor_phase_convention():
    rng = np.random.default_rng(102)
    for _ in range(25):
        p = random_momentum(rng)
        for s in (1, 2):
            chi = helicity_spinor(p, s)
            lead = chi[np.abs(chi) > 1e-12][0]
            assert abs(lead.imag) < 1e-14
            assert lead.real > 0.0


def test_helicity_spinor_orthogonal_pair():
    rng = np.random.default_rng(103)
    for _ in range(10):
        p = random_momentum(rng)
        assert abs(np.vdot(helicity_spinor(p, 1), helicity_spinor(p, 2))) < 1e-13


@pytest.mark.parametrize("w", [0.3, 1.0, 2.5])
def test_helicity_spinor_signed_zeros_along_minus_z(w):
    """psi1 and psi2's -z momenta have p3 = (-0.0, -0.0, -k).  Their spinors keep numpy's
    signed zeros on every Python version: Python's own float + complex sum (3.14 on) would
    turn the -0.0 real part of the s=1 spinor's first component into +0.0."""
    p = FourMomentum.from_rapidity(M, w, -E_Z)
    expected = {1: np.array([complex(-0.0, 0.0), 1.0]), 2: np.array([1.0, 0.0], dtype=complex)}
    for s, chi in expected.items():
        assert helicity_spinor(p, s).tobytes() == chi.tobytes()


def test_helicity_spinor_rejects_bad_label():
    with pytest.raises(ValueError, match="helicity label"):
        helicity_spinor(FourMomentum(M, M, np.zeros(3)), 3)


# --------------------------------------------------------------------------
# bispinors
# --------------------------------------------------------------------------


def test_bispinor_rest_forms():
    rest = FourMomentum(M, M, np.zeros(3))
    assert_allclose(bispinor_u(rest, 1), [1, 0, 0, 0], atol=0)
    assert_allclose(bispinor_u(rest, 2), [0, 1, 0, 0], atol=0)
    assert_allclose(bispinor_v(rest, 1), [0, 0, 1, 0], atol=0)
    assert_allclose(bispinor_v(rest, 2), [0, 0, 0, 1], atol=0)


def test_bispinor_component_signs_along_z():
    """The lower block carries +|p| for helicity 1 and -|p| for helicity 2."""
    p = FourMomentum.from_rapidity(M, 1.0, E_Z)
    norm = math.sqrt(2.0 * p.energy * (p.energy + M))
    u1 = bispinor_u(p, 1)
    assert_allclose(u1, [(p.energy + M) / norm, 0.0, p.p_norm / norm, 0.0], atol=1e-15)
    u2 = bispinor_u(p, 2)
    assert_allclose(u2, [0.0, (p.energy + M) / norm, 0.0, -p.p_norm / norm], atol=1e-15)


def test_bispinor_unit_norm_and_orthogonality():
    rng = np.random.default_rng(111)
    for _ in range(30):
        p = random_momentum(rng)
        u1 = bispinor_u(p, 1)
        u2 = bispinor_u(p, 2)
        assert abs(np.linalg.norm(u1) - 1.0) < 1e-12
        assert abs(np.linalg.norm(u2) - 1.0) < 1e-12
        assert abs(np.vdot(u1, u2)) < 1e-12


def test_bispinor_u_v_cross_orthogonality():
    """u at p is orthogonal to v at the reflected momentum -p."""
    rng = np.random.default_rng(112)
    for _ in range(30):
        p = random_momentum(rng)
        minus = FourMomentum(M, p.energy, -p.p3)
        for s in (1, 2):
            for r in (1, 2):
                ip = np.vdot(bispinor_u(p, s), bispinor_v(minus, r))
                assert abs(ip) < 1e-12


def test_bispinor_completeness():
    """sum_s u_s(p) u_s(p)^+ + v_s(-p) v_s(-p)^+ = I (the v block needs -p)."""
    rng = np.random.default_rng(113)
    for _ in range(30):
        p = random_momentum(rng)
        minus = FourMomentum(M, p.energy, -p.p3)
        acc = np.zeros((4, 4), dtype=complex)
        for s in (1, 2):
            us = bispinor_u(p, s)
            vs = bispinor_v(minus, s)
            acc += np.outer(us, us.conj()) + np.outer(vs, vs.conj())
        assert_allclose(acc, np.eye(4), atol=1e-12)


def test_bispinor_is_parity_spin_product():
    """Each bispinor factorizes as (parity two-vector) x (helicity spinor)."""
    rng = np.random.default_rng(114)
    for _ in range(20):
        p = random_momentum(rng)
        for s in (1, 2):
            amps = bispinor_u(p, s).reshape(2, 2)
            sv = np.linalg.svd(amps, compute_uv=False)
            assert sv[1] < 1e-13
            chi = helicity_spinor(p, s)
            # both rows are multiples of chi
            for row in amps:
                assert abs(row @ np.array([chi[1], -chi[0]])) < 1e-13


def test_bispinor_validation():
    rest = FourMomentum(M, M, np.zeros(3))
    for make in (bispinor_u, bispinor_v):
        with pytest.raises(ValueError, match="helicity label"):
            make(rest, 0)


@pytest.mark.parametrize("label", [1, 2])
def test_a_float_helicity_label_gives_the_integer_labels_bits(label):
    """``helicity_spinor`` works with the int its label check returns, so 1.0 and 2.0 are the
    labels 1 and 2 in every function that takes one."""
    moving = FourMomentum.from_rapidity(M, 0.7, np.array([0.48, 0.6, 0.64]))
    for p in (FourMomentum(M, M, np.zeros(3)), moving):
        for make in (helicity_spinor, bispinor_u, bispinor_v):
            assert make(p, float(label)).tobytes() == make(p, label).tobytes(), make.__name__


# --------------------------------------------------------------------------
# four-vector boosts
# --------------------------------------------------------------------------


def test_boost_four_vector_identity():
    p = FourMomentum.from_rapidity(M, 1.3, E_Z)
    out = boost_four_vector(p, BoostSpec(0.0, E_Z))
    assert_allclose(out.energy, p.energy, atol=0)
    assert_allclose(out.p3, p.p3, atol=0)


def test_boost_to_rest_frame():
    """Boosting along the motion with matching rapidity reaches the rest frame."""
    p = FourMomentum.from_rapidity(M, 1.0, E_Z)
    out = boost_four_vector(p, BoostSpec(1.0, E_Z))
    assert_allclose(out.energy, M, atol=1e-14)
    assert_allclose(out.p3, [0.0, 0.0, 0.0], atol=1e-14)


def test_boost_of_rest_particle_recoils():
    """A rest particle seen from a frame boosted along +n moves along -n."""
    out = boost_four_vector(FourMomentum(M, M, np.zeros(3)), BoostSpec(0.8, E_Z))
    assert_allclose(out.energy, M * math.cosh(0.8), atol=1e-15)
    assert_allclose(out.p3, [0.0, 0.0, -M * math.sinh(0.8)], atol=1e-15)


def test_boost_four_vector_matrix_oracle():
    """Componentwise agreement with the explicit 4x4 Lorentz matrix."""
    rng = np.random.default_rng(121)
    for _ in range(25):
        p = random_momentum(rng)
        w = rng.uniform(-2.0, 2.0)
        n = random_direction(rng)
        ch, sh = math.cosh(w), math.sinh(w)
        lam = np.eye(4)
        lam[0, 0] = ch
        lam[0, 1:] = -sh * n
        lam[1:, 0] = -sh * n
        lam[1:, 1:] = np.eye(3) + (ch - 1.0) * np.outer(n, n)
        vec = lam @ np.concatenate([[p.energy], p.p3])
        out = boost_four_vector(p, BoostSpec(w, n))
        assert_allclose(np.concatenate([[out.energy], out.p3]), vec, atol=1e-12)


def test_boost_four_vector_invertible_and_isometric():
    rng = np.random.default_rng(122)
    for _ in range(25):
        p = random_momentum(rng)
        b = BoostSpec(rng.uniform(-2.0, 2.0), random_direction(rng))
        out = boost_four_vector(p, b)
        assert abs(out.minkowski_norm_sq() - p.minkowski_norm_sq()) < 1e-12
        back = boost_four_vector(out, BoostSpec(-b.rapidity, b.direction))
        assert_allclose(back.p3, p.p3, atol=1e-12)
        assert abs(back.energy - p.energy) < 1e-12


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("w0,w", [(0.0, 400.0), (0.0, 800.0), (300.0, 500.0)])
def test_boost_four_vector_overflow_names_the_rapidity(w0, w):
    p = FourMomentum.from_rapidity(M, w0, E_Z)
    with pytest.raises(ValueError, match=f"rapidity {w:g} leaves the float range"):
        boost_four_vector(p, BoostSpec(w, -E_Z))


# --------------------------------------------------------------------------
# spinor-space boosts
# --------------------------------------------------------------------------


def test_bispinor_boost_identity():
    assert_allclose(bispinor_boost(BoostSpec(0.0, E_Z)), np.eye(4), atol=0)


@pytest.mark.filterwarnings("error")
def test_bispinor_boost_overflow_names_the_rapidity():
    with pytest.raises(ValueError, match="rapidity 1500 leaves the float range"):
        bispinor_boost(BoostSpec(1500.0, E_Z))


def test_bispinor_boost_is_bit_identical_to_the_sigma_dot_formula():
    """The shared generators reproduce cosh(w/2) I - sinh(w/2) sigma_x (x) n.sigma exactly."""
    rng = np.random.default_rng(134)
    directions = [E_Z, -E_Z, np.array([1.0, 0.0, 0.0])] + [random_direction(rng) for _ in range(5)]
    for n in directions:
        for w in (-3.7, -0.2, 0.0, 0.5, 1.3, 6.0, 24.0):
            half = w / 2.0
            formula = math.cosh(half) * np.eye(4, dtype=complex) - math.sinh(half) * kron(
                PAULI_X, sigma_dot(n)
            )
            assert np.array_equal(bispinor_boost(BoostSpec(w, n)), formula), (w, n)


def test_bispinor_boost_matrix_properties():
    rng = np.random.default_rng(131)
    for _ in range(20):
        b = BoostSpec(rng.uniform(-2.5, 2.5), random_direction(rng))
        s = bispinor_boost(b)
        assert_allclose(s, s.conj().T, atol=1e-14)
        assert abs(np.linalg.det(s) - 1.0) < 1e-11
        back = bispinor_boost(BoostSpec(-b.rapidity, b.direction))
        assert_allclose(s @ back, np.eye(4), atol=1e-12)
    s = bispinor_boost(BoostSpec(1.0, E_Z))
    assert np.max(np.abs(s @ s.conj().T - np.eye(4))) > 0.1  # not unitary


def test_bispinor_boost_collinear_composition():
    rng = np.random.default_rng(132)
    n = random_direction(rng)
    for w1, w2 in ((0.3, 0.9), (-1.1, 0.4), (2.0, -2.0)):
        combined = bispinor_boost(BoostSpec(w1 + w2, n))
        chained = bispinor_boost(BoostSpec(w1, n)) @ bispinor_boost(BoostSpec(w2, n))
        assert_allclose(combined, chained, atol=1e-12)


def test_bispinor_boost_commutes_with_chirality():
    rng = np.random.default_rng(133)
    for _ in range(20):
        s = bispinor_boost(BoostSpec(rng.uniform(-2.5, 2.5), random_direction(rng)))
        assert np.max(np.abs(GAMMA5 @ s - s @ GAMMA5)) < 1e-14


def test_boost_eigenbasis_diagonalizes_the_generator_to_relative_accuracy():
    """Columns: chirality (x) spin along n, for eigenvalues -1, -1, 1, 1 of sigma_x (x) n.sigma."""
    rng = np.random.default_rng(134)
    near = [[math.sin(t), 0.0, math.cos(t)] for t in (1e-12, 1e-8, math.pi - 1e-9, math.pi)]
    directions = np.array([*(random_direction(rng) for _ in range(40)), E_Z, -E_Z, *near])
    u = _boost_eigenbasis(directions)
    uh = u.conj().transpose(0, 2, 1)
    generators = np.tensordot(directions, BOOST_GENERATORS, axes=1)
    assert np.max(np.abs(uh @ generators @ u - np.diag([-1.0, -1.0, 1.0, 1.0]))) < 1e-15
    assert np.max(np.abs(uh @ GAMMA5 @ u - np.diag([1.0, -1.0, 1.0, -1.0]))) < 1e-15
    assert np.max(np.abs(uh @ u - np.eye(4))) < 1e-15
    # the small components of a near-z direction carry sin(theta/2) to relative accuracy
    for theta, basis in zip((1e-12, 1e-8), u[-4:-2]):
        small = np.abs(basis)[np.abs(basis) < 0.1]
        assert_allclose(small, math.sin(theta / 2.0) / math.sqrt(2.0), rtol=1e-15)


@pytest.mark.parametrize(
    "axis_sign,label_map",
    [(+1.0, {1: 2, 2: 1}), (-1.0, {1: 1, 2: 2})],
)
def test_rest_boost_label_bookkeeping(axis_sign, label_map):
    """Boosting a rest bispinor reproduces a helicity eigenspinor at the
    transformed momentum.  A boost along +z sends the momentum to -z, so the
    helicity label flips; along -z it is preserved."""
    rest = FourMomentum(M, M, np.zeros(3))
    for w in (0.4, 1.0, 2.2):
        b = BoostSpec(w, axis_sign * E_Z)
        p_new = boost_four_vector(rest, b)
        for s in (1, 2):
            moved = bispinor_boost(b) @ bispinor_u(rest, s)
            moved /= np.linalg.norm(moved)
            target = bispinor_u(p_new, label_map[s])
            assert_allclose(moved, target, atol=1e-12)


def test_boost_then_measure_momentum_consistency():
    """S(b) u(p) is the u bispinor of the boosted momentum (up to label)."""
    rng = np.random.default_rng(134)
    for _ in range(20):
        p = random_momentum(rng)
        b = BoostSpec(rng.uniform(0.0, 2.0), random_direction(rng))
        p_new = boost_four_vector(p, b)
        moved = bispinor_boost(b) @ bispinor_u(p, 1)
        moved /= np.linalg.norm(moved)
        # general directions mix the helicity labels: expand in the new basis
        c1 = np.vdot(bispinor_u(p_new, 1), moved)
        c2 = np.vdot(bispinor_u(p_new, 2), moved)
        assert abs(abs(c1) ** 2 + abs(c2) ** 2 - 1.0) < 1e-10


# --------------------------------------------------------------------------
# chiral projectors
# --------------------------------------------------------------------------


def test_chiral_projectors_resolve_identity():
    p0, p1 = chiral_projector(0), chiral_projector(1)
    assert_allclose(p0 + p1, np.eye(4), atol=0)
    assert_allclose(p0 @ p0, p0, atol=1e-15)
    assert_allclose(p1 @ p1, p1, atol=1e-15)
    assert_allclose(p0 @ p1, np.zeros((4, 4)), atol=1e-15)
    assert abs(np.trace(p0) - 2.0) < 1e-15
    assert abs(np.trace(p1) - 2.0) < 1e-15


def test_chiral_projector_eigenvalue_signs():
    for f in (0, 1):
        proj = chiral_projector(f)
        assert_allclose(GAMMA5 @ proj, (-1.0) ** f * proj, atol=1e-15)


def test_chiral_projector_rejects_bad_label():
    with pytest.raises(ValueError, match="chiral label"):
        chiral_projector(2)
