import math
import re
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

import diracboost.kernel
import diracboost.measures
from diracboost.kinematics import E_Z, BoostSpec, FourMomentum
from diracboost.measures import (
    BlochVector,
    _analytic_bloch_batch,
    analytic_boosted_bloch,
    bloch_vector,
    delta_global,
    delta_negativity,
    global_entanglement,
    linear_entropy,
    negativity,
    single_qubit_reductions,
    spin_spin_reduced,
)
from diracboost.states import (
    TWO_PARTICLE_LAYOUT,
    SuperpositionTerm,
    assemble_state_vector,
    boost_two_particle,
    make_psi1,
    make_psi2,
    make_psi3,
)
from diracboost.sweep import GridSpec, SweepConfig, SweepError, run_sweep
from diracboost.tensor import check_density, check_state, kron, outer, partial_trace

M = 1.0
SECH2_1 = 1.0 / math.cosh(1.0) ** 2


def qubit_density(rng):
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def product_rest_state():
    rest = FourMomentum(M, M, np.zeros(3))
    return (SuperpositionTerm(1.0, (rest, 1), (rest, 2)),)


def bell_spin_density():
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1.0 / math.sqrt(2.0)
    return outer(v)


# --------------------------------------------------------------------------
# linear entropy and Bloch vectors
# --------------------------------------------------------------------------


def test_linear_entropy_pure_and_mixed_limits():
    pure = np.zeros((2, 2), dtype=complex)
    pure[0, 0] = 1.0
    assert linear_entropy(pure) == 0.0
    assert_allclose(linear_entropy(np.eye(2) / 2), 1.0, atol=1e-15)
    assert_allclose(linear_entropy(np.eye(4) / 4), 1.0, atol=1e-15)


def test_linear_entropy_never_negative_on_pure_states():
    rng = np.random.default_rng(301)
    for _ in range(20):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        v /= np.linalg.norm(v)
        assert linear_entropy(outer(v)) >= 0.0


def test_linear_entropy_validation():
    with pytest.raises(ValueError, match="trace"):
        linear_entropy(np.eye(2))
    with pytest.raises(ValueError, match="square"):
        linear_entropy(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="dimension at least 2"):
        linear_entropy(np.ones((1, 1)))


def test_bloch_vector_cardinal_states():
    z_up = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    x_up = np.full((2, 2), 0.5, dtype=complex)
    y_up = np.array([[0.5, -0.5j], [0.5j, 0.5]], dtype=complex)
    for rho, expected, atol in ((z_up, [0.0, 0.0, 1.0], 1e-15), (np.eye(2) / 2, [0.0] * 3, 0),
                                (x_up, [1.0, 0.0, 0.0], 1e-15), (y_up, [0.0, 1.0, 0.0], 1e-15)):
        v = bloch_vector(rho)
        assert_allclose([v.x, v.y, v.z], expected, atol=atol)


def test_bloch_vector_rejects_wrong_shape():
    with pytest.raises(ValueError, match="2x2"):
        bloch_vector(np.eye(4) / 4)


def test_per_point_measures_reject_a_non_hermitian_or_off_trace_matrix():
    skewed = np.array([[0.5, 0.3], [0.0, 0.5]], dtype=complex)
    for measure in (bloch_vector, linear_entropy):
        with pytest.raises(ValueError, match="Hermitian"):
            measure(skewed)
    off_norm = assemble_state_vector(make_psi2(1.0)) * (1.0 + 5e-9)
    for measure in (spin_spin_reduced, global_entanglement, single_qubit_reductions):
        with pytest.raises(ValueError, match="unit norm"):
            measure(off_norm)


#: The per-point functions, each as a one-argument call, with the size of what it takes: 16 is
#: a state vector of shape (16,), any other size a density matrix of that size.
PER_POINT = {
    "boost_two_particle": (lambda psi: boost_two_particle(psi, BoostSpec(0.7, E_Z)), 16),
    "global_entanglement": (global_entanglement, 16),
    "single_qubit_reductions": (single_qubit_reductions, 16),
    "spin_spin_reduced": (spin_spin_reduced, 16),
    "negativity": (negativity, 4),
    "bloch_vector": (bloch_vector, 2),
    "linear_entropy": (linear_entropy, 2),
}
STATE_DEFECTS = ("shape", "length", "norm", "zero", "nonfinite-nan", "nonfinite-inf")
DENSITY_DEFECTS = ("shape", "trace", "hermitian", "psd", "nonfinite-nan", "nonfinite-inf")


def valid_vector(dim):
    rng = np.random.default_rng(90 + dim)
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def valid_input(dim):
    return valid_vector(16) if dim == 16 else outer(valid_vector(dim))


def defective_state(defect):
    """A vector that breaks one part of the state-vector rule, with the message it must give."""
    psi = valid_vector(16)
    if defect == "shape":  # the state's density matrix
        return outer(psi), "expected a state vector of shape (16,), got shape (16, 16)"
    if defect == "length":  # a unit two-qubit state, one particle's worth of slots
        return valid_vector(4), "expected a state vector of shape (16,), got shape (4,)"
    if defect == "norm":  # |psi|^2 = 16 * 0.375^2, exactly
        return np.full(16, 0.375, complex), "state vector must have unit norm, got |psi|^2 = 2.25"
    if defect == "zero":  # what a projection that annihilates the state leaves
        return np.zeros(16, complex), "state vector must have unit norm, got |psi|^2 = 0.0"
    psi[3] = np.nan if defect == "nonfinite-nan" else np.inf
    return psi, "state vector has a non-finite entry"


def defective(name, dim, defect):
    """An input that breaks one part of the state-vector (dim 16) or density-matrix rule, with
    the message it must give."""
    if dim == 16:
        return defective_state(defect)
    if defect == "shape":
        if name == "linear_entropy":
            return np.eye(2, 3) / 2, "expected a square matrix, got shape (2, 3)"
        other = 4 if dim != 4 else 2
        message = f"expected a {dim}x{dim} density matrix, got shape ({other}, {other})"
        return valid_input(other), message
    rho = valid_input(dim)
    if defect == "trace":
        return rho * (1.0 + 1e-8), "density matrix must have unit trace, got ("
    if defect == "psd":  # Hermitian with unit trace, but with an eigenvalue of -0.1
        rho = np.diag([1.1] + [0.0] * (dim - 2) + [-0.1]).astype(complex)
        return rho, "density matrix is not positive semidefinite: smallest eigenvalue -1.000e-01"
    if defect == "nonfinite-nan":  # NaN passes every comparison the rules above make
        rho[0, 0] = np.nan
        return rho, "density matrix has a non-finite entry"
    if defect == "nonfinite-inf":  # a Hermitian pair of infinite entries
        rho[0, 1] = rho[1, 0] = np.inf
        return rho, "density matrix has a non-finite entry"
    rho[0, 1] += 1e-6  # the trace stays 1
    return rho, "density matrix is not Hermitian: max|H - H†| = 1.000e-06 exceeds 1e-10"


@pytest.mark.parametrize("name, defect", [
    (name, defect) for name, (_, dim) in PER_POINT.items()
    for defect in (STATE_DEFECTS if dim == 16 else DENSITY_DEFECTS)
])
def test_per_point_function_rejects_each_broken_rule_with_its_message(name, defect):
    function, dim = PER_POINT[name]
    value, message = defective(name, dim, defect)
    with pytest.raises(ValueError, match=re.escape(message)):
        function(value)


def test_each_per_point_function_validates_its_input_once(monkeypatch):
    """check_state or check_density runs once per public call; what a function derives from
    its input is not checked again, boost_two_particle's output included."""
    calls = []

    def counted_state(psi):
        calls.append(16)
        return check_state(psi)

    def counted_density(rho, dim):
        calls.append(dim)
        return check_density(rho, dim)

    # patch every binding, as `from .tensor import check_density` copies it into each module
    for check, counted in ((check_state, counted_state), (check_density, counted_density)):
        for name, module in list(sys.modules.items()):
            bound = getattr(module, check.__name__, None)
            if name.startswith("diracboost.") and bound is check:
                monkeypatch.setattr(module, check.__name__, counted)
    for name, (function, dim) in PER_POINT.items():
        calls.clear()
        function(valid_input(dim))
        assert calls == [dim], name


def test_reductions_equal_partial_trace():
    rng = np.random.default_rng(97)
    for _ in range(10):
        psi = rng.normal(size=16) + 1j * rng.normal(size=16)
        psi /= np.linalg.norm(psi)
        rho = outer(psi)
        for tag, reduced in single_qubit_reductions(psi).items():
            want = partial_trace(rho, TWO_PARTICLE_LAYOUT, (tag,))
            assert np.max(np.abs(reduced - want)) <= 1e-15
        spin_pair = partial_trace(rho, TWO_PARTICLE_LAYOUT, ("SA", "SB"))
        assert np.max(np.abs(spin_spin_reduced(psi) - spin_pair)) <= 1e-15


def test_bloch_vector_ball_constraint():
    with pytest.raises(ValueError, match="unit ball"):
        BlochVector(1.1, 0.0, 0.3)


def test_bloch_vector_takes_every_qubit_check_density_accepts():
    """check_density admits a 2x2 rho with trace 1 + 1e-10 and smallest eigenvalue -1e-10, so
    |r| up to 1 + 3e-10; bloch_vector returns such a vector, and BlochVector refuses a longer."""
    r = 1.0 + 1.5e-10
    rho = np.diag([1.0 + r, 1.0 - r]) / 2.0
    check_density(rho, 2)
    assert bloch_vector(rho).z == r
    tol = 0.99e-10  # the trace and the smallest eigenvalue just inside their limits
    edge = np.diag([1.0 + 2.0 * tol, -tol])
    check_density(edge, 2)
    assert bloch_vector(edge).z == pytest.approx(1.0 + 3.0 * tol, abs=1e-15)
    with pytest.raises(ValueError, match="unit ball"):
        BlochVector(0.0, 0.0, 1.0 + 3.1e-10)


def test_linear_entropy_complements_bloch_norm():
    """For one qubit, E_L = 1 - |a|^2 with a the Bloch vector."""
    rng = np.random.default_rng(302)
    for _ in range(25):
        rho = qubit_density(rng)
        a = bloch_vector(rho)
        assert_allclose(linear_entropy(rho), 1.0 - a.norm_sq, atol=1e-12)


# --------------------------------------------------------------------------
# global entanglement
# --------------------------------------------------------------------------


def test_global_entanglement_product_state_vanishes():
    psi = assemble_state_vector(product_rest_state())
    assert abs(global_entanglement(psi)) < 1e-12


def test_global_entanglement_reference_values():
    assert_allclose(global_entanglement(assemble_state_vector(make_psi1(1.0))), 0.5, atol=1e-12)
    assert_allclose(
        global_entanglement(assemble_state_vector(make_psi2(1.0))),
        0.790012829192987,
        atol=1e-12,
    )


def test_global_entanglement_equals_bloch_reconstruction():
    """Dual route: mean linear entropy vs 1 - mean squared Bloch length."""
    rng = np.random.default_rng(303)
    for _ in range(10):
        v = rng.normal(size=16) + 1j * rng.normal(size=16)
        v /= np.linalg.norm(v)
        blochs = [bloch_vector(r) for r in single_qubit_reductions(v).values()]
        reconstructed = 1.0 - sum(b.norm_sq for b in blochs) / 4.0
        assert_allclose(global_entanglement(v), reconstructed, atol=1e-12)


# --------------------------------------------------------------------------
# spin-spin reduction and negativity
# --------------------------------------------------------------------------


def test_spin_spin_reduced_psi2_matrix():
    """Frozen reference: the equal-label pair reduces to a singlet-like block
    with coherence damped by sech^2(w0)."""
    ss = spin_spin_reduced(assemble_state_vector(make_psi2(1.0)))
    expected = np.zeros((4, 4), dtype=complex)
    expected[1, 1] = expected[2, 2] = 0.5
    expected[1, 2] = expected[2, 1] = -SECH2_1 / 2.0
    assert_allclose(ss, expected, atol=1e-12)


def test_spin_spin_reduced_psi3_at_rest_is_singlet():
    psi, _ = boost_two_particle(
        assemble_state_vector(make_psi3(1.0)), BoostSpec.from_polar_angle(1.0, 0.0)
    )
    singlet = np.zeros(4, dtype=complex)
    singlet[1] = 1.0 / math.sqrt(2.0)
    singlet[2] = -1.0 / math.sqrt(2.0)
    assert_allclose(spin_spin_reduced(psi), outer(singlet), atol=1e-12)


def test_negativity_reference_points():
    assert_allclose(negativity(bell_spin_density()), 1.0, atol=1e-12)
    product = kron(
        np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex),
        np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex),
    )
    assert negativity(product) == 0.0
    assert_allclose(
        negativity(spin_spin_reduced(assemble_state_vector(make_psi2(1.0)))),
        SECH2_1,
        atol=1e-12,
    )


def test_negativity_validation():
    with pytest.raises(ValueError, match="trace"):
        negativity(np.eye(4))


# --------------------------------------------------------------------------
# boost deltas
# --------------------------------------------------------------------------


def test_deltas_vanish_for_identity_boost():
    st = make_psi2(1.0)
    b = BoostSpec(0.0, E_Z)
    assert delta_global(st, b) == 0.0
    assert delta_negativity(st, b) == 0.0


@pytest.mark.parametrize("scenario", ["psi1", "psi2", "psi3"])
def test_deltas_match_the_sweep_delta_columns(scenario):
    cfg = SweepConfig(
        scenario=scenario,
        omega0=1.3,
        omega_grid=GridSpec(0.0, 3.0, 7),
        theta_grid=GridSpec(0.0, math.pi, 5),
        measures=("delta_eg", "delta_negativity"),
    )
    st = {"psi1": make_psi1, "psi2": make_psi2, "psi3": make_psi3}[scenario](cfg.omega0)
    for row in run_sweep(cfg):
        b = BoostSpec.from_polar_angle(row["omega"], row["theta"])
        assert abs(delta_global(st, b) - row["delta_eg"]) <= 1e-12
        assert abs(delta_negativity(st, b) - row["delta_negativity"]) <= 1e-12


@pytest.mark.filterwarnings("error")
def test_delta_overflow_names_the_boost():
    with pytest.raises(SweepError, match=r"omega=400, theta=0\).*nu = inf"):
        delta_global(make_psi2(1.0), BoostSpec(400.0, E_Z))


@pytest.mark.parametrize("delta", [delta_global, delta_negativity])
def test_delta_of_a_cancelling_boost_is_a_value_error(delta):
    # a boost the kernel cannot measure, here one whose nu overflows, is a ValueError
    with pytest.raises(ValueError, match=r"omega=400, theta=0\).*nu = inf"):
        delta(make_psi2(1.0), BoostSpec(400.0, E_Z))


@pytest.mark.parametrize("delta", [delta_global, delta_negativity])
def test_deltas_of_psi1_along_its_momenta_vanish_at_large_rapidity(delta):
    assert abs(delta(make_psi1(1.0), BoostSpec(20.0, E_Z))) <= 1e-12


def test_psi1_parallel_boost_leaves_measures_alone():
    st = make_psi1(1.0)
    for w in (0.5, 2.0, 5.0):
        b = BoostSpec.from_polar_angle(w, 0.0)
        assert abs(delta_global(st, b)) < 1e-10
        assert abs(delta_negativity(st, b)) < 1e-10


def test_psi1_transverse_boost_saturates():
    st = make_psi1(1.0)
    b = BoostSpec.from_polar_angle(10.0, math.pi / 2.0)
    gain = delta_global(st, b)
    assert gain > 0.49
    boosted, _ = boost_two_particle(assemble_state_vector(st), b)
    assert global_entanglement(boosted) > 0.99


def test_psi2_parallel_boost_closed_forms():
    """theta = 0 references derived from the two-term overlap algebra:
    E_G = 1 - [sech^2(w0-w) + sech^2(w0+w)]/4 and
    N = sech(w0-w) sech(w0+w), for w0 = 1."""
    st = make_psi2(1.0)
    psi0 = assemble_state_vector(st)
    for w in np.linspace(0.0, 4.0, 17):
        boosted, _ = boost_two_particle(psi0, BoostSpec.from_polar_angle(float(w), 0.0))
        eg = global_entanglement(boosted)
        neg = negativity(spin_spin_reduced(boosted))
        eg_ref = 1.0 - (1.0 / math.cosh(1.0 - w) ** 2 + 1.0 / math.cosh(1.0 + w) ** 2) / 4.0
        neg_ref = 1.0 / (math.cosh(1.0 - w) * math.cosh(1.0 + w))
        assert abs(eg - eg_ref) < 1e-12
        assert abs(neg - neg_ref) < 1e-12


# --------------------------------------------------------------------------
# the boosted Bloch-vector oracle
# --------------------------------------------------------------------------


def test_analytic_bloch_identity_boost_matches_reductions():
    for st in (make_psi2(1.0), make_psi3(1.0)):
        direct = {
            tag: bloch_vector(r)
            for tag, r in single_qubit_reductions(assemble_state_vector(st)).items()
        }
        analytic = analytic_boosted_bloch(st, BoostSpec(0.0, E_Z))
        for tag, d in direct.items():
            a = analytic[tag]
            assert_allclose([a.x, a.y, a.z], [d.x, d.y, d.z], atol=1e-13)


def test_analytic_bloch_matches_numeric_pipeline():
    rng = np.random.default_rng(304)
    for st in (make_psi2(1.0), make_psi3(1.5), make_psi3(0.0)):
        for _ in range(6):
            b = BoostSpec.from_polar_angle(
                rng.uniform(0.0, 4.0), rng.uniform(0.0, math.pi)
            )
            boosted, _ = boost_two_particle(assemble_state_vector(st), b)
            numeric = {
                tag: bloch_vector(r)
                for tag, r in single_qubit_reductions(boosted).items()
            }
            analytic = analytic_boosted_bloch(st, b)
            for tag, n in numeric.items():
                a = analytic[tag]
                assert_allclose([a.x, a.y, a.z], [n.x, n.y, n.z], atol=1e-12)


def test_analytic_bloch_parity_y_components_vanish():
    analytic = analytic_boosted_bloch(make_psi2(1.0), BoostSpec.from_polar_angle(1.2, 0.7))
    assert analytic["PA"].y == 0.0
    assert analytic["PB"].y == 0.0


def test_analytic_bloch_answers_states_without_one_axis_momentum_per_slot():
    """psi1 mixes momenta in each slot and the second state's momentum is off the z axis; the
    oracle boosts any state, so both meet the per-point boost and reductions."""
    off_axis = FourMomentum.from_rapidity(M, 1.0, np.array([1.0, 0.0, 0.0]))
    st = (SuperpositionTerm(1.0, (off_axis, 1), (off_axis, 2)),)
    for state in (make_psi1(1.0), st):
        for b in (BoostSpec(1.0, E_Z), BoostSpec.from_polar_angle(2.5, 0.9)):
            boosted, _ = boost_two_particle(assemble_state_vector(state), b)
            analytic = analytic_boosted_bloch(state, b)
            for tag, r in single_qubit_reductions(boosted).items():
                a, n = analytic[tag], bloch_vector(r)
                assert_allclose([a.x, a.y, a.z], [n.x, n.y, n.z], atol=1e-12)


def test_analytic_bloch_shares_no_code_with_the_kernel(monkeypatch):
    """The oracle answers with the kernel's tables, chunk measure and eigenbasis all broken,
    which is what makes c09 an independent check of the sweep."""
    state, b = make_psi1(1.0), BoostSpec.from_polar_angle(1.5, 0.4)
    psi, batch = assemble_state_vector(state), ([0.0, 1.5], np.array([E_Z, b.direction]))
    single, (bloch, nu) = analytic_boosted_bloch(state, b), _analytic_bloch_batch(psi, *batch)

    def broken(*args):
        raise AssertionError("the oracle called into the kernel")

    for module, name in ((diracboost.measures, "_tables"), (diracboost.measures, "_measure_chunk"),
                         (diracboost.kernel, "_boost_eigenbasis")):
        monkeypatch.setattr(module, name, broken)
    assert analytic_boosted_bloch(state, b) == single
    again, again_nu = _analytic_bloch_batch(psi, *batch)
    np.testing.assert_array_equal(again, bloch)
    np.testing.assert_array_equal(again_nu, nu)


def test_bloch_vector_rejects_non_finite_components():
    for bad in ((math.nan, 0.0, 0.0), (0.0, math.inf, 0.0), (0.0, 0.0, -math.inf)):
        with pytest.raises(ValueError, match="finite"):
            BlochVector(*bad)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("omega", [400.0, 800.0])
def test_analytic_bloch_overflow_names_the_rapidity(omega):
    with pytest.raises(ValueError, match=f"rapidity {omega:g} "):
        analytic_boosted_bloch(make_psi2(1.0), BoostSpec(omega, E_Z))


def test_analytic_bloch_rejects_cancelling_superposition():
    p = FourMomentum.from_rapidity(M, 1.0, E_Z)
    terms = (SuperpositionTerm(1.0, (p, 1), (p, 2)), SuperpositionTerm(-1.0, (p, 1), (p, 2)))
    with pytest.raises(ValueError, match="zero vector"):
        analytic_boosted_bloch(terms, BoostSpec(1.0, E_Z))
