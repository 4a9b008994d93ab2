import inspect
import math
import re
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

import diracboost
import diracboost.kernel
import diracboost.measures
import diracboost.tensor
from diracboost.kinematics import E_Z, BoostSpec, FourMomentum
from diracboost.measures import (
    _analytic_bloch_batch,
    analytic_boosted_bloch,
    bloch_vector,
    delta_global,
    delta_negativity,
    global_entanglement,
    negativity,
    single_qubit_reductions,
    spin_spin_reduced,
)
from diracboost.states import (
    TWO_PARTICLE_LAYOUT,
    SuperpositionTerm,
    assemble_state_vector,
    boost_two_particle,
    chiral_project_vector,
    make_psi1,
    make_psi2,
    make_psi3,
)
from diracboost.sweep import GridSpec, SweepConfig, SweepError, run_sweep
from diracboost.tensor import (TRACE_TOL, check_state, hermitian_eigenvalues, kron, outer,
                               partial_trace, partial_transpose)

M = 1.0
SECH2_1 = 1.0 / math.cosh(1.0) ** 2


def product_rest_state():
    rest = FourMomentum(M, M, np.zeros(3))
    return (SuperpositionTerm(1.0, (rest, 1), (rest, 2)),)


def spin_bell_state():
    """Both parities |+>, the spins in (|z+ z+> + |z- z->)/sqrt(2)."""
    psi = np.zeros(16, dtype=complex)
    psi[0] = psi[5] = 1.0 / math.sqrt(2.0)  # basis index 8 pA + 4 sA + 2 pB + sB
    return psi


# --------------------------------------------------------------------------
# Bloch vectors and the per-point contract
# --------------------------------------------------------------------------


def test_bloch_vector_cardinal_states():
    z_up, x_up = np.array([1.0, 0.0]), np.array([1.0, 1.0]) / math.sqrt(2.0)
    y_up, z_down = np.array([1.0, 1.0j]) / math.sqrt(2.0), np.array([0.0, 1.0])
    blochs = bloch_vector(kron(z_up, x_up, y_up, z_down).ravel())
    expected = {"PA": [0.0, 0.0, 1.0], "SA": [1.0, 0.0, 0.0], "PB": [0.0, 1.0, 0.0],
                "SB": [0.0, 0.0, -1.0]}
    assert list(blochs) == list(TWO_PARTICLE_LAYOUT)
    for tag, v in blochs.items():
        assert_allclose([v.x, v.y, v.z], expected[tag], atol=1e-15)


def test_bloch_vector_rejects_wrong_shape():
    with pytest.raises(ValueError, match=re.escape("shape (16,), got shape (2, 2)")):
        bloch_vector(np.eye(2) / 2)


#: The per-point functions, each as a one-argument call on a state vector of shape (16,).
PER_POINT = {
    "boost_two_particle": lambda psi: boost_two_particle(psi, BoostSpec(0.7, E_Z)),
    "global_entanglement": global_entanglement,
    "single_qubit_reductions": single_qubit_reductions,
    "spin_spin_reduced": spin_spin_reduced,
    "negativity": negativity,
    "bloch_vector": bloch_vector,
}
STATE_DEFECTS = ("shape", "length", "norm", "zero", "nonfinite-nan", "nonfinite-inf")


def valid_vector(dim):
    rng = np.random.default_rng(90 + dim)
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


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


@pytest.mark.parametrize("name, defect", [
    (name, defect) for name in PER_POINT for defect in STATE_DEFECTS
])
def test_per_point_function_rejects_each_broken_rule_with_its_message(name, defect):
    value, message = defective_state(defect)
    with pytest.raises(ValueError, match=re.escape(message)):
        PER_POINT[name](value)


def test_each_per_point_function_validates_its_input_once(monkeypatch):
    """check_state runs once per public call; what a function derives from its input is not
    checked again, boost_two_particle's output and negativity's reduced matrix included."""
    calls, square_checks = [], []
    check_square = diracboost.tensor._check_square

    def counted(psi):
        calls.append(psi)
        return check_state(psi)

    def counted_square(rho, layout):
        square_checks.append(layout)
        return check_square(rho, layout)

    # patch every binding, as `from .tensor import check_state` copies it into each module
    for name, module in list(sys.modules.items()):
        if name.startswith("diracboost.") and getattr(module, "check_state", None) is check_state:
            monkeypatch.setattr(module, "check_state", counted)
    monkeypatch.setattr(diracboost.tensor, "_check_square", counted_square)
    for name, function in PER_POINT.items():
        calls.clear()
        square_checks.clear()
        function(valid_vector(16))
        assert len(calls) == 1, name
        assert square_checks == [], name


def test_the_contract_covers_every_exported_function_of_a_state_vector():
    """A public function whose first parameter is ``psi`` is a per-point function, so it goes
    through the validation contract above."""
    takes_psi = {
        name for name in diracboost.__all__
        if inspect.isfunction(function := getattr(diracboost, name))
        and next(iter(inspect.signature(function).parameters), None) == "psi"
    }
    assert takes_psi == set(PER_POINT)


def near_unit_states():
    """Named unit states at the edges of [0, 1]: E_G and N of 0, and of 1."""
    rng = np.random.default_rng(305)
    basis = np.zeros(16)
    basis[0] = 1.0
    qubits = [rng.normal(size=2) + 1j * rng.normal(size=2) for _ in range(4)]
    bell = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
    # parity pair and spin pair each in a Bell state, in the PA, SA, PB, SB order
    bell_pairs = np.einsum("ac,bd->abcd", bell.reshape(2, 2), bell.reshape(2, 2)).ravel()
    return {"basis": basis, "product": kron(*(q / np.linalg.norm(q) for q in qubits)).ravel(),
            "bell-pairs": bell_pairs, "drawn": valid_vector(16)}


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("name", ["basis", "product", "bell-pairs", "drawn"])
def test_a_norm_check_state_admits_keeps_every_measure_in_range(name, sign):
    """|psi|^2 may miss 1 by TRACE_TOL, which moves E_G by up to 4 TRACE_TOL and N by up to 2;
    the snap onto [0, 1] absorbs that, and every reduction's Bloch vector keeps
    |r| <= 1 + 2 TRACE_TOL."""
    psi = near_unit_states()[name]
    psi = psi * math.sqrt(1.0 + sign * 0.99 * TRACE_TOL)  # just inside the rule
    check_state(psi)
    for measure in (global_entanglement, negativity):
        assert 0.0 <= measure(psi) <= 1.0, measure.__name__
    for tag, v in bloch_vector(psi).items():
        assert math.sqrt(v.norm_sq) <= 1.0 + 2.0 * TRACE_TOL, tag


def named_states():
    """psi1-psi3, the eight chiral projections of psi2 and psi3, and a drawn unit vector."""
    states = {f"psi{k}": assemble_state_vector(make(1.0))
              for k, make in enumerate((make_psi1, make_psi2, make_psi3), 1)}
    for k, make in ((2, make_psi2), (3, make_psi3)):
        for f in (0, 1):
            for g in (0, 1):
                states[f"chiral-psi{k}-{f}{g}"] = chiral_project_vector(make(1.0), f, g)
    return {**states, "drawn": valid_vector(16)}


@pytest.mark.parametrize("name", list(named_states()))
def test_the_measures_of_a_state_vector_read_its_reductions(name):
    """negativity is the spin pair's partial-transpose negativity that partial_transpose and
    hermitian_eigenvalues give, and bloch_vector reads Tr[sigma_n rho] off each reduction."""
    psi = named_states()[name]
    transposed = partial_transpose(spin_spin_reduced(psi), ("SA", "SB"), "SA")
    summed = float(np.sum(np.abs(hermitian_eigenvalues(transposed))))
    assert negativity(psi) == max(0.0, summed - 1.0)
    for tag, rho in single_qubit_reductions(psi).items():
        v = bloch_vector(psi)[tag]
        assert (v.x, v.y, v.z) == (2.0 * rho[1, 0].real, 2.0 * rho[1, 0].imag,
                                   (rho[0, 0] - rho[1, 1]).real)


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
        reconstructed = 1.0 - sum(b.norm_sq for b in bloch_vector(v).values()) / 4.0
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
    assert_allclose(negativity(spin_bell_state()), 1.0, atol=1e-12)
    z_up, x_up = np.array([1.0, 0.0]), np.array([1.0, 1.0]) / math.sqrt(2.0)
    assert negativity(kron(x_up, z_up, z_up, x_up).ravel()) == 0.0
    assert_allclose(negativity(assemble_state_vector(make_psi2(1.0))), SECH2_1, atol=1e-12)


def test_negativity_validation():
    """A reduced density matrix is not a state vector: the shape rule refuses it."""
    with pytest.raises(ValueError, match=re.escape("shape (16,), got shape (4, 4)")):
        negativity(np.eye(4) / 4)


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
        omega_grid=GridSpec(-3.0, 6.0, 10),
        theta_grid=GridSpec(0.0, math.pi, 7),
        measures=("delta_eg", "delta_negativity"),
    )
    st = {"psi1": make_psi1, "psi2": make_psi2, "psi3": make_psi3}[scenario](cfg.omega0)
    for row in run_sweep(cfg):  # each delta_* is one point of the sweep's walk, bits included
        b = BoostSpec.from_polar_angle(row["omega"], row["theta"])
        assert delta_global(st, b) == row["delta_eg"]
        assert delta_negativity(st, b) == row["delta_negativity"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n,named", [
    (E_Z, r"omega=400, theta=0\).*nu = inf.*n = \[0\.0, 0\.0, 1\.0\]"),
    # theta = pi/2 also labels +x: only the direction tells the y axis apart
    ([0.0, 1.0, 0.0], r"omega=400, theta=1\.5708\).*nu = inf.*n = \[0\.0, 1\.0, 0\.0\]"),
], ids=["z", "y"])
def test_delta_overflow_names_the_boost(n, named):
    with pytest.raises(SweepError, match=named):
        delta_global(make_psi2(1.0), BoostSpec(400.0, n))


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
        neg = negativity(boosted)
        eg_ref = 1.0 - (1.0 / math.cosh(1.0 - w) ** 2 + 1.0 / math.cosh(1.0 + w) ** 2) / 4.0
        neg_ref = 1.0 / (math.cosh(1.0 - w) * math.cosh(1.0 + w))
        assert abs(eg - eg_ref) < 1e-12
        assert abs(neg - neg_ref) < 1e-12


# --------------------------------------------------------------------------
# the boosted Bloch-vector oracle
# --------------------------------------------------------------------------


def test_analytic_bloch_identity_boost_matches_reductions():
    for st in (make_psi2(1.0), make_psi3(1.0)):
        direct = bloch_vector(assemble_state_vector(st))
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
            numeric = bloch_vector(boosted)
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
            for tag, n in bloch_vector(boosted).items():
                a = analytic[tag]
                assert_allclose([a.x, a.y, a.z], [n.x, n.y, n.z], atol=1e-12)


def test_analytic_bloch_shares_no_code_with_the_kernel(monkeypatch):
    """The oracle answers with the kernel's tables, chunk measure, grid walk, amplitude boost and
    eigenbasis all broken, which is what makes c09 an independent check of the sweep."""
    state, b = make_psi1(1.0), BoostSpec.from_polar_angle(1.5, 0.4)
    psi, batch = assemble_state_vector(state), ([0.0, 1.5], np.array([E_Z, b.direction]))
    single, (bloch, nu) = analytic_boosted_bloch(state, b), _analytic_bloch_batch(psi, *batch)

    def broken(*args):
        raise AssertionError("the oracle called into the kernel")

    for name in ("_tables", "_measure_chunk", "_measure_grid", "_boost_batch", "_boost_eigenbasis"):
        monkeypatch.setattr(diracboost.kernel, name, broken)
    assert analytic_boosted_bloch(state, b) == single
    again, again_nu = _analytic_bloch_batch(psi, *batch)
    np.testing.assert_array_equal(again, bloch)
    np.testing.assert_array_equal(again_nu, nu)


@pytest.mark.parametrize("make", [make_psi1, make_psi2, make_psi3], ids=lambda f: f.__name__)
def test_analytic_bloch_stays_finite_and_in_the_ball(make):
    """The oracle's nu check keeps its Bloch vectors finite, and a unit Psi' keeps them in the
    ball: omega in [-40, 40] in 161 steps, 13 angles in [0, pi]."""
    state = make(1.0)
    for omega in np.linspace(-40.0, 40.0, 161).tolist():
        for theta in np.linspace(0.0, math.pi, 13).tolist():
            b = BoostSpec.from_polar_angle(omega, theta)
            for tag, v in analytic_boosted_bloch(state, b).items():
                point = (omega, theta, tag)
                assert all(math.isfinite(c) for c in (v.x, v.y, v.z)), point
                assert math.sqrt(v.norm_sq) <= 1.0 + 2.0 * TRACE_TOL, point


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
