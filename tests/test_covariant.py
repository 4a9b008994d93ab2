"""The covariant form of slot-antisymmetric states, and the abstract's no-creation claim.

In the chirality basis ``C = H (x) I`` (``H`` the Hadamard on each parity qubit) a
slot-antisymmetric coefficient matrix (``Psi^T = -Psi``) has the blocks
``[[a eps, X eps], [-(X eps)^T, b eps]]``, with ``eps = i sigma_y`` and ``X = V^mu sigma_mu``.
A boost keeps ``a`` and ``b`` and maps the complex four-vector ``V`` by a Lorentz boost, so it
keeps ``V.V``.  With ``a = b = 0`` and a null ``V`` (``V.V = 0``), ``X`` has rank 1 in every
frame, both spin-pair components are product vectors, and the spin-spin negativity ``N`` is 0
in every frame.  psi1 is such a state; these tests hold the claim for any of them, and for the
paper's own family of two-term z-axis wedges.  Separable and slot-antisymmetric is not enough:
a four-term superposition of two such wedges is separable at rest and along z, and a boost
across z entangles its spins.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from diracboost.kernel import _measure_chunk, _tables
from diracboost.kinematics import BoostSpec, bispinor_boost
from diracboost.measures import global_entanglement, negativity
from diracboost.states import boost_two_particle
from diracboost.sweep import ConfigError, GridSpec, SweepConfig, run_sweep, scenario_vector
from diracboost.tensor import ID2, PAULI, kron

EPSILON = np.array([[0.0, 1.0], [-1.0, 0.0]])  # i sigma_y
CHIRALITY = kron(np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0), ID2)

unit = st.floats(-1.0, 1.0)
#: One wedge slot, as ``--term`` fields: helicity, rapidity and the sign of its z direction.
wedge_slots = st.tuples(st.sampled_from((1, 2)), st.floats(0.0, 3.0), st.sampled_from((1, -1)))

#: Two z-axis wedges with a complex relative coefficient, as ``--term`` fields.
FOUR_TERMS = (
    (1.0, 0.0, 1, 0.786988, 1, 2, 1.524234, 1),
    (-1.0, 0.0, 2, 1.524234, 1, 1, 0.786988, 1),
    (-0.2609948947096579, 0.2635550847530095, 2, 0.425659, -1, 1, 0.324538, -1),
    (0.2609948947096579, -0.2635550847530095, 1, 0.324538, -1, 2, 0.425659, -1),
)


def antisymmetric_state(a, b, v):
    """The unit 4x4 coefficient matrix with chirality blocks ``a``, ``b`` and four-vector ``v``."""
    x = v[0] * ID2 + sum(v[k + 1] * PAULI[k] for k in range(3))
    blocks = np.block([[a * EPSILON, x @ EPSILON], [-(x @ EPSILON).T, b * EPSILON]])
    psi = CHIRALITY @ blocks @ CHIRALITY  # C is real, symmetric and its own inverse
    return psi / np.linalg.norm(psi)


def kernel_point(psi, b):
    """``(nu, E_G, N)`` of ``psi`` boosted by ``b`` on the sweep kernel."""
    tables = _tables(psi, b.direction[None, :])
    out = _measure_chunk(tables, np.array([b.rapidity]), np.zeros(1), np.zeros(1, int))
    return tuple(float(values[0]) for values in out[:3])


def per_point(psi, b):
    """``(nu, E_G, N)`` of ``psi`` boosted by ``b`` with ``boost_two_particle``."""
    boosted, nu = boost_two_particle(psi.ravel(), b)
    return nu, global_entanglement(boosted), negativity(boosted)


@st.composite
def null_four_vectors(draw):
    """A complex ``V`` with ``V.V = V0^2 - |V|^2 = 0`` (no conjugation)."""
    spatial = np.array([complex(draw(unit), draw(unit)) for _ in range(3)])
    assume(np.linalg.norm(spatial) > 0.1)
    v0 = draw(st.sampled_from((1.0, -1.0))) * np.sqrt(spatial @ spatial)
    return np.concatenate([[v0], spatial])


@st.composite
def unit_directions(draw):
    n = np.array([draw(unit) for _ in range(3)])
    assume(np.linalg.norm(n) > 0.1)
    return n / np.linalg.norm(n)


def test_the_blocks_build_psi1_and_a_slot_antisymmetric_state():
    v = np.array([0.0, -1.0, -1.0j, 0.0]) / (2.0 * math.sqrt(2.0))
    built = antisymmetric_state(0.0, 0.0, v)
    for omega0 in (0.3, 1.0, 2.0):
        psi1 = scenario_vector(SweepConfig(scenario="psi1", omega0=omega0)).reshape(4, 4)
        assert np.max(np.abs(built - psi1)) <= 1e-15
    generic = antisymmetric_state(0.4, -0.7j, np.array([0.2 + 0.5j, 0.7, -0.3j, 0.1 - 0.4j]))
    assert np.max(np.abs(generic.T + generic)) <= 1e-16


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(v=null_four_vectors(), rapidity=st.floats(0.0, 60.0), n=unit_directions())
def test_a_null_four_vector_keeps_the_spins_unentangled_in_every_frame(v, rapidity, n):
    psi = antisymmetric_state(0.0, 0.0, v)
    assert negativity(psi.ravel()) <= 1e-12
    b = BoostSpec(rapidity, n)
    assert per_point(psi, b)[2] <= 1e-12
    assert kernel_point(psi, b)[2] <= 1e-12


def test_a_boost_entangles_the_spins_of_a_generic_four_vector():
    """The control: with ``V.V != 0`` the same boost takes N from 0.0097 to 0.79."""
    v = np.array([0.2 + 0.5j, 0.7, -0.3j, 0.1 - 0.4j])  # V.V = -0.46 + 0.28i
    psi = antisymmetric_state(0.0, 0.0, v)
    assert negativity(psi.ravel()) < 0.05
    b = BoostSpec(1.5, np.array([1.0, -1.0, -2.0]) / math.sqrt(6.0))
    n = per_point(psi, b)[2]
    assert n > 0.5
    assert abs(kernel_point(psi, b)[2] - n) <= 1e-12


@pytest.mark.parametrize("omega", [7.0, 20.0, 30.0])
def test_amplitudes_near_the_rounding_level_survive_the_per_point_boost(omega):
    """This null ``V`` gives the state amplitudes of about 6e-10 that a boost along z scales by
    ``e^w``.  Their squares, 4e-19, are below the rounding of ``W^dag rho W``, so a boost that
    works on that 16x16 matrix loses them (E_G = -5.7e7 at omega = 30); boosting the amplitudes
    keeps them, and matches the kernel."""
    psi = antisymmetric_state(0.0, 0.0, np.array([-2e-9 - 0.5j, 1.0, 1e-9 + 1.0j, -0.5j]))
    b = BoostSpec(omega, np.array([0.0, 0.0, 1.0]))
    (nu, eg, n), (kernel_nu, kernel_eg, kernel_n) = per_point(psi, b), kernel_point(psi, b)
    assert abs(nu - kernel_nu) <= 1e-12 * kernel_nu
    assert abs(eg - kernel_eg) <= 1e-12
    assert n <= 1e-12
    assert kernel_n <= 1e-12


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(p=wedge_slots, q=wedge_slots, rapidity=st.floats(0.0, 6.0), n=unit_directions())
def test_z_axis_wedges_separable_at_rest_stay_separable(p, q, rapidity, n):
    """The paper's family ``u(p, s) (x) u(q, s') - u(q, s') (x) u(p, s)``, both momenta along
    +-z: where the spins are separable at rest, no boost entangles them."""
    terms = ((1.0, 0.0, *p, *q), (-1.0, 0.0, *q, *p))
    try:
        psi = scenario_vector(SweepConfig(scenario="custom", custom_terms=terms))
    except ConfigError:  # the two slots carry one bispinor, and the wedge cancels
        assume(False)
    assume(negativity(psi) <= 1e-12)
    b = BoostSpec(rapidity, n)
    assert per_point(psi.reshape(4, 4), b)[2] <= 1e-12
    assert kernel_point(psi.reshape(4, 4), b)[2] <= 1e-12


def test_a_boost_entangles_a_separable_four_term_superposition_of_wedges():
    """Separable at rest and slot-antisymmetric, yet a boost across z entangles the spins: the
    abstract's first claim needs more than these two properties."""
    cfg = SweepConfig(scenario="custom", custom_terms=FOUR_TERMS, measures=("negativity",))
    psi = scenario_vector(cfg)
    assert np.array_equal(psi.reshape(4, 4).T, -psi.reshape(4, 4))
    assert negativity(psi) <= 1e-15
    along_z = replace(cfg, omega_grid=GridSpec(0.0, 4.0, 41), theta_grid=GridSpec(0.0, math.pi, 2))
    assert max(row["negativity"] for row in run_sweep(along_z)) <= 1e-15
    across = GridSpec(math.pi / 2.0, math.pi / 2.0, 1)
    (row,) = run_sweep(replace(cfg, omega_grid=GridSpec(1.0, 1.0, 1), theta_grid=across))
    s = bispinor_boost(BoostSpec.from_polar_angle(1.0, math.pi / 2.0))
    textbook = np.kron(s, s) @ psi
    textbook /= np.linalg.norm(textbook)
    for n in (row["negativity"], negativity(textbook)):
        assert abs(n - 0.0465311668314) <= 1e-9
