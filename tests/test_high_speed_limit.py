"""The high-speed limit of a boost, in closed form, against the sweep kernel.

A boost along ``n`` is ``S = exp(-(w/2) G)`` with ``G = sigma_x (x) n.sigma``, so as ``w -> +inf``
the boosted state tends to its ``e^w`` level: the part of ``Psi`` with both particles in the
``-1`` eigenspace of ``G``.  That eigenspace is spanned by ``|+x> (x) |-n>`` and
``|-x> (x) |+n>``, which tie each particle's parity along x to its spin along ``n``.  With
``Phi_top[i, j]`` the amplitude of ``Psi`` on eigenvectors ``i`` (slot A) and ``j`` (slot B) and
``p_ij = |Phi_top[i, j]|^2 / sum |Phi_top|^2``, tracing out the parities leaves the spin pair
diagonal in the ``+-n`` basis, so

* the spin-spin negativity goes to ``N_inf = 0``, and
* each qubit's Bloch vector has length ``|p_0. - p_1.|`` (slot A) or ``|p_.0 - p_.1|``
  (slot B), so ``E_G_inf = 1 - ((p_0. - p_1.)^2 + (p_.0 - p_.1)^2) / 2``.

States whose ``e^w`` level is empty tend to their next level instead; for psi1 along z, the
chiral singlet and chiral-psi2 (0, 0) along z the boost leaves the measures where they were.
The eigenvectors are written here, independently of the kernel's eigenbasis.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from diracboost.kernel import _eigenbasis_amplitudes, _measure_chunk, _tables
from diracboost.states import (
    assemble_state_vector,
    chiral_project_vector,
    make_psi1,
    make_psi2,
    make_psi3,
)
from diracboost.tensor import PAULI, PAULI_X

TOL = 1e-12
#: psi2 at omega0 = 1 projected onto chirality labels (0, 0): its negativity along z, the
#: float state's 50-digit value 0.265802228834079747... correctly rounded.
CHIRAL_PSI2_N_ALONG_Z = 0.2658022288340797

unit = st.floats(-1.0, 1.0)
polar = st.floats(0.0, math.pi)
azimuth = st.floats(0.0, 2.0 * math.pi)


def direction(theta, phi=0.0):
    return np.array([math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi),
                     math.cos(theta)])


def top_eigenvectors(theta, phi):
    """Rows ``|+x> (x) |-n>`` and ``|-x> (x) |+n>``: the ``-1`` eigenvectors of
    ``sigma_x (x) n.sigma`` for ``n`` at polar angle ``theta`` and azimuth ``phi``."""
    plus_x, minus_x = np.array([1.0, 1.0]) / math.sqrt(2.0), np.array([1.0, -1.0]) / math.sqrt(2.0)
    half = theta / 2.0
    plus_n = np.array([math.cos(half), np.exp(1j * phi) * math.sin(half)])
    minus_n = np.array([-np.exp(-1j * phi) * math.sin(half), math.cos(half)])
    return np.stack([np.kron(plus_x, minus_n), np.kron(minus_x, plus_n)])


def kernel_measures(psi, omegas, n):
    """``(E_G, N)`` of the unit 16-vector ``psi`` boosted along ``n`` to each of ``omegas``."""
    omegas = np.asarray(omegas, dtype=float)
    points = (omegas, np.zeros_like(omegas), np.zeros(len(omegas), dtype=int))
    _, eg, neg, _ = _measure_chunk(_tables(psi.reshape(4, 4), n[None, :]), *points)
    return eg, neg


@st.composite
def state_vectors(draw):
    """A general unit 16-vector of amplitudes."""
    psi = np.array([complex(draw(unit), draw(unit)) for _ in range(16)])
    assume(np.linalg.norm(psi) > 0.3)
    return psi / np.linalg.norm(psi)


def test_top_eigenvectors_span_the_fastest_growing_level():
    for theta, phi in ((0.0, 0.0), (0.7, 2.1), (math.pi / 2, 0.0), (math.pi, 4.0)):
        n = direction(theta, phi)
        generator = np.kron(PAULI_X, np.einsum("k,kab->ab", n, PAULI))
        e = top_eigenvectors(theta, phi)
        assert np.max(np.abs(e @ generator.T + e)) <= 1e-15
        assert np.max(np.abs(e.conj() @ e.T - np.eye(2))) <= 1e-15


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(psi=state_vectors(), theta=polar, phi=azimuth)
def test_fast_boosts_reach_the_closed_form_limit(psi, theta, phi):
    """The kernel at omega = 60 and 300 reads ``N_inf = 0`` and ``E_G_inf`` of ``Phi_top``.

    ``Phi_top`` is resolved only to the float resolution of ``Psi``, about ``eps /
    |Phi_top|`` in ``E_G_inf``, so draws keep ``|Phi_top| >= 0.01``."""
    e = top_eigenvectors(theta, phi)
    phi_top = e.conj() @ psi.reshape(4, 4) @ e.conj().T
    assume(np.linalg.norm(phi_top) >= 0.01)
    p = np.abs(phi_top) ** 2 / np.sum(np.abs(phi_top) ** 2)
    eg_limit = 1.0 - ((p[0].sum() - p[1].sum()) ** 2 + (p[:, 0].sum() - p[:, 1].sum()) ** 2) / 2
    eg, neg = kernel_measures(psi, [60.0, 300.0], direction(theta, phi))
    assert np.all(neg <= TOL)
    assert np.max(np.abs(eg - eg_limit)) <= TOL


def test_psi1_along_z_keeps_its_global_entanglement():
    psi = assemble_state_vector(make_psi1(1.0))
    for theta in (0.0, math.pi):
        eg, _ = kernel_measures(psi, [100.0, 300.0], direction(theta))
        assert np.all(eg == 0.5)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(theta=polar, phi=azimuth)
def test_chiral_singlet_keeps_unit_negativity_in_every_direction(theta, phi):
    psi = chiral_project_vector(make_psi3(1.0), 0, 0)
    _, neg = kernel_measures(psi, [100.0, 300.0], direction(theta, phi))
    assert np.max(np.abs(neg - 1.0)) <= TOL


def test_chiral_psi2_keeps_its_negativity_along_z_only():
    psi = chiral_project_vector(make_psi2(1.0), 0, 0)
    for theta in (0.0, math.pi):
        _, neg = kernel_measures(psi, [100.0, 300.0], direction(theta))
        assert np.all(neg == CHIRAL_PSI2_N_ALONG_Z)
    for theta, phi in ((math.pi / 4, 0.0), (math.pi / 2, 0.0), (2.0, 4.0)):
        _, neg = kernel_measures(psi, [100.0, 300.0], direction(theta, phi))
        assert np.all(neg <= TOL)


ANGLES = (0.0, math.pi / 4, math.pi / 2)
#: psi1-psi3 and the eight chiral projections at omega0 = 1, named like the golden files.
CLAIM_STATES = {
    "psi1": assemble_state_vector(make_psi1(1.0)),
    "psi2": assemble_state_vector(make_psi2(1.0)),
    "psi3": assemble_state_vector(make_psi3(1.0)),
    **{
        f"chiral-{base}-{f}{g}": chiral_project_vector(make(1.0), f, g)
        for (base, make), (f, g) in itertools.product(
            (("psi2", make_psi2), ("psi3", make_psi3)), itertools.product((0, 1), repeat=2)
        )
    },
}
#: The angles of ANGLES along which a state's e^w level is empty; at the others it is occupied.
EMPTY_TOP = {
    "psi1": (0.0,),
    "chiral-psi2-00": (0.0,),
    "chiral-psi2-11": (0.0,),
    "chiral-psi3-00": ANGLES,
    "chiral-psi3-11": ANGLES,
}


@pytest.mark.parametrize("name", sorted(CLAIM_STATES))
def test_negativity_degrades_exactly_when_the_top_level_is_occupied(name):
    """The abstract's second and third claims as one rule.  Along ``n``, ``N`` goes to 0 at
    large omega where ``Phi_top``, the top-left 2x2 block of the kernel's ``Phi``, is nonzero,
    and keeps its rest value where ``Phi_top = 0``."""
    psi = CLAIM_STATES[name]
    for theta in ANGLES:
        n = direction(theta)
        _, phi = _eigenbasis_amplitudes(psi.reshape(4, 4), n[None, :])
        empty = not phi[0, :2, :2].any()
        assert empty == (theta in EMPTY_TOP.get(name, ())), theta
        _, (rest, fast) = kernel_measures(psi, [0.0, 40.0], n)
        if empty:
            assert abs(fast - rest) <= TOL, theta
        else:
            assert fast <= TOL, theta
