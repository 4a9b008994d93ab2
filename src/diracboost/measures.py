"""Entanglement measures and the closed-form boosted Bloch vectors.

Two independent routes to the same physics live here.  The numeric route
boosts the 16x16 density matrix and reduces it (``global_entanglement``,
``spin_spin_reduced`` + ``negativity``).  The analytic route
(``analytic_boosted_bloch``) evaluates closed-form expressions for the
transformed single-qubit Bloch vectors directly from the superposition data,
without ever building the 16x16 matrix; the two must agree and the test
suite holds them to each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .kinematics import BoostSpec, helicity_spinor, sigma_dot
from .states import (
    TWO_PARTICLE_LAYOUT,
    TwoParticleState,
    boost_two_particle,
    density_matrix,
)
from .tensor import PAULI, SubsystemLayout, hermitian_eigenvalues, partial_trace, partial_transpose

SUBSYSTEM_TAGS = TWO_PARTICLE_LAYOUT.labels

SPIN_PAIR_LAYOUT = SubsystemLayout(("SA", "SB"))

_TRACE_TOL = 1e-8
_ROUNDING_CLAMP = 1e-12


def _clamp_residue(values):
    """Snap values in [-1e-12, 0), rounding residue on pure or separable states, to 0."""
    return np.where((values >= -_ROUNDING_CLAMP) & (values < 0.0), 0.0, values)


@dataclass(frozen=True)
class BlochVector:
    """Components a_n = Tr[sigma_n rho] of a single-qubit reduced matrix."""

    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        if self.norm_sq > 1.0 + 1e-10:
            raise ValueError(f"Bloch vector lies outside the unit ball: {self!r}")

    @property
    def norm_sq(self) -> float:
        return self.x**2 + self.y**2 + self.z**2

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])


@dataclass(frozen=True)
class EntanglementReport:
    """Bundle of measures for one (possibly boosted) pure two-particle state."""

    global_eg: float
    negativity_ss: float
    bloch: Mapping[str, BlochVector]
    nu: float | None = None

    def __post_init__(self) -> None:
        reconstructed = 1.0 - sum(b.norm_sq for b in self.bloch.values()) / 4.0
        if abs(self.global_eg - reconstructed) > 1e-12:
            raise ValueError(
                "inconsistent report: global entanglement "
                f"{self.global_eg!r} vs Bloch reconstruction {reconstructed!r}"
            )


def _check_density(rho: np.ndarray, dim: int) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (dim, dim):
        raise ValueError(f"expected a {dim}x{dim} matrix, got shape {rho.shape}")
    trace = complex(np.trace(rho))
    if abs(trace - 1.0) > _TRACE_TOL:
        raise ValueError(f"density matrix trace must be 1, got {trace!r}")
    return rho


def linear_entropy(rho: np.ndarray) -> float:
    """(d/(d-1)) (1 - Tr rho^2): 0 for pure states, 1 for maximally mixed."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {rho.shape}")
    d = rho.shape[0]
    if d < 2:
        raise ValueError("linear entropy needs dimension at least 2")
    _check_density(rho, d)
    purity = float(np.real(np.trace(rho @ rho)))
    return float(_clamp_residue((d / (d - 1.0)) * (1.0 - purity)))


def bloch_vector(rho_qubit: np.ndarray) -> BlochVector:
    rho = _check_density(np.asarray(rho_qubit, dtype=complex), 2)
    a = [float(np.real(np.trace(s @ rho))) for s in PAULI]
    return BlochVector(*a)


def single_qubit_reductions(rho: np.ndarray) -> dict[str, np.ndarray]:
    """All four 2x2 reduced matrices of a two-particle density matrix."""
    rho = _check_density(rho, 16)
    return {
        tag: partial_trace(rho, TWO_PARTICLE_LAYOUT, (tag,))
        for tag in SUBSYSTEM_TAGS
    }


def single_qubit_entropies(rho: np.ndarray) -> dict[str, float]:
    return {tag: linear_entropy(r) for tag, r in single_qubit_reductions(rho).items()}


def global_entanglement(rho: np.ndarray) -> float:
    """Mean linear entropy of the four single-qubit reductions (pure states only)."""
    rho = _check_density(rho, 16)
    purity = float(np.real(np.trace(rho @ rho)))
    if purity < 1.0 - _TRACE_TOL:
        raise ValueError(
            f"global entanglement is defined for pure states; Tr rho^2 = {purity!r}"
        )
    entropies = single_qubit_entropies(rho)
    return sum(entropies.values()) / 4.0


def spin_spin_reduced(rho: np.ndarray) -> np.ndarray:
    """Trace both parity qubits out of a 16x16 two-particle matrix."""
    rho = _check_density(rho, 16)
    return partial_trace(rho, TWO_PARTICLE_LAYOUT, ("SA", "SB"))


def negativity(rho_ss: np.ndarray) -> float:
    """Sum |eigenvalues| - 1 of the partial transpose of a two-qubit matrix.

    Values in [-1e-12, 0) are rounding residue on separable states and are
    clamped to 0.
    """
    rho = _check_density(rho_ss, 4)
    transposed = partial_transpose(rho, SPIN_PAIR_LAYOUT, "SA")
    return float(_clamp_residue(np.sum(np.abs(hermitian_eigenvalues(transposed))) - 1.0))


def delta_global(st: TwoParticleState, b: BoostSpec) -> float:
    """Change of global entanglement under a boost (boosted minus original)."""
    rho = density_matrix(st)
    boosted, _ = boost_two_particle(rho, b)
    return global_entanglement(boosted) - global_entanglement(rho)


def delta_negativity(st: TwoParticleState, b: BoostSpec) -> float:
    """Change of spin-spin negativity under a boost (boosted minus original)."""
    rho = density_matrix(st)
    boosted, _ = boost_two_particle(rho, b)
    return negativity(spin_spin_reduced(boosted)) - negativity(spin_spin_reduced(rho))


def entanglement_report(rho: np.ndarray, nu: float | None = None) -> EntanglementReport:
    """Compute every measure of a pure two-particle density matrix at once."""
    bloch = {
        tag: bloch_vector(r) for tag, r in single_qubit_reductions(rho).items()
    }
    return EntanglementReport(
        global_eg=global_entanglement(rho),
        negativity_ss=negativity(spin_spin_reduced(rho)),
        bloch=bloch,
        nu=nu,
    )


# ---------------------------------------------------------------------------
# Closed-form transformed Bloch vectors
# ---------------------------------------------------------------------------


def _common_slot_momentum(st: TwoParticleState, slot: str):
    momenta = [
        (t.slot_a if slot == "A" else t.slot_b)[0] for t in st.terms
    ]
    first = momenta[0]
    for other in momenta[1:]:
        if not np.allclose(other.p3, first.p3, rtol=0.0, atol=1e-12):
            raise ValueError(
                f"closed-form Bloch vectors need a single momentum per slot; "
                f"slot {slot} mixes momenta"
            )
    if max(abs(first.p3[0]), abs(first.p3[1])) > 1e-12 * max(1.0, first.p_norm):
        raise ValueError(f"slot {slot} momentum must lie along the z axis")
    return first


def _slot_tables(st: TwoParticleState, slot: str, b: BoostSpec):
    """Per-term-pair traces of the boosted single-slot blocks.

    For one slot with common momentum K and terms carrying helicity spinors
    chi_i, the boosted block of the pair (i, j) has closed-form parity and
    spin traces built from Tr[Xi], Tr[(n.sigma) Xi] and friends, where
    Xi = chi_i chi_j^dagger.  Returns (mu, t_spin, t_parity) with shapes
    (M, M), (M, M, 3), (M, M, 3).
    """
    momentum = _common_slot_momentum(st, slot)
    energy, mass, knorm = momentum.energy, momentum.mass, momentum.p_norm
    alpha = (energy + mass) / (2.0 * energy)
    gamma = (energy - mass) / (2.0 * energy)
    beta = knorm / (2.0 * energy)

    terms = st.terms
    labels = [(t.slot_a if slot == "A" else t.slot_b)[1] for t in terms]
    chis = [helicity_spinor(momentum, s) for s in labels]
    hsigns = [3 - 2 * s for s in labels]

    ch, sh = math.cosh(b.rapidity), math.sinh(b.rapidity)
    c2 = math.cosh(b.rapidity / 2.0) ** 2
    s2 = math.sinh(b.rapidity / 2.0) ** 2
    nsig = sigma_dot(b.direction)
    ncomp = b.direction

    m = len(terms)
    mu = np.zeros((m, m), dtype=complex)
    t_spin = np.zeros((m, m, 3), dtype=complex)
    t_parity = np.zeros((m, m, 3), dtype=complex)
    for i in range(m):
        for j in range(m):
            xi = np.outer(chis[i], chis[j].conj())
            tr = np.trace(xi)
            tr_n = np.trace(nsig @ xi)
            hh = hsigns[i] * hsigns[j]
            hsum = hsigns[i] + hsigns[j]
            diag_w = alpha + gamma * hh
            mu[i, j] = ch * diag_w * tr - sh * beta * hsum * tr_n
            sandwich = nsig @ xi @ nsig
            for a in range(3):
                t_spin[i, j, a] = diag_w * (
                    c2 * np.trace(PAULI[a] @ xi) + s2 * np.trace(PAULI[a] @ sandwich)
                ) - sh * beta * hsum * ncomp[a] * tr
            t_parity[i, j, 0] = ch * beta * hsum * tr - sh * diag_w * tr_n
            t_parity[i, j, 1] = beta * (hsigns[j] - hsigns[i]) * tr
            t_parity[i, j, 2] = (alpha - gamma * hh) * tr
    return mu, t_spin, t_parity


def analytic_boosted_bloch(
    st: TwoParticleState, b: BoostSpec
) -> dict[str, BlochVector]:
    """Transformed Bloch vectors of all four qubits from closed-form sums.

    Supports states whose slot-A momenta all coincide and whose slot-B
    momenta all coincide, with both momenta along the z axis.  This is an
    independent oracle for the numeric boost-reduce-measure pipeline; the
    parity y-components vanish identically.
    """
    mu_a, ts_a, tp_a = _slot_tables(st, "A", b)
    mu_b, ts_b, tp_b = _slot_tables(st, "B", b)

    coeffs = np.array([t.coefficient for t in st.terms], dtype=complex)
    weights = np.outer(coeffs, coeffs.conj())
    # Term overlaps factorize over slots; at w = 0 each mu table is the Gram
    # matrix of its slot, which normalizes the raw coefficients.
    gram_a, _, _ = _slot_tables(st, "A", BoostSpec(0.0, b.direction))
    gram_b, _, _ = _slot_tables(st, "B", BoostSpec(0.0, b.direction))
    norm_sq = float(np.real(np.sum(weights * gram_a * gram_b)))
    if norm_sq < 1e-28:
        raise ValueError("superposition cancels to the zero vector")
    weights = weights / norm_sq

    nu = float(np.real(np.sum(weights * mu_a * mu_b)))
    out: dict[str, BlochVector] = {}
    for tag, tables, partner in (
        ("PA", tp_a, mu_b),
        ("SA", ts_a, mu_b),
        ("PB", tp_b, mu_a),
        ("SB", ts_b, mu_a),
    ):
        components = [
            float(np.real(np.sum(weights * tables[:, :, a] * partner))) / nu
            for a in range(3)
        ]
        out[tag] = BlochVector(*components)
    return out
