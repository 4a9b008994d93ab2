"""Entanglement measures and the closed-form boosted Bloch vectors.

Two independent routes to the same physics meet here.  The numeric route
reduces a boosted state: the functions below take a unit 16-vector of
amplitudes, or the 4x4 or 2x2 density matrix of a reduction, and validate it
once, and the batched kernel (``kernel._measure_chunk``, also behind
``delta_*``) boosts whole grids.  The analytic route (``analytic_boosted_bloch``,
batched in ``_analytic_bloch_batch``) evaluates closed-form transformed Bloch
vectors from the superposition data without boosting any state; verify check
c09 and the test suite hold the two routes to each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernel import _clamp_residue, _grid, _measure_chunk, _tables
from .kinematics import BoostSpec, helicity_spinor
from .states import TWO_PARTICLE_LAYOUT, TwoParticleState, assemble_state_vector
from .tensor import (
    PAULI, SubsystemLayout, _symmetrized_eigenvalues, _trace_labels, check_density, check_state,
    partial_transpose,
)

SUBSYSTEM_TAGS = TWO_PARTICLE_LAYOUT.labels

SPIN_PAIR_LAYOUT = SubsystemLayout(("SA", "SB"))


def _reduction(keep):
    """Reduce ``psi psi^dag`` onto ``keep`` from the ``[2] * 4`` amplitudes of ``psi``: the rows of
    ``partial_trace``'s einsum labels go on ``psi``, its columns on ``psi^*``."""
    labels, out = _trace_labels(TWO_PARTICLE_LAYOUT, keep)
    return lambda amp: np.einsum(amp, labels[:4], amp.conj(), labels[4:], out)


_ONE_QUBIT = {tag: _reduction((tag,)) for tag in SUBSYSTEM_TAGS}
_SPIN_PAIR = _reduction(("SA", "SB"))


@dataclass(frozen=True)
class BlochVector:
    """Components a_n = Tr[sigma_n rho] of a single-qubit reduced matrix."""

    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        if not all(math.isfinite(c) for c in (self.x, self.y, self.z)):
            raise ValueError(f"Bloch vector components must be finite: {self!r}")
        if self.norm_sq > 1.0 + 1e-10:
            raise ValueError(f"Bloch vector lies outside the unit ball: {self!r}")

    @property
    def norm_sq(self) -> float:
        return self.x**2 + self.y**2 + self.z**2

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])


def linear_entropy(rho: np.ndarray) -> float:
    """(d/(d-1)) (1 - Tr rho^2): 0 for pure states, 1 for maximally mixed."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {rho.shape}")
    if rho.shape[0] < 2:
        raise ValueError("linear entropy needs dimension at least 2")
    return _linear_entropy(check_density(rho, rho.shape[0]))


def _purity(rho: np.ndarray) -> float:
    """``Tr rho^2`` of a Hermitian ``rho``: the sum of ``|rho_ij|^2``."""
    return float(np.vdot(rho, rho).real)


def _linear_entropy(rho: np.ndarray) -> float:
    d = rho.shape[0]
    return float(_clamp_residue((d / (d - 1.0)) * (1.0 - _purity(rho))))


def bloch_vector(rho_qubit: np.ndarray) -> BlochVector:
    """Tr[sigma_n rho] of a Hermitian 2x2 rho: 2 Re rho_10, 2 Im rho_10 and rho_00 - rho_11."""
    rho = check_density(rho_qubit, 2)
    off = complex(rho[1, 0])
    return BlochVector(2.0 * off.real, 2.0 * off.imag, float((rho[0, 0] - rho[1, 1]).real))


def single_qubit_reductions(psi: np.ndarray) -> dict[str, np.ndarray]:
    """All four 2x2 reduced matrices of a two-particle state vector."""
    amp = check_state(psi).reshape([2] * 4)
    return {tag: reduce(amp) for tag, reduce in _ONE_QUBIT.items()}


def single_qubit_entropies(psi: np.ndarray) -> dict[str, float]:
    return {tag: _linear_entropy(r) for tag, r in single_qubit_reductions(psi).items()}


def global_entanglement(psi: np.ndarray) -> float:
    """Mean linear entropy 2 (1 - sum_k Tr rho_k^2 / 4) of the four qubits of a state vector."""
    purities = sum(_purity(r) for r in single_qubit_reductions(psi).values())
    return float(_clamp_residue(2.0 * (1.0 - purities / 4.0)))


def spin_spin_reduced(psi: np.ndarray) -> np.ndarray:
    """Trace both parity qubits out of a two-particle state vector."""
    return _SPIN_PAIR(check_state(psi).reshape([2] * 4)).reshape(4, 4)


def negativity(rho_ss: np.ndarray) -> float:
    """Sum |eigenvalues| - 1 of the partial transpose of a two-qubit matrix.

    Values in [-1e-12, 0) are rounding residue on separable states and are
    clamped to 0.
    """
    rho = check_density(rho_ss, 4)
    transposed = partial_transpose(rho, SPIN_PAIR_LAYOUT, "SA")  # Hermitian, as rho is
    return float(_clamp_residue(np.sum(np.abs(_symmetrized_eigenvalues(transposed))) - 1.0))


def _boost_deltas(st: TwoParticleState, b: BoostSpec) -> tuple[float, float]:
    """(E_G, N) at the boost minus at the origin, from one kernel call, as the sweep's delta_*."""
    theta = np.arccos(np.clip(b.direction[2], -1.0, 1.0))  # names a failed point
    tables = _tables(assemble_state_vector(st).reshape(4, 4), b.direction[None])
    _, eg, neg, _ = _measure_chunk(tables, *_grid([0.0, b.rapidity], [theta]))
    return float(eg[1] - eg[0]), float(neg[1] - neg[0])


def delta_global(st: TwoParticleState, b: BoostSpec) -> float:
    """Change of global entanglement under a boost (boosted minus original).

    A boost the kernel cannot measure is a ``SweepError``, which is a ``ValueError``."""
    return _boost_deltas(st, b)[0]


def delta_negativity(st: TwoParticleState, b: BoostSpec) -> float:
    """Change of spin-spin negativity under a boost (boosted minus original).

    Fails as :func:`delta_global` does."""
    return _boost_deltas(st, b)[1]


# ---------------------------------------------------------------------------
# Closed-form transformed Bloch vectors
# ---------------------------------------------------------------------------


def _common_slot_momentum(st: TwoParticleState, slot: str):
    momenta = [(t.slot_a if slot == "A" else t.slot_b)[0] for t in st.terms]
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


def _slot_tables(st: TwoParticleState, slot: str, rapidities, directions):
    """Per-term-pair traces of the boosted single-slot blocks, for N boosts.

    For one slot with common momentum K and terms carrying helicity spinors
    chi_i, the boosted block of the pair (i, j) has parity and spin traces
    linear in the boost-independent Tr[Xi], Tr[sigma_k Xi] and
    Tr[sigma_a sigma_k Xi sigma_l], where Xi = chi_i chi_j^dagger.  Returns
    (gram, mu, t_spin, t_parity) with shapes (M, M), (N, M, M), (N, M, M, 3)
    and (N, M, M, 3); gram, the slot's Gram matrix, is mu at w = 0.
    """
    momentum = _common_slot_momentum(st, slot)
    energy, mass, knorm = momentum.energy, momentum.mass, momentum.p_norm
    alpha = (energy + mass) / (2.0 * energy)
    gamma = (energy - mass) / (2.0 * energy)
    beta = knorm / (2.0 * energy)

    labels = [(t.slot_a if slot == "A" else t.slot_b)[1] for t in st.terms]
    chis = np.array([helicity_spinor(momentum, s) for s in labels])
    h = np.array([3.0 - 2.0 * s for s in labels])
    hh = np.outer(h, h)
    diag_w = alpha + gamma * hh
    beta_hsum = beta * (h[:, None] + h[None, :])

    # xi[i, j] = chi_i chi_j^dagger; its traces, with sigma_k and sandwiched
    xi = np.einsum("ip,jq->ijpq", chis, chis.conj())
    tr = np.einsum("ijpp->ij", xi)
    tr_sigma = np.einsum("kqp,ijpq->ijk", PAULI, xi)
    tr_sandwich = np.einsum("aqr,krs,ijst,ltq->ijakl", PAULI, PAULI, xi, PAULI)

    w, n = rapidities[:, None, None], directions
    ch, sh = np.cosh(w), np.sinh(w)
    c2, s2 = np.cosh(w / 2.0) ** 2, np.sinh(w / 2.0) ** 2
    tr_n = np.einsum("ijk,nk->nij", tr_sigma, n)
    sandwich_n = np.einsum("ijakl,nk,nl->nija", tr_sandwich, n, n)

    mu = ch * diag_w * tr - sh * beta_hsum * tr_n
    t_spin = diag_w[..., None] * (
        c2[..., None] * tr_sigma + s2[..., None] * sandwich_n
    ) - (sh * beta_hsum * tr)[..., None] * n[:, None, None, :]
    t_parity = np.empty_like(t_spin)
    t_parity[..., 0] = ch * beta_hsum * tr - sh * diag_w * tr_n
    t_parity[..., 1] = beta * (h[None, :] - h[:, None]) * tr
    t_parity[..., 2] = (alpha - gamma * hh) * tr
    return diag_w * tr, mu, t_spin, t_parity


def _analytic_bloch_batch(st: TwoParticleState, rapidities, directions) -> np.ndarray:
    """Closed-form Bloch vectors for boosts ``rapidities`` (N,) along ``directions`` (N, 3).

    Returns (N, 4, 3) in PA, SA, PB, SB order, as the sweep kernel's
    ``bloch``.  Raises ValueError naming the first rapidity whose boost
    normalization overflows or collapses.
    """
    with np.errstate(all="ignore"):  # overflow is reported below, with its rapidity
        gram_a, mu_a, ts_a, tp_a = _slot_tables(st, "A", rapidities, directions)
        gram_b, mu_b, ts_b, tp_b = _slot_tables(st, "B", rapidities, directions)

        coeffs = np.array([t.coefficient for t in st.terms], dtype=complex)
        weights = np.outer(coeffs, coeffs.conj())
        # Term overlaps factorize over slots; the Gram matrices normalize the
        # raw coefficients.
        norm_sq = float(np.real(np.sum(weights * gram_a * gram_b)))
        if norm_sq < 1e-28:
            raise ValueError("superposition cancels to the zero vector")
        weights = weights / norm_sq

        nu = np.real(np.sum(weights * mu_a * mu_b, axis=(1, 2)))
        bad = ~(np.isfinite(nu) & (nu > 0.0))
        if bad.any():
            k = int(np.argmax(bad))
            raise ValueError(
                f"boost normalization failed at rapidity {rapidities[k]:.6g} (nu = {nu[k]})"
            )
        out = [
            np.sum((weights * partner)[..., None] * tables, axis=(1, 2))
            for tables, partner in ((tp_a, mu_b), (ts_a, mu_b), (tp_b, mu_a), (ts_b, mu_a))
        ]
    return np.real(np.stack(out, axis=1)) / nu[:, None, None]


def analytic_boosted_bloch(
    st: TwoParticleState, b: BoostSpec
) -> dict[str, BlochVector]:
    """Transformed Bloch vectors of all four qubits from closed-form sums.

    Supports states whose slot-A momenta all coincide and whose slot-B
    momenta all coincide, with both momenta along the z axis.  This is an
    independent oracle for the numeric boost-reduce-measure pipeline; the
    parity y-components vanish identically.
    """
    bloch = _analytic_bloch_batch(st, np.array([b.rapidity]), b.direction[None, :])
    return {tag: BlochVector(*row) for tag, row in zip(SUBSYSTEM_TAGS, bloch[0].tolist())}
