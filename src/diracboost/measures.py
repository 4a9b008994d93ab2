"""Entanglement measures and the boosted Bloch-vector oracle.

Two independent routes to the same physics meet here.  The per-point
functions below take the unit 16-vector of amplitudes of a pure two-particle
state and validate it once; the batched kernel (``kernel._measure_grid``,
also behind ``delta_*``) boosts whole grids in the boost generator's
eigenbasis.  The oracle (``analytic_boosted_bloch``, batched in
``_analytic_bloch_batch``) applies the textbook boost ``Psi' = S Psi S^T``
and reduces ``Psi'`` with the per-point reductions, sharing no code with the
kernel; verify check c09 and the test suite hold the two routes to each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .kernel import SweepError, _clamp_residue, _measure_grid
from .kinematics import BOOST_GENERATORS, BoostSpec
from .states import TWO_PARTICLE_LAYOUT, SuperpositionTerm, assemble_state_vector
from .tensor import _symmetrized_eigenvalues, _trace_labels, check_state


def _reduction(keep):
    """Reduce ``psi psi^dag`` onto ``keep`` from the ``[..., 2, 2, 2, 2]`` amplitudes of ``psi``:
    the rows of ``partial_trace``'s einsum labels go on ``psi``, its columns on ``psi^*``."""
    labels, out = _trace_labels(TWO_PARTICLE_LAYOUT, keep)
    rows, cols, out = ([..., *part] for part in (labels[:4], labels[4:], out))
    return lambda amp: np.einsum(amp, rows, amp.conj(), cols, out)


_ONE_QUBIT = {tag: _reduction((tag,)) for tag in TWO_PARTICLE_LAYOUT}
_SPIN_PAIR = _reduction(("SA", "SB"))
_DELTAS = ("delta_eg", "delta_negativity")


@dataclass(frozen=True)
class BlochVector:
    """Components a_n = Tr[sigma_n rho] of a qubit.  Both producers keep |a| <= 1 + 2 TRACE_TOL:
    a reduction of a state check_state admits has trace at most 1 + TRACE_TOL, and rounding gets
    as much again; the oracle's nu check keeps its components finite."""

    x: float
    y: float
    z: float

    @property
    def norm_sq(self) -> float:
        return self.x**2 + self.y**2 + self.z**2


def _purity(rho: np.ndarray) -> float:
    """``Tr rho^2`` of a Hermitian ``rho``: the sum of ``|rho_ij|^2``."""
    return float(np.vdot(rho, rho).real)


def _bloch_components(rho: np.ndarray) -> tuple:
    """Tr[sigma_n rho] of Hermitian 2x2 matrices on the last two axes: 2 Re rho_10, 2 Im rho_10
    and rho_00 - rho_11."""
    off = rho[..., 1, 0]
    return 2.0 * off.real, 2.0 * off.imag, (rho[..., 0, 0] - rho[..., 1, 1]).real


def single_qubit_reductions(psi: np.ndarray) -> dict[str, np.ndarray]:
    """All four 2x2 reduced matrices of a two-particle state vector."""
    amp = check_state(psi).reshape([2] * 4)
    return {tag: reduce(amp) for tag, reduce in _ONE_QUBIT.items()}


def bloch_vector(psi: np.ndarray) -> dict[str, BlochVector]:
    """The Bloch vectors Tr[sigma_n rho] of the four qubits of a state vector, keyed by tag."""
    return {tag: BlochVector(*map(float, _bloch_components(rho)))
            for tag, rho in single_qubit_reductions(psi).items()}


def global_entanglement(psi: np.ndarray) -> float:
    """Mean linear entropy 2 (1 - sum_k Tr rho_k^2 / 4) of the four qubits of a state vector."""
    purities = sum(_purity(r) for r in single_qubit_reductions(psi).values())
    return float(_clamp_residue(2.0 * (1.0 - purities / 4.0)))


def spin_spin_reduced(psi: np.ndarray) -> np.ndarray:
    """Trace both parity qubits out of a two-particle state vector."""
    return _SPIN_PAIR(check_state(psi).reshape([2] * 4)).reshape(4, 4)


def negativity(psi: np.ndarray) -> float:
    """Spin-spin negativity of a state vector: sum |eigenvalues| - 1 of the partial transpose of
    :func:`spin_spin_reduced`.

    Values within 1e-12 outside [0, 1] are rounding residue and are snapped onto it.
    """
    # the partial transpose on SA swaps its row and column axes; the result is Hermitian
    transposed = spin_spin_reduced(psi).reshape(2, 2, 2, 2).swapaxes(0, 2).reshape(4, 4)
    return float(_clamp_residue(np.sum(np.abs(_symmetrized_eigenvalues(transposed))) - 1.0))


def _boost_deltas(terms: Sequence[SuperpositionTerm], b: BoostSpec) -> tuple[float, float]:
    """(E_G, N) at the boost minus at the origin: the sweep's delta_* of a one-point grid."""
    theta = np.arccos(np.clip(b.direction[2:], -1.0, 1.0))  # names a failed point
    psi = assemble_state_vector(terms).reshape(4, 4)
    grid = _measure_grid(psi, b.direction[None], np.array([b.rapidity]), theta, _DELTAS)
    try:
        return tuple(next(grid)[0].tolist())
    except SweepError as exc:  # theta alone names no direction off the x-z plane
        raise SweepError(f"{exc}; boost direction n = {b.direction.tolist()}") from exc


def delta_global(terms: Sequence[SuperpositionTerm], b: BoostSpec) -> float:
    """Change of global entanglement under a boost (boosted minus original).

    A boost the kernel cannot measure is a ``SweepError``, which is a ``ValueError``."""
    return _boost_deltas(terms, b)[0]


def delta_negativity(terms: Sequence[SuperpositionTerm], b: BoostSpec) -> float:
    """Change of spin-spin negativity under a boost (boosted minus original).

    Fails as :func:`delta_global` does."""
    return _boost_deltas(terms, b)[1]


# ---------------------------------------------------------------------------
# The boosted Bloch-vector oracle
# ---------------------------------------------------------------------------


def _analytic_bloch_batch(psi, rapidities, directions) -> tuple[np.ndarray, np.ndarray]:
    """Bloch vectors (N, 4, 3) in PA, SA, PB, SB order, as the sweep kernel's ``bloch``, and
    ``nu`` (N,) of the unit 16-vector ``psi`` boosted by ``rapidities`` (N,) along unit
    ``directions`` (N, 3).

    Each boost is the formula of ``bispinor_boost``, ``S = cosh(w/2) I - sinh(w/2) n.G``, applied
    as ``Psi' = S Psi S^T`` with ``nu = |Psi'|^2``.  Raises ValueError naming the first rapidity
    whose ``nu`` overflows or collapses.
    """
    w = np.asarray(rapidities, dtype=float)
    half = w[:, None, None] / 2.0
    generators = (directions @ BOOST_GENERATORS.reshape(3, 16)).reshape(-1, 4, 4)
    with np.errstate(all="ignore"):  # overflow is reported below, with its rapidity
        s = np.cosh(half) * np.eye(4) - np.sinh(half) * generators
        boosted = s @ psi.reshape(4, 4) @ s.swapaxes(1, 2)
        nu = np.sum(np.abs(boosted) ** 2, axis=(1, 2))
    bad = ~(np.isfinite(nu) & (nu > 0.0))
    if bad.any():
        k = int(np.argmax(bad))
        raise ValueError(f"boost normalization failed at rapidity {w[k]:.6g} (nu = {nu[k]})")
    amp = (boosted / np.sqrt(nu)[:, None, None]).reshape(-1, 2, 2, 2, 2)
    return np.stack([np.stack(_bloch_components(r(amp)), -1) for r in _ONE_QUBIT.values()], 1), nu


def analytic_boosted_bloch(
    terms: Sequence[SuperpositionTerm], b: BoostSpec
) -> dict[str, BlochVector]:
    """Transformed Bloch vectors of all four qubits of any state, from the textbook boost.

    One point of :func:`_analytic_bloch_batch`.  It shares no code with the sweep kernel (no
    eigenbasis, no tables), so it is an independent oracle for the boost-reduce-measure
    pipeline.  Where a boost shrinks the state (psi1 along its momenta, the chiral singlet in any
    direction) the cosh/sinh product cancels, which the kernel's eigenbasis avoids: there the
    Bloch vectors drift from the kernel's by about 1e-12 at omega = 10 and 3e-8 at omega = 20,
    while psi2 and psi3 agree within 6e-16 through omega = 20.
    """
    psi = assemble_state_vector(terms)
    bloch, _ = _analytic_bloch_batch(psi, [b.rapidity], b.direction[None])
    return {tag: BlochVector(*row) for tag, row in zip(TWO_PARTICLE_LAYOUT, bloch[0].tolist())}
