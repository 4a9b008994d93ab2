"""Dense tensor utilities for registers of qubits.

Everything in this package lives in 2-, 4-, or 16-dimensional complex spaces
built as Kronecker products of qubit factors.  A :class:`SubsystemLayout`
fixes the factor ordering: the first tag is the most significant bit of the
flat basis index, so for a layout ``("PA", "SA", "PB", "SB")`` the basis
index is ``8*pA + 4*sA + 2*pB + sB``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULI = (PAULI_X, PAULI_Y, PAULI_Z)
ID2 = np.eye(2, dtype=complex)

#: Absolute tolerance on ``max|H - H†|`` accepted by :func:`hermitian_eigenvalues`.
HERMITICITY_TOL = 1e-10


@dataclass(frozen=True)
class SubsystemLayout:
    """Ordered qubit register used to address tensor factors by tag.

    Every factor is a qubit (dimension 2), so the tags alone fix the layout.
    The first tag varies slowest in the flat index (most significant bit).
    """

    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        labels = tuple(self.labels)
        object.__setattr__(self, "labels", labels)
        if not labels:
            raise ValueError("layout needs at least one subsystem")
        if len(set(labels)) != len(labels):
            raise ValueError(f"subsystem tags must be unique, got {labels!r}")

    @property
    def dim(self) -> int:
        return 2 ** len(self.labels)

    def axis(self, tag: str) -> int:
        try:
            return self.labels.index(tag)
        except ValueError:
            raise ValueError(f"unknown subsystem tag {tag!r}; layout has {self.labels!r}") from None


def kron(*factors: np.ndarray) -> np.ndarray:
    """Kronecker product of one or more vectors/matrices, left to right."""
    if not factors:
        raise ValueError("kron needs at least one factor")
    out = np.asarray(factors[0], dtype=complex)
    for f in factors[1:]:
        out = np.kron(out, np.asarray(f, dtype=complex))
    return out


def _check_square(rho: np.ndarray, layout: SubsystemLayout) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    d = layout.dim
    if rho.shape != (d, d):
        raise ValueError(
            f"matrix shape {rho.shape} does not match layout dimension {d}"
        )
    return rho


def partial_trace(
    rho: np.ndarray, layout: SubsystemLayout, keep: Iterable[str]
) -> np.ndarray:
    """Trace out every subsystem not listed in ``keep``.

    Kept factors appear in the result in layout order regardless of the
    order of ``keep``.  An empty ``keep`` traces over everything and returns
    the total trace as a 1x1 matrix.
    """
    rho = _check_square(rho, layout)
    keep_set = set(keep)
    unknown = keep_set - set(layout.labels)
    if unknown:
        raise ValueError(f"unknown subsystem tags {sorted(unknown)!r}")
    n = len(layout.labels)
    cur = rho.reshape([2] * (2 * n))
    nrem = n
    for i in reversed(range(n)):
        if layout.labels[i] not in keep_set:
            cur = np.trace(cur, axis1=i, axis2=i + nrem)
            nrem -= 1
    d = 2**nrem
    return cur.reshape(d, d)


def partial_transpose(
    rho: np.ndarray, layout: SubsystemLayout, target: str
) -> np.ndarray:
    """Transpose the indices of a single tensor factor."""
    rho = _check_square(rho, layout)
    i = layout.axis(target)
    n = len(layout.labels)
    cur = rho.reshape([2] * (2 * n))
    cur = np.swapaxes(cur, i, i + n)
    return cur.reshape(layout.dim, layout.dim)


def hermitian_eigenvalues(h: np.ndarray, tol: float = HERMITICITY_TOL) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix, sorted in descending order.

    The input is symmetrized as (H + H†)/2 before the solve to absorb
    rounding accumulated upstream; inputs whose anti-Hermitian part exceeds
    ``tol`` are rejected.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {h.shape}")
    residue = np.max(np.abs(h - h.conj().T))
    if residue > tol:
        raise ValueError(
            f"matrix is not Hermitian: max|H - H†| = {residue:.3e} exceeds {tol:.0e}"
        )
    sym = (h + h.conj().T) / 2.0
    vals = np.linalg.eigvalsh(sym)
    return vals[::-1].copy()


def outer(vec: np.ndarray) -> np.ndarray:
    """Rank-1 density matrix |v><v| of a (not necessarily unit) vector."""
    v = np.asarray(vec, dtype=complex).reshape(-1)
    return np.outer(v, v.conj())
