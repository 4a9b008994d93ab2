"""Dense tensor utilities for registers of qubits.

Everything in this package lives in 2-, 4-, or 16-dimensional complex spaces
built as Kronecker products of qubit factors.  A :class:`SubsystemLayout`
fixes the factor ordering: the first tag is the most significant bit of the
flat basis index, so for a layout ``("PA", "SA", "PB", "SB")`` the basis
index is ``8*pA + 4*sA + 2*pB + sB``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULI = (PAULI_X, PAULI_Y, PAULI_Z)
ID2 = np.eye(2, dtype=complex)

#: Absolute tolerance on ``max|H - H†|`` of a matrix taken as Hermitian.
HERMITICITY_TOL = 1e-10
#: Absolute tolerance on ``|Tr rho - 1|`` accepted by :func:`check_density`.
TRACE_TOL = 1e-10


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
    """Kronecker product of one or more arrays, left to right, bit for bit ``np.kron``: as there,
    a lower-rank factor gets leading length-1 axes, and broadcasting puts a_ij b_kl at (ik, jl)."""
    if not factors:
        raise ValueError("kron needs at least one factor")
    out = np.asarray(factors[0], dtype=complex)
    for f in factors[1:]:
        f = np.asarray(f, dtype=complex)
        a, b = ((1,) * (max(out.ndim, f.ndim) - x.ndim) + x.shape for x in (out, f))
        spread_a = out.reshape([n for s in a for n in (s, 1)])
        spread_b = f.reshape([n for s in b for n in (1, s)])
        out = (spread_a * spread_b).reshape([x * y for x, y in zip(a, b)])
    return out


def _check_square(rho: np.ndarray, layout: SubsystemLayout) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    d = layout.dim
    if rho.shape != (d, d):
        raise ValueError(
            f"matrix shape {rho.shape} does not match layout dimension {d}"
        )
    return rho


def check_density(rho: np.ndarray, dim: int) -> np.ndarray:
    """``rho`` as a complex ``dim x dim`` density matrix: unit trace and Hermitian, to tolerance."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (dim, dim):
        raise ValueError(f"expected a {dim}x{dim} density matrix, got shape {rho.shape}")
    trace = complex(rho.trace())
    if abs(trace - 1.0) > TRACE_TOL:
        raise ValueError(f"density matrix must have unit trace, got {trace!r}")
    _check_hermitian(rho, "density matrix")
    return rho


def _check_hermitian(h: np.ndarray, name: str) -> None:
    residue = np.abs(h - h.conj().T).max()
    if residue > HERMITICITY_TOL:
        raise ValueError(
            f"{name} is not Hermitian: max|H - H†| = {residue:.3e} exceeds {HERMITICITY_TOL:.0e}"
        )


def partial_trace(
    rho: np.ndarray, layout: SubsystemLayout, keep: Iterable[str]
) -> np.ndarray:
    """Trace out every subsystem not listed in ``keep``.

    Kept factors appear in the result in layout order regardless of the
    order of ``keep``.  An empty ``keep`` traces over everything and returns
    the total trace as a 1x1 matrix.
    """
    rho = _check_square(rho, layout)
    labels, out = _trace_labels(layout, keep)
    d = 2 ** (len(out) // 2)
    return np.einsum(rho.reshape([2] * len(labels)), labels, out).reshape(d, d)


def _trace_labels(layout: SubsystemLayout, keep: Iterable[str]) -> tuple[list[int], list[int]]:
    """einsum ``(labels, output)`` of :func:`partial_trace` on the ``[2] * 2n`` reshape: qubit i's
    column index is label n + i if kept, or repeats its row label i, which traces it out."""
    keep_set = set(keep)
    unknown = keep_set - set(layout.labels)
    if unknown:
        raise ValueError(f"unknown subsystem tags {sorted(unknown)!r}")
    n = len(layout.labels)
    kept = [i for i, tag in enumerate(layout.labels) if tag in keep_set]
    cols = [n + i if i in kept else i for i in range(n)]
    return [*range(n), *cols], kept + [n + i for i in kept]


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


def hermitian_eigenvalues(h: np.ndarray) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix, sorted in descending order.

    The input is symmetrized as (H + H†)/2 before the solve to absorb
    rounding accumulated upstream; inputs whose anti-Hermitian part exceeds
    :data:`HERMITICITY_TOL` are rejected.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {h.shape}")
    _check_hermitian(h, "matrix")
    return _symmetrized_eigenvalues(h)


def _symmetrized_eigenvalues(h: np.ndarray) -> np.ndarray:
    """Descending eigenvalues of ``(H + H†)/2``, for an ``H`` already held Hermitian."""
    return np.linalg.eigvalsh((h + h.conj().T) / 2.0)[::-1].copy()


def outer(vec: np.ndarray) -> np.ndarray:
    """Rank-1 density matrix |v><v| of a (not necessarily unit) vector."""
    v = np.asarray(vec, dtype=complex).reshape(-1)
    return np.outer(v, v.conj())
