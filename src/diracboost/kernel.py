"""The batched boost-and-measure kernel behind ``sweep``, ``verify`` and ``delta_*``.

The boost along ``n`` is ``S = exp(-(w/2) G)``, ``G = sigma_x (x) n.sigma``.  In the eigenbasis
``U`` of ``G`` (eigenvalues -1, -1, 1, 1), ``Psi' = S Psi S^T = U (D Phi D) U^T`` with ``Phi =
U^dag Psi U^*``: the boost scales the top-left, off-diagonal and bottom-right 2x2 blocks of
``Phi`` by ``e^w``, 1 and ``e^-w``.  So each of the 29 outputs before the eigensolve is ``sum_m
e^{m w} W_m`` (m = 2 .. -2) from one table per state and direction, and ``nu`` never cancels.
"""

from __future__ import annotations

import numpy as np

from .kinematics import E_Z, _boost_eigenbasis
from .tensor import PAULI

_EPS = np.finfo(float).eps
#: Masks of the blocks of Phi that the boost scales by e^w, 1 and e^-w.
_BLOCKS = np.add.outer([0, 0, 1, 1], [0, 0, 1, 1]) == np.arange(3)[:, None, None]
#: ``_PAIRS[r, 3 i + j] = 1`` where blocks i and j together carry e^{(2 - r) w}.
_PAIRS = np.equal.outer(np.arange(5), np.add.outer(np.arange(3), np.arange(3)).ravel()) * 1.0
#: The 29 outputs are u^dag O_q u for u = vec(Psi'): nu (O = I), the Bloch numerators
#: (sigma_k on PA, SA, PB, SB) and the spin-spin matrix transposed on SA, whose entry
#: [(a, b'), (a', b)] sums Psi[pA a, pB b] Psi*[pA a', pB b'] over pA, pB.  No row of
#: an O_q has two nonzeros, so (O_q u)_i = _COEF[q, i] u[_COL[q, i]].
_SINGLE = [np.einsum("ij,kab,lm->kialjbm", np.eye(2**t), PAULI, np.eye(8 >> t)) for t in range(4)]
_PAIR = np.einsum("pP,qQ,sA,tB,Sa,Tb->aBAbpsqtPSQT", *[np.eye(2)] * 6)
_OPERATORS = np.concatenate([op.reshape(-1, 16, 16) for op in [np.eye(16), *_SINGLE, _PAIR]])
_COL = np.argmax(_OPERATORS != 0.0, axis=2)
_COEF = np.take_along_axis(_OPERATORS, _COL[..., None], axis=2)[..., 0]


class SweepError(ValueError):
    """A grid point failed (a ``ValueError``); the message carries its (omega, theta) coordinates."""


def _point_error(omega: float, theta: float, reason) -> SweepError:
    return SweepError(f"sweep point (omega={omega:.6g}, theta={theta:.6g}) failed: {reason}")


def _clamp_residue(values):
    """Snap values in [-1e-12, 0), rounding residue on pure or separable states, to 0."""
    return np.where((values >= -1e-12) & (values < 0.0), 0.0, values)


def _direction_tables(psi, directions):
    """Real tables (k, 5, 29) of the 4x4 ``psi`` for k unit directions, rows m = 2 .. -2."""
    u = _boost_eigenbasis(directions)
    phi = u.conj().transpose(0, 2, 1) @ psi @ u.conj()
    # below the float state's own resolution; left in, the boost would amplify the residue
    phi[np.abs(phi) <= 16 * _EPS * np.linalg.norm(psi)] = 0.0
    blocks = (u[:, None] @ (phi[:, None] * _BLOCKS) @ u[:, None].swapaxes(2, 3)).reshape(-1, 3, 16)
    applied = blocks[:, np.arange(3)[:, None], _COL.T[:, None]]  # [k, l, j, q]: O_q block j
    applied *= _COEF.T[:, None]
    tables = _PAIRS @ (blocks.conj() @ applied.reshape(-1, 16, 87)).reshape(-1, 9, 29)
    # entries within their rounding error of 0 (symmetry makes many) become exactly 0
    norms = np.linalg.norm(blocks, axis=2)
    bound = 16 * _EPS * (norms[:, :, None] * norms[:, None, :]).reshape(-1, 9) @ _PAIRS.T
    parts = tables.view(float)
    parts[np.abs(parts) <= bound[:, :, None]] = 0.0
    # W_m is Hermitian: 16 reals, its spin-spin lower triangle with the imaginary parts above
    spin = tables[..., 13:].reshape(-1, 5, 4, 4)
    spin = np.tril(spin.real) + np.triu(spin.imag.swapaxes(2, 3), 1)
    return np.concatenate([tables[..., :13].real, spin.reshape(-1, 5, 16)], axis=2)


def _tables(psi, directions):
    """The (1 + k, 5, 29) tables of the 4x4 ``psi``: row 0 for ``E_Z``, which every ``omega = 0``
    point reads, then one row per unit direction (k, 3)."""
    directions = np.concatenate([E_Z[None, :], directions])
    tables = np.empty((len(directions), 5, 29))
    # 16 directions at a time keep the build's working arrays below 1 MB
    for s in range(0, len(directions), 16):
        tables[s : s + 16] = _direction_tables(psi, directions[s : s + 16])
    return tables


def _measure_chunk(tables, omegas, thetas, columns):
    """Boost a state's :func:`_tables` to every point of one chunk, point i along ``columns[i]``.
    Returns ``(nu, eg, negativity, bloch)`` per point, ``bloch`` (n, 4, 3) in PA, SA, PB, SB
    order.  ``omega = 0`` rows read the table of ``E_Z`` and keep ``nu = 1`` exactly, so their
    ``delta_*`` are 0.  A ``nu`` out of the float range is a :class:`SweepError`."""
    rest = omegas == 0.0
    w = tables[np.where(rest, 0, 1 + columns)]
    with np.errstate(all="ignore"):  # a nu out of range is reported below, with its point
        exponents = np.multiply.outer(omegas, 2.0 - np.arange(5))  # m omega, m = 2 .. -2
        top = np.max(np.where(w[:, ::2, 0] > 0.0, exponents[:, ::2], -np.inf), axis=1)
        # top, the largest weighted term, factored out; clamping a degree above it avoids inf * 0
        out = (np.exp(np.minimum(exponents - top[:, None], 0.0))[:, None, :] @ w)[:, 0]
        nu = np.exp(top) * out[:, 0]
    del w  # the largest array here
    bad = ~((nu >= np.finfo(float).tiny) & (nu < np.inf))
    if bad.any():
        k = int(np.argmax(bad))
        raise _point_error(omegas[k], thetas[k], f"boost normalization failed (nu = {nu[k]})")
    nu[rest] = 1.0  # the table's |Psi|^2, which is 1 only to rounding
    out /= out[:, :1]

    bloch = out[:, 1:13].reshape(-1, 4, 3)
    eg = np.sum(_clamp_residue(1.0 - np.sum(bloch**2, axis=2)), axis=1) / 4.0
    spin = out[:, 13:].reshape(-1, 4, 4)
    # eigvalsh reads only the lower triangle and the real diagonal of each matrix
    transposed = spin + 1j * spin.swapaxes(1, 2)
    try:
        eigenvalues = np.linalg.eigvalsh(transposed)
    except np.linalg.LinAlgError as exc:
        for k, matrix in enumerate(transposed):
            try:
                np.linalg.eigvalsh(matrix)
            except np.linalg.LinAlgError:
                raise _point_error(omegas[k], thetas[k], exc) from exc
        raise
    # summed in descending order, as the per-point negativity does
    neg = _clamp_residue(np.sum(np.abs(eigenvalues[:, ::-1]), axis=1) - 1.0)
    return nu, eg, neg, bloch


def _grid(omega_points, theta_points, start=0, stop=None):
    """``(omegas, thetas, columns)`` of points ``start:stop`` of the omega-major grid; a
    point's column is the index of its theta in ``theta_points``."""
    omega_points, theta_points = np.asarray(omega_points, float), np.asarray(theta_points, float)
    size = len(omega_points) * len(theta_points)
    i, j = np.divmod(np.arange(start, size if stop is None else min(stop, size)), len(theta_points))
    return omega_points[i], theta_points[j], j
