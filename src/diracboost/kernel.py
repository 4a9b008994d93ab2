"""The batched boost-and-measure kernel behind ``sweep``, ``verify`` and ``delta_*``.

A boosted pair ``Psi' = S Psi S^T``, with ``S = c I - s sum_k n_k sigma_x (x)
sigma_k``, is ``sum_j a_j B_j``: ten coefficients ``a = (c^2, -cs n_k, s^2 n_k
n_l)`` (``k <= l``) times ten matrices ``B_j`` built once from ``Psi``.  The 29
outputs before the eigensolve are sesquilinear in ``Psi'``, so the quadratic
route takes them for a chunk from one ``(n, 55) @ (55, 29)`` product of the
``a_i a_j`` with a per-state table.  It loses ``eps * kappa`` relative to
``nu``, ``kappa = (sum_j |a_j| |B_j|_F)^2 / nu``, where forming ``Psi' = a @ B``
(the amplitude route) loses ``eps * sqrt(kappa)``.  Rows with ``kappa >
_KAPPA_LIMIT`` or a quadratic ``nu`` that is not finite and positive take the
amplitude route.  ``omega = 0`` rows (``a = (1, 0, ...)``, ``kappa = 1``) take
the quadratic route, which gives them the table's own row for ``Psi``.
"""

from __future__ import annotations

import functools

import numpy as np

from .kinematics import BOOST_GENERATORS
from .states import _ZERO_NORM_TOL
from .tensor import PAULI

#: Largest ``kappa`` on the quadratic route: its error ``eps * kappa`` stays below 2.2e-13.
_KAPPA_LIMIT = 1e3
_K, _L = np.triu_indices(3)
_I, _J = np.triu_indices(10)
#: The 29 outputs are u^dag O_q u for u = vec(Psi'): nu (O = I), the Bloch numerators
#: (sigma_k on PA, SA, PB, SB) and the spin-spin matrix transposed on SA, whose entry
#: [(a, b'), (a', b)] sums Psi[pA a, pB b] Psi*[pA a', pB b'] over pA, pB.
_OPERATORS = np.concatenate(
    [
        op.reshape(-1, 256)
        for op in [np.eye(16)]
        + [np.einsum("ij,kab,lm->kialjbm", np.eye(2**t), PAULI, np.eye(8 >> t)) for t in range(4)]
        + [np.einsum("pP,qQ,sA,tB,Sa,Tb->aBAbpsqtPSQT", *[np.eye(2)] * 6)]
    ]
).reshape(29, 16, 16)


class SweepError(RuntimeError):
    """A grid point failed; the message carries its (omega, theta) coordinates."""


def _point_error(omega: float, theta: float, reason) -> SweepError:
    return SweepError(f"sweep point (omega={omega:.6g}, theta={theta:.6g}) failed: {reason}")


def _clamp_residue(values):
    """Snap values in [-1e-12, 0), rounding residue on pure or separable states, to 0."""
    return np.where((values >= -1e-12) & (values < 0.0), 0.0, values)


@functools.lru_cache(maxsize=16)
def _state_tables(key: bytes):
    """Basis ``B_j`` (10, 16), norms ``|B_j|_F`` (10,) and the (55, 29) table for ``key``."""
    psi = np.frombuffer(key, dtype=complex).reshape(4, 4)
    g, gt = BOOST_GENERATORS, BOOST_GENERATORS.transpose(0, 2, 1)
    sandwich = g[:, None] @ psi @ gt[None, :]
    pairs = sandwich[_K, _L] + (_K < _L)[:, None, None] * sandwich[_L, _K]
    basis = np.concatenate([psi[None], g @ psi + psi @ gt, pairs]).reshape(10, 16)
    forms = basis.conj() @ (_OPERATORS @ basis.T)  # [q, i, j] = B_i^dag O_q B_j
    table = np.ascontiguousarray((forms + forms.transpose(0, 2, 1))[:, _I, _J].T)
    table[_I == _J] /= 2.0
    norms = np.linalg.norm(basis, axis=1)
    # entries within their rounding error of 0 (symmetry makes many) become exactly 0
    parts = table.view(float)
    parts[np.abs(parts) <= 16 * np.finfo(float).eps * (norms[_I] * norms[_J])[:, None]] = 0.0
    for shared in (basis, norms, table):
        shared.setflags(write=False)
    return basis, norms, table


def _measure_chunk(psi, omegas, thetas, directions):
    """Boost the 4x4 coefficient matrix ``psi`` to every point of one chunk.

    Returns ``(nu, eg, negativity, bloch)`` per point, ``bloch`` of shape (n, 4, 3)
    in PA, SA, PB, SB order; ``omega = 0`` rows take the quadratic route and keep
    ``nu = 1`` exactly, so their ``delta_*`` are exactly 0.  Raises
    :class:`SweepError` naming the first point that fails.
    """
    psi = np.ascontiguousarray(psi, dtype=complex)
    basis, norms, table = _state_tables(psi.tobytes())
    half = (omegas / 2.0)[:, None]
    with np.errstate(all="ignore"):  # overflow is reported below, with its point
        c, s, n = np.cosh(half), np.sinh(half), directions
        a = np.concatenate([c * c, -c * s * n, s * s * n[:, _K] * n[:, _L]], axis=1)
        out = ((a[:, _I] * a[:, _J]) @ table.view(float)).view(complex)
        nu = out[:, 0].real.copy()
        kappa = (np.abs(a) @ norms) ** 2 / nu
        out /= nu[:, None]
    amplitude = ~(np.isfinite(nu) & (nu > _ZERO_NORM_TOL) & (kappa <= _KAPPA_LIMIT))
    if amplitude.any():
        with np.errstate(all="ignore"):
            boosted = a[amplitude] @ basis
            nu[amplitude] = np.sum(boosted.real**2 + boosted.imag**2, axis=1)
        bad = ~(np.isfinite(nu) & (nu > _ZERO_NORM_TOL))
        if bad.any():
            k = int(np.argmax(bad))
            raise _point_error(omegas[k], thetas[k], f"boost normalization failed (nu = {nu[k]})")
        amp = boosted / np.sqrt(nu[amplitude])[:, None]
        products = (amp.conj()[:, :, None] * amp[:, None, :]).reshape(-1, 256)
        out[amplitude] = products @ _OPERATORS.reshape(29, 256).T
    nu[omegas == 0.0] = 1.0  # the table's |Psi|^2, which is 1 only to rounding

    bloch = out[:, 1:13].real.reshape(-1, 4, 3)
    eg = np.sum(_clamp_residue(1.0 - np.sum(bloch**2, axis=2)), axis=1) / 4.0
    transposed = out[:, 13:].reshape(-1, 4, 4)
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
    """Points ``start:stop`` of the omega-major (omega, theta) grid, built on demand.

    Returns ``(omegas, thetas, directions)``, directions ``(sin theta, 0, cos theta)``.
    """
    omega_points, theta_points = np.asarray(omega_points, float), np.asarray(theta_points, float)
    size = len(omega_points) * len(theta_points)
    i, j = np.divmod(np.arange(start, size if stop is None else min(stop, size)), len(theta_points))
    thetas = theta_points[j]
    directions = np.stack([np.sin(thetas), np.zeros_like(thetas), np.cos(thetas)], axis=1)
    return omega_points[i], thetas, directions
