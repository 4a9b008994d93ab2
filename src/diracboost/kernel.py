"""The batched boost kernel behind ``sweep``, ``verify``, ``delta_*`` and ``boost_two_particle``.

The boost along ``n`` is ``S = exp(-(w/2) G)``, ``G = sigma_x (x) n.sigma``.  In the eigenbasis
``U`` of ``G`` (eigenvalues -1, -1, 1, 1), ``Psi' = S Psi S^T = U (D Phi D) U^T`` with ``Phi =
U^dag Psi U^*``: the boost scales the top-left, off-diagonal and bottom-right 2x2 blocks of
``Phi`` by ``e^w``, 1 and ``e^-w``.  So each of the 29 outputs before the eigensolve is ``sum_m
e^{m w} W_m`` (m = 2 .. -2) from one table per state and direction, and ``nu`` never cancels.
The 16 spin-spin outputs are the partial transpose ``T`` in the eigenbasis of ``sigma_y (x)
sigma_y``.  Where that splits every table into two 2x2 blocks, as on psi2's and psi3's x-z
sweeps, the negativity ``N = -2 min(lambda_min, 0)`` comes from the blocks in closed form; the
decision is taken once, when the tables are built, and otherwise ``eigvalsh`` solves each 4x4.
:func:`_boost_batch` scales ``Phi`` itself, for the boosted amplitudes.
"""

from __future__ import annotations

import numpy as np

from .kinematics import E_Z, _boost_eigenbasis
from .tensor import PAULI

_EPS = np.finfo(float).eps
#: The block of each entry of Phi: the boost scales blocks 0, 1 and 2 by e^w, 1 and e^-w.
_LEVELS = np.add.outer([0, 0, 1, 1], [0, 0, 1, 1])
_BLOCKS = _LEVELS == np.arange(3)[:, None, None]
#: ``_PAIRS[r, 3 i + j] = 1`` where blocks i and j together carry e^{(2 - r) w}.
_PAIRS = np.equal.outer(np.arange(5), np.add.outer(np.arange(3), np.arange(3)).ravel()) * 1.0
#: The sigma_y (x) sigma_y eigenbasis of the spin pair, unnormalized: columns e1 + e2, e0 - e3
#: (eigenvalue 1), e1 - e2 and e0 + e3 (eigenvalue -1), so ``_SIGMA_YY.T @ _SIGMA_YY = 2 I``.
_SIGMA_YY = np.array([[0, 1, 0, 1], [1, 0, 1, 0], [1, 0, -1, 0], [0, -1, 0, 1]])
#: The 29 outputs are u^dag O_q u for u = vec(Psi'), the O_q stacked as one (29 * 16, 16) matrix:
#: nu (O = I), the Bloch numerators (sigma_k on PA, SA, PB, SB) and ``T' = Q'^T T Q'`` for the
#: spin-spin matrix T transposed on SA, whose entry [(a, b'), (a', b)] sums Psi[pA a, pB b]
#: Psi*[pA a', pB b'] over pA, pB, and Q' = _SIGMA_YY.  Entries are 0, +-1 or +-i, one nonzero
#: per row: O_q u is exact products and zeros.
_SINGLE = [np.einsum("ij,kab,lm->kialjbm", np.eye(2**t), PAULI, np.eye(8 >> t)) for t in range(4)]
_PAIR = np.einsum("pP,qQ,sA,tB,Sa,Tb->aBAbpsqtPSQT", *[np.eye(2)] * 6).reshape(4, 4, -1)
_PAIR = np.einsum("ik,jl,ijx->klx", _SIGMA_YY, _SIGMA_YY, _PAIR)
_OPERATORS = np.concatenate([op.reshape(-1, 16) for op in [np.eye(16), *_SINGLE, _PAIR]])
#: The order in which a table keeps the 16 reals of T', the real parts of its lower triangle and
#: the imaginary parts above, as flat 4x4 positions: first its two diagonal 2x2 blocks (T'[0, 0],
#: T'[1, 1], T'[1, 0], then T'[2, 2], T'[3, 3], T'[3, 2]), then the 8 reals off the blocks.
_SPIN_SLOTS = [0, 5, 4, 1, 10, 15, 14, 11, 8, 9, 12, 13, 2, 3, 6, 7]
#: A table cut to its first 21 columns keeps only the two blocks: see :func:`_tables`.
_SPLIT = 21
#: Grid points per :func:`_measure_chunk` call: few enough to keep peak memory small on any grid.
_CHUNK = 256


class SweepError(ValueError):
    """A grid point failed (a ``ValueError``); the message carries its (omega, theta) coordinates."""


def _point_error(omega: float, theta: float, reason) -> SweepError:
    return SweepError(f"sweep point (omega={omega:.6g}, theta={theta:.6g}) failed: {reason}")


def _clamp_residue(values):
    """Snap values within 1e-12 outside [0, 1], the range of every measure here, onto it: the
    rounding residue of separable or maximally entangled states.  Values further out stay."""
    return np.where((values >= -1e-12) & (values <= 1.0 + 1e-12), np.clip(values, 0.0, 1.0), values)


def _eigenbasis_amplitudes(psi, directions):
    """Eigenbases ``U`` (k, 4, 4) for k unit directions and the 4x4 ``psi`` in each, ``Phi = U^dag
    Psi U^*`` (k, 4, 4), whose entry [i, j] the boost scales by ``e^{(1 - _LEVELS[i, j]) w}``."""
    u = _boost_eigenbasis(directions)
    phi = u.conj().transpose(0, 2, 1) @ psi @ u.conj()
    # below the float state's own resolution; left in, the boost would amplify the residue
    phi[np.abs(phi) <= 16 * _EPS * np.linalg.norm(psi)] = 0.0
    return u, phi


def _direction_tables(psi, directions):
    """Real tables (k, 5, 29) of the 4x4 ``psi`` for k unit directions, rows m = 2 .. -2."""
    u, phi = _eigenbasis_amplitudes(psi, directions)
    blocks = (u[:, None] @ (phi[:, None] * _BLOCKS) @ u[:, None].swapaxes(2, 3)).reshape(-1, 3, 16)
    # [k, i, 29 l + q]: entry i of O_q applied to block l, a view of the product's rows
    applied = (blocks.reshape(-1, 16) @ _OPERATORS.T).reshape(-1, 87, 16).swapaxes(1, 2)
    tables = _PAIRS @ (blocks.conj() @ applied).reshape(-1, 9, 29)
    # entries within their rounding error of 0 (symmetry makes many) become exactly 0
    norms = np.linalg.norm(blocks, axis=2)
    bound = 16 * _EPS * (norms[:, :, None] * norms[:, None, :]).reshape(-1, 9) @ _PAIRS.T
    parts = tables.view(float)
    parts[np.abs(parts) <= bound[:, :, None]] = 0.0
    # W_m is Hermitian: 16 reals, its spin-spin lower triangle with the imaginary parts above
    spin = tables[..., 13:].reshape(-1, 5, 4, 4)
    spin = np.tril(spin.real) + np.triu(spin.imag.swapaxes(2, 3), 1)
    spin = spin.reshape(-1, 5, 16)[..., _SPIN_SLOTS]
    return np.concatenate([tables[..., :13].real, spin], axis=2)


def _tables(psi, directions):
    """The (1 + k, 5, 29) tables of the 4x4 ``psi``: row 0 for ``E_Z``, which every ``omega = 0``
    point reads, then one row per unit direction (k, 3).  Where every off-block entry of every
    ``T'`` is exactly 0, the tables are cut to their first :data:`_SPLIT` columns, which tells
    :func:`_measure_chunk` to solve the two blocks in closed form."""
    directions = np.concatenate([E_Z[None, :], directions])
    tables = np.empty((len(directions), 5, 29))
    # 16 directions at a time keep the build's working arrays below 1 MB
    for s in range(0, len(directions), 16):
        tables[s : s + 16] = _direction_tables(psi, directions[s : s + 16])
    return tables if tables[..., _SPLIT:].any() else tables[..., :_SPLIT]


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
    if out.shape[1] == _SPLIT:
        # each block [[a, b*], [b, d]] has eigenvalues (a + d) / 2 +- hypot((a - d) / 2, |b|)
        a, d, re, im = out[:, 13:].reshape(-1, 2, 4).transpose(2, 0, 1)
        lowest = np.min((a + d) / 2.0 - np.hypot((a - d) / 2.0, np.hypot(re, im)), axis=1)
    else:
        spin = np.zeros((len(out), 16))
        spin[:, _SPIN_SLOTS] = out[:, 13:]
        spin = spin.reshape(-1, 4, 4)
        # eigvalsh reads only the lower triangle and the real diagonal of each matrix
        transposed = spin + 1j * spin.swapaxes(1, 2)
        try:
            lowest = np.linalg.eigvalsh(transposed)[:, 0]
        except np.linalg.LinAlgError as exc:
            for k, matrix in enumerate(transposed):
                try:
                    np.linalg.eigvalsh(matrix)
                except np.linalg.LinAlgError:
                    raise _point_error(omegas[k], thetas[k], exc) from exc
            raise
    # T has trace 1 and at most one negative eigenvalue (Sanpera, Tarrach and Vidal, PRA 58, 826
    # (1998)), so N = sum |lambda| - 1 = -2 min(lambda_min, 0); lowest is 2 lambda_min exactly,
    # as T' = 2 Q^T T Q with Q = _SIGMA_YY / sqrt(2) orthogonal
    neg = _clamp_residue(np.where(lowest < 0.0, -lowest, 0.0))
    return nu, eg, neg, bloch


def _measure_grid(psi, directions, omega_points, theta_points):
    """Boost the 4x4 ``psi`` to every point of the omega-major grid ``omega_points`` x
    ``theta_points`` (arrays), point (i, j) along ``directions[j]``, a :data:`_CHUNK`-point chunk
    at a time.  Yields per chunk a dict of ``omega``, ``theta``, ``nu``, ``eg``, ``negativity``,
    ``delta_eg``, ``delta_negativity`` (from ``omega = 0``) and ``bloch`` (n, 4, 3) arrays."""
    tables = _tables(psi, directions)
    _, (eg0,), (neg0,), _ = _measure_chunk(tables, np.zeros(1), np.zeros(1), np.zeros(1, int))
    size = len(omega_points) * len(theta_points)
    for start in range(0, size, _CHUNK):
        i, j = np.divmod(np.arange(start, min(start + _CHUNK, size)), len(theta_points))
        omegas, thetas = omega_points[i], theta_points[j]
        nu, eg, neg, bloch = _measure_chunk(tables, omegas, thetas, j)
        yield dict(omega=omegas, theta=thetas, nu=nu, eg=eg, delta_eg=eg - eg0, negativity=neg,
                   delta_negativity=neg - neg0, bloch=bloch)


def _boost_batch(psi, rapidities, directions) -> tuple[np.ndarray, np.ndarray]:
    """Boost the unit 16-vector ``psi`` by ``rapidities`` (N,) along unit ``directions`` (N, 3):
    ``(psi' (N, 16), nu (N,))``; a ``nu`` out of float range is a ValueError naming its rapidity."""
    w = np.asarray(rapidities, dtype=float)
    u, phi = _eigenbasis_amplitudes(psi.reshape(4, 4), directions)
    weights = w[:, None, None] * (1.0 - _LEVELS)
    # the largest weight of each row, factored out as in _measure_chunk
    top = np.max(np.where(phi != 0.0, weights, -np.inf), axis=(1, 2))
    phi *= np.exp(np.minimum(weights - top[:, None, None], 0.0))
    norm_sq = np.array([np.vdot(row, row).real for row in phi])  # np.sum would round differently
    with np.errstate(over="ignore"):  # a nu out of range is reported below, with its rapidity
        nu = np.exp(2.0 * top) * norm_sq
    bad = ~((nu >= np.finfo(float).tiny) & (nu < np.inf))
    if bad.any():
        k = int(np.argmax(bad))
        raise ValueError(f"boost normalization failed at rapidity {w[k]:.6g} (nu = {nu[k]})")
    boosted = (u @ phi @ u.transpose(0, 2, 1)).reshape(-1, 16) / np.sqrt(norm_sq)[:, None]
    rest = w == 0.0  # the identity boost, exactly: no rounding residue enters psi
    boosted[rest], nu[rest] = psi, 1.0
    return boosted, nu
