"""Single-particle kinematics: four-momenta, helicity spinors, bispinors, boosts.

Conventions frozen here and relied on everywhere else:

* natural units, metric signature (+, -, -, -); rapidity ``w`` with
  ``cosh(w) = gamma``, so a particle of mass ``m`` at rapidity ``w0`` has
  ``E = m*cosh(w0)`` and ``|p| = m*sinh(w0)``.
* bispinors are 4-vectors ordered as parity qubit (x) spin qubit, with
  parity bit 0 = |+> and spin bit 0 = |z+>.
* :func:`boost_four_vector` implements the frame transformation
  ``E' = cosh(w)*E - sinh(w)*(n.p)``,
  ``p' = p + [(cosh(w) - 1)*(n.p) - sinh(w)*E]*n``.
  With this sign a particle moving at rapidity ``w0`` along ``+z`` is brought
  to rest by the boost ``(w0, +e_z)``; boosting a rest particle along ``n``
  yields momentum ``-m*sinh(w)*n``.  The spinor-space operator returned by
  :func:`bispinor_boost` is paired with exactly this map (see the rest-frame
  tests for the label bookkeeping it induces on helicity spinors).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensor import ID2, PAULI, PAULI_X, kron

#: Helicity labels: 1 means spin along the momentum, 2 means opposite.
HELICITY_LABELS = (1, 2)

E_Z = np.array([0.0, 0.0, 1.0])

ONSHELL_RTOL = 1e-10
UNIT_NORM_TOL = 1e-12

#: Chirality operator in the parity (x) spin ordering.
GAMMA5 = kron(PAULI_X, ID2)
#: The boost generators sigma_x (x) sigma_k: a boost along n uses sum_k n_k of them.
BOOST_GENERATORS = np.stack([kron(PAULI_X, sigma) for sigma in PAULI])


def _check_helicity(s: int) -> int:
    if s not in HELICITY_LABELS:
        raise ValueError(f"helicity label must be 1 or 2, got {s!r}")
    return int(s)


def sigma_dot(v: np.ndarray) -> np.ndarray:
    """2x2 matrix v . sigma for a real 3-vector v."""
    v = np.asarray(v, dtype=float)
    return v[0] * PAULI[0] + v[1] * PAULI[1] + v[2] * PAULI[2]


@dataclass(frozen=True, eq=False)
class FourMomentum:
    """An on-shell four-momentum (E, p) of a massive particle."""

    mass: float
    energy: float
    p3: np.ndarray

    def __post_init__(self) -> None:
        p3 = np.asarray(self.p3, dtype=float).reshape(-1)
        if p3.shape != (3,):
            raise ValueError(f"p3 must be a 3-vector, got shape {p3.shape}")
        object.__setattr__(self, "p3", p3)
        if not (self.mass > 0.0 and math.isfinite(self.mass)):
            raise ValueError(f"mass must be positive and finite, got {self.mass!r}")
        if not math.isfinite(self.energy):
            raise ValueError(f"energy must be finite, got {self.energy!r}")
        if self.energy < self.mass * (1.0 - 1e-12):
            raise ValueError(
                f"energy {self.energy!r} below mass {self.mass!r}"
            )
        energy, mass = float(self.energy), float(self.mass)  # overflow is inf, not a warning
        if not math.isfinite(2.0 * energy * (energy + mass)):  # bispinor norm
            rapidity = math.acosh(energy / mass)
            raise ValueError(f"four-momentum at rapidity {rapidity:.6g} leaves the float range")
        # rounding in E^2 - p^2 grows as eps E^2, so the tolerance scales with E^2
        e2, p = self.energy**2, math.hypot(*p3)  # p3 @ p3 would warn past |p| = 1e154
        residue = abs(e2 - p * p - self.mass**2)
        if not residue <= ONSHELL_RTOL * e2:  # a NaN component fails too
            raise ValueError(
                f"four-momentum off shell: |E^2 - p^2 - m^2| = {residue:.3e} "
                f"exceeds {ONSHELL_RTOL:.0e} relative to E^2"
            )

    @classmethod
    def from_rapidity(
        cls, mass: float, rapidity: float, direction: np.ndarray
    ) -> "FourMomentum":
        """Momentum of a particle moving at the given rapidity along a unit direction."""
        n = _unit_direction(direction)
        ch, sh = _cosh_sinh(rapidity)
        if math.isfinite(mass) and math.isinf(float(mass) * ch):  # before inf * n meets a 0 of n
            raise ValueError(f"four-momentum at rapidity {rapidity:.6g} leaves the float range")
        return cls(mass, mass * ch, mass * sh * n)

    @property
    def p_norm(self) -> float:
        return math.sqrt(self.p3.dot(self.p3))  # np.linalg.norm's own arithmetic

    def minkowski_norm_sq(self) -> float:
        return float(self.energy**2 - self.p3 @ self.p3)


def _cosh_sinh(rapidity: float) -> tuple[float, float]:
    try:
        return math.cosh(rapidity), math.sinh(rapidity)
    except OverflowError:
        raise ValueError(f"rapidity {rapidity:.6g} leaves the float range") from None


def _unit_direction(direction: np.ndarray) -> np.ndarray:
    n = np.asarray(direction, dtype=float).reshape(-1)
    if n.shape != (3,):
        raise ValueError(f"direction must be a 3-vector, got shape {n.shape}")
    norm = math.hypot(*n)  # n.dot(n) would warn past |n| = 1e154
    if not abs(norm - 1.0) <= UNIT_NORM_TOL:  # a NaN component fails too
        raise ValueError(f"direction must be a unit vector, |n| = {norm!r}")
    return n


def _polar_directions(thetas):
    """Unit directions ``(sin theta, 0, cos theta)`` in the x-z plane: (k, 3), or (3,) for one."""
    return np.stack([np.sin(thetas), np.zeros_like(thetas), np.cos(thetas)], axis=-1)


@dataclass(frozen=True, eq=False)
class BoostSpec:
    """A pure boost: rapidity (sign allowed) and unit direction."""

    rapidity: float
    direction: np.ndarray

    def __post_init__(self) -> None:
        if not math.isfinite(self.rapidity):
            raise ValueError(f"rapidity must be finite, got {self.rapidity!r}")
        object.__setattr__(self, "direction", _unit_direction(self.direction))

    @classmethod
    def from_polar_angle(cls, rapidity: float, theta: float) -> "BoostSpec":
        """Boost in the x-z plane: n = (sin(theta), 0, cos(theta))."""
        return cls(rapidity, _polar_directions(theta))


def _spin_eigenvectors(t, nz) -> np.ndarray:
    """Unnormalized eigenvectors ``(2, 2, ...)`` of n.sigma for +1 and -1, given ``t = nx + i ny``
    and ``nz`` as scalars or arrays.  The branch keeps the large component in the numerator."""
    big, c = 1.0 + abs(nz), t.conjugate()
    return np.where(nz >= 0.0, [[big, t], [-c, big]], [[c, big], [big, -t]])


def _boost_eigenbasis(directions: np.ndarray) -> np.ndarray:
    """Eigenvectors (k, 4, 4) of ``sigma_x (x) n.sigma`` for eigenvalues -1, -1, 1, 1: chirality
    (x) spin along each unit direction (k, 3), in closed form, so that the small components of
    near-z directions keep their relative accuracy, which an eigensolver's do not."""
    plus, minus = _spin_eigenvectors(directions[:, 0] + 1j * directions[:, 1], directions[:, 2])
    spin = np.stack([minus, plus, plus, minus], axis=1) / np.linalg.norm(plus, axis=0)
    chirality = np.array([[1.0, 1.0, 1.0, 1.0], [1.0, -1.0, 1.0, -1.0]]) / math.sqrt(2.0)
    return (chirality[:, None, :, None] * spin).reshape(4, 4, -1).transpose(2, 0, 1)


def helicity_spinor(p: FourMomentum, s: int) -> np.ndarray:
    """Two-spinor with (e_p . sigma) chi = +chi for s=1 and -chi for s=2.

    At rest the convention is the continuous limit from the +z direction:
    s=1 gives |z+>, s=2 gives |z->.  The global phase is fixed by making the
    first nonzero component real positive.
    """
    _check_helicity(s)
    kn = p.p_norm
    nx, ny, nz = (p.p3 / kn if kn else E_Z).tolist()
    # nx + i ny rounded as numpy does: Python 3.14 on keeps -0.0 imaginary parts of float + complex
    chi = _spin_eigenvectors(complex(nx + 0.0 * ny, ny + 0.0), nz)[s - 1]
    chi = chi / math.sqrt(chi.real.dot(chi.real) + chi.imag.dot(chi.imag))  # np.linalg.norm's sum
    c = chi[0] if abs(chi[0]) > 1e-12 else chi[1]  # one of a unit 2-vector's is >= 1/sqrt(2)
    return chi * (abs(c) / c)


def bispinor_u(p: FourMomentum, s: int) -> np.ndarray:
    """Unit-norm positive-energy bispinor, a (4,) complex array: (E+m)|+> block over the
    (p.sigma)|-> block.

    The helicity spinor is an eigenvector of p.sigma, so the |-> block is
    +|p| times it for s=1 and -|p| times it for s=2.
    """
    chi = helicity_spinor(p, s)
    norm = math.sqrt(2.0 * p.energy * (p.energy + p.mass))
    return np.concatenate([(p.energy + p.mass) * chi, (3 - 2 * s) * p.p_norm * chi]) / norm


def bispinor_v(p: FourMomentum, s: int) -> np.ndarray:
    """Negative-energy bispinor: parity blocks of :func:`bispinor_u` swapped."""
    return bispinor_u(p, s)[[2, 3, 0, 1]]


def boost_four_vector(p: FourMomentum, b: BoostSpec) -> FourMomentum:
    """Apply the frame transformation described in the module docstring."""
    ch, sh = _cosh_sinh(b.rapidity)
    n = b.direction
    ndotp = float(n @ p.p3)
    energy = ch * p.energy - sh * ndotp
    shift = (ch - 1.0) * ndotp - sh * p.energy
    if not math.isfinite(energy + shift):
        raise ValueError(f"boost at rapidity {b.rapidity:.6g} leaves the float range")
    return FourMomentum(p.mass, energy, p.p3 + shift * n)


def bispinor_boost(b: BoostSpec) -> np.ndarray:
    """The 4x4 spinor-space boost cosh(w/2) I - sinh(w/2) (sigma_x (x) n.sigma).

    Hermitian with determinant 1, but not unitary for w != 0.
    """
    try:
        ch, sh = _cosh_sinh(b.rapidity / 2.0)
    except ValueError:
        raise ValueError(f"boost at rapidity {b.rapidity:.6g} leaves the float range") from None
    generator = (b.direction @ BOOST_GENERATORS.reshape(3, 16)).reshape(4, 4)
    return ch * np.eye(4, dtype=complex) - sh * generator


def chiral_projector(f: int) -> np.ndarray:
    """Projector onto the chirality-(-1)^f eigenspace: (I + (-1)^f gamma5)/2."""
    if f not in (0, 1):
        raise ValueError(f"chiral label must be 0 or 1, got {f!r}")
    return (np.eye(4, dtype=complex) + (-1.0) ** f * GAMMA5) / 2.0
