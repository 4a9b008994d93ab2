"""Two-particle bispinor superpositions, scenario states, and boosts.

A superposition is a plain tuple of :class:`SuperpositionTerm` objects, the
terms ``c_i * u(slotA_i) (x) u(slotB_i)``, over 16 dimensions with the factor
ordering fixed by :data:`TWO_PARTICLE_LAYOUT`: parity A, spin A, parity B,
spin B, and :func:`assemble_state_vector` is its one boundary.  Normalization
always comes from the actual assembled vector norm — terms whose slots carry
different momenta need not be orthogonal, so ``sum |c_i|^2`` is not the right
normalizer.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .kernel import _LEVELS, _eigenbasis_amplitudes
from .kinematics import (
    E_Z,
    BoostSpec,
    FourMomentum,
    _check_helicity,
    bispinor_u,
    chiral_projector,
)
from .tensor import check_state

#: Global factor ordering for the 16-dimensional two-particle space.
TWO_PARTICLE_LAYOUT = ("PA", "SA", "PB", "SB")

SlotSpec = tuple[FourMomentum, int]

_ZERO_NORM_TOL = 1e-14


@dataclass(frozen=True, eq=False)
class SuperpositionTerm:
    """One term of a superposition: coefficient and per-slot (momentum, helicity)."""

    coefficient: complex
    slot_a: SlotSpec
    slot_b: SlotSpec

    def __post_init__(self) -> None:
        object.__setattr__(self, "coefficient", complex(self.coefficient))
        if not cmath.isfinite(self.coefficient):
            raise ValueError(f"coefficient must be finite, got {self.coefficient!r}")
        for name, slot in (("slot_a", self.slot_a), ("slot_b", self.slot_b)):
            momentum, helicity = slot
            if not isinstance(momentum, FourMomentum):
                raise TypeError(f"{name} must be (FourMomentum, helicity)")
            _check_helicity(helicity)
            object.__setattr__(self, name, (momentum, int(helicity)))


def assemble_state_vector(terms: Sequence[SuperpositionTerm]) -> np.ndarray:
    """Assemble and normalize the 16-component state vector: ``Psi = sum_i c_i u(A_i) u(B_i)^T``
    as a 4x4 matrix, raveled.

    ``terms``, any sequence, must be non-empty, and all slot masses must agree to 1e-12 relative.
    One exact power of two first brings the largest coefficient part into [0.5, 1), so the state
    does not depend on the coefficients' scale anywhere in the float range.  Raises if the
    superposition cancels to (numerically) zero.
    """
    if not terms:
        raise ValueError("superposition needs at least one term")
    masses = [momentum.mass for t in terms for momentum, _ in (t.slot_a, t.slot_b)]
    if max(masses) - min(masses) > 1e-12 * max(masses):
        raise ValueError(f"slot masses differ: {min(masses)!r} and {max(masses)!r}")
    top = max(max(abs(t.coefficient.real), abs(t.coefficient.imag)) for t in terms)
    shift = -math.frexp(top)[1]
    psi = np.zeros((4, 4), dtype=complex)
    for t in terms:
        c = complex(math.ldexp(t.coefficient.real, shift), math.ldexp(t.coefficient.imag, shift))
        psi += c * np.outer(bispinor_u(*t.slot_a), bispinor_u(*t.slot_b))
    norm = float(np.linalg.norm(psi))
    if norm < _ZERO_NORM_TOL:
        raise ValueError(
            f"superposition cancels to the zero vector (norm {norm:.3e})"
        )
    return psi.ravel() / norm


def _scenario_momenta(omega0: float) -> tuple[FourMomentum, FourMomentum]:
    if omega0 < 0.0:
        raise ValueError(f"omega0 must be nonnegative, got {omega0!r}")
    p = FourMomentum.from_rapidity(1.0, omega0, E_Z)
    q = FourMomentum.from_rapidity(1.0, omega0, -E_Z)
    return p, q


def _antisymmetric_pair(first, second) -> tuple[SuperpositionTerm, SuperpositionTerm]:
    """The terms of ``(first - second) / sqrt(2)``; each argument is a (slot A, slot B) pair."""
    inv = 1.0 / math.sqrt(2.0)
    return SuperpositionTerm(inv, *first), SuperpositionTerm(-inv, *second)


def make_psi1(omega0: float) -> tuple[SuperpositionTerm, SuperpositionTerm]:
    """Opposite momenta with the helicity pair swapped between slots.

    (u1(p) (x) u2(q) - u2(q) (x) u1(p)) / sqrt(2) with p = -q = sinh(w0) e_z.
    The two terms are not orthogonal; assembly normalizes by the true norm,
    tanh(omega0).  As omega0 -> 0+ the terms approach each other and the norm
    vanishes, but at exactly omega0 = 0 the rest-frame spinor convention makes
    them orthogonal and the construction yields the rest-frame spin singlet.
    """
    p, q = _scenario_momenta(omega0)
    return _antisymmetric_pair(((p, 1), (q, 2)), ((q, 2), (p, 1)))


def make_psi2(omega0: float) -> tuple[SuperpositionTerm, SuperpositionTerm]:
    """Opposite momenta, equal helicity labels in each term.

    (u1(p) (x) u1(q) - u2(p) (x) u2(q)) / sqrt(2) with p = -q = sinh(w0) e_z.
    """
    p, q = _scenario_momenta(omega0)
    return _antisymmetric_pair(((p, 1), (q, 1)), ((p, 2), (q, 2)))


def make_psi3(omega0: float) -> tuple[SuperpositionTerm, SuperpositionTerm]:
    """Both particles share one momentum, helicities antisymmetrized.

    (u1(p) (x) u2(p) - u2(p) (x) u1(p)) / sqrt(2) with p = sinh(w0) e_z.
    """
    p, _ = _scenario_momenta(omega0)
    return _antisymmetric_pair(((p, 1), (p, 2)), ((p, 2), (p, 1)))


def chiral_project_vector(terms: Sequence[SuperpositionTerm], f: int, g: int) -> np.ndarray:
    """Project slot A of the superposition ``terms`` onto chirality label ``f`` and slot B onto
    ``g``, each 0 or 1; returns the normalized 16-vector.

    Raises if the projector annihilates the superposition.
    """
    psi = assemble_state_vector(terms).reshape(4, 4)
    projected = (chiral_projector(f) @ psi @ chiral_projector(g).T).ravel()
    norm = float(np.linalg.norm(projected))
    if norm <= _ZERO_NORM_TOL:
        raise ValueError(f"chiral projection (f={f}, g={g}) annihilates the state")
    return projected / norm


def boost_two_particle(psi: np.ndarray, b: BoostSpec) -> tuple[np.ndarray, float]:
    """Boost a unit 16-vector; returns (psi', nu), nu = |(S (x) S) psi|^2, which psi' divides out.

    As in the sweep kernel, the boost only scales psi's amplitudes in the generator's eigenbasis,
    so nothing cancels at any rapidity; only a nu out of the float range is a ValueError."""
    psi = check_state(psi)
    if b.rapidity == 0.0:
        # the identity boost, exactly: no rounding residue enters psi
        return psi.copy(), 1.0
    u, phi = _eigenbasis_amplitudes(psi.reshape(4, 4), b.direction[None, :])
    weights = b.rapidity * (1.0 - _LEVELS)
    top = weights[phi[0] != 0.0].max()  # the largest weight, factored out as in the kernel
    phi *= np.exp(np.minimum(weights - top, 0.0))
    norm_sq = np.vdot(phi, phi).real
    with np.errstate(over="ignore"):  # a nu out of range is reported below, with its rapidity
        nu = float(np.exp(2.0 * top) * norm_sq)
    if not np.finfo(float).tiny <= nu < math.inf:
        raise ValueError(f"boost normalization failed at rapidity {b.rapidity:.6g} (nu = {nu!r})")
    return (u @ phi @ u.transpose(0, 2, 1)).ravel() / math.sqrt(norm_sq), nu
