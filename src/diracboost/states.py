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

from .kernel import _boost_batch
from .kinematics import (
    E_Z,
    BoostSpec,
    FourMomentum,
    bispinor_u,
    chiral_projector,
)
from .tensor import check_state

#: Global factor ordering for the 16-dimensional two-particle space.
TWO_PARTICLE_LAYOUT = ("PA", "SA", "PB", "SB")

SlotSpec = tuple[FourMomentum, int]

_ZERO_NORM_TOL = 1e-14
_INV_SQRT2 = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True, eq=False)
class SuperpositionTerm:
    """One term of a superposition: coefficient and per-slot (momentum, helicity), checked by
    :func:`assemble_state_vector`, which every consumer of a superposition calls."""

    coefficient: complex
    slot_a: SlotSpec
    slot_b: SlotSpec


def assemble_state_vector(terms: Sequence[SuperpositionTerm]) -> np.ndarray:
    """Assemble and normalize the 16-component state vector: ``Psi = sum_i c_i u(A_i) u(B_i)^T``
    as a 4x4 matrix, raveled.

    ``terms``, any sequence, must be non-empty, each coefficient finite, each slot a
    ``(FourMomentum, helicity)`` pair with the label 1 or 2, and all slot masses must agree to
    1e-12 relative.  One exact power of two first brings the largest coefficient part into
    [0.5, 1), so the state does not depend on the coefficients' scale anywhere in the float range.
    Raises if the superposition cancels to (numerically) zero.
    """
    if not terms:
        raise ValueError("superposition needs at least one term")
    coefficients = [complex(t.coefficient) for t in terms]
    for c, t in zip(coefficients, terms):
        if not cmath.isfinite(c):
            raise ValueError(f"coefficient must be finite, got {c!r}")
        for name, (momentum, _) in (("slot_a", t.slot_a), ("slot_b", t.slot_b)):
            if not isinstance(momentum, FourMomentum):
                raise TypeError(f"{name} must be (FourMomentum, helicity)")
    masses = [momentum.mass for t in terms for momentum, _ in (t.slot_a, t.slot_b)]
    if max(masses) - min(masses) > 1e-12 * max(masses):
        raise ValueError(f"slot masses differ: {min(masses)!r} and {max(masses)!r}")
    top = max(max(abs(c.real), abs(c.imag)) for c in coefficients)
    shift = -math.frexp(top)[1]
    psi = np.zeros((4, 4), dtype=complex)
    for c, t in zip(coefficients, terms):  # bispinor_u checks each helicity label
        c = complex(math.ldexp(c.real, shift), math.ldexp(c.imag, shift))
        psi += c * np.outer(bispinor_u(*t.slot_a), bispinor_u(*t.slot_b))
    norm = float(np.linalg.norm(psi))
    if norm < _ZERO_NORM_TOL:
        raise ValueError(
            f"superposition cancels to the zero vector (norm {norm:.3e})"
        )
    return psi.ravel() / norm


def _z_axis_term(coefficient, sA, omega0A, dirA, sB, omega0B, dirB) -> SuperpositionTerm:
    """The term ``coefficient * u(pA, sA) (x) u(pB, sB)``, unit mass, each momentum at rapidity
    ``omega0*`` along ``dir* * e_z``, ``dir*`` +1 or -1."""
    slots = []
    for name, s, w, d in (("A", sA, omega0A, dirA), ("B", sB, omega0B, dirB)):
        if d not in (1, -1):
            raise ValueError(f"dir{name} must be +1 or -1, got {d!r}")
        if not (math.isfinite(w) and w >= 0.0):  # a NaN fails too
            raise ValueError(f"omega0{name} must be a nonnegative rapidity, got {w!r}")
        slots.append((FourMomentum.from_rapidity(1.0, w, d * E_Z), s))
    return SuperpositionTerm(coefficient, *slots)


def make_psi1(omega0: float) -> tuple[SuperpositionTerm, SuperpositionTerm]:
    """Opposite momenta with the helicity pair swapped between slots.

    (u1(p) (x) u2(q) - u2(q) (x) u1(p)) / sqrt(2) with p = -q = sinh(w0) e_z.
    The two terms are not orthogonal; assembly normalizes by the true norm,
    tanh(omega0).  As omega0 -> 0+ the terms approach each other and the norm
    vanishes, but at exactly omega0 = 0 the rest-frame spinor convention makes
    them orthogonal and the construction yields the rest-frame spin singlet.
    """
    return (_z_axis_term(_INV_SQRT2, 1, omega0, 1, 2, omega0, -1),
            _z_axis_term(-_INV_SQRT2, 2, omega0, -1, 1, omega0, 1))


def make_psi2(omega0: float) -> tuple[SuperpositionTerm, SuperpositionTerm]:
    """Opposite momenta, equal helicity labels in each term.

    (u1(p) (x) u1(q) - u2(p) (x) u2(q)) / sqrt(2) with p = -q = sinh(w0) e_z.
    """
    return (_z_axis_term(_INV_SQRT2, 1, omega0, 1, 1, omega0, -1),
            _z_axis_term(-_INV_SQRT2, 2, omega0, 1, 2, omega0, -1))


def make_psi3(omega0: float) -> tuple[SuperpositionTerm, SuperpositionTerm]:
    """Both particles share one momentum, helicities antisymmetrized.

    (u1(p) (x) u2(p) - u2(p) (x) u1(p)) / sqrt(2) with p = sinh(w0) e_z.
    """
    return (_z_axis_term(_INV_SQRT2, 1, omega0, 1, 2, omega0, 1),
            _z_axis_term(-_INV_SQRT2, 2, omega0, 1, 1, omega0, 1))


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
    boosted, nu = _boost_batch(check_state(psi), [b.rapidity], b.direction[None, :])
    return boosted[0], float(nu[0])
