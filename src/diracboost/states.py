"""Two-particle bispinor superpositions, scenario states, and boosts.

A state is a list of terms ``c_i * u(slotA_i) (x) u(slotB_i)`` over 16
dimensions with the factor ordering fixed by :data:`TWO_PARTICLE_LAYOUT`:
parity A, spin A, parity B, spin B.  Normalization always comes from the
actual assembled vector norm — terms whose slots carry different momenta
need not be orthogonal, so ``sum |c_i|^2`` is not the right normalizer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kinematics import (
    E_Z,
    BoostSpec,
    FourMomentum,
    _check_helicity,
    bispinor_boost,
    bispinor_u,
    chiral_projector,
)
from .tensor import SubsystemLayout, check_density, kron, outer

#: Global factor ordering for the 16-dimensional two-particle space.
TWO_PARTICLE_LAYOUT = SubsystemLayout(("PA", "SA", "PB", "SB"))

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
        for name, slot in (("slot_a", self.slot_a), ("slot_b", self.slot_b)):
            momentum, helicity = slot
            if not isinstance(momentum, FourMomentum):
                raise TypeError(f"{name} must be (FourMomentum, helicity)")
            _check_helicity(helicity)
            object.__setattr__(self, name, (momentum, int(helicity)))


@dataclass(frozen=True, eq=False)
class TwoParticleState:
    """An ordered superposition of two-particle bispinor terms of common mass."""

    terms: tuple[SuperpositionTerm, ...]
    mass: float

    def __post_init__(self) -> None:
        terms = tuple(self.terms)
        if not terms:
            raise ValueError("state needs at least one term")
        object.__setattr__(self, "terms", terms)
        for t in terms:
            for momentum, _ in (t.slot_a, t.slot_b):
                if abs(momentum.mass - self.mass) > 1e-12 * self.mass:
                    raise ValueError(
                        f"term momentum mass {momentum.mass!r} differs from "
                        f"state mass {self.mass!r}"
                    )


@dataclass(frozen=True)
class ChiralLabelPair:
    """Chirality labels (f, g) for the two slots, each 0 or 1."""

    f: int
    g: int

    def __post_init__(self) -> None:
        for name, value in (("f", self.f), ("g", self.g)):
            if value not in (0, 1):
                raise ValueError(f"chiral label {name} must be 0 or 1, got {value!r}")


def assemble_state_vector(st: TwoParticleState) -> np.ndarray:
    """Assemble and normalize the 16-component state vector.

    Raises if the superposition cancels to (numerically) zero.
    """
    vec = np.zeros(16, dtype=complex)
    for t in st.terms:
        ua = bispinor_u(*t.slot_a).amplitudes
        ub = bispinor_u(*t.slot_b).amplitudes
        vec += t.coefficient * kron(ua, ub)
    norm = float(np.linalg.norm(vec))
    if norm < _ZERO_NORM_TOL:
        raise ValueError(
            f"superposition cancels to the zero vector (norm {norm:.3e})"
        )
    return vec / norm


def density_matrix(st: TwoParticleState) -> np.ndarray:
    """Pure 16x16 density matrix of the assembled state."""
    return outer(assemble_state_vector(st))


def _scenario_momenta(omega0: float) -> tuple[FourMomentum, FourMomentum]:
    if omega0 < 0.0:
        raise ValueError(f"omega0 must be nonnegative, got {omega0!r}")
    p = FourMomentum.from_rapidity(1.0, omega0, E_Z)
    q = FourMomentum.from_rapidity(1.0, omega0, -E_Z)
    return p, q


def _antisymmetric_pair(first, second) -> TwoParticleState:
    """The unit-mass state ``(first - second) / sqrt(2)``; each term is a (slot A, slot B) pair."""
    inv = 1.0 / math.sqrt(2.0)
    return TwoParticleState((SuperpositionTerm(inv, *first), SuperpositionTerm(-inv, *second)), 1.0)


def make_psi1(omega0: float) -> TwoParticleState:
    """Opposite momenta with the helicity pair swapped between slots.

    (u1(p) (x) u2(q) - u2(q) (x) u1(p)) / sqrt(2) with p = -q = sinh(w0) e_z.
    The two terms are not orthogonal; assembly normalizes by the true norm,
    tanh(omega0).  As omega0 -> 0+ the terms approach each other and the norm
    vanishes, but at exactly omega0 = 0 the rest-frame spinor convention makes
    them orthogonal and the construction yields the rest-frame spin singlet.
    """
    p, q = _scenario_momenta(omega0)
    return _antisymmetric_pair(((p, 1), (q, 2)), ((q, 2), (p, 1)))


def make_psi2(omega0: float) -> TwoParticleState:
    """Opposite momenta, equal helicity labels in each term.

    (u1(p) (x) u1(q) - u2(p) (x) u2(q)) / sqrt(2) with p = -q = sinh(w0) e_z.
    """
    p, q = _scenario_momenta(omega0)
    return _antisymmetric_pair(((p, 1), (q, 1)), ((p, 2), (q, 2)))


def make_psi3(omega0: float) -> TwoParticleState:
    """Both particles share one momentum, helicities antisymmetrized.

    (u1(p) (x) u2(p) - u2(p) (x) u1(p)) / sqrt(2) with p = sinh(w0) e_z.
    """
    p, _ = _scenario_momenta(omega0)
    return _antisymmetric_pair(((p, 1), (p, 2)), ((p, 2), (p, 1)))


def chiral_project_vector(st: TwoParticleState, labels: ChiralLabelPair) -> np.ndarray:
    """Project both slots onto fixed chirality; returns the normalized 16-vector.

    Raises if the projector annihilates the superposition.
    """
    psi = assemble_state_vector(st)
    projector = kron(chiral_projector(labels.f), chiral_projector(labels.g))
    projected = projector @ psi
    norm = float(np.linalg.norm(projected))
    if norm <= _ZERO_NORM_TOL:
        raise ValueError(
            f"chiral projection (f={labels.f}, g={labels.g}) annihilates the state"
        )
    return projected / norm


def chiral_project(st: TwoParticleState, labels: ChiralLabelPair) -> np.ndarray:
    """Pure 16x16 density matrix of :func:`chiral_project_vector`."""
    return outer(chiral_project_vector(st, labels))


def boost_two_particle(rho: np.ndarray, b: BoostSpec) -> tuple[np.ndarray, float]:
    """Boost a two-particle density matrix; returns (rho', nu).

    The spinor-space boost is not unitary, so the transformed matrix is
    rescaled by its trace nu to restore unit trace; nu is returned for
    diagnostics.  Purity is preserved.  A rho' that fails the density-matrix
    rule (its rounding grows as ``eps cond(S (x) S)^2``) is a ValueError naming the rapidity.
    """
    rho = check_density(rho, 16)
    if b.rapidity == 0.0:
        # the identity boost, exactly: no rounding residue enters rho
        return rho.copy(), 1.0
    s_single = bispinor_boost(b)
    s_pair = kron(s_single, s_single)
    with np.errstate(all="ignore"):  # overflow is reported below, with its rapidity
        transformed = s_pair @ rho @ s_pair.conj().T
        nu = float(transformed.trace().real)
    if not (math.isfinite(nu) and nu > _ZERO_NORM_TOL):
        raise ValueError(f"boost normalization failed at rapidity {b.rapidity:.6g} (nu = {nu!r})")
    try:
        return check_density(transformed / nu, 16), nu
    except ValueError as exc:
        raise ValueError(f"boost at rapidity {b.rapidity:.6g} lost precision: {exc}") from None
