"""Scenario registry, deterministic (omega, theta) grid sweeps, and emission.

Rows are produced in row-major order (omega outer, theta inner) by one
serial kernel that boosts and measures the grid in fixed-size chunks, so the
output is byte-identical for identical configurations.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .kinematics import E_Z, FourMomentum
from .measures import _clamp_residue
from .states import (
    _ZERO_NORM_TOL,
    ChiralLabelPair,
    SuperpositionTerm,
    TwoParticleState,
    assemble_state_vector,
    chiral_project_vector,
    make_psi1,
    make_psi2,
    make_psi3,
)
from .tensor import ID2, PAULI, PAULI_X, kron, outer

SCENARIOS = ("psi1", "psi2", "psi3", "chiral-psi2", "chiral-psi3", "custom")
MEASURES = ("eg", "delta_eg", "negativity", "delta_negativity", "bloch")
DEFAULT_MEASURES = ("eg", "delta_eg", "negativity", "delta_negativity")
OUTPUT_FORMATS = ("csv", "json")

_BLOCH_COLUMNS = tuple(f"bloch_{tag}_{axis}" for tag in ("pa", "sa", "pb", "sb") for axis in "xyz")

#: Grid points per kernel call.  A few hundred keeps the working arrays, and
#: so peak memory, small on any grid while amortizing per-call overhead.
_CHUNK = 256
#: sigma_x (x) sigma_k: the boost generator along n is sum_k n_k times these.
_BOOST_GENERATORS = np.stack([kron(PAULI_X, sigma) for sigma in PAULI])
#: vec(rho) @ column j is Tr[O_j rho], for O_j = sigma (x) I (parity), then I (x) sigma (spin).
_LOCAL_PAULI = np.stack(
    [kron(sigma, ID2).T.ravel() for sigma in PAULI]
    + [kron(ID2, sigma).T.ravel() for sigma in PAULI],
    axis=1,
)


class ConfigError(ValueError):
    """Invalid sweep configuration; carries the offending field name."""

    def __init__(self, field_name: str, message: str):
        super().__init__(f"{field_name}: {message}")
        self.field = field_name


class SweepError(RuntimeError):
    """A grid point failed; the message carries its (omega, theta) coordinates."""


@dataclass(frozen=True)
class GridSpec:
    """Inclusive linspace grid: ``steps`` points from ``start`` to ``stop``."""

    start: float
    stop: float
    steps: int

    def points(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.steps)

    @classmethod
    def parse(cls, text: str, field_name: str) -> "GridSpec":
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(field_name, f"expected min:max:steps, got {text!r}")
        try:
            return cls(float(parts[0]), float(parts[1]), int(parts[2]))
        except ValueError:
            raise ConfigError(field_name, f"could not parse {text!r} as min:max:steps") from None

    def _validate(self, field_name: str) -> None:
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise ConfigError(field_name, "grid endpoints must be finite")
        if self.steps < 1:
            raise ConfigError(field_name, f"steps must be >= 1, got {self.steps}")
        if self.stop < self.start:
            raise ConfigError(field_name, f"max {self.stop!r} below min {self.start!r}")


@dataclass(frozen=True)
class CustomTermSpec:
    """One custom superposition term; directions are +1/-1 meaning +/- e_z."""

    re: float
    im: float
    helicity_a: int
    omega0_a: float
    dir_a: int
    helicity_b: int
    omega0_b: float
    dir_b: int

    @classmethod
    def parse(cls, text: str) -> "CustomTermSpec":
        parts = [p.strip() for p in text.split(",")]
        if len(parts) != 8:
            raise ConfigError(
                "term",
                f"expected re,im,sA,omega0A,dirA,sB,omega0B,dirB (8 fields), got {text!r}",
            )
        try:
            return cls(
                float(parts[0]),
                float(parts[1]),
                int(parts[2]),
                float(parts[3]),
                int(parts[4]),
                int(parts[5]),
                float(parts[6]),
                int(parts[7]),
            )
        except ValueError:
            raise ConfigError("term", f"could not parse term {text!r}") from None

    def _validate(self) -> None:
        for name, s in (("sA", self.helicity_a), ("sB", self.helicity_b)):
            if s not in (1, 2):
                raise ConfigError("term", f"{name} must be 1 or 2, got {s}")
        for name, d in (("dirA", self.dir_a), ("dirB", self.dir_b)):
            if d not in (1, -1):
                raise ConfigError("term", f"{name} must be +1 or -1, got {d}")
        for name, w in (("omega0A", self.omega0_a), ("omega0B", self.omega0_b)):
            if not (math.isfinite(w) and w >= 0.0):
                raise ConfigError("term", f"{name} must be a nonnegative rapidity, got {w}")

    def to_term(self, mass: float) -> SuperpositionTerm:
        pa = FourMomentum.from_rapidity(mass, self.omega0_a, self.dir_a * E_Z)
        pb = FourMomentum.from_rapidity(mass, self.omega0_b, self.dir_b * E_Z)
        return SuperpositionTerm(
            complex(self.re, self.im), (pa, self.helicity_a), (pb, self.helicity_b)
        )


#: A full custom-state description: the term list of a scenario of kind "custom".
CustomStateSpec = tuple[CustomTermSpec, ...]


@dataclass(frozen=True)
class SweepConfig:
    scenario: str = "psi2"
    omega0: float = 1.0
    mass: float = 1.0
    omega_grid: GridSpec = GridSpec(0.0, 5.0, 100)
    theta_grid: GridSpec = GridSpec(0.0, math.pi / 2.0, 50)
    measures: tuple[str, ...] = DEFAULT_MEASURES
    output_format: str = "csv"
    chiral_labels: tuple[int, int] | None = None
    custom_terms: CustomStateSpec = ()
    boost_direction: tuple[float, float, float] | None = None
    #: Accepted and validated for compatibility; the sweep runs serially.
    workers: int = 1

    def validate(self) -> None:
        if self.scenario not in SCENARIOS:
            raise ConfigError(
                "scenario", f"unknown scenario {self.scenario!r}; choose from {SCENARIOS}"
            )
        if not (math.isfinite(self.omega0) and self.omega0 >= 0.0):
            raise ConfigError("omega0", f"must be a nonnegative rapidity, got {self.omega0!r}")
        if not (math.isfinite(self.mass) and self.mass > 0.0):
            raise ConfigError("mass", f"must be positive, got {self.mass!r}")
        self.omega_grid._validate("omega")
        self.theta_grid._validate("theta")
        if self.theta_grid.start < -1e-12 or self.theta_grid.stop > math.pi + 1e-9:
            raise ConfigError("theta", "theta grid must lie within [0, pi]")
        if not self.measures:
            raise ConfigError("measures", "at least one measure is required")
        for m in self.measures:
            if m not in MEASURES:
                raise ConfigError("measures", f"unknown measure {m!r}; choose from {MEASURES}")
        if len(set(self.measures)) != len(self.measures):
            raise ConfigError("measures", f"duplicate measures in {self.measures!r}")
        if self.output_format not in OUTPUT_FORMATS:
            raise ConfigError("format", f"unknown format {self.output_format!r}")
        chiral = self.scenario.startswith("chiral-")
        if self.chiral_labels is not None:
            if not chiral:
                raise ConfigError("chiral", "chiral labels only apply to chiral-* scenarios")
            f, g = self.chiral_labels
            if f not in (0, 1) or g not in (0, 1):
                raise ConfigError("chiral", f"labels must be 0 or 1, got {self.chiral_labels!r}")
        if self.scenario == "custom":
            if not self.custom_terms:
                raise ConfigError("term", "custom scenario needs at least one term")
            for t in self.custom_terms:
                t._validate()
            if all(t.re == 0.0 and t.im == 0.0 for t in self.custom_terms):
                raise ConfigError("term", "at least one coefficient must be nonzero")
        elif self.custom_terms:
            raise ConfigError("term", "terms only apply to the custom scenario")
        if self.boost_direction is not None:
            if self.scenario != "custom":
                raise ConfigError("boost-dir", "explicit boost direction only applies to custom scenarios")
            n = np.asarray(self.boost_direction, dtype=float)
            if n.shape != (3,) or abs(np.linalg.norm(n) - 1.0) > 1e-12:
                raise ConfigError("boost-dir", f"must be a unit 3-vector, got {self.boost_direction!r}")
            if self.theta_grid.steps != 1:
                raise ConfigError(
                    "boost-dir", "a fixed boost direction requires a single-point theta grid"
                )
        if self.workers < 1:
            raise ConfigError("workers", f"must be >= 1, got {self.workers}")


@dataclass(frozen=True)
class SweepRow:
    """One grid point: coordinates, measure columns in request order, and nu."""

    omega: float
    theta: float
    values: dict[str, float]
    nu: float

    def __post_init__(self) -> None:
        for name, v in self.as_mapping().items():
            if not math.isfinite(v):
                raise ValueError(f"non-finite value for {name!r}: {v!r}")

    def as_mapping(self) -> dict[str, float]:
        out = {"omega": self.omega, "theta": self.theta}
        out.update(self.values)
        out["nu"] = self.nu
        return out


def scenario_vector(cfg: SweepConfig) -> np.ndarray:
    """Build the configured scenario's unboosted, normalized 16-component state."""
    builders = {"psi1": make_psi1, "psi2": make_psi2, "psi3": make_psi3}
    try:
        if cfg.scenario in builders:
            return assemble_state_vector(builders[cfg.scenario](cfg.omega0, cfg.mass))
        if cfg.scenario in ("chiral-psi2", "chiral-psi3"):
            base = builders[cfg.scenario.removeprefix("chiral-")]
            labels = ChiralLabelPair(*(cfg.chiral_labels or (0, 0)))
            return chiral_project_vector(base(cfg.omega0, cfg.mass), labels)
        if cfg.scenario == "custom":
            terms = tuple(t.to_term(cfg.mass) for t in cfg.custom_terms)
            return assemble_state_vector(TwoParticleState(terms, cfg.mass))
    except ValueError as exc:
        raise ConfigError("scenario", f"cannot build scenario {cfg.scenario!r}: {exc}") from exc
    raise ConfigError("scenario", f"unknown scenario {cfg.scenario!r}")


def scenario_density(cfg: SweepConfig) -> np.ndarray:
    """Build the configured scenario's unboosted 16x16 density matrix."""
    return outer(scenario_vector(cfg))


def _point_error(omega: float, theta: float, reason) -> SweepError:
    return SweepError(f"sweep point (omega={omega:.6g}, theta={theta:.6g}) failed: {reason}")


def _measure_chunk(psi, omegas, thetas, directions):
    """Boost the 4x4 coefficient matrix ``psi`` to every point of one chunk.

    With ``S = cosh(w/2) I - sinh(w/2) sigma_x (x) n.sigma``, the pair boost
    ``(S (x) S) vec(psi)`` is ``S psi S^T``.  Returns ``(nu, eg, negativity,
    bloch)`` per point, ``bloch`` of shape (n, 4, 3) in PA, SA, PB, SB order.
    Raises :class:`SweepError` naming the first point that fails; once ``nu``
    is finite and positive, the normalized amplitudes keep every value finite.
    """
    half = (omegas / 2.0)[:, None, None]
    generator = np.einsum("pk,kij->pij", directions, _BOOST_GENERATORS)
    with np.errstate(all="ignore"):  # overflow is reported below, with its point
        s = np.cosh(half) * np.eye(4) - np.sinh(half) * generator
        boosted = s @ psi @ s.transpose(0, 2, 1)
        nu = np.sum(boosted.real**2 + boosted.imag**2, axis=(1, 2))
    # identity boost, exactly: keeps omega = 0 rows free of rounding residue
    rest = omegas == 0.0
    boosted[rest], nu[rest] = psi, 1.0
    bad = ~(np.isfinite(nu) & (nu > _ZERO_NORM_TOL))
    if bad.any():
        k = int(np.argmax(bad))
        raise _point_error(omegas[k], thetas[k], f"boost normalization failed (nu = {nu[k]})")

    amp = boosted / np.sqrt(nu)[:, None, None]
    # one-particle matrices over (parity, spin): rho_A = Psi Psi^dag, rho_B = Psi^T Psi^*
    rho_a = amp @ amp.conj().transpose(0, 2, 1)
    rho_b = amp.transpose(0, 2, 1) @ amp.conj()
    bloch = (np.stack([rho_a, rho_b], axis=1).reshape(-1, 2, 16) @ _LOCAL_PAULI).real
    bloch = bloch.reshape(-1, 4, 3)
    eg = np.sum(_clamp_residue(1.0 - np.sum(bloch**2, axis=2)), axis=1) / 4.0

    # spin-spin reduction (rows of m are pA pB, columns sA sB), transposed on SA
    m = amp.reshape(-1, 2, 2, 2, 2).transpose(0, 1, 3, 2, 4).reshape(-1, 4, 4)
    rho_ss = (m.transpose(0, 2, 1) @ m.conj()).reshape(-1, 2, 2, 2, 2)
    transposed = rho_ss.transpose(0, 3, 2, 1, 4).reshape(-1, 4, 4)
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


def run_sweep(cfg: SweepConfig) -> list[SweepRow]:
    """Run the configured sweep; rows come back in row-major grid order."""
    cfg.validate()
    psi = scenario_vector(cfg).reshape(4, 4)
    origin = np.zeros(1)
    _, (eg0,), (neg0,), _ = _measure_chunk(psi, origin, origin, E_Z[None, :])
    theta_points = cfg.theta_grid.points()
    omegas = np.repeat(cfg.omega_grid.points(), len(theta_points))
    thetas = np.tile(theta_points, cfg.omega_grid.steps)
    if cfg.boost_direction is None:
        directions = np.stack([np.sin(thetas), np.zeros_like(thetas), np.cos(thetas)], axis=1)
    else:
        directions = np.broadcast_to(cfg.boost_direction, (len(omegas), 3))

    names = [n for m in cfg.measures for n in (_BLOCH_COLUMNS if m == "bloch" else (m,))]
    rows: list[SweepRow] = []
    for start in range(0, len(omegas), _CHUNK):
        part = slice(start, start + _CHUNK)
        nu, eg, neg, bloch = _measure_chunk(psi, omegas[part], thetas[part], directions[part])
        measured = dict(zip(_BLOCH_COLUMNS, bloch.reshape(-1, 12).T))
        measured.update(eg=eg, delta_eg=eg - eg0, negativity=neg, delta_negativity=neg - neg0)
        table = np.stack([measured[n] for n in names], axis=1).tolist()
        points = zip(omegas[part].tolist(), thetas[part].tolist(), table, nu.tolist())
        rows.extend(SweepRow(om, th, dict(zip(names, v)), nu_k) for om, th, v, nu_k in points)
    return rows


def _fmt(v: float) -> str:
    return f"{v:.12g}"


def emit(rows: Sequence[SweepRow], output_format: str = "csv", destination=None) -> bytes:
    """Serialize rows to CSV or JSON bytes; optionally write them out.

    CSV carries a header `omega,theta,<measures>,nu`, 12 significant digits,
    LF line endings.  JSON is an array of row objects with identical keys and
    the same 12-digit rounding.  Identical inputs produce identical bytes.
    """
    rows = list(rows)
    if not rows:
        raise ConfigError("rows", "nothing to emit: empty row list")
    columns = list(rows[0].as_mapping().keys())
    for r in rows[1:]:
        if list(r.as_mapping().keys()) != columns:
            raise ValueError("rows have inconsistent columns")
    if output_format == "csv":
        lines = [",".join(columns)]
        lines.extend(",".join(_fmt(v) for v in r.as_mapping().values()) for r in rows)
        data = ("\n".join(lines) + "\n").encode("ascii")
    elif output_format == "json":
        payload = [
            {k: float(_fmt(v)) for k, v in r.as_mapping().items()} for r in rows
        ]
        data = (json.dumps(payload, separators=(",", ":")) + "\n").encode("ascii")
    else:
        raise ConfigError("format", f"unknown format {output_format!r}")
    if destination is not None:
        if hasattr(destination, "write"):
            destination.write(data)
        else:
            Path(destination).write_bytes(data)
    return data
