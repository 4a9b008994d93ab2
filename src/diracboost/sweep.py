"""Scenario registry, deterministic (omega, theta) grid sweeps, and emission.

Rows are produced in row-major order (omega outer, theta inner) by one
serial kernel that boosts and measures the grid in fixed-size chunks, so the
output is byte-identical for identical configurations.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .kernel import SweepError, _measure_grid, _point_error
from .kinematics import _polar_directions, _unit_direction
from .states import (
    TWO_PARTICLE_LAYOUT,
    _z_axis_term,
    assemble_state_vector,
    chiral_project_vector,
    make_psi1,
    make_psi2,
    make_psi3,
)
from .tensor import outer

SCENARIOS = ("psi1", "psi2", "psi3", "chiral-psi2", "chiral-psi3", "custom")
MEASURES = ("eg", "delta_eg", "negativity", "delta_negativity", "bloch")
DEFAULT_MEASURES = ("eg", "delta_eg", "negativity", "delta_negativity")
DEFAULT_CHIRAL_LABELS = (0, 0)
OUTPUT_FORMATS = ("csv", "json")
TERM_FORM = "re,im,sA,omega0A,dirA,sB,omega0B,dirB"

_BLOCH_COLUMNS = tuple(f"bloch_{t.lower()}_{x}" for t in TWO_PARTICLE_LAYOUT for x in "xyz")


class ConfigError(ValueError):
    """Invalid sweep configuration; carries the offending field name."""

    def __init__(self, field_name: str, message: str):
        super().__init__(f"{field_name}: {message}")
        self.field = field_name


@dataclass(frozen=True)
class GridSpec:
    """Inclusive linspace grid: ``steps`` points from ``start`` to ``stop``."""

    start: float
    stop: float
    steps: int

    def points(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.steps)

    def _validate(self, field_name: str) -> None:
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise ConfigError(field_name, "grid endpoints must be finite")
        try:
            operator.index(self.steps)  # as np.linspace requires
        except TypeError:
            raise ConfigError(field_name, f"steps must be an integer, got {self.steps!r}") from None
        if self.steps < 1:
            raise ConfigError(field_name, f"steps must be >= 1, got {self.steps}")
        if self.stop < self.start:
            raise ConfigError(field_name, f"max {self.stop!r} below min {self.start!r}")
        if self.steps == 1 and self.stop != self.start:  # linspace would return min alone
            message = f"a one-step grid needs min == max, got {self.start!r} and {self.stop!r}"
            raise ConfigError(field_name, message)
        if not math.isfinite(self.stop - self.start):  # np.linspace would overflow
            raise ConfigError(field_name, f"max - min overflows: {self.stop!r} - {self.start!r}")


@dataclass(frozen=True)
class SweepConfig:
    scenario: str = "psi2"
    omega0: float = 1.0
    omega_grid: GridSpec = GridSpec(0.0, 5.0, 100)
    theta_grid: GridSpec = GridSpec(0.0, math.pi / 2.0, 50)
    measures: tuple[str, ...] = DEFAULT_MEASURES
    output_format: str = "csv"
    chiral_labels: tuple[int, int] | None = None
    #: The custom superposition ``sum (re + i im) u(pA, sA) (x) u(pB, sB)``: one 8-tuple ``(re,
    #: im, sA, omega0A, dirA, sB, omega0B, dirB)`` per term, as ``--term`` parses it, each
    #: momentum at unit mass and rapidity ``omega0*`` along ``dir* * e_z``.
    custom_terms: tuple[tuple, ...] = ()
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
            if len(self.chiral_labels) != 2 or not set(self.chiral_labels) <= {0, 1}:
                raise ConfigError("chiral", f"need two 0/1 labels, got {self.chiral_labels!r}")
        if self.custom_terms and self.scenario != "custom":
            raise ConfigError("term", "terms only apply to the custom scenario")
        for t in self.custom_terms:
            if len(t) != 8:
                raise ConfigError("term", f"expected {TERM_FORM}, got {t!r}")
        if self.boost_direction is not None:
            if self.scenario != "custom":
                raise ConfigError("boost-dir", "explicit boost direction only applies to custom scenarios")
            try:
                _unit_direction(self.boost_direction)
            except ValueError as exc:
                raise ConfigError("boost-dir", str(exc)) from None
            if self.theta_grid.steps != 1:
                raise ConfigError(
                    "boost-dir", "a fixed boost direction requires a single-point theta grid"
                )
        if self.workers < 1:
            raise ConfigError("workers", f"must be >= 1, got {self.workers}")


def scenario_vector(cfg: SweepConfig) -> np.ndarray:
    """Build the configured scenario's unboosted, normalized 16-component state.

    A failed build is a :class:`ConfigError` naming the key at fault: ``term`` for a
    custom superposition, ``chiral`` for an annihilating projection, else ``omega0``.
    An invalid ``cfg`` is a :class:`ConfigError` from :meth:`SweepConfig.validate`."""
    cfg.validate()
    builders = {"psi1": make_psi1, "psi2": make_psi2, "psi3": make_psi3}
    base = cfg.scenario.removeprefix("chiral-")
    field = "term" if cfg.scenario == "custom" else "omega0"
    try:
        if cfg.scenario == "custom":
            terms = [_z_axis_term(complex(re, im), *rest) for re, im, *rest in cfg.custom_terms]
            return assemble_state_vector(terms)
        state = builders[base](cfg.omega0)
        if base == cfg.scenario:
            return assemble_state_vector(state)
        field = "chiral"
        return chiral_project_vector(state, *(cfg.chiral_labels or DEFAULT_CHIRAL_LABELS))
    except ValueError as exc:
        raise ConfigError(field, f"cannot build scenario {cfg.scenario!r}: {exc}") from exc


def scenario_density(cfg: SweepConfig) -> np.ndarray:
    """Build the configured scenario's unboosted 16x16 density matrix."""
    return outer(scenario_vector(cfg))


def _sweep_columns(cfg: SweepConfig):
    """Columns ``omega, theta, <measures>, nu`` and an iterator of one ``(n, k)`` block per chunk.

    Raises :class:`SweepError` naming the first point and column that is not finite.
    """
    psi = scenario_vector(cfg).reshape(4, 4)  # validates cfg, so its grids are safe to expand
    omega_points, theta_points = cfg.omega_grid.points(), cfg.theta_grid.points()
    # one table per theta step, or for the fixed direction of a one-step theta grid
    fixed = cfg.boost_direction
    directions = _polar_directions(theta_points) if fixed is None else np.array([fixed], float)
    names = [n for m in cfg.measures for n in (_BLOCH_COLUMNS if m == "bloch" else (m,))]
    columns = ["omega", "theta", *names, "nu"]

    def blocks():
        for chunk in _measure_grid(psi, directions, omega_points, theta_points):
            chunk.update(zip(_BLOCH_COLUMNS, chunk.pop("bloch").reshape(-1, 12).T))
            block = np.stack([chunk[n] for n in columns], axis=1)
            if not np.isfinite(block).all():
                k, j = np.argwhere(~np.isfinite(block))[0]
                reason = f"non-finite value for {columns[j]!r}: {block[k, j]}"
                raise _point_error(block[k, 0], block[k, 1], reason)
            yield block

    return columns, blocks()


def run_sweep(cfg: SweepConfig) -> list[dict[str, float]]:
    """Run the configured sweep: one dict per grid point, keyed like the CSV header
    ``omega, theta, <measures>, nu``, in row-major grid order."""
    columns, blocks = _sweep_columns(cfg)
    return [dict(zip(columns, row)) for block in blocks for row in block.tolist()]


def _respelled_columns(block: np.ndarray) -> np.ndarray:
    """Whether each column of ``block`` may hold a cell whose JSON spelling ``repr(float(t))``
    differs from its token ``t``: an integer token, an exponent e+12 to e+15, or a subnormal,
    whose 12 digits can outrun repr's.  A superset, tested on values: a value within 1e-11 of an
    integer, relatively, which takes in every value from 5e10 up, or below the normal range."""
    magnitude = np.abs(block)
    integral = np.abs(block - np.rint(block)) <= 1e-11 * magnitude
    return (integral | (magnitude < np.finfo(float).tiny)).any(axis=0)


def _format_chunks(columns: Sequence[str], blocks, output_format: str):
    """Yield the CSV or JSON bytes of ``blocks`` chunk by chunk; see :func:`emit`.

    Each chunk is one ``%`` pass of a row template built per column: a column bit-equal over the
    chunk is a literal, the grid columns (the first two) take tokens made once per value, and
    any other column is ``%.12g`` or, in JSON where a cell may print differently, exact strings.
    """
    if output_format not in OUTPUT_FORMATS:
        raise ConfigError("format", f"unknown format {output_format!r}")
    as_json = output_format == "json"
    # "%.12g" writes exactly the token f"{v:.12g}" does; JSON writes repr(float(token))
    token = (lambda v: repr(float("%.12g" % v))) if as_json else "%.12g".__mod__
    if as_json:
        keys = [json.dumps(c).replace("%", "%%") + ":" for c in columns]
        yield b"["
    else:
        keys = [""] * len(columns)
        yield (",".join(columns) + "\n").encode("ascii")
    grid = ({}, {})  # per grid column, the tokens of the values met so far, by their bits
    for i, block in enumerate(blocks):
        bits = block.view(np.int64)
        constant = (bits == bits[0]).all(axis=0)
        respelled = _respelled_columns(block) if as_json else np.zeros(len(columns), bool)
        fields = [key + (token(v) if c else "%.12g") for key, v, c in zip(keys, block[0], constant)]
        varying = np.flatnonzero(~constant)
        args = block[:, varying].ravel().tolist()
        for k, j in enumerate(varying):
            if j < 2:
                memo, cells = grid[j], bits[:, j].tolist()
                if len(memo) > 2048:  # keeps memory flat on grids of any size
                    memo.clear()
                new = list(set(cells).difference(memo))
                memo.update(zip(new, map(token, np.array(new, np.int64).view(float).tolist())))
                cells = list(map(memo.__getitem__, cells))
            elif respelled[j]:
                cells = [token(v) for v in block[:, j].tolist()]
            else:
                continue
            fields[j] = keys[j] + "%s"
            args[k :: len(varying)] = cells
        if as_json:
            row = "{" + ",".join(fields) + "}"
            text = "," * (i > 0) + ",".join([row] * len(block))
        else:
            text = (",".join(fields) + "\n") * len(block)
        yield (text % tuple(args)).encode("ascii")
    if as_json:
        yield b"]\n"


def emit(rows: Sequence[dict[str, float]], output_format: str = "csv") -> bytes:
    """Serialize rows, dicts with identical keys such as :func:`run_sweep` returns, to CSV or
    JSON bytes.

    CSV carries the keys as its header, `omega,theta,<measures>,nu`, 12 significant digits
    (each token is ``f"{v:.12g}"``), LF line endings.  JSON is an array of row
    objects with identical keys; each number is ``repr(float(f"{v:.12g}"))``,
    as ``json.dumps`` writes it.  Identical inputs produce identical bytes.
    """
    rows = list(rows)
    if not rows:
        raise ConfigError("rows", "nothing to emit: empty row list")
    columns = list(rows[0])
    if any(list(r) != columns for r in rows):
        raise ValueError("rows have inconsistent columns")
    block = np.array([list(r.values()) for r in rows], dtype=float)
    if not np.isfinite(block).all():
        k, j = np.argwhere(~np.isfinite(block))[0]
        raise ValueError(f"non-finite value for {columns[j]!r}: {float(block[k, j])!r}")
    return b"".join(_format_chunks(columns, [block], output_format))
