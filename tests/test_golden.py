"""Sweep rows against numeric golden files.

Each case is a sweep configuration on a small grid; its golden file under
``tests/golden/`` holds every column at full double precision.  Values are
compared after parsing, at an absolute tolerance of 1e-12, so a change in the
order of floating-point operations passes while a change in the physics does
not.

The files were written by the per-point 16x16 density-matrix pipeline that
preceded the batched sweep kernel.  To rewrite them, deliberately, run from
the repository root:

    PYTHONPATH=src python tests/test_golden.py
"""

import csv
import io
import math
from pathlib import Path

import pytest

from diracboost.sweep import CustomTermSpec, GridSpec, SweepConfig, run_sweep

GOLDEN = Path(__file__).resolve().parent / "golden"
TOL = 1e-12

ALL_MEASURES = ("eg", "delta_eg", "negativity", "delta_negativity", "bloch")
GRID = dict(omega_grid=GridSpec(0.0, 3.0, 6), theta_grid=GridSpec(0.0, math.pi, 5))
TERMS = (
    CustomTermSpec(1.0, 0.0, 1, 1.0, 1, 2, 1.0, -1),
    CustomTermSpec(0.0, 0.5, 2, 1.3, -1, 1, 0.6, 1),
)


def _case(scenario, measures=ALL_MEASURES, **overrides):
    kwargs = dict(GRID, scenario=scenario, measures=measures)
    kwargs.update(overrides)
    return SweepConfig(**kwargs)


CASES = {
    "psi1": _case("psi1"),
    "psi2": _case("psi2"),
    "psi3": _case("psi3"),
    # written at mass 2; every scenario is now built at unit mass, which gives the same rows
    "psi2-omega0-1.7-mass-2": _case("psi2", omega0=1.7),
    "psi3-bloch-delta_negativity": _case("psi3", measures=("bloch", "delta_negativity")),
    **{
        f"{scenario}-{f}{g}": _case(scenario, chiral_labels=(f, g))
        for scenario in ("chiral-psi2", "chiral-psi3")
        for f in (0, 1)
        for g in (0, 1)
    },
    "custom": _case("custom", custom_terms=TERMS),
    "custom-boost-dir": _case(
        "custom",
        custom_terms=TERMS,
        boost_direction=(0.48, 0.6, 0.64),
        theta_grid=GridSpec(0.0, 0.0, 1),
    ),
}


def _render(rows) -> str:
    columns = list(rows[0].as_mapping())
    lines = [",".join(columns)]
    lines.extend(",".join(repr(v) for v in r.as_mapping().values()) for r in rows)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name", sorted(CASES))
def test_sweep_matches_golden(name):
    expected = list(csv.DictReader(io.StringIO((GOLDEN / f"{name}.csv").read_text())))
    rows = run_sweep(CASES[name])
    assert len(rows) == len(expected)
    for row, want in zip(rows, expected):
        got = row.as_mapping()
        assert list(got) == list(want)
        for column, value in got.items():
            assert abs(value - float(want[column])) <= TOL, (
                f"{name} omega={row.omega} theta={row.theta} {column}: "
                f"{value!r} vs golden {want[column]}"
            )


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, cfg in CASES.items():
        (GOLDEN / f"{name}.csv").write_text(_render(run_sweep(cfg)))
