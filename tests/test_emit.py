"""Byte equality of ``emit`` with a per-value reference formulation.

``reference_emit`` formats every value on its own: ``f"{v:.12g}"`` joined by
commas for CSV, and ``json.dumps`` of ``float(f"{v:.12g}")`` row dicts for
JSON.  ``emit`` formats a whole row with one template and patches the few
tokens whose JSON spelling differs; it must write the same bytes.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracboost.sweep import SweepRow, emit, run_sweep
from test_golden import CASES

FORMATS = ("csv", "json")
NAMES = ("eg", "delta_eg", "negativity")
EDGES = (
    0.0, -0.0, 1.0, -1.0, 5.0, 1e11, 999999999999.4, 999999999999.9, 1e12, 1.5e15,
    1e15 + 3, 1e16, 1e-5, 1.5e-5, 1e-300, -1e-300, 0.99999999999999, 1e300,
)


def reference_emit(rows, output_format):
    columns = list(rows[0].as_mapping())
    if output_format == "csv":
        lines = [",".join(columns)]
        lines.extend(",".join(f"{v:.12g}" for v in r.as_mapping().values()) for r in rows)
        return ("\n".join(lines) + "\n").encode("ascii")
    payload = [{k: float(f"{v:.12g}") for k, v in r.as_mapping().items()} for r in rows]
    return (json.dumps(payload, separators=(",", ":")) + "\n").encode("ascii")


def _row(values):
    return SweepRow(values[0], values[1], dict(zip(NAMES, values[2:-1])), values[-1])


@pytest.mark.parametrize("output_format", FORMATS)
@pytest.mark.parametrize("name", sorted(CASES))
def test_emit_matches_reference_on_golden_configs(name, output_format):
    rows = run_sweep(CASES[name])
    assert emit(rows, output_format) == reference_emit(rows, output_format)


@pytest.mark.parametrize("output_format", FORMATS)
def test_emit_matches_reference_on_edge_values(output_format):
    signed = EDGES + tuple(-v for v in EDGES)
    width = len(NAMES) + 3
    rows = [_row([v] * width) for v in signed]
    # every edge value in every column, next to its neighbours
    rows += [_row([signed[(i + j) % len(signed)] for j in range(width)]) for i in range(len(signed))]
    assert emit(rows, output_format) == reference_emit(rows, output_format)


values = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(10**17), 10**17).map(float),
    st.sampled_from(EDGES),
)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(table=st.lists(st.lists(values, min_size=6, max_size=6), min_size=1, max_size=8))
def test_emit_matches_reference_on_random_floats(table):
    rows = [_row(v) for v in table]
    for output_format in FORMATS:
        assert emit(rows, output_format) == reference_emit(rows, output_format)


def test_emit_escapes_percent_in_json_keys():
    rows = [SweepRow(0.0, 1.5, {"a%d": 2.0, "b%%s": -0.0}, 1.0)]
    for output_format in FORMATS:
        assert emit(rows, output_format) == reference_emit(rows, output_format)
