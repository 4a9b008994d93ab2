"""Byte equality of ``emit`` and the streaming CLI with a per-value reference.

``reference_emit`` formats every value on its own: ``f"{v:.12g}"`` joined by
commas for CSV, and ``json.dumps`` of ``float(f"{v:.12g}")`` row dicts for
JSON.  ``emit`` and ``diracboost sweep`` format a whole chunk of rows with one
template and rewrite each token whose JSON spelling differs; they must write
the same bytes.
"""

import json
import os
import stat
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracboost import cli, kernel
from diracboost.kernel import _CHUNK
from diracboost.sweep import SweepError, _format_chunks, emit, run_sweep
from test_golden import CASES

FORMATS = ("csv", "json")
NAMES = ("eg", "delta_eg", "negativity")
EDGES = (
    0.0, -0.0, 1.0, -1.0, 5.0, 1e11, 999999999999.4, 999999999999.9, 1e12, 1.5e15,
    1e15 + 3, 1e16, 1e-5, 1.5e-5, 1e-300, -1e-300, 0.99999999999999, 1e300,
    5e-324, 1.23e-320,
)


def reference_emit(rows, output_format):
    columns = list(rows[0])
    if output_format == "csv":
        lines = [",".join(columns)]
        lines.extend(",".join(f"{v:.12g}" for v in r.values()) for r in rows)
        return ("\n".join(lines) + "\n").encode("ascii")
    payload = [{k: float(f"{v:.12g}") for k, v in r.items()} for r in rows]
    return (json.dumps(payload, separators=(",", ":")) + "\n").encode("ascii")


def _row(values):
    return dict(zip(("omega", "theta", *NAMES, "nu"), values))


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
    st.floats(-1e-307, 1e-307),  # subnormals included
    st.sampled_from(EDGES),
)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(table=st.lists(st.lists(values, min_size=6, max_size=6), min_size=1, max_size=8))
def test_emit_matches_reference_on_random_floats(table):
    rows = [_row(v) for v in table]
    for output_format in FORMATS:
        assert emit(rows, output_format) == reference_emit(rows, output_format)


def test_emit_escapes_percent_in_json_keys():
    rows = [{"omega": 0.0, "theta": 1.5, "a%d": 2.0, "b%%s": -0.0, "nu": 1.0}]
    for output_format in FORMATS:
        assert emit(rows, output_format) == reference_emit(rows, output_format)


# --------------------------------------------------------------------------
# the writer's row template: columns constant over a chunk are literals
# --------------------------------------------------------------------------

COLUMNS = ("omega", "theta", *NAMES, "nu")


def _streamed(blocks, output_format):
    """The bytes of ``blocks`` written one chunk each, and the reference bytes of their rows."""
    rows = [dict(zip(COLUMNS, row)) for block in blocks for row in block.tolist()]
    written = b"".join(_format_chunks(COLUMNS, blocks, output_format))
    return written, reference_emit(rows, output_format)


@pytest.mark.parametrize("output_format", FORMATS)
@pytest.mark.parametrize("value", [0.0, -0.0, 1.0, 1e12, 1.5e15, 5e-324])
def test_constant_column_next_to_a_chunk_where_it_varies(value, output_format):
    rng = np.random.default_rng(7)
    for j in range(len(COLUMNS)):
        constant, varying = rng.normal(size=(2, 5, len(COLUMNS)))
        constant[:, j] = value
        varying[::2, j] = value
        got, want = _streamed([constant, varying, constant], output_format)
        assert got == want, COLUMNS[j]


@pytest.mark.parametrize("output_format", FORMATS)
def test_column_of_mixed_signed_zeros_is_not_folded(output_format):
    rng = np.random.default_rng(8)
    for j in range(len(COLUMNS)):
        block = rng.normal(size=(4, len(COLUMNS)))
        block[:, j] = [0.0, -0.0, 0.0, -0.0]
        got, want = _streamed([block, block[::-1].copy()], output_format)
        assert got == want, COLUMNS[j]


def test_grid_tokens_stay_bounded_on_a_long_grid():
    """The writer keeps the tokens of the grid values it has met, but not of every one."""
    blocks = [np.full((256, len(COLUMNS)), 0.5) for _ in range(80)]
    for k, block in enumerate(blocks):
        block[:, 0] = np.arange(256 * k, 256 * (k + 1)) / 3.0  # 20,480 omega values
    chunks = _format_chunks(COLUMNS, blocks, "csv")
    next(chunks)
    tracemalloc.start()
    try:
        for _ in chunks:
            pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**19, peak  # about 0.33 MB; 2.6 MB if every token were kept


@pytest.mark.parametrize("output_format", FORMATS)
def test_block_of_constant_columns_leaves_no_template_argument(output_format):
    rows = [{"omega": 1.0, "theta": -0.0, "a%d": 1e12, "b%%s": 0.5, "nu": 5e-324}] * 3
    assert emit(rows, output_format) == reference_emit(rows, output_format)


# --------------------------------------------------------------------------
# the CLI streams chunk by chunk
# --------------------------------------------------------------------------

CUSTOM_TERMS = ["--term=1,0,1,1,1,2,1,-1", "--term=0,0.5,2,1.3,-1,1,0.6,1"]
# 700, 576 and 601 rows: three chunks, the last one partial.  The omega = 0 rows and
# rows at integer omega (whose integer tokens JSON writes with ".0"), exact
# zeros included, fall in the second chunk and beyond.  psi2's 64 theta steps put
# a theta = 0 row first in each later chunk.
STREAMED = {
    "psi3-bloch": ["--scenario", "psi3", "--omega=-3:3:7", "--theta", "0:3.141592653589793:100",
                   "--measures", "eg,delta_eg,negativity,delta_negativity,bloch"],
    "psi2-bloch-theta-64": ["--scenario", "psi2", "--omega=-2:2:9", "--theta",
                            "0:3.141592653589793:64", "--measures", "eg,negativity,bloch"],
    "custom-boost-dir": ["--scenario", "custom", *CUSTOM_TERMS, "--boost-dir", "0.48,0.6,0.64",
                         "--omega=-3:3:601", "--theta", "0:0:1"],
}


def _config(argv):
    cfg, _ = cli.build_config(cli._build_parser().parse_args(["sweep", *argv]))
    return cfg


@pytest.mark.parametrize("output_format", FORMATS)
@pytest.mark.parametrize("name", sorted(STREAMED))
def test_cli_streams_reference_bytes(name, output_format, tmp_path, capsysbinary):
    argv = [*STREAMED[name], "--format", output_format]
    cfg = _config(argv)
    rows = run_sweep(cfg)
    assert 2 * _CHUNK < len(rows) < 3 * _CHUNK
    assert {0.0, 1.0, 2.0} <= {r["omega"] for r in rows[_CHUNK:]}
    assert any(v == 0.0 for r in rows[_CHUNK:] for v in list(r.values())[2:-1])
    expected = reference_emit(rows, output_format)

    out = tmp_path / f"rows.{output_format}"
    assert cli.main(["sweep", *argv, "--out", str(out)]) == 0
    assert out.read_bytes() == expected
    assert [p.name for p in tmp_path.iterdir()] == [out.name]
    capsysbinary.readouterr()
    assert cli.main(["sweep", *argv]) == 0
    assert capsysbinary.readouterr().out == expected


def test_cli_writes_a_pipe_in_place(tmp_path):
    argv = ["--scenario", "psi1", "--omega", "0:1:3", "--theta", "0:1:2"]
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    received = []
    reader = threading.Thread(target=lambda: received.append(pipe.read_bytes()), daemon=True)
    reader.start()
    assert cli.main(["sweep", *argv, "--out", str(pipe)]) == 0
    reader.join(timeout=30)
    assert not reader.is_alive()
    assert received == [reference_emit(run_sweep(_config(argv)), "csv")]
    assert stat.S_ISFIFO(pipe.stat().st_mode)


# omega = 400 overflows nu; its first row is row 400, in the second chunk
FAILING = ["sweep", "--omega", "0:400:3", "--theta", "0:1:200"]


@pytest.mark.parametrize("output_format", FORMATS)
def test_failed_sweep_leaves_out_file_untouched(output_format, tmp_path, capsys):
    out = tmp_path / "rows.out"
    out.write_bytes(b"earlier output\n")
    assert cli.main([*FAILING, "--format", output_format, "--out", str(out)]) == 1
    assert "sweep point (omega=400, theta=0) failed" in capsys.readouterr().err
    assert out.read_bytes() == b"earlier output\n"
    assert [p.name for p in tmp_path.iterdir()] == [out.name]
    missing = tmp_path / "never.out"
    assert cli.main([*FAILING, "--format", output_format, "--out", str(missing)]) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == [out.name]


@pytest.mark.parametrize("output_format", FORMATS)
def test_failed_sweep_on_stdout_exits_1(output_format, capsysbinary):
    assert cli.main([*FAILING, "--format", output_format]) == 1
    captured = capsysbinary.readouterr()
    assert b"omega=400" in captured.err
    # the first chunk went out before the second one failed
    written = captured.out.count(b"\n") - 1 if output_format == "csv" else captured.out.count(b"{")
    assert written == _CHUNK


def test_non_finite_measure_names_point_and_column(monkeypatch):
    exact = kernel._measure_chunk

    def corrupted(tables, omegas, thetas, columns):
        nu, eg, neg, bloch = exact(tables, omegas, thetas, columns)
        if len(omegas) > 1:
            bloch[16, 1, 2] = np.nan  # row 16 of the grid: omega = 0.5, theta = 0.5
        return nu, eg, neg, bloch

    monkeypatch.setattr(kernel, "_measure_chunk", corrupted)
    cfg = _config(["--scenario", "psi3", "--omega", "0:1:3", "--theta", "0:1:11",
                   "--measures", "eg,bloch"])
    with pytest.raises(SweepError, match=r"omega=0\.5, theta=0\.5\).*'bloch_sa_z': nan"):
        run_sweep(cfg)
