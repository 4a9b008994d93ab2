"""The command line's contract as a property: every ``diracboost sweep`` input either exits 0 with
finite, correct rows or exits 1 with an ``error: ...`` line that names the key or the grid point
at fault, and nothing else is raised or warned.

The draws mix ordinary numbers with edge values (signed zeros, subnormals, values near the float
range, NaN, infinities, pi and its neighbours, and the rapidities 354.9 and 355 on either side of
``nu``'s overflow) in every numeric field, on grids of one to three steps per axis.  Every value
is passed as ``--flag=value``, so argparse cannot read a negative value as a flag.
"""

import contextlib
import io
import json
import math
import re
import warnings

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diracboost import cli
from diracboost.measures import (
    bloch_vector,
    global_entanglement,
    negativity,
    single_qubit_reductions,
    spin_spin_reduced,
)
from diracboost.states import TWO_PARTICLE_LAYOUT
from diracboost.sweep import MEASURES, SCENARIOS, GridSpec, SweepConfig, scenario_vector
from diracboost.tensor import ID2, PAULI, PAULI_X

PI = math.pi
EDGES = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300, 1.7e308, -1.7e308,
         math.nan, math.inf, -math.inf, math.nextafter(PI, 0.0), PI, math.nextafter(PI, 4.0),
         354.9, 355.0, -354.9, -355.0)
ERROR_LINE = re.compile(
    r"error: (?:(?P<key>[\w-]+): |sweep point \(omega=[^,]+, theta=[^)]+\) failed: )"
)


def with_edges(ordinary):
    """``ordinary`` values, and one draw in six from EDGES."""
    return st.integers(0, 5).flatmap(lambda i: st.sampled_from(EDGES) if i == 0 else ordinary)


numbers = with_edges(st.floats(-3.0, 3.0))
angles = with_edges(st.floats(0.0, PI))
rapidities = with_edges(st.floats(0.0, 3.0))
rarely = st.integers(0, 9).map(lambda i: i == 0)


def grids(values):
    """Grids of 1-3 steps; one in ten is left as drawn, the others made valid in shape."""

    @st.composite
    def draw_grid(draw):
        steps, start, stop = draw(st.integers(1, 3)), draw(values), draw(values)
        if not draw(rarely):
            start, stop = (start, start) if steps == 1 else sorted((start, stop))
        return GridSpec(start, stop, steps)

    return draw_grid()


helicities = st.sampled_from((1, 2) * 4 + (3,))
signs = st.sampled_from((1, -1) * 4 + (0,))
terms = st.tuples(numbers, numbers, helicities, rapidities, signs, helicities, rapidities, signs)


@st.composite
def unit_vectors(draw):
    v = np.array([draw(st.floats(-1.0, 1.0)) for _ in range(3)])
    norm = np.linalg.norm(v)
    return tuple((v / norm).tolist()) if norm > 0.1 else (0.0, 0.0, 1.0)


def _values(values):
    return ",".join(map(repr, values))


def _grid(g):
    return f"{g.start!r}:{g.stop!r}:{g.steps}"


#: Each drawn SweepConfig field: its flag and the text that sets it.
FLAGS = {
    "scenario": ("scenario", str),
    "omega0": ("omega0", repr),
    "omega_grid": ("omega", _grid),
    "theta_grid": ("theta", _grid),
    "measures": ("measures", ",".join),
    "output_format": ("format", str),
    "chiral_labels": ("chiral", _values),
    "boost_direction": ("boost-dir", _values),
}


@st.composite
def sweep_fields(draw):
    """Drawn SweepConfig fields, any of them invalid.  The grids are always given; a field the
    scenario takes is drawn in half of the draws (terms in nine of ten), any other in one of ten."""
    scenario = draw(st.sampled_from(SCENARIOS))
    custom, chiral = scenario == "custom", scenario.startswith("chiral-")
    fields = dict(scenario=scenario, omega_grid=draw(grids(numbers)),
                  theta_grid=draw(grids(angles)))
    optional = {  # name: (values, draws in ten that set it)
        "omega0": (rapidities, 1 if custom else 5),
        "measures": (st.lists(st.sampled_from(MEASURES), min_size=1, max_size=3).map(tuple), 5),
        "output_format": (st.sampled_from(("csv", "json")), 5),
        "chiral_labels": (st.tuples(st.sampled_from((0, 1, 2)), st.sampled_from((0, 1))),
                          5 if chiral else 1),
        "boost_direction": (st.one_of(unit_vectors(), st.tuples(numbers, numbers, numbers)),
                            5 if custom else 1),
        "custom_terms": (st.lists(terms, min_size=1, max_size=3).map(tuple), 9 if custom else 1),
    }
    for name, (values, tenths) in optional.items():
        if draw(st.integers(0, 9)) < tenths:
            fields[name] = draw(values)
    return fields


def sweep_argv(fields):
    """``sweep`` with one ``--flag=value`` per drawn field, and one ``--term`` per term."""
    flags = [f"--{flag}={text(fields[name])}" for name, (flag, text) in FLAGS.items()
             if name in fields]
    return ["sweep", *flags, *(f"--term={_values(t)}" for t in fields.get("custom_terms", ()))]


def run_main(argv):
    """``cli.main(argv)`` in process, with every warning an error: its exit code, stdout bytes
    and stderr text."""
    out, err = io.TextIOWrapper(io.BytesIO(), encoding="ascii"), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    out.flush()
    return code, out.buffer.getvalue(), err.getvalue()


def read_rows(data, output_format):
    if output_format == "json":
        rows = json.loads(data)
        return list(rows[0]), [list(row.values()) for row in rows]
    header, *lines = data.decode("ascii").splitlines()
    return header.split(","), [[float(v) for v in line.split(",")] for line in lines]


def textbook_row(psi, omega, n):
    """Every column of the sweep row of ``psi`` boosted by ``omega`` along ``n``, from the
    textbook ``kron(S, S) psi`` with ``S = cosh(w/2) I - sinh(w/2) sigma_x (x) n.sigma``."""
    generator = np.kron(PAULI_X, sum(c * sigma for c, sigma in zip(n, PAULI)))
    s = math.cosh(omega / 2.0) * np.kron(ID2, ID2) - math.sinh(omega / 2.0) * generator
    boosted = np.kron(s, s) @ psi
    nu = float(np.vdot(boosted, boosted).real)
    boosted /= math.sqrt(nu)
    eg, neg = global_entanglement(boosted), negativity(spin_spin_reduced(boosted))
    row = {"eg": eg, "negativity": neg, "nu": nu,
           "delta_eg": eg - global_entanglement(psi),
           "delta_negativity": neg - negativity(spin_spin_reduced(psi))}
    for tag, rho in single_qubit_reductions(boosted).items():
        v = bloch_vector(rho)
        row.update({f"bloch_{tag.lower()}_{x}": c for x, c in zip("xyz", (v.x, v.y, v.z))})
    return row


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(fields=sweep_fields(), pick=st.integers(0, 8))
@example(  # |n|^2 overflows: a numpy warning came before the boost-dir error
    fields=dict(scenario="custom", omega_grid=GridSpec(0.0, 1.0, 2),
                theta_grid=GridSpec(0.0, 0.0, 1), boost_direction=(1e300, 1e300, 0.0),
                custom_terms=((1.0, 0.0, 1, 0.5, 1, 2, 0.5, -1),)),
    pick=0,
)
def test_every_sweep_input_gives_correct_rows_or_one_named_error(fields, pick):
    code, out, err = run_main(sweep_argv(fields))
    if code == 1:
        match = ERROR_LINE.match(err.splitlines()[-1])
        assert match, err
        assert match["key"] in (*cli._KEYS, "config", None), err
        return
    assert (code, err) == (0, "")
    cfg = SweepConfig(**fields)
    columns, rows = read_rows(out, cfg.output_format)
    bloch = [f"bloch_{t.lower()}_{x}" for t in TWO_PARTICLE_LAYOUT for x in "xyz"]
    names = [n for m in cfg.measures for n in (bloch if m == "bloch" else [m])]
    assert columns == ["omega", "theta", *names, "nu"]
    assert len(rows) == cfg.omega_grid.steps * cfg.theta_grid.steps
    assert np.isfinite(rows).all()
    for name in ("eg", "negativity"):
        if name in columns:
            assert all(0.0 <= row[columns.index(name)] <= 1.0 for row in rows)

    # one row against the textbook boost, where that route keeps 1e-9: kron(S, S) has entries
    # up to e^{|omega|}, so its rounding is eps e^{|omega|} relative to the result's norm sqrt(nu)
    k = pick % len(rows)
    row = dict(zip(columns, rows[k]))
    if not (row["nu"] < 1e12 and abs(row["omega"]) < math.log(1e4) + math.log(row["nu"]) / 2):
        return
    omega = cfg.omega_grid.points()[k // cfg.theta_grid.steps]
    theta = cfg.theta_grid.points()[k % cfg.theta_grid.steps]
    n = cfg.boost_direction or (math.sin(theta), 0.0, math.cos(theta))
    expected = textbook_row(scenario_vector(cfg), omega, n)
    assert row["omega"] == float(f"{omega:.12g}") and row["theta"] == float(f"{theta:.12g}")
    assert abs(row["nu"] / expected["nu"] - 1.0) <= 1e-9
    for name in names:
        assert abs(row[name] - expected[name]) <= 1e-9, (name, row[name], expected[name])
