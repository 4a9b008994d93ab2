import functools
import io
import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from diracboost import cli
from diracboost.kinematics import E_Z, FourMomentum
from diracboost.states import SuperpositionTerm, assemble_state_vector
from diracboost.sweep import (
    DEFAULT_MEASURES,
    ConfigError,
    GridSpec,
    SweepConfig,
    SweepError,
    emit,
    run_sweep,
    scenario_density,
    scenario_vector,
)

IDENTITY_ROW = b"omega,theta,eg,delta_eg,negativity,delta_negativity,nu\n0,0,0.5,0,0,0,1\n"


def tiny_config(**overrides):
    base = dict(
        scenario="psi1",
        omega_grid=GridSpec(0.0, 0.0, 1),
        theta_grid=GridSpec(0.0, 0.0, 1),
    )
    base.update(overrides)
    return SweepConfig(**base)


# --------------------------------------------------------------------------
# grid and term parsing
# --------------------------------------------------------------------------


def test_grid_parse_and_points():
    grid = cli._GRID("0:2:5", "omega")
    assert grid == GridSpec(0.0, 2.0, 5)
    assert_allclose(grid.points(), [0.0, 0.5, 1.0, 1.5, 2.0], atol=0)
    assert_allclose(GridSpec(1.5, 9.0, 1).points(), [1.5], atol=0)


@pytest.mark.parametrize("text", ["0:2", "0:2:5:9", "a:2:5", "0:2:x"])
def test_grid_parse_rejects_malformed(text):
    with pytest.raises(ConfigError) as err:
        cli._GRID(text, "omega")
    assert err.value.field == "omega"


def test_term_parse_roundtrip():
    term = cli._TERM("0.5, -0.25, 1, 1.0, 1, 2, 0.7, -1", "term")
    assert term == (0.5, -0.25, 1, 1.0, 1, 2, 0.7, -1)
    built = scenario_vector(tiny_config(scenario="custom", custom_terms=(term,)))
    # dirA = +1 means +e_z and dirB = -1 means -e_z
    pa, pb = FourMomentum.from_rapidity(1.0, 1.0, E_Z), FourMomentum.from_rapidity(1.0, 0.7, -E_Z)
    expected = assemble_state_vector([SuperpositionTerm(0.5 - 0.25j, (pa, 1), (pb, 2))])
    assert np.array_equal(built, expected)


@pytest.mark.parametrize(
    "text",
    [
        "1,0,1,1,1,2,1",
        "1,0,3,1,1,2,1,1",
        "1,0,1,1,0,2,1,1",
        "1,0,1,-1,1,2,1,1",
        "nan,0,1,1,1,2,1,1",
        "1,inf,1,1,1,2,1,1",
    ],
)
def test_term_validation_rejects_bad_fields(text):
    with pytest.raises(ConfigError) as err:  # the parse refuses the first, the build the rest
        scenario_vector(tiny_config(scenario="custom", custom_terms=(cli._TERM(text, "term"),)))
    assert err.value.field == "term"


@pytest.mark.parametrize(
    "term,message",
    [
        ((1, 0, 1, 1.0, 0, 2, 1.0, 1), "dirA must be +1 or -1, got 0"),
        ((1, 0, 1, 1.0, 1, 2, 1.0, 2), "dirB must be +1 or -1, got 2"),
        ((1, 0, 1, -1.0, 1, 2, 1.0, 1), "omega0A must be a nonnegative rapidity, got -1.0"),
        ((1, 0, 1, 1.0, 1, 2, math.nan, 1), "omega0B must be a nonnegative rapidity, got nan"),
    ],
)
def test_term_errors_name_their_slot(term, message):
    with pytest.raises(ConfigError) as err:
        scenario_vector(tiny_config(scenario="custom", custom_terms=(term,)))
    assert str(err.value) == f"term: cannot build scenario 'custom': {message}"


def test_config_refuses_a_term_without_eight_fields():
    cfg = tiny_config(scenario="custom", custom_terms=((1.0, 0.0, 1, 1.0, 1, 2, 1.0),))
    with pytest.raises(ConfigError) as err:
        cfg.validate()
    assert str(err.value) == (
        "term: expected re,im,sA,omega0A,dirA,sB,omega0B,dirB, got (1.0, 0.0, 1, 1.0, 1, 2, 1.0)"
    )


# --------------------------------------------------------------------------
# config validation
# --------------------------------------------------------------------------


@pytest.mark.parametrize(
    "overrides,field",
    [
        (dict(scenario="nope"), "scenario"),
        (dict(omega0=-1.0), "omega0"),
        (dict(omega0=math.inf), "omega0"),
        (dict(omega_grid=GridSpec(0.0, 1.0, 0)), "omega"),
        (dict(omega_grid=GridSpec(2.0, 1.0, 3)), "omega"),
        (dict(theta_grid=GridSpec(0.0, 4.0, 2)), "theta"),
        (dict(measures=()), "measures"),
        (dict(measures=("eg", "entropy")), "measures"),
        (dict(measures=("eg", "eg")), "measures"),
        (dict(output_format="xml"), "format"),
        (dict(chiral_labels=(0, 0)), "chiral"),
        (dict(scenario="custom"), "term"),
        (dict(custom_terms=((1, 0, 1, 1, 1, 2, 1, 1),)), "term"),
        (dict(boost_direction=(0.0, 0.0, 1.0)), "boost-dir"),
        (dict(workers=0), "workers"),
        (dict(omega_grid=GridSpec(math.nan, 1.0, 3)), "omega"),
        (dict(omega_grid=GridSpec(0.0, math.inf, 2)), "omega"),
        (dict(omega_grid=GridSpec(0.0, 5.0, 1)), "omega"),
        (dict(omega_grid=GridSpec(0.0, 1.0, 2.5)), "omega"),
        (dict(omega_grid=GridSpec(-1e308, 1e308, 3)), "omega"),
        (dict(theta_grid=GridSpec(0.0, 1.0, 1)), "theta"),
    ],
)
def test_config_validation_reports_field(overrides, field):
    cfg = tiny_config(**overrides)
    with pytest.raises(ConfigError) as err:  # a custom scenario without terms fails its build
        scenario_vector(cfg)
    assert err.value.field == field
    assert str(err.value).startswith(f"{field}:")


@pytest.mark.parametrize("labels", [(0, 2), (0,), (0, 1, 1)])
def test_config_chiral_labels_checked(labels):
    cfg = tiny_config(scenario="chiral-psi3", chiral_labels=labels)
    with pytest.raises(ConfigError) as err:
        cfg.validate()
    assert err.value.field == "chiral"


def test_config_custom_rejects_all_zero_coefficients():
    cfg = tiny_config(
        scenario="custom",
        custom_terms=((0.0, 0.0, 1, 1.0, 1, 2, 1.0, 1),),
    )
    with pytest.raises(ConfigError) as err:
        run_sweep(cfg)
    assert err.value.field == "term"


def test_config_boost_dir_constraints():
    term = (1.0, 0.0, 1, 1.0, 1, 2, 1.0, -1)
    bad_norm = tiny_config(
        scenario="custom", custom_terms=(term,), boost_direction=(0.0, 0.0, 2.0)
    )
    with pytest.raises(ConfigError, match="unit vector"):
        bad_norm.validate()
    nan_component = tiny_config(
        scenario="custom", custom_terms=(term,), boost_direction=(math.nan, 0.0, 1.0)
    )
    with pytest.raises(ConfigError, match="unit vector"):
        nan_component.validate()
    two_components = tiny_config(
        scenario="custom", custom_terms=(term,), boost_direction=(0.6, 0.8)
    )
    with pytest.raises(ConfigError, match="3-vector") as err:
        two_components.validate()
    assert err.value.field == "boost-dir"
    multi_theta = tiny_config(
        scenario="custom",
        custom_terms=(term,),
        boost_direction=(0.0, 0.0, 1.0),
        theta_grid=GridSpec(0.0, 1.0, 2),
    )
    with pytest.raises(ConfigError) as err:
        multi_theta.validate()
    assert err.value.field == "boost-dir"
    ok = tiny_config(
        scenario="custom", custom_terms=(term,), boost_direction=(0.0, 0.0, 1.0)
    )
    ok.validate()


def test_scenario_density_wraps_build_failures():
    # psi1 at omega0 = 0 degenerates to the rest singlet and still builds
    rho = scenario_density(tiny_config(omega0=0.0))
    assert abs(np.trace(rho) - 1.0) < 1e-12
    # a cancelling custom superposition does not
    term = (1.0, 0.0, 1, 1.0, 1, 2, 1.0, -1)
    cancel = (-1.0, 0.0, 1, 1.0, 1, 2, 1.0, -1)
    # each failure names the key at fault
    for overrides, field in [
        (dict(scenario="custom", custom_terms=(term, cancel)), "term"),
        (dict(omega0=400.0), "omega0"),
        (dict(scenario="chiral-psi3", omega0=400.0), "omega0"),
        # at omega0 = 300 the f = g = 0 projection of psi3 annihilates it
        (dict(scenario="chiral-psi3", omega0=300.0, chiral_labels=(0, 0)), "chiral"),
    ]:
        with pytest.raises(ConfigError) as err:
            scenario_density(tiny_config(**overrides))
        assert err.value.field == field
        assert str(err.value).startswith(f"{field}: cannot build scenario")


def test_scenario_vector_validates_the_whole_config():
    with pytest.raises(ConfigError) as err:
        scenario_vector(SweepConfig(omega_grid=GridSpec(1.0, 0.0, 3)))
    assert err.value.field == "omega"


# --------------------------------------------------------------------------
# running sweeps
# --------------------------------------------------------------------------


def test_identity_sweep_row_bytes():
    """The no-boost row of the opposite-helicity scenario, byte for byte."""
    rows = run_sweep(tiny_config())
    assert len(rows) == 1
    assert emit(rows, "csv") == IDENTITY_ROW


def test_rows_come_back_in_row_major_order():
    cfg = tiny_config(
        omega_grid=GridSpec(0.0, 1.0, 2), theta_grid=GridSpec(0.0, 1.0, 3)
    )
    rows = run_sweep(cfg)
    coords = [(r["omega"], r["theta"]) for r in rows]
    assert coords == [
        (0.0, 0.0), (0.0, 0.5), (0.0, 1.0),
        (1.0, 0.0), (1.0, 0.5), (1.0, 1.0),
    ]


def test_sweep_is_deterministic():
    cfg = SweepConfig(
        scenario="psi2",
        omega_grid=GridSpec(0.0, 2.0, 4),
        theta_grid=GridSpec(0.0, math.pi / 2.0, 3),
    )
    first = emit(run_sweep(cfg), "csv")
    second = emit(run_sweep(cfg), "csv")
    assert first == second


def test_parallel_sweep_matches_serial():
    base = dict(
        scenario="psi2",
        omega_grid=GridSpec(0.0, 2.0, 3),
        theta_grid=GridSpec(0.0, math.pi / 2.0, 2),
    )
    serial = emit(run_sweep(SweepConfig(**base, workers=1)), "csv")
    parallel = emit(run_sweep(SweepConfig(**base, workers=2)), "csv")
    assert serial == parallel


def test_measures_subset_controls_columns():
    cfg = tiny_config(measures=("negativity", "eg"))
    rows = run_sweep(cfg)
    assert list(rows[0]) == ["omega", "theta", "negativity", "eg", "nu"]
    header = emit(rows, "csv").split(b"\n", 1)[0]
    assert header == b"omega,theta,negativity,eg,nu"


def test_bloch_measure_expands_to_twelve_columns():
    cfg = tiny_config(
        scenario="psi2",
        omega_grid=GridSpec(1.0, 1.0, 1),
        theta_grid=GridSpec(0.3, 0.3, 1),
        measures=("bloch",),
    )
    rows = run_sweep(cfg)
    expected = [
        f"bloch_{tag}_{axis}" for tag in ("pa", "sa", "pb", "sb") for axis in "xyz"
    ]
    assert list(rows[0]) == ["omega", "theta", *expected, "nu"]


def test_chiral_scenario_with_equal_labels_is_boost_invariant():
    cfg = SweepConfig(
        scenario="chiral-psi3",
        chiral_labels=(0, 0),
        omega_grid=GridSpec(0.0, 2.0, 3),
        theta_grid=GridSpec(0.0, math.pi, 3),
    )
    for row in run_sweep(cfg):
        assert abs(row["delta_eg"]) < 1e-12
        assert abs(row["delta_negativity"]) < 1e-12


@pytest.mark.parametrize("omega0", [7.5, 10.0, 15.0])
def test_psi2_rest_negativity_at_large_omega0(omega0):
    (row,) = run_sweep(tiny_config(scenario="psi2", omega0=omega0))
    assert abs(row["negativity"] - 1.0 / math.cosh(omega0) ** 2) <= 1e-12


@pytest.mark.filterwarnings("error")
def test_failed_point_reports_coordinates():
    cfg = tiny_config(
        measures=DEFAULT_MEASURES,
        omega_grid=GridSpec(0.0, 400.0, 3),
        theta_grid=GridSpec(0.25, 0.25, 1),
    )
    with pytest.raises(SweepError, match=r"omega=400.*theta=0.25"):
        run_sweep(cfg)


def test_emit_rejects_non_finite():
    finite = {"omega": 0.0, "theta": 0.0, "eg": 0.5, "nu": 1.0}
    with pytest.raises(ValueError, match="non-finite"):
        emit([{**finite, "eg": math.nan}])
    two_bad = {"omega": 0.0, "theta": 0.0, "eg": 0.5, "negativity": math.inf, "delta_eg": math.nan}
    with pytest.raises(ValueError, match=r"non-finite value for 'negativity': inf"):
        emit([{**two_bad, "nu": 1.0}])
    with pytest.raises(ValueError, match=r"non-finite value for 'nu': nan"):
        emit([finite, {**finite, "nu": math.nan}], "json")


# --------------------------------------------------------------------------
# emission
# --------------------------------------------------------------------------


def test_emit_csv_round_trips_through_parser():
    import csv

    cfg = SweepConfig(
        scenario="psi2",
        omega_grid=GridSpec(0.0, 3.0, 3),
        theta_grid=GridSpec(0.0, 1.0, 2),
    )
    rows = run_sweep(cfg)
    text = emit(rows, "csv").decode("ascii")
    parsed = list(csv.DictReader(io.StringIO(text)))
    assert len(parsed) == len(rows)
    for line, row in zip(parsed, rows):
        for key, value in row.items():
            assert abs(float(line[key]) - value) < 1e-11 * max(1.0, abs(value))


def test_emit_json_mirrors_csv_columns():
    cfg = tiny_config(omega_grid=GridSpec(0.0, 1.0, 2))
    rows = run_sweep(cfg)
    payload = json.loads(emit(rows, "json").decode("ascii"))
    assert isinstance(payload, list) and len(payload) == 2
    for obj, row in zip(payload, rows):
        assert list(obj) == list(row)
        assert obj["eg"] == pytest.approx(row["eg"], abs=1e-11)


def test_emit_rejects_bad_input():
    with pytest.raises(ConfigError, match="empty row list"):
        emit([], "csv")
    rows = run_sweep(tiny_config())
    with pytest.raises(ConfigError, match="unknown format"):
        emit(rows, "yaml")
    reordered = dict(reversed(list(rows[0].items())[2:-1]))
    for output_format in ("csv", "json"):
        for other in ({"eg": 0.5}, reordered):
            with pytest.raises(ValueError, match="inconsistent columns"):
                emit(rows + [{"omega": 1.0, "theta": 0.0, **other, "nu": 1.0}], output_format)


# --------------------------------------------------------------------------
# config files and the command line
# --------------------------------------------------------------------------


def test_load_config_file(tmp_path):
    path = tmp_path / "sweep.cfg"
    path.write_text(
        "# comment lines and blanks are skipped\n"
        "\n"
        "scenario = custom\n"
        "omega = 0:1:2\n"
        "term = 1,0,1,1,1,2,1,-1\n"
        "term = 0,0.5,2,1,-1,1,1,1\n"
    )
    values = cli.load_config_file(str(path))
    assert values["scenario"] == "custom"
    assert values["omega"] == "0:1:2"
    assert values["term"] == ["1,0,1,1,1,2,1,-1", "0,0.5,2,1,-1,1,1,1"]


def test_load_config_file_skips_a_byte_order_mark(tmp_path):
    path = tmp_path / "bom.cfg"
    path.write_bytes(b"\xef\xbb\xbfscenario = psi1\nomega = 0:1:2\n")
    assert cli.load_config_file(str(path)) == {"scenario": "psi1", "omega": "0:1:2"}


def test_load_config_file_rejects_bad_lines(tmp_path):
    unknown = tmp_path / "bad.cfg"
    unknown.write_text("volume = 11\n")
    with pytest.raises(ConfigError, match="unknown key"):
        cli.load_config_file(str(unknown))
    no_eq = tmp_path / "noeq.cfg"
    no_eq.write_text("scenario psi1\n")
    with pytest.raises(ConfigError, match="key=value"):
        cli.load_config_file(str(no_eq))
    with pytest.raises(ConfigError, match="cannot read"):
        cli.load_config_file(str(tmp_path / "missing.cfg"))


def test_cli_names_a_config_file_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "latin.cfg"
    path.write_bytes(b"\xff\xfe=1\n")
    assert cli.main(["sweep", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: config: cannot read {str(path)!r}: 'utf-8' codec can't decode")
    assert err.count("\n") == 1


def _build(*argv):
    return cli.build_config(cli._build_parser().parse_args(["sweep", *argv]))


# one non-default value for every key that sets a SweepConfig field
NON_DEFAULT = {
    "scenario": "psi3",
    "omega0": "1.5",
    "omega": "0:1:3",
    "theta": "0:1:4",
    "measures": "eg, Bloch",
    "format": "json",
    "chiral": "0, 1",
    "term": "1,0,1,1,1,2,1,-1",
    "boost-dir": "0,0.6,0.8",
    "workers": "3",
}


@pytest.mark.parametrize("key", sorted(NON_DEFAULT))
def test_config_file_line_and_flag_set_the_same_field(key, tmp_path):
    path = tmp_path / "sweep.cfg"
    path.write_text(f"{key} = {NON_DEFAULT[key]}\n")
    from_file = _build("--config", str(path))
    from_flag = _build(f"--{key}", NON_DEFAULT[key])
    assert from_file == from_flag
    assert from_flag[0] != SweepConfig()
    assert from_flag[1] is None


def test_bare_sweep_builds_the_default_config():
    assert _build() == (SweepConfig(), None)


def test_config_file_keys_are_the_sweep_flags(tmp_path):
    parser = cli._build_parser()
    sweep_parser = parser._subparsers._group_actions[0].choices["sweep"]
    flags = {o for a in sweep_parser._actions for o in a.option_strings} - {"-h", "--help"}
    assert flags == {f"--{key}" for key in (*NON_DEFAULT, "out", "config")}
    path = tmp_path / "sweep.cfg"
    for flag in flags:
        path.write_text(f"{flag[2:]} = x\n")
        if flag == "--config":
            with pytest.raises(ConfigError, match="unknown key 'config'"):
                cli.load_config_file(str(path))
        else:
            assert flag[2:] in cli.load_config_file(str(path))


def test_cli_sweep_writes_identity_row(tmp_path):
    out = tmp_path / "rows.csv"
    code = cli.main(
        [
            "sweep",
            "--scenario", "psi1",
            "--omega", "0:0:1",
            "--theta", "0:0:1",
            "--out", str(out),
        ]
    )
    assert code == 0
    assert out.read_bytes() == IDENTITY_ROW


def test_cli_sweep_accepts_large_omega0(tmp_path):
    out = tmp_path / "rows.csv"
    code = cli.main(
        ["sweep", "--omega0", "10", "--omega", "0:5:3", "--theta", "0:1:2", "--out", str(out)]
    )
    assert code == 0
    assert len(out.read_text().splitlines()) == 7


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "argv,rapidity",
    [
        (["--omega0", "400"], "400"),
        (["--omega0", "800"], "800"),
        (["--scenario", "custom", "--term", "1,0,1,800,1,2,1,-1"], "800"),
    ],
)
def test_cli_rejects_rapidity_beyond_the_float_range(argv, rapidity, capsys):
    assert cli.main(["sweep", *argv, "--omega", "0:1:2", "--theta", "0:1:2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    field = "term" if "--term" in argv else "omega0"
    assert line.startswith(f"error: {field}: cannot build scenario")
    assert f"rapidity {rapidity} leaves the float range" in line


def test_cli_names_the_chiral_labels_that_annihilate_the_state(capsys):
    argv = ["--scenario", "chiral-psi3", "--chiral", "0,0", "--omega0", "300"]
    assert cli.main(["sweep", *argv, "--omega", "0:1:2", "--theta", "0:1:2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: chiral: cannot build scenario 'chiral-psi3'")
    assert "annihilates the state" in line


# for every key parsed into typed fields: a wrong field count and a field that does not parse
MALFORMED = [
    ("omega0", "1,2", "a number"),
    ("omega0", "x", "a number"),
    ("omega", "0:1", "min:max:steps"),
    ("omega", "0:1:2.5", "min:max:steps"),
    ("theta", "0:1:2:3", "min:max:steps"),
    ("theta", "a:1:2", "min:max:steps"),
    ("chiral", "0", "f,g"),
    ("chiral", "0,x", "f,g"),
    ("boost-dir", "0,1", "nx,ny,nz"),
    ("boost-dir", "0,x,1", "nx,ny,nz"),
    ("term", "1,0,1", "re,im,sA,omega0A,dirA,sB,omega0B,dirB"),
    ("term", "1,0,1.5,1,1,2,1,1", "re,im,sA,omega0A,dirA,sB,omega0B,dirB"),
    ("workers", "1,2", "an integer"),
    ("workers", "two", "an integer"),
]


@pytest.mark.parametrize("source", ["flag", "file"])
@pytest.mark.parametrize("key,text,form", MALFORMED)
def test_malformed_typed_value_names_its_key(key, text, form, source, tmp_path, capsys):
    if source == "flag":
        argv = [f"--{key}={text}"]
    else:
        path = tmp_path / "sweep.cfg"
        path.write_text(f"{key} = {text}\n")
        argv = ["--config", str(path)]
    assert cli.main(["sweep", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {key}: expected {form}, got {text!r}\n"


def test_sweep_help_shows_the_config_defaults(monkeypatch, capsys):
    changed = dict(omega0=2.5, omega_grid=GridSpec(0.0, 7.0, 9), output_format="json")
    monkeypatch.setattr(cli, "SweepConfig", functools.partial(SweepConfig, **changed))
    monkeypatch.setattr(cli, "DEFAULT_CHIRAL_LABELS", (1, 0))
    assert cli.main(["sweep", "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "scenario state (default 2.5)" in text
    assert "rapidity grid min:max:steps (default 0.0:7.0:9)" in text
    assert "csv or json (default json)" in text
    assert "chiral-* scenarios (default 1,0)" in text
    assert "custom (default psi2)" in text


def test_cli_flags_override_config_file(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("scenario = psi2\nomega = 0:0:1\ntheta = 0:0:1\nformat = json\n")
    out = tmp_path / "rows.json"
    code = cli.main(
        ["sweep", "--config", str(cfg), "--scenario", "psi1", "--out", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload[0]["eg"] == 0.5  # psi1 from the flag, grids from the file


def test_config_file_terms_give_way_to_the_term_flag(tmp_path):
    path = tmp_path / "sweep.cfg"
    path.write_text(
        "scenario = custom\nterm = 1,0,1,1,1,2,1,-1\nterm = 0,0.5,2,1,-1,1,1,1\n"
    )
    cfg, _ = _build("--config", str(path), "--term", "0,1,2,0.5,1,1,0.5,-1")
    assert cfg.custom_terms == ((0.0, 1.0, 2, 0.5, 1, 1, 0.5, -1),)
    file_only, _ = _build("--config", str(path))
    assert file_only.custom_terms == (
        (1.0, 0.0, 1, 1.0, 1, 2, 1.0, -1),
        (0.0, 0.5, 2, 1.0, -1, 1, 1.0, 1),
    )


def test_cli_rejects_non_finite_grid_endpoints(capsys):
    assert cli.main(["sweep", "--omega=nan:1:3"]) == 1
    assert capsys.readouterr().err == "error: omega: grid endpoints must be finite\n"


def test_cli_rejects_a_grid_span_that_overflows(capsys, recwarn):
    """Both endpoints are finite but their difference is not, which np.linspace needs."""
    assert cli.main(["sweep", "--omega=-1e308:1e308:3", "--theta=0:0:1"]) == 1
    assert capsys.readouterr().err == "error: omega: max - min overflows: 1e+308 - -1e+308\n"
    assert not recwarn.list


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("omega", ["20", "36"])
def test_cli_answers_a_boost_that_cancels_the_state(omega, capsys):
    """psi1 boosted along its momenta: nu = 1 and E_G = 1/2, which the boost leaves alone."""
    argv = ["sweep", "--scenario", "psi1", f"--omega={omega}:{omega}:1", "--theta=0:0:1"]
    assert cli.main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    header, line = captured.out.splitlines()
    row = dict(zip(header.split(","), map(float, line.split(","))))
    assert abs(row["nu"] - 1.0) <= 1e-12
    assert abs(row["eg"] - 0.5) <= 1e-12


@pytest.mark.filterwarnings("error")
def test_cli_custom_coefficients_are_scale_free(capsys):
    """A coefficient whose square overflows gives the bytes of the unit coefficient."""
    outputs = []
    for re_part in ("1", "1e300"):
        term = f"--term={re_part},0,1,1,1,2,1,-1"
        assert cli.main(["sweep", "--scenario=custom", term, "--omega=0:1:2", "--theta=0:0:1"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        outputs.append(captured.out)
    assert outputs[0] == outputs[1]


def test_cli_validation_failures_exit_1(tmp_path, capsys):
    assert cli.main(["sweep", "--scenario", "nope"]) == 1
    assert "error: scenario:" in capsys.readouterr().err
    assert cli.main(["sweep", "--omega", "5:0:3"]) == 1
    assert "error: omega:" in capsys.readouterr().err
    # one step of linspace is its min, so 0:5:1 would print omega = 0 alone
    assert cli.main(["sweep", "--omega", "0:5:1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: omega: a one-step grid needs min == max, got 0.0 and 5.0\n"
    assert cli.main(["sweep", "--no-such-flag"]) == 1
    assert cli.main([]) == 1
    capsys.readouterr()
    # scenario states are built at unit mass; mass is no sweep setting
    assert cli.main(["sweep", "--mass", "2"]) == 1
    assert "--mass" in capsys.readouterr().err
    path = tmp_path / "sweep.cfg"
    path.write_text("mass = 2\n")
    assert cli.main(["sweep", "--config", str(path)]) == 1
    assert "error: config: line 1: unknown key 'mass'" in capsys.readouterr().err


def test_cli_help_exits_0(capsys):
    assert cli.main(["--help"]) == 0
    assert "sweep" in capsys.readouterr().out


def test_cli_verify_exit_code_tracks_results(capsys):
    code = cli.main(["verify", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert payload["total"] == 10
    assert len(payload["checks"]) == 10
    assert code == (0 if payload["all_passed"] else 2)
    for check in payload["checks"]:
        assert set(check) >= {"check_id", "passed", "measured", "expected", "tolerance"}
