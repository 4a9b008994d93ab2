import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import diracboost.measures
import diracboost.states
import diracboost.sweep
from diracboost import cli
from diracboost.kinematics import BoostSpec, bispinor_boost
from diracboost.verify import (
    CheckResult,
    _check_analytic_bloch,
    _check_chiral_invariance,
    _check_psi1_negativity_grid,
    _check_psi3_extremum,
    run_verification,
)


def test_registry_covers_all_checks_once():
    results = run_verification()
    ids = [r.check_id for r in results]
    assert ids == [f"c{i:02d}" for i in range(1, 11)]


def test_check_result_line_format():
    ok = CheckResult("c99", "demo check", True, 0.5, 0.5, 1e-10, "extra")
    line = ok.line()
    assert line.startswith("PASS c99 demo check:")
    for fragment in ("measured=0.5", "expected=0.5", "tolerance=1e-10", "[extra]"):
        assert fragment in line
    bad = CheckResult("c99", "demo check", False, 0.7, 0.5, 1e-10)
    assert bad.line().startswith("FAIL c99")
    assert bad.to_dict()["passed"] is False


def test_corrupted_boost_sign_is_caught(monkeypatch):
    """Flipping the boost rapidity sign must trip the rest-frame extremum
    check: the shared-momentum state then never reaches its rest frame on
    the scanned grid, so the minimum leaves omega = omega0."""
    assert _check_psi3_extremum().passed

    def flipped(b: BoostSpec) -> np.ndarray:
        return bispinor_boost(BoostSpec(-b.rapidity, b.direction))

    monkeypatch.setattr(diracboost.states, "bispinor_boost", flipped)
    corrupted = _check_psi3_extremum()
    assert not corrupted.passed
    assert corrupted.check_id == "c07"
    # the chiral-invariance check also reports its named id under corruption
    chiral = _check_chiral_invariance()
    assert not chiral.passed
    assert chiral.check_id == "c08"


GOLDEN = Path(__file__).parent / "golden" / "verify.json"


def test_run_verification_matches_golden():
    """Every check keeps the pass flag and measured value of the per-point
    pipeline it was frozen from; detail strings are not compared."""
    golden = json.loads(GOLDEN.read_text())
    results = run_verification()
    assert [r.check_id for r in results] == [g["check_id"] for g in golden]
    for result, want in zip(results, golden):
        assert result.passed is want["passed"], result.line()
        assert abs(result.measured - want["measured"]) <= 1e-12, result.line()


def test_c09_catches_a_perturbed_closed_form_trace(monkeypatch):
    """c09 compares the sweep kernel with the closed-form oracle, so a 1e-8
    error in one oracle trace table must fail it.  The parity table is the
    one skewed: both c09 states have vanishing spin Bloch vectors."""
    assert _check_analytic_bloch().passed
    exact = diracboost.measures._slot_tables

    def skewed(*args):
        gram, mu, t_spin, t_parity = exact(*args)
        return gram, mu, t_spin, t_parity * (1.0 + 1e-8)

    monkeypatch.setattr(diracboost.measures, "_slot_tables", skewed)
    corrupted = _check_analytic_bloch()
    assert not corrupted.passed
    assert corrupted.check_id == "c09"


@pytest.mark.parametrize("check, skew", [
    (_check_psi1_negativity_grid, lambda nu, eg, neg, bloch: (nu, eg, neg + 1e-8, bloch)),
    (_check_analytic_bloch, lambda nu, eg, neg, bloch: (nu, eg, neg, bloch + 1e-8)),
], ids=["c02", "c09"])
def test_grid_checks_measure_through_the_sweep(monkeypatch, check, skew):
    """c02 and c09 read the numbers `diracboost sweep` writes, so a 1e-8 error in
    the sweep's own kernel binding must fail them."""
    assert check().passed
    exact = diracboost.sweep._measure_chunk
    monkeypatch.setattr(diracboost.sweep, "_measure_chunk", lambda *a: skew(*exact(*a)))
    assert not check().passed


def test_verify_reports_seconds_per_check_in_json_only(capsys):
    json_code = cli.main(["verify", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert all(c["seconds"] >= 0.0 for c in payload["checks"])
    text_code = cli.main(["verify"])
    text = capsys.readouterr().out
    assert json_code == text_code == 2
    assert "seconds" not in text
    assert len(text.splitlines()) == 11


def test_cli_import_leaves_verify_unloaded():
    code = "import sys, diracboost.cli; print('diracboost.verify' in sys.modules)"
    src = str(Path(diracboost.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60, check=True)
    assert done.stdout.strip() == "False"
    with pytest.raises(AttributeError, match="no_such_name"):
        diracboost.no_such_name
