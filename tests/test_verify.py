import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import diracboost.kernel
import diracboost.verify
from diracboost import cli
from diracboost.kinematics import BoostSpec, _boost_eigenbasis
from diracboost.states import (
    boost_two_particle,
    chiral_project_vector,
    make_psi2,
    make_psi3,
)
from diracboost.tensor import outer
from diracboost.verify import (
    CheckResult,
    _check_analytic_bloch,
    _check_chiral_invariance,
    _check_psi1_negativity_grid,
    _check_psi3_extremum,
    _chiral_distances,
    _chiral_samples,
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
    the scanned grid, so the minimum leaves omega = omega0.  Swapping the
    eigenbasis columns of eigenvalues -1 and 1 turns S(omega) into S(-omega).
    The textbook boost of c09 shares no code with the eigenbasis, so c09 fails too."""
    assert _check_psi3_extremum().passed
    assert _check_analytic_bloch().passed

    def flipped(directions: np.ndarray) -> np.ndarray:
        return _boost_eigenbasis(directions)[..., [2, 3, 0, 1]]

    monkeypatch.setattr(diracboost.kernel, "_boost_eigenbasis", flipped)
    corrupted = _check_psi3_extremum()
    assert not corrupted.passed
    assert corrupted.check_id == "c07"
    assert "argmin at omega=0.00" in corrupted.detail
    oracle = _check_analytic_bloch()
    assert not oracle.passed
    assert oracle.check_id == "c09"


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


@pytest.mark.parametrize("skew", [
    lambda bloch, nu: (bloch * (1.0 + 1e-8), nu),
    lambda bloch, nu: (bloch, nu * (1.0 + 1e-8)),
], ids=["bloch", "nu"])
def test_c09_catches_a_skewed_oracle(monkeypatch, skew):
    """c09 compares the sweep kernel with the textbook-boost oracle, so a 1e-8 relative error
    in the oracle's Bloch vectors or in its nu must fail it."""
    assert _check_analytic_bloch().passed
    exact = diracboost.verify._analytic_bloch_batch
    monkeypatch.setattr(diracboost.verify, "_analytic_bloch_batch", lambda *a: skew(*exact(*a)))
    corrupted = _check_analytic_bloch()
    assert not corrupted.passed
    assert corrupted.check_id == "c09"


def test_c09_sees_the_spin_bloch_columns(monkeypatch):
    """c09's states include psi1 and chiral-psi2, whose spin Bloch vectors do not vanish, so a
    1e-8 relative error in the sweep's SA and SB columns alone must fail it."""
    assert _check_analytic_bloch().passed
    exact = diracboost.kernel._measure_chunk

    def skewed(*args):
        nu, eg, neg, bloch = exact(*args)
        return nu, eg, neg, bloch * np.array([1.0, 1.0 + 1e-8, 1.0, 1.0 + 1e-8])[:, None]

    monkeypatch.setattr(diracboost.kernel, "_measure_chunk", skewed)
    assert not _check_analytic_bloch().passed


@pytest.mark.parametrize("check, skew", [
    (_check_psi1_negativity_grid, lambda nu, eg, neg, bloch: (nu, eg, neg + 1e-8, bloch)),
    (_check_analytic_bloch, lambda nu, eg, neg, bloch: (nu, eg, neg, bloch + 1e-8)),
    (_check_psi3_extremum, lambda nu, eg, neg, bloch: (nu, eg + 1e-8, neg, bloch)),
], ids=["c02", "c09", "c07"])
def test_grid_checks_measure_through_the_sweep(monkeypatch, check, skew):
    """c02, c07 and c09 read the numbers `diracboost sweep` writes, so a 1e-8 error in
    the kernel's chunk measure must fail them."""
    assert check().passed
    exact = diracboost.kernel._measure_chunk
    monkeypatch.setattr(diracboost.kernel, "_measure_chunk", lambda *a: skew(*exact(*a)))
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


def _run_fresh(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a new interpreter that imports this checkout's package."""
    src = str(Path(diracboost.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)


def test_cli_import_leaves_verify_unloaded():
    done = _run_fresh("import sys, diracboost.cli; print('diracboost.verify' in sys.modules)")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
    with pytest.raises(AttributeError, match="no_such_name"):
        diracboost.no_such_name


def test_verify_leaves_numpy_random_unloaded():
    """`python -m diracboost.cli verify --json` samples c08 and c10 from the stdlib
    `random`, so numpy's random package is never imported."""
    done = _run_fresh(
        "import runpy, sys\n"
        "sys.argv = ['diracboost', 'verify', '--json']\n"
        "try:\n"
        "    runpy.run_module('diracboost.cli', run_name='__main__')\n"
        "finally:\n"
        "    print('numpy.random' in sys.modules, file=sys.stderr)\n"
    )
    assert done.returncode == 2, done.stderr
    assert json.loads(done.stdout)["total"] == 10
    assert done.stderr.strip() == "False"


def _per_point_distance(maker, f, g) -> float:
    """c08's distance for one projection, from ``boost_two_particle`` one sample at a time."""
    psi = chiral_project_vector(maker(1.0), f, g)
    return max(
        float(np.linalg.norm(outer(boost_two_particle(psi, b)[0]) - outer(psi)))
        for b in (BoostSpec.from_polar_angle(om, th) for om, th in _chiral_samples())
    )


@pytest.mark.parametrize("maker, f, g", [
    (maker, f, g) for maker in (make_psi2, make_psi3) for f in (0, 1) for g in (0, 1)
], ids=lambda v: getattr(v, "__name__", str(v)))
def test_c08_finding_holds_on_its_own_samples(maker, f, g):
    """On c08's samples the psi3 f=g projections stay within 1e-12 of rho and the
    other six move by at least 0.5, so a change of sampler can neither hide nor
    invent c08's failure."""
    moved = _per_point_distance(maker, f, g)
    if maker is make_psi3 and f == g:
        assert moved <= 1e-12
    else:
        assert moved >= 0.5


def test_c08_batch_gives_the_per_point_distances():
    """c08 boosts each projection along its samples in one batch; its eight distances are the
    per-point loop's within 1e-15 (the batch's states are the same bits, only the Frobenius
    norm's summation order differs), and its measured value is their maximum."""
    batched = _chiral_distances()
    per_point = {f"{m.__name__[5:]} f={f} g={g}": _per_point_distance(m, f, g)
                 for m in (make_psi2, make_psi3) for f in (0, 1) for g in (0, 1)}
    assert batched.keys() == per_point.keys()
    for key, dist in batched.items():
        assert abs(dist - per_point[key]) <= 1e-15, key
    assert _check_chiral_invariance().measured == max(batched.values())
