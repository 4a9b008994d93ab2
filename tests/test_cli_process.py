"""``python -m diracboost.cli`` in a fresh interpreter: ``cli.entry`` freezes the garbage
collector before it exits, and the process must still write what ``cli.main`` writes in process,
with the documented exit code and no warning on stderr (the child runs under ``-W error``)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import diracboost
from diracboost import cli

SRC = str(Path(diracboost.__file__).resolve().parents[1])
#: Buffered stdout, as users get it, so that only the exit path flushes the output.
ENV = {**{k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}, "PYTHONPATH": SRC}


def _without_seconds(text: str) -> dict:
    """A ``verify --json`` report without the per-check wall times, which differ per run."""
    report = json.loads(text)
    for check in report["checks"]:
        del check["seconds"]
    return report


@pytest.mark.parametrize("argv, code", [
    (["sweep", "--scenario", "psi2", "--omega", "0:2:5", "--theta", "0:1.5:4"], 0),
    # psi1 solves its negativity with eigvalsh, psi2 and psi3 in closed form
    (["sweep", "--scenario", "psi1", "--omega", "0:2:5", "--theta", "0:3.14159:4"], 0),
    (["sweep", "--scenario", "psi3", "--measures", "eg,negativity,bloch", "--format", "json",
      "--omega", "0:3:4", "--theta", "0:3.14159:3"], 0),
    (["verify", "--json"], 2),
    (["sweep", "--no-such-flag"], 1),
], ids=["csv-sweep", "csv-sweep-eigvalsh", "json-sweep-with-bloch", "verify-json", "bad-flag"])
def test_a_fresh_process_writes_what_main_writes(argv, code, capsysbinary):
    done = subprocess.run([sys.executable, "-W", "error", "-m", "diracboost.cli", *argv],
                          capture_output=True, env=ENV, timeout=60)
    assert cli.main(argv) == code
    in_process = capsysbinary.readouterr().out
    assert done.returncode == code, done.stderr
    assert b"Warning" not in done.stderr, done.stderr
    if argv[0] == "verify":
        assert _without_seconds(done.stdout) == _without_seconds(in_process)
    else:
        assert done.stdout == in_process
