"""Every command line the benchmark runs must parse into a valid sweep configuration."""

import importlib.util
import random
import sys
from dataclasses import astuple
from pathlib import Path

import pytest

from diracboost import cli

BENCH = Path(__file__).resolve().parents[1] / "benchmarks" / "bench.py"
BLAS_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


@pytest.fixture
def bench(monkeypatch):
    """``bench.py`` as a module; importing it pins the BLAS thread variables to 1."""
    for name in BLAS_VARS:
        monkeypatch.setenv(name, "1")  # so that the values from before are restored
    monkeypatch.syspath_prepend(str(BENCH.parent))
    spec = importlib.util.spec_from_file_location("bench", BENCH)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "bench", module)  # its dataclasses look it up there
    spec.loader.exec_module(module)
    assert module.BLAS_VARS == BLAS_VARS
    return module


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_benchmark_command_lines_build_valid_configs(bench, seed):
    for name in bench.WORKLOADS:
        wl = bench.make_workload(name, random.Random(seed))
        if wl.spec is None:
            assert cli._build_parser().parse_args(wl.argv()).command == "verify"
            continue
        setup = bench.Workload(wl.name, wl.setup_spec(), wl.workers)
        for workload in (wl, setup):
            cfg, _ = cli.build_config(cli._build_parser().parse_args(workload.argv()))
            cfg.validate()
            spec = workload.spec
            assert (cfg.scenario, cfg.omega0, cfg.measures, cfg.output_format) == (
                spec.scenario, spec.omega0, spec.measures, spec.fmt
            )
            assert (astuple(cfg.omega_grid), astuple(cfg.theta_grid)) == (spec.omega, spec.theta)
            assert cfg.workers == workload.workers
