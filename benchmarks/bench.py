"""diracboost benchmark: time the CLI end to end, check its output, trace it per module.

    python3 benchmarks/bench.py --workload paper-grid --seed 1 --seconds 35 --trace 0

Run from anywhere; paths are resolved from this file.  Workloads:

* ``paper-grid``: ``sweep --scenario psi2`` on the paper's 100x50 grid, the
  four default measures, CSV to a file, one worker.
* ``bloch-json``: ``sweep --scenario psi3 --measures eg,negativity,bloch
  --format json`` on a 120x80 grid over theta in [0, pi], JSON to stdout,
  two workers.
* ``verify``: ``verify --json``.

The seed picks ``omega0`` in [0.5, 2] for the sweeps and the rows the
closed-form oracle samples.  Every run is closed loop: one client, and the
next command starts when the previous one ends.

``--trace 0`` runs each command in a fresh subprocess, untraced, for
``--seconds`` and reports ``wall_s``, ``setup_s`` and ``peak_rss_mb``.
``--trace 1`` runs the workload in this process with ``workers=1`` (pool
children return no spans), in untraced/traced pairs for ``--seconds``, and
reports the per-layer metrics listed in BENCHMARK.json.  Either way a full result record
with provenance and quartiles is printed first, and the last line of stdout is
``{"correct", "attempted", "failed", "metrics"}``.  See GLOSSARY.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "diracboost"
OUT = ROOT / ".bench_out"
LAUNCHER = Path(__file__).resolve().parent / "launch.py"

BLAS_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
INHERITED_BLAS_ENV = {v: os.environ.get(v) for v in BLAS_VARS}
# One BLAS thread per process, set before numpy loads here and passed to
# every child, so that two sweep workers cannot oversubscribe two cores.
os.environ.update({v: "1" for v in BLAS_VARS})

sys.path.insert(0, str(Path(__file__).resolve().parent))
from checks import SweepSpec, check_sweep, check_verify, negativity_residue_rows  # noqa: E402
from tracing import TRACED, Tracer  # noqa: E402

WORKLOADS = ("paper-grid", "bloch-json", "verify")
DEFAULT_MEASURES = ("eg", "delta_eg", "negativity", "delta_negativity")
IMPORT_REPEATS = 5
MIN_RUNS = 3
CHILD_TIMEOUT_S = 100.0
IMPORT_SNIPPET = (
    "import time; t = time.perf_counter(); import diracboost.cli; "
    "print(time.perf_counter() - t)"
)


@dataclass(frozen=True)
class Workload:
    name: str
    spec: SweepSpec | None  # None for verify
    workers: int
    setups_per_run: int = 2  # set-up samples taken after each timed run

    def argv(self, workers: int | None = None) -> list[str]:
        """CLI arguments; a CSV sweep writes to ``--out``, everything else to stdout."""
        spec = self.spec
        if spec is None:
            return ["verify", "--json"]
        args = spec.cli_args() + ["--workers", str(workers or self.workers)]
        if spec.fmt == "csv":
            args += ["--out", str(self.output_path())]
        return args

    def output_path(self) -> Path:
        """Where the emitted output lands: the ``--out`` file or captured stdout."""
        if self.spec is not None and self.spec.fmt == "csv":
            return OUT / f"{self.name}.csv"
        return self.stdout_path()

    def stdout_path(self) -> Path:
        return OUT / f"{self.name}.stdout"

    def check(self, returncode: int, rng: random.Random) -> list[str]:
        """Failure messages for the output of the run that just ended."""
        if self.spec is None:
            return check_verify(self.output_path().read_bytes(), returncode)
        if returncode != 0:
            return [f"exit code {returncode}, expected 0"]
        return check_sweep(self.output_path().read_bytes(), self.spec, rng)

    def setup_spec(self) -> SweepSpec:
        """The same sweep on a 1x1 grid at omega = 0."""
        spec = self.spec
        return SweepSpec(spec.scenario, spec.omega0, (0.0, 0.0, 1), (0.0, 0.0, 1),
                         spec.measures, spec.fmt)


def make_workload(name: str, rng: random.Random) -> Workload:
    omega0 = rng.uniform(0.5, 2.0)
    if name == "paper-grid":
        spec = SweepSpec("psi2", omega0, (0.0, 5.0, 100), (0.0, math.pi / 2, 50),
                         DEFAULT_MEASURES, "csv")
        return Workload(name, spec, 1, 3)
    if name == "bloch-json":
        spec = SweepSpec("psi3", omega0, (0.0, 5.0, 120), (0.0, math.pi, 80),
                         ("eg", "negativity", "bloch"), "json")
        return Workload(name, spec, 2, 5)
    return Workload(name, None, 1, 2)


# ---------------------------------------------------------------------------
# Fresh-process runs (end-to-end metrics)
# ---------------------------------------------------------------------------


@dataclass
class Run:
    kind: str
    wall_s: float
    rss_mb: float
    returncode: int
    failures: list[str]

    def to_dict(self) -> dict:
        return {"kind": self.kind, "wall_s": self.wall_s, "rss_mb": self.rss_mb,
                "returncode": self.returncode, "failures": self.failures[:5]}


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(args: list[str], stdout_path: Path) -> tuple[float, float, int, bool]:
    """Run ``python <args>`` in a fresh process; (wall s, peak RSS MB, exit code, timed out)."""
    with open(OUT / "stderr.txt", "ab") as err:
        done = subprocess.run(
            [sys.executable, str(LAUNCHER), str(CHILD_TIMEOUT_S), str(stdout_path),
             sys.executable, *args],
            cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, stderr=err,
            timeout=CHILD_TIMEOUT_S + 30, check=True,
        )
    info = json.loads(done.stdout)
    return info["wall_s"], info["peak_rss_mb"], info["returncode"], info["timed_out"]


def cli_run(kind: str, wl: Workload, rng: random.Random) -> Run:
    wall, rss, rc, timed_out = run_child(["-m", "diracboost.cli", *wl.argv()], wl.stdout_path())
    if timed_out:
        failures = [f"timed out after {CHILD_TIMEOUT_S:g} s"]
    else:
        failures = wl.check(rc, rng)
    return Run(kind, wall, rss, rc, failures)


def setup_run(wl: Workload, rng: random.Random, kind: str = "setup") -> Run:
    """The workload's command on a 1x1 grid at omega = 0; a bare import for verify."""
    if wl.spec is None:
        wall, rss, rc, timed_out = run_child(["-c", "import diracboost.cli"], OUT / f"{kind}.stdout")
        failures = [] if rc == 0 and not timed_out else [f"import exited {rc}"]
        return Run(kind, wall, rss, rc, failures)
    return cli_run(kind, Workload(wl.name + "-setup", wl.setup_spec(), wl.workers, 0), rng)


def summary(values: list[float], unit: str) -> dict:
    """Median, quartiles and sample count."""
    if len(values) > 1:
        p25, med, p75 = statistics.quantiles(values, n=4)
    else:
        p25 = med = p75 = values[0]
    return {"median": med, "p25": p25, "p75": p75, "n": len(values), "unit": unit}


def measure_end_to_end(wl: Workload, seconds: float, rng: random.Random) -> tuple[list[Run], dict]:
    """Closed loop for ``seconds``: each workload run is followed by a few set-up runs.

    Interleaving spreads the set-up samples over the whole window, so that a
    short burst of load on the machine moves neither median much.
    """
    runs = [setup_run(wl, rng, "warm-up")]  # fills bytecode and page caches
    timed: list[Run] = []
    setups: list[Run] = []
    deadline = perf_counter() + seconds
    while True:
        timed.append(cli_run("workload", wl, rng))
        setups += [setup_run(wl, rng) for _ in range(wl.setups_per_run)]
        cycle = (statistics.median(r.wall_s for r in timed)
                 + wl.setups_per_run * statistics.median(r.wall_s for r in setups))
        # stop when another cycle would end nearer after the deadline than this one
        if len(timed) >= MIN_RUNS and perf_counter() + cycle / 2 > deadline:
            break
    runs += timed + setups
    metrics = {
        "wall_s": summary([r.wall_s for r in timed], "s"),
        "setup_s": summary([r.wall_s for r in setups], "s"),
        "peak_rss_mb": summary([r.rss_mb for r in timed], "MB"),
    }
    return runs, metrics


# ---------------------------------------------------------------------------
# In-process traced runs (per-layer metrics)
# ---------------------------------------------------------------------------


def run_in_process(args: list[str], stdout_path: Path) -> tuple[float, int]:
    import diracboost.cli

    with open(stdout_path, "w", encoding="ascii") as fh, contextlib.redirect_stdout(fh):
        start = perf_counter()
        rc = diracboost.cli.main(args)
        return perf_counter() - start, rc


def import_ms(runs: list[Run]) -> float:
    """Median in-process time of a fresh ``import diracboost.cli``."""
    times = []
    for _ in range(IMPORT_REPEATS):
        path = OUT / "import.out"
        wall, rss, rc, _ = run_child(["-c", IMPORT_SNIPPET], path)
        ok = rc == 0
        runs.append(Run("import", wall, rss, rc, [] if ok else [f"import exited {rc}"]))
        if ok:
            times.append(float(path.read_text()) * 1e3)
    return statistics.median(times) if times else 0.0


def pool_speedup(wl: Workload, runs: list[Run], rng: random.Random) -> float:
    """Untraced in-process ``run_sweep`` at workers=1 over the same at workers=2."""
    from diracboost.sweep import GridSpec, SweepConfig, emit, run_sweep

    spec = wl.spec
    times = {}
    for workers in (1, 2):
        cfg = SweepConfig(scenario=spec.scenario, omega0=spec.omega0,
                          omega_grid=GridSpec(*spec.omega), theta_grid=GridSpec(*spec.theta),
                          measures=spec.measures, output_format=spec.fmt, workers=workers)
        start = perf_counter()
        rows = run_sweep(cfg)
        times[workers] = perf_counter() - start
        failures = check_sweep(emit(rows, spec.fmt), spec, rng)
        runs.append(Run(f"pool-{workers}", times[workers], 0.0, 0, failures))
    return times[1] / times[2]


def measure_layers(wl: Workload, seconds: float, rng: random.Random) -> tuple[list[Run], dict]:
    runs: list[Run] = []
    layer = {"init.import_ms": (import_ms(runs), "ms")}
    args = wl.argv(workers=1)

    if wl.spec is not None:  # warm numpy's lazy set-up before anything is timed
        run_in_process(wl.setup_spec().cli_args() + ["--out", str(OUT / "warm.out")],
                       OUT / "warm.stdout")
    tracer = Tracer()
    plain, traced = [], []
    deadline = perf_counter() + seconds
    while True:
        wall, rc = run_in_process(args, wl.stdout_path())
        plain.append(wall)
        runs.append(Run("untraced", wall, 0.0, rc, wl.check(rc, rng)))
        with tracer.patched():
            wall, rc = run_in_process(args, wl.stdout_path())
        traced.append(wall)
        runs.append(Run("traced", wall, 0.0, rc, wl.check(rc, rng)))
        if perf_counter() + plain[-1] + traced[-1] > deadline:
            break

    n = len(traced)
    points = wl.spec.omega[2] * wl.spec.theta[2] if wl.spec else 0
    for name in TRACED:
        calls, busy, self_time = tracer.stats[name]
        layer[f"{name}.calls"] = (calls / n, "count")
        layer[f"{name}.busy_ms"] = (busy / n * 1e3, "ms")
        layer[f"{name}.self_ms"] = (self_time / n * 1e3, "ms")
        layer[f"{name}.us_per_point"] = (busy / n / points * 1e6 if points else 0.0, "us")
    data = wl.output_path().read_bytes() if wl.spec else b""
    layer["sweep.emit_bytes"] = (len(data), "bytes")
    layer["measures.neg_residue_rows"] = (
        negativity_residue_rows(data, wl.spec.fmt) if wl.spec else 0, "count")
    layer["sweep.pool_speedup"] = (
        pool_speedup(wl, runs, rng) if wl.name == "bloch-json" else 0.0, "ratio")
    layer["trace.overhead_ratio"] = (statistics.median(traced) / statistics.median(plain), "ratio")
    detail = {"traced_wall_s": summary(traced, "s"), "untraced_wall_s": summary(plain, "s"),
              "grid_points": points}
    return runs, {"per_layer": layer, "detail": detail}


# ---------------------------------------------------------------------------
# Provenance and result
# ---------------------------------------------------------------------------


def _git(*args: str) -> str | None:
    try:
        done = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(seed: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    lines = 0
    for f in sorted(PACKAGE.glob("*.py")):
        data = f.read_bytes()
        digest.update(f.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    git = {"sha": None, "dirty": None}
    if (ROOT / ".git").exists():  # the benchmark may run from an exported tree
        status = _git("status", "--porcelain", "--untracked-files=no")
        git = {"sha": _git("rev-parse", "HEAD"),
               "dirty": None if status is None else bool(status)}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git": git,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "seed": seed,
        "blas_threads": {"inherited": INHERITED_BLAS_ENV, "pinned": {v: "1" for v in BLAS_VARS}},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no package at {PACKAGE}; run from a full checkout", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)

    rng = random.Random(opts.seed)
    wl = make_workload(opts.workload, rng)
    if opts.trace:
        runs, result = measure_layers(wl, opts.seconds, rng)
        metrics = result["per_layer"]
        printed = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    else:
        runs, result = measure_end_to_end(wl, opts.seconds, rng)
        printed = {k: {"value": s["median"], "unit": s["unit"]} for k, s in result.items()}
    failed = sum(1 for r in runs if r.failures)
    record = {
        "workload": wl.name,
        "trace": opts.trace,
        "seconds": opts.seconds,
        "argv": wl.argv(),
        "provenance": provenance(opts.seed),
        "error_rate": failed / len(runs),
        "result": result,
        "runs": [r.to_dict() for r in runs],
    }
    print(json.dumps(record, indent=1))
    print(json.dumps({"correct": failed == 0, "attempted": len(runs), "failed": failed,
                      "metrics": printed}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
