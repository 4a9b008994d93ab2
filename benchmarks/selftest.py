"""Show that the benchmark's output checks reject wrong outputs.

    python3 benchmarks/selftest.py

Builds a small psi3 sweep with every measure in CSV and in JSON, checks that
the clean output passes, then feeds the checker copies with one value moved
by 1e-8 of its scale (once for each column, in a random row) and copies with
one row removed.  A ``verify`` report with a by-design failure passing, or
with another check failing, must be rejected too.  Exits 0 when every clean
output passes and every corrupted one fails.
"""

from __future__ import annotations

import dataclasses
import json
import math
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from checks import SweepSpec, check_sweep, check_verify, parse_output  # noqa: E402

SPEC = SweepSpec("psi3", 1.3, (0.0, 5.0, 9), (0.0, math.pi, 7),
                 ("eg", "delta_eg", "negativity", "delta_negativity", "bloch"), "csv")


def render(columns: list[str], col: dict, fmt: str) -> bytes:
    rows = list(zip(*(col[c].tolist() for c in columns)))
    if fmt == "csv":
        lines = [",".join(columns)] + [",".join(repr(v) for v in r) for r in rows]
        return ("\n".join(lines) + "\n").encode("ascii")
    return json.dumps([dict(zip(columns, r)) for r in rows]).encode("ascii")


def sweep_output(spec: SweepSpec) -> bytes:
    from diracboost.sweep import GridSpec, SweepConfig, emit, run_sweep

    cfg = SweepConfig(scenario=spec.scenario, omega0=spec.omega0,
                      omega_grid=GridSpec(*spec.omega), theta_grid=GridSpec(*spec.theta),
                      measures=spec.measures, output_format=spec.fmt)
    return emit(run_sweep(cfg), spec.fmt)


def main() -> int:
    rng = random.Random(7)
    problems = []
    for fmt in ("csv", "json"):
        spec = dataclasses.replace(SPEC, fmt=fmt)
        data = sweep_output(spec)
        clean = check_sweep(data, spec, rng)
        if clean:
            problems.append(f"{fmt}: clean output rejected: {clean}")
        columns, col = parse_output(data, fmt)
        rows = col["omega"].size
        for name in columns:
            bad = {c: v.copy() for c, v in col.items()}
            k = rng.randrange(rows)
            bad[name][k] += 1e-8 * max(1.0, abs(bad[name][k]))
            if not check_sweep(render(columns, bad, fmt), spec, rng):
                problems.append(f"{fmt}: {name} row {k} moved by 1e-8 was accepted")
        for k in (0, rng.randrange(rows), rows - 1):
            cut = {c: v[[i for i in range(rows) if i != k]] for c, v in col.items()}
            if not check_sweep(render(columns, cut, fmt), spec, rng):
                problems.append(f"{fmt}: output without row {k} was accepted")

    from diracboost.verify import run_verification

    checks = [r.to_dict() for r in run_verification()]
    report = {"checks": checks, "total": len(checks)}
    if check_verify(json.dumps(report).encode(), 2):
        problems.append("verify: the real report was rejected")
    for flip in ("c05", "c03"):
        bad = {"checks": [dict(c, passed=(not c["passed"]) if c["check_id"] == flip
                               else c["passed"]) for c in checks], "total": len(checks)}
        if not check_verify(json.dumps(bad).encode(), 2):
            problems.append(f"verify: a report with {flip} flipped was accepted")

    for p in problems:
        print("FAIL", p)
    print("checker self-test:", "FAILED" if problems else "all corrupted outputs rejected")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
