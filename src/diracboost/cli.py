"""Command-line interface: `diracboost sweep` and `diracboost verify`.

Exit codes: 0 success, 1 validation error (bad flags, bad config file,
unbuildable scenario, failed sweep point), 2 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .sweep import (
    DEFAULT_MEASURES,
    ConfigError,
    CustomTermSpec,
    GridSpec,
    SweepConfig,
    SweepError,
    emit,
    run_sweep,
)
from .verify import run_verification

_CONFIG_KEYS = (
    "scenario",
    "omega0",
    "mass",
    "omega",
    "theta",
    "measures",
    "format",
    "out",
    "chiral",
    "term",
    "boost-dir",
    "workers",
)


def load_config_file(path: str) -> dict:
    """Parse a line-oriented key=value config file; `term` may repeat."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError("config", f"cannot read {path!r}: {exc}") from exc
    values: dict = {}
    terms: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError("config", f"line {lineno}: expected key=value, got {raw!r}")
        key, value = key.strip(), value.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError("config", f"line {lineno}: unknown key {key!r}")
        if key == "term":
            terms.append(value)
        else:
            values[key] = value
    if terms:
        values["term"] = terms
    return values


def _to_float(value, field: str) -> float:
    if isinstance(value, float):
        return value
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ConfigError(field, f"expected a number, got {value!r}") from None


def _to_int(value, field: str) -> int:
    if isinstance(value, int):
        return value
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ConfigError(field, f"expected an integer, got {value!r}") from None


def _to_grid(value, field: str, default: GridSpec) -> GridSpec:
    if value is None:
        return default
    if isinstance(value, GridSpec):
        return value
    return GridSpec.parse(str(value), field)


def _to_measures(value) -> tuple[str, ...]:
    if value is None:
        return DEFAULT_MEASURES
    return tuple(m.strip().lower() for m in str(value).split(",") if m.strip())


def _to_pair(value, field: str) -> tuple[int, int] | None:
    if value is None:
        return None
    parts = str(value).split(",")
    if len(parts) != 2:
        raise ConfigError(field, f"expected f,g, got {value!r}")
    return (_to_int(parts[0].strip(), field), _to_int(parts[1].strip(), field))


def _to_vec3(value, field: str) -> tuple[float, float, float] | None:
    if value is None:
        return None
    parts = str(value).split(",")
    if len(parts) != 3:
        raise ConfigError(field, f"expected nx,ny,nz, got {value!r}")
    return tuple(_to_float(p.strip(), field) for p in parts)  # type: ignore[return-value]


def build_config(args: argparse.Namespace) -> tuple[SweepConfig, str | None]:
    """Merge config file values and flags (flags win) into a SweepConfig."""
    file_values = load_config_file(args.config) if args.config else {}

    def pick(flag_value, key, default=None):
        if flag_value is not None:
            return flag_value
        return file_values.get(key, default)

    term_source = args.term if args.term else file_values.get("term", [])
    cfg = SweepConfig(
        scenario=str(pick(args.scenario, "scenario", "psi2")),
        omega0=_to_float(pick(args.omega0, "omega0", 1.0), "omega0"),
        mass=_to_float(pick(args.mass, "mass", 1.0), "mass"),
        omega_grid=_to_grid(pick(args.omega, "omega"), "omega", GridSpec(0.0, 5.0, 100)),
        theta_grid=_to_grid(
            pick(args.theta, "theta"), "theta", GridSpec(0.0, math.pi / 2.0, 50)
        ),
        measures=_to_measures(pick(args.measures, "measures")),
        output_format=str(pick(args.format, "format", "csv")),
        chiral_labels=_to_pair(pick(args.chiral, "chiral"), "chiral"),
        custom_terms=tuple(CustomTermSpec.parse(str(t)) for t in term_source),
        boost_direction=_to_vec3(pick(args.boost_dir, "boost-dir"), "boost-dir"),
        workers=_to_int(pick(args.workers, "workers", 1), "workers"),
    )
    out = pick(args.out, "out")
    return cfg, (str(out) if out is not None else None)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diracboost",
        description="Boost two-particle bispinor states and sweep entanglement measures.",
    )
    sub = parser.add_subparsers(dest="command")

    sweep = sub.add_parser("sweep", help="run an (omega, theta) grid sweep")
    sweep.add_argument("--scenario", help="psi1|psi2|psi3|chiral-psi2|chiral-psi3|custom")
    sweep.add_argument("--omega0", help="initial rapidity of the scenario state (default 1.0)")
    sweep.add_argument("--mass", help="particle mass (default 1.0)")
    sweep.add_argument("--omega", help="boost rapidity grid min:max:steps (default 0:5:100)")
    sweep.add_argument("--theta", help="boost angle grid min:max:steps in [0,pi] (default 0:pi/2:50)")
    sweep.add_argument(
        "--measures",
        help="comma list from eg,delta_eg,negativity,delta_negativity,bloch",
    )
    sweep.add_argument("--format", help="csv or json (default csv)")
    sweep.add_argument("--out", help="output path (default stdout)")
    sweep.add_argument("--chiral", help="chiral labels f,g for chiral-* scenarios (default 0,0)")
    sweep.add_argument(
        "--term",
        action="append",
        help="custom term re,im,sA,omega0A,dirA,sB,omega0B,dirB (repeatable)",
    )
    sweep.add_argument(
        "--boost-dir",
        dest="boost_dir",
        help="fixed unit boost direction nx,ny,nz (custom scenario, single-point theta grid)",
    )
    sweep.add_argument("--workers", help="accepted (>= 1) but changes neither speed nor output")
    sweep.add_argument("--config", help="key=value config file; flags override it")

    verify = sub.add_parser("verify", help="run the built-in verification suite")
    verify.add_argument("--json", action="store_true", help="machine-readable report")
    return parser


def _cmd_sweep(args: argparse.Namespace) -> int:
    try:
        cfg, out = build_config(args)
        rows = run_sweep(cfg)
        emit(rows, cfg.output_format, out if out is not None else sys.stdout.buffer)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (SweepError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    results = run_verification()
    passed = sum(1 for r in results if r.passed)
    if args.json:
        payload = {
            "passed": passed,
            "total": len(results),
            "all_passed": passed == len(results),
            "checks": [r.to_dict() for r in results],
        }
        print(json.dumps(payload, indent=2))
    else:
        for r in results:
            print(r.line())
        print(f"{passed}/{len(results)} checks passed")
    return 0 if passed == len(results) else 2


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 for --help; remap to the
        # documented 1/0 validation-error convention.
        code = exc.code if isinstance(exc.code, int) else 1
        return 0 if code == 0 else 1
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "verify":
        return _cmd_verify(args)
    parser.print_help(sys.stderr)
    return 1


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
