"""Command-line interface: `diracboost sweep` and `diracboost verify`.

Exit codes: 0 success, 1 validation error (bad flags, bad config file,
unbuildable scenario, failed sweep point), 2 verification failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .sweep import (
    ConfigError,
    CustomTermSpec,
    GridSpec,
    SweepConfig,
    SweepError,
    _format_chunks,
    _sweep_columns,
)


def _number(kind, form: str | None = None):
    """Parser of one ``kind``, or with ``form`` (e.g. ``"f,g"``) of a comma list shaped like it."""
    noun = "an integer" if kind is int else "a number"

    def number(text: str, key: str):
        try:
            return kind(text)
        except ValueError:
            raise ConfigError(key, f"expected {noun}, got {text!r}") from None

    def numbers(text: str, key: str) -> tuple:
        parts = text.split(",")
        if len(parts) != form.count(",") + 1:
            raise ConfigError(key, f"expected {form}, got {text!r}")
        return tuple(number(p.strip(), key) for p in parts)

    return numbers if form else number


def _text(text: str, key: str) -> str:
    return text


def _measures(text: str, key: str) -> tuple[str, ...]:
    return tuple(m.strip().lower() for m in text.split(",") if m.strip())


def _terms(texts: list[str], key: str) -> tuple[CustomTermSpec, ...]:
    return tuple(CustomTermSpec.parse(t) for t in texts)


#: Each sweep key, which is both its ``--flag`` and its config-file key: the
#: ``SweepConfig`` field it sets (``out`` is returned beside the config), the
#: parser of its text, and its help.  A key given nowhere keeps the field's default.
_KEYS = {
    "scenario": ("scenario", _text, "psi1|psi2|psi3|chiral-psi2|chiral-psi3|custom"),
    "omega0": ("omega0", _number(float), "initial rapidity of the scenario state (default 1.0)"),
    "mass": ("mass", _number(float), "particle mass (default 1.0)"),
    "omega": ("omega_grid", GridSpec.parse, "boost rapidity grid min:max:steps (default 0:5:100)"),
    "theta": (
        "theta_grid", GridSpec.parse, "boost angle grid min:max:steps in [0,pi] (default 0:pi/2:50)"
    ),
    "measures": (
        "measures", _measures, "comma list from eg,delta_eg,negativity,delta_negativity,bloch"
    ),
    "format": ("output_format", _text, "csv or json (default csv)"),
    "out": ("out", _text, "output path (default stdout)"),
    "chiral": (
        "chiral_labels",
        _number(int, "f,g"),
        "chiral labels f,g for chiral-* scenarios (default 0,0)",
    ),
    "term": (
        "custom_terms", _terms, "custom term re,im,sA,omega0A,dirA,sB,omega0B,dirB (repeatable)"
    ),
    "boost-dir": (
        "boost_direction",
        _number(float, "nx,ny,nz"),
        "fixed unit boost direction nx,ny,nz (custom scenario, single-point theta grid)",
    ),
    "workers": ("workers", _number(int), "accepted (>= 1) but changes neither speed nor output"),
}


def load_config_file(path: str) -> dict:
    """Parse a line-oriented key=value config file; `term` may repeat."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError("config", f"cannot read {path!r}: {exc}") from exc
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError("config", f"line {lineno}: expected key=value, got {raw!r}")
        key, value = key.strip(), value.strip()
        if key not in _KEYS:
            raise ConfigError("config", f"line {lineno}: unknown key {key!r}")
        if key == "term":
            values.setdefault("term", []).append(value)
        else:
            values[key] = value
    return values


def build_config(args: argparse.Namespace) -> tuple[SweepConfig, str | None]:
    """Merge config file values and flags (flags win) into a SweepConfig."""
    values = load_config_file(args.config) if args.config else {}
    for key in _KEYS:
        flag = getattr(args, key.replace("-", "_"))
        if flag is not None:
            values[key] = flag
    fields = {_KEYS[k][0]: _KEYS[k][1](values[k], k) for k in _KEYS if k in values}
    out = fields.pop("out", None)
    return SweepConfig(**fields), out


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diracboost",
        description="Boost two-particle bispinor states and sweep entanglement measures.",
    )
    sub = parser.add_subparsers(dest="command")

    sweep = sub.add_parser("sweep", help="run an (omega, theta) grid sweep")
    for key, (_, _, help_text) in _KEYS.items():
        action = "append" if key == "term" else "store"
        sweep.add_argument(f"--{key}", action=action, help=help_text)
    sweep.add_argument("--config", help="key=value config file; flags override it")

    verify = sub.add_parser("verify", help="run the built-in verification suite")
    verify.add_argument("--json", action="store_true", help="machine-readable report")
    return parser


def _write_out(chunks, out: str) -> None:
    """Stream ``chunks`` into ``out``; a file is replaced only once every chunk is written."""
    path = Path(out)
    if path.exists() and not path.is_file():  # a device or pipe such as /dev/null
        with open(path, "wb") as fh:
            fh.writelines(chunks)
        return
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "xb") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _cmd_sweep(args: argparse.Namespace) -> int:
    try:
        cfg, out = build_config(args)
        chunks = _format_chunks(*_sweep_columns(cfg), cfg.output_format)
        if out is None:
            sys.stdout.buffer.writelines(chunks)
        else:
            _write_out(chunks, out)
    except (SweepError, ValueError, OSError) as exc:  # ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from .verify import run_verification  # only this command pays for loading the checks
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
