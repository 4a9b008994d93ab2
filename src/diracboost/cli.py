"""Command-line interface: `diracboost sweep` and `diracboost verify`.

Exit codes: 0 success, 1 validation error (bad flags, bad config file,
unbuildable scenario, failed sweep point), 2 verification failure.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

from .sweep import (
    DEFAULT_CHIRAL_LABELS,
    MEASURES,
    OUTPUT_FORMATS,
    SCENARIOS,
    TERM_FORM,
    ConfigError,
    GridSpec,
    SweepConfig,
    _format_chunks,
    _sweep_columns,
)


@dataclass(frozen=True)
class _Fields:
    """Parser of text shaped like ``form``, e.g. ``"min:max:steps"`` or ``"a number"``: one
    field per kind, split where ``form`` has ``:`` or ``,`` and passed to ``build``."""

    form: str
    kinds: tuple
    build: Callable = lambda *fields: fields

    def __call__(self, text: str, key: str):
        sep = ":" if ":" in self.form else ","
        try:  # a wrong field count fails the strict zip
            fields = [kind(part) for kind, part in zip(self.kinds, text.split(sep), strict=True)]
        except ValueError:
            raise ConfigError(key, f"expected {self.form}, got {text!r}") from None
        return self.build(*fields)


_NUMBER = _Fields("a number", (float,), float)
_INTEGER = _Fields("an integer", (int,), int)
_GRID = _Fields("min:max:steps", (float, float, int), GridSpec)
_TERM = _Fields(TERM_FORM, (float, float, int, float, int, int, float, int))
_CHIRAL = _Fields("f,g", (int, int))
_DIRECTION = _Fields("nx,ny,nz", (float, float, float))


def _text(text: str, key: str) -> str:
    return text


def _measures(text: str, key: str) -> tuple[str, ...]:
    return tuple(m.strip().lower() for m in text.split(",") if m.strip())


class _Key(NamedTuple):
    """A sweep key, which is both its ``--flag`` and its config-file key."""

    field: str  # the SweepConfig field it sets; ``out`` is returned beside the config
    parse: Callable
    help: str
    repeats: bool = False  # every value is kept, in order, and parsed into a tuple

    def read(self, value, key: str):
        return tuple(self.parse(v, key) for v in value) if self.repeats else self.parse(value, key)


#: Each sweep key.  A key given nowhere keeps the default ``--help`` shows.
_KEYS = {
    "scenario": _Key("scenario", _text, "|".join(SCENARIOS)),
    "omega0": _Key("omega0", _NUMBER, "initial rapidity of the scenario state"),
    "omega": _Key("omega_grid", _GRID, f"boost rapidity grid {_GRID.form}"),
    "theta": _Key("theta_grid", _GRID, f"boost angle grid {_GRID.form} in [0,pi]"),
    "measures": _Key("measures", _measures, f"comma list from {','.join(MEASURES)}"),
    "format": _Key("output_format", _text, " or ".join(OUTPUT_FORMATS)),
    "out": _Key("out", _text, "output path (default stdout)"),
    "chiral": _Key(
        "chiral_labels", _CHIRAL, f"chiral labels {_CHIRAL.form} for chiral-* scenarios"
    ),
    "term": _Key("custom_terms", _TERM, f"custom term {_TERM.form} (repeatable)", repeats=True),
    "boost-dir": _Key(
        "boost_direction", _DIRECTION,
        f"fixed unit boost direction {_DIRECTION.form} (custom scenario, single-point theta grid)",
    ),
    "workers": _Key("workers", _INTEGER, "accepted (>= 1) but changes neither speed nor output"),
}


def load_config_file(path: str) -> dict:
    """Parse a line-oriented key=value config file; a repeated key's values form a list."""
    try:
        text = Path(path).read_text(encoding="utf-8-sig")  # a leading byte-order mark is dropped
    except (OSError, UnicodeDecodeError) as exc:
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
        values[key] = [*values.get(key, []), value] if _KEYS[key].repeats else value
    return values


def build_config(args: argparse.Namespace) -> tuple[SweepConfig, str | None]:
    """Merge config file values and flags (flags win) into a SweepConfig."""
    values = load_config_file(args.config) if args.config else {}
    for key in _KEYS:
        flag = getattr(args, key.replace("-", "_"))
        if flag is not None:
            values[key] = flag
    fields = {_KEYS[k].field: _KEYS[k].read(values[k], k) for k in _KEYS if k in values}
    out = fields.pop("out", None)
    return SweepConfig(**fields), out


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diracboost",
        description="Boost two-particle bispinor states and sweep entanglement measures.",
    )
    sub = parser.add_subparsers(dest="command")

    sweep = sub.add_parser("sweep", help="run an (omega, theta) grid sweep")
    for key, (field, _, help_text, repeats) in _KEYS.items():
        default = DEFAULT_CHIRAL_LABELS if key == "chiral" else getattr(SweepConfig(), field, None)
        if isinstance(default, GridSpec):
            help_text += f" (default {default.start!r}:{default.stop!r}:{default.steps})"
        elif default not in (None, ()):
            shown = ",".join(map(str, default)) if isinstance(default, tuple) else default
            help_text += f" (default {shown})"
        sweep.add_argument(f"--{key}", action="append" if repeats else "store", help=help_text)
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
    except (ValueError, OSError) as exc:  # every error of the package is a ValueError
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
    code = main()
    gc.freeze()  # the exit-time collection then skips every object alive now, numpy's included
    raise SystemExit(code)


if __name__ == "__main__":
    entry()
