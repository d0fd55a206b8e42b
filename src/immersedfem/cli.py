"""Command line front end for convergence studies.

Flags may be combined with a plain-text key=value configuration file; flags
take precedence.  Exit codes: 0 success, 1 configuration error (unknown
flags and keys included), 2 solver failure: a level's solve left a
relative residual that is not finite or exceeds
``study.MAX_RELATIVE_RESIDUAL``.
"""

from __future__ import annotations

import argparse
import sys

from .study import ConfigError, StudyConfig, StudyError, emit_table, run_study

_INT_KEYS = ("dim", "min_exp", "max_exp", "degree")
_FLOAT_KEYS = ("radius",)
_FLOAT_TUPLE_KEYS = ("alphas", "center")
_STR_KEYS = ("fmt", "out")


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; route through ConfigError so
    # usage errors map to exit code 1 instead
    def error(self, message):
        raise ConfigError(message)


def _float_tuple(text: str) -> tuple:
    try:
        return tuple(float(part) for part in text.split(",") if part.strip() != "")
    except ValueError as exc:
        raise ConfigError(f"expected a comma-separated list of numbers, got {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ifem-study",
        description="Convergence study for the immersed layer-source Poisson "
                    "problem with errors in distance-weighted norms.",
    )
    parser.add_argument("--dim", type=int, choices=(2, 3), help="space dimension")
    parser.add_argument("--min-exp", type=int, dest="min_exp",
                        help="coarsest level: n_c = 2^min_exp (default 3 in 2D, 2 in 3D)")
    parser.add_argument("--max-exp", type=int, dest="max_exp",
                        help="finest level: n_c = 2^max_exp (default 8 in 2D, 5 in 3D)")
    parser.add_argument("--alphas", type=_float_tuple,
                        help="comma list of weight exponents in [0, 0.5)")
    parser.add_argument("--degree", type=int, help="polynomial degree (default 1)")
    parser.add_argument("--center", type=_float_tuple,
                        help="interface centre, e.g. 0.3,0.3 (default 0.3 per axis)")
    parser.add_argument("--radius", type=float, help="interface radius (default 0.2)")
    parser.add_argument("--format", choices=("csv", "markdown"), dest="fmt",
                        help="output table format (default csv)")
    parser.add_argument("--out", help="output path (default: stdout)")
    parser.add_argument("--config", help="key=value file; flags override it")
    return parser


def parse_config_file(path: str) -> dict:
    values = {}
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        value = value.strip()
        if key == "format":
            key = "fmt"
        if key not in _INT_KEYS + _FLOAT_KEYS + _FLOAT_TUPLE_KEYS + _STR_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            if key in _INT_KEYS:
                values[key] = int(value)
            elif key in _FLOAT_KEYS:
                values[key] = float(value)
            elif key in _FLOAT_TUPLE_KEYS:
                values[key] = _float_tuple(value)
            else:
                values[key] = value
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {value!r}") from exc
    return values


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        values = parse_config_file(args.config) if args.config else {}
        overrides = {key: val for key, val in vars(args).items()
                     if key != "config" and val is not None}
        values.update(overrides)
        config = StudyConfig(**values)
        records = run_study(config)
        text = emit_table(records, config.fmt)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except StudyError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 2
    if config.out:
        try:
            with open(config.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"error: cannot write {config.out}: {exc}", file=sys.stderr)
            return 1
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
