"""Command line front end for convergence studies.

``ifem-study @study.args`` reads flags from a file, whitespace-separated,
with ``#`` comments and blank lines; flags are read in order, so a later
flag, on the command line or in a later file, wins.  Exit codes: 0 success,
1 configuration error (unknown flags and unreadable flag files included),
2 solver failure: a level's solve left a relative residual of its
Dirichlet-eliminated system that is not finite or exceeds
``study.MAX_RELATIVE_RESIDUAL``.

``main`` owns its process, so before the study it pins glibc's malloc
thresholds (mallopt(3)): blocks up to 32 MiB come from the heap, not from
fresh mmaps, and freed memory goes back to the kernel only once 64 MiB lie
free at the top of the heap.  Freed grid- and block-sized temporaries are
then reused, not faulted in again as zeroed pages by the next one.  These
are glibc's own ceiling of its dynamic mmap threshold on 64-bit hosts and
its 2x trim ratio; setting either alone switches off its dynamic rule, so
both are set.  Without ``mallopt`` (macOS, Windows) the step is skipped;
``import immersedfem`` and ``run_study`` leave the allocator alone.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import sys

from .study import ConfigError, StudyConfig, StudyError, emit_table, run_study


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; route through ConfigError so
    # usage errors map to exit code 1 instead
    def error(self, message):
        raise ConfigError(message)

    def convert_arg_line_to_args(self, arg_line):
        return arg_line.split("#", 1)[0].split()


def _float_tuple(text: str) -> tuple:
    # argparse keeps the message of an ArgumentTypeError; of any other
    # ValueError it reports only the name of this function
    try:
        return tuple(float(part) for part in text.split(",") if part.strip() != "")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected a comma-separated list of numbers, got {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ifem-study",
        fromfile_prefix_chars="@",
        description="Convergence study for the immersed layer-source Poisson "
                    "problem with errors in distance-weighted norms.",
    )
    parser.add_argument("--dim", type=int, help="space dimension, 2 or 3 (default 2)")
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
    return parser


@functools.cache
def _pin_malloc_thresholds() -> None:
    """Set glibc's trim and mmap thresholds once per process; a no-op where
    the C library has no ``mallopt``."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


def main(argv=None) -> int:
    _pin_malloc_thresholds()
    try:
        flags = vars(build_parser().parse_args(argv))
        fmt, out = flags.pop("fmt") or "csv", flags.pop("out")
        config = StudyConfig(**{key: val for key, val in flags.items() if val is not None})
        text = emit_table(run_study(config), fmt)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except StudyError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 2
    if out is not None:
        try:
            with open(out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"error: cannot write {out}: {exc}", file=sys.stderr)
            return 1
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
