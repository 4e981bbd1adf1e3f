"""Command-line surface.

Exit codes: 0 = all checks pass, 1 = mathematical mismatch or refutation,
2 = usage or parse error, 141 = stdout closed by its reader, as by ``| head``
(no traceback; a shell shows 141 for a process that SIGPIPE ended).  Output
is deterministic plain text (TSV default).
"""

from __future__ import annotations

import argparse
import os
import sys

from . import bernoulli, parametric
from .bfile import BFileParseError, compare_bfile, parse_bfile
from .fixpoint import solve_tree_series
from .series import SeriesError
from .trees import count_alternating_trees

USAGE_ERROR = 2
MISMATCH = 1
BROKEN_PIPE = 141


class CliError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def _order_at_least(minimum: int):
    """argparse type for --order (and compute's --inject-fault): an integer
    no smaller than ``minimum``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    return parse


def _sep(fmt: str) -> str:
    return "," if fmt == "csv" else "\t"


def cmd_compute(args) -> int:
    if args.k == 0:
        raise CliError("k must be nonzero", USAGE_ERROR)
    sep = _sep(args.format)
    gf = bernoulli.m_series(args.h, args.k, args.order)
    if args.inject_fault is not None:
        n = min(args.inject_fault, args.order)
        gf = gf.with_coefficient(n, gf[n] + 1)
    if args.route == "gf":
        for n, c in enumerate(gf.coeffs):
            print(f"{n}{sep}{c}")
        return 0
    direct = bernoulli.m_direct_values(args.h, args.k, args.order)
    if args.route == "direct":
        for n, c in enumerate(direct):
            print(f"{n}{sep}{c}")
        return 0
    mismatch = False
    for n in range(args.order + 1):
        print(f"{n}{sep}{gf[n]}{sep}{direct[n]}")
        if gf[n] != direct[n]:
            mismatch = True
    return MISMATCH if mismatch else 0


def cmd_certify(args) -> int:
    if args.k == 0:
        raise CliError("k must be nonzero", USAGE_ERROR)
    cert = bernoulli.certify(args.h, args.k, args.order, inject_fault=args.inject_fault)
    print(cert.render())
    return 0 if cert.valid else MISMATCH


def cmd_trees(args) -> int:
    if args.k < 1:
        raise CliError("k must be a positive integer", USAGE_ERROR)
    if args.oracle and args.k != 2:
        raise CliError("--oracle is only available for k=2", USAGE_ERROR)
    if args.oracle and args.order > 12:
        raise CliError("--oracle is capped at order 12", USAGE_ERROR)
    a = solve_tree_series(args.k, args.order)
    mismatch = False
    for n in range(1, args.order + 1):
        if args.oracle:
            count = count_alternating_trees(n + 1)
            print(f"{n}\t{a[n]}\t{count}")
            if a[n] != count:
                mismatch = True
        else:
            print(f"{n}\t{a[n]}")
    return MISMATCH if mismatch else 0


def cmd_drake(args) -> int:
    if args.order > 32:
        raise CliError("order capped at 32 (4-variable expansion scale)", USAGE_ERROR)
    series = parametric.parametric_inverse_series(args.order)
    if args.specialize == "k2":
        k2 = parametric.specialize_k2(series)
        for n in range(1, args.order + 1):
            print(f"{n}\t{k2[n]}")
        return 0
    for n in range(1, args.order + 1):
        print(f"n={n}: {series[n].render()}")
    if args.check_closed_form:
        from .verify import check_parametric_closed_form

        if not check_parametric_closed_form(args.order):
            print("closed-form: MISMATCH")
            return MISMATCH
        print("closed-form: OK")
    return 0


def cmd_verify_all(args) -> int:
    from .verify import run_all

    results = run_all(quick=args.quick)
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return MISMATCH if failed else 0


_SEQUENCES = ("am", "trees", "inv-tree")


def cmd_bfile_check(args) -> int:
    try:
        entries = parse_bfile(args.file)
    except (OSError, BFileParseError) as exc:
        raise CliError(f"b-file error: {exc}", USAGE_ERROR) from exc
    if args.sequence == "am":
        if args.k == 0:
            raise CliError("k must be nonzero", USAGE_ERROR)
        coeffs = list(bernoulli.m_series(args.h, args.k, args.order).coeffs)
    elif args.sequence == "trees":
        if args.k < 1:
            raise CliError("k must be a positive integer", USAGE_ERROR)
        coeffs = list(solve_tree_series(args.k, args.order).coeffs)
    else:
        if args.k < 1:
            raise CliError("k must be a positive integer", USAGE_ERROR)
        coeffs = list(solve_tree_series(args.k, args.order).comp_inverse().coeffs)
    result = compare_bfile(coeffs, entries, offset_shift=args.offset_shift)
    if result.ok and result.matched == 0:
        raise CliError(
            f"no b-file entry falls in coefficients 0..{args.order} (entry i is "
            f"coefficient i + {args.offset_shift}); check --order and --offset-shift",
            USAGE_ERROR,
        )
    if result.ok:
        print(f"MATCH over {result.matched} entries")
        return 0
    print(
        f"MISMATCH at b-file index {result.first_mismatch_index}: "
        f"expected {result.expected}, got {result.actual}"
    )
    return MISMATCH


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hurwitz",
        description="Exact Hurwitz-series computations and integrality certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="tabulate M_n(h,k) by one or both routes")
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--order", type=_order_at_least(0), required=True)
    p.add_argument("--format", choices=("tsv", "csv"), default="tsv")
    p.add_argument("--route", choices=("gf", "direct", "both"), default="gf")
    # a negative N would index the coefficients from the end
    p.add_argument(
        "--inject-fault", type=_order_at_least(0), metavar="N", help=argparse.SUPPRESS
    )
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("certify", help="run the integrality proof pipeline")
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    # the pipeline inverts the tree series, which needs its linear term
    p.add_argument("--order", type=_order_at_least(1), required=True)
    p.add_argument(
        "--inject-fault",
        choices=bernoulli.STEP_NAMES,
        metavar="STEP",
        help=argparse.SUPPRESS,
    )
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("trees", help="the k-generalized tree series")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--order", type=_order_at_least(0), required=True)
    p.add_argument("--oracle", action="store_true")
    p.set_defaults(func=cmd_trees)

    p = sub.add_parser("drake", help="four-parameter inverse-series coefficients")
    p.add_argument("--order", type=_order_at_least(0), required=True)
    p.add_argument("--check-closed-form", action="store_true")
    p.add_argument("--specialize", choices=("k2",))
    p.set_defaults(func=cmd_drake)

    p = sub.add_parser("verify-all", help="run the full verification suite")
    p.add_argument("--quick", action="store_true")
    p.set_defaults(func=cmd_verify_all)

    p = sub.add_parser("bfile-check", help="compare a series against an OEIS b-file")
    p.add_argument("--file", required=True)
    p.add_argument("--sequence", choices=_SEQUENCES, required=True)
    p.add_argument("--h", type=int, default=1)
    p.add_argument("--k", type=int, default=2)
    # every sequence has constant term 0, and inv-tree inverts a series,
    # which needs its linear term
    p.add_argument("--order", type=_order_at_least(1), required=True)
    p.add_argument("--offset-shift", type=int, default=0)
    p.set_defaults(func=cmd_bfile_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # point stdout at devnull, so that the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return BROKEN_PIPE
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except SeriesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
