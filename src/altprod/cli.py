"""Command-line interface.

Subcommands: `list` (registry ids and anchors), `eval` (expression
evaluation at a digit count), `verify` (one id or `all`, text or JSON
reports), `table` (raw-truncation convergence rows for a product record).
Exit codes: 0 all pass, 1 any verification failed, 2 usage or parse error,
3 numeric error.
"""

import argparse
import json
import sys

from . import exprlang as ex
from . import harness as hz
from . import numkernel as nk
from .numkernel import DomainError, NonConvergenceError, OracleRangeError, SpecError

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3


def _registry(args) -> hz.Registry:
    return hz.load_registry(getattr(args, "registry", None))


def _cmd_list(args) -> int:
    reg = _registry(args)
    width = max((len(r.id) for r in reg), default=0)
    for rec in reg:
        print(f"{rec.id:<{width}}  {rec.anchor}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    tree = ex.parse(args.expr)
    if isinstance(tree, ex.ParseDiagnostic):
        print(
            f"parse error at byte {tree.byte_offset}: {tree.message} "
            f"(expected {tree.expected})",
            file=sys.stderr,
        )
        return EXIT_USAGE
    value = ex.eval_expr(tree, nk.bits_for_digits(args.digits))
    print(nk.truncated_decimal(value, args.digits))
    return EXIT_OK


def _report_line(r: hz.VerificationReport) -> str:
    status = "PASS" if r.passed else "FAIL"
    line = (
        f"{r.id}: {status} agreement={r.agreement_digits} "
        f"target={r.target_digits} terms={r.terms_used} method={r.method} "
        f"{r.elapsed_ms}ms"
    )
    if r.reason:
        line += f"  reason: {r.reason}"
    return line


def _cmd_verify(args) -> int:
    reg = _registry(args)
    method = args.method.upper() if args.method else None
    if args.id == "all":
        reports = hz.verify_all(
            args.digits, method=method, max_terms=args.max_terms, registry=reg
        )
        if args.json:
            print(hz.reports_to_json(reports))
        else:
            for r in reports:
                print(_report_line(r))
        return EXIT_OK if all(r.passed for r in reports) else EXIT_FAIL
    report = hz.verify(
        args.id, args.digits, method=method, max_terms=args.max_terms, registry=reg
    )
    if args.json:
        print(hz.reports_to_json(report))
    else:
        print(_report_line(report))
    return EXIT_OK if report.passed else EXIT_FAIL


def _cmd_table(args) -> int:
    reg = _registry(args)
    try:
        n_values = [int(tok) for tok in args.n.split(",") if tok.strip() != ""]
    except ValueError:
        print(f"--n needs a comma-separated list of integers: {args.n!r}", file=sys.stderr)
        return EXIT_USAGE
    rows = hz.convergence_table(
        args.id, n_values, nk.bits_for_digits(args.digits), registry=reg
    )
    show = min(args.digits, 12)
    if args.json:
        print(
            json.dumps(
                [
                    {
                        "n": row.n,
                        "partial": nk.truncated_decimal(row.partial, show),
                        "digits": row.digits,
                    }
                    for row in rows
                ],
                indent=2,
            )
        )
    else:
        print(f"{'n':>10}  {'partial':<{show + 8}}  digits")
        for row in rows:
            print(
                f"{row.n:>10}  {nk.truncated_decimal(row.partial, show):<{show + 8}}"
                f"  {row.digits}"
            )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="altprod",
        description="Verify alternating-product identities to many digits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="registry ids and anchors")
    p_list.add_argument("--registry", help="path to an alternative registry file")
    p_list.set_defaults(fn=_cmd_list)

    p_eval = sub.add_parser("eval", help="evaluate a constant expression")
    p_eval.add_argument("expr", help="expression text, e.g. 'pi*e/2'")
    p_eval.add_argument("--digits", type=int, default=hz.DEFAULT_DIGITS)
    p_eval.set_defaults(fn=_cmd_eval)

    p_verify = sub.add_parser("verify", help="verify one identity or all")
    p_verify.add_argument("id", help="registry id, or 'all'")
    p_verify.add_argument("--digits", type=int, default=hz.DEFAULT_DIGITS)
    p_verify.add_argument(
        "--method",
        choices=["raw", "euler", "wynn", "richardson"],
        default=None,
        help="limit method of a product record (with 'all': product records only)",
    )
    p_verify.add_argument(
        "--max-terms",
        type=int,
        default=None,
        help="term cap of a product record's limit (with 'all': product records only)",
    )
    p_verify.add_argument("--json", action="store_true")
    p_verify.add_argument("--registry", help="path to an alternative registry file")
    p_verify.set_defaults(fn=_cmd_verify)

    p_table = sub.add_parser("table", help="raw-truncation convergence table")
    p_table.add_argument("id", help="registry id with a product LHS")
    p_table.add_argument("--n", default="10,100,1000", help="comma-separated indices")
    p_table.add_argument("--digits", type=int, default=hz.DEFAULT_DIGITS)
    p_table.add_argument("--json", action="store_true")
    p_table.add_argument("--registry", help="path to an alternative registry file")
    p_table.set_defaults(fn=_cmd_table)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the usage message
        code = exc.code
        return EXIT_USAGE if code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except (DomainError, OracleRangeError, NonConvergenceError) as err:
        print(f"numeric error: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    except (SpecError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
