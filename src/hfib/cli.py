"""Command-line front end.

Subcommands print objects (pascal, fib, table, op, gf, qh, eval) or run
identity suites (verify).  Every output is deterministic: identical
argv plus seed give byte-identical bytes, JSON is emitted with sorted
keys, and the only randomness (Charlier sample points) draws from a
seeded generator with the documented default seed.

Exit codes: 0 success, 1 at least one suite failure, 2 usage or domain
error (bad flags, invalid parameter domains, non-convergent
configurations).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import re
import sys
from fractions import Fraction

from hfib import fibonacci, genfun, operators, pascal, qh
from hfib.report import DEFAULT_SEED, SCHEMA, Failure, IdentityReport, merge_reports

# Experimental identities a strict run is allowed to gate on: the ones
# this library pins as holding (see qh.experimental_report).
STRICT_QH_IDENTITIES = (
    "partial-sum",
    "recurrence-augmented",
    "recurrence-augmented-q1",
)

_ROUTES = {
    "diagonal": fibonacci.hfib_diagonal,
    "recurrence": fibonacci.hfib_recurrence,
    "hypergeom": fibonacci.hfib_hypergeometric,
    "binet": lambda n: operators.op_eval(operators.binet_fib(n)),
}

# Largest n that `fib` and `eval` take by the recurrence route: one `hfib fib
# --route recurrence` process on 2 vCPUs takes 1.9-2.3 s and peaks at 44 MB RSS
# at n = 400, 0.35-0.39 s and 22 MB at n = 200, about 5.5 times longer per
# doubling of n.
RECURRENCE_MAX_N = 400

# Largest `verify --max` each suite takes.  Times of one `hfib verify
# <suite> --max <n>` process on 2 vCPUs, at the cap and one step above it:
# pascal 2.2 s at 80 (0.9 s at 60); fib 1.9 s at 40, 5.4 s at 50;
# operators 2.1 s at 20, 6.2 s at 24; qh 4.7 s at 20, 15.3 s at 24.
# These are the suites that read --max; gf and weighted read --order instead.
VERIFY_MAX = {"pascal": 80, "fib": 40, "operators": 20, "qh": 20}

# The one suite that reads each of these `verify` flags; `verify all` takes
# them all.  Each defaults to None, so that a given flag can be told from an
# absent one; _verify_groups puts in the default of an absent one.
VERIFY_FLAG_READERS = {
    "--p": "weighted",
    "--h": "weighted",
    "--hp": "weighted",
    "--tol": "weighted",
    "--seed": "pascal",
    "--experimental": "qh",
    "--strict": "qh",
}

# Markdown `verify` lists at most this many failures per group.
MARKDOWN_FAILURES = 20

_RATIONAL_HELP = "exact rational such as 1/3; a negative one as {flag} -7/3 or {flag}=-7/3"

# argparse reads a value that starts with "-" and is not a plain number
# ("-7/3") as an option, so main() attaches such a value to its flag
# ("--h=-7/3") before parsing.  No option of this parser starts "-<digit>"
# or "-.", so a token that does is always a value.
_NEGATIVE_RATIONAL_FLAGS = ("--h", "--hp")
_NEGATIVE_NUMBER = re.compile(r"-[\d.]")


def _read_by(flag: str, text: str) -> str:
    """Help text of a verify flag, naming the one suite that reads it."""
    return f"{text}; read by verify {VERIFY_FLAG_READERS[flag]} (and verify all)"


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not an exact rational: {text!r}") from exc


def _attach_negative_rationals(argv: list[str]) -> list[str]:
    """argv with each `--h -7/3` written `--h=-7/3`, so argparse takes the value."""
    out: list[str] = []
    for token in argv:
        if out and out[-1] in _NEGATIVE_RATIONAL_FLAGS and _NEGATIVE_NUMBER.match(token):
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _dump_json(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True)


def cmd_pascal(args) -> int:
    triangle = pascal.pascal_triangle(args.rows)
    if args.format == "json":
        data = {
            "rows": [
                {"n": row.n, "entries": [e.to_json_terms() for e in row.entries]}
                for row in triangle
            ]
        }
        print(_dump_json(data))
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["n", "k", "value"])
        for row in triangle:
            for k, entry in enumerate(row.entries):
                writer.writerow([row.n, k, str(entry)])
        print(buf.getvalue(), end="")
    else:
        print("| n | k | value |")
        print("| --- | --- | --- |")
        for row in triangle:
            for k, entry in enumerate(row.entries):
                print(f"| {row.n} | {k} | {entry} |")
    return 0


def _route_value(route: str, n: int):
    """F_n by the named route, refused before any work outside the route's range."""
    if route == "recurrence" and n > RECURRENCE_MAX_N:
        raise ValueError(
            f"--route recurrence is capped at n = {RECURRENCE_MAX_N}, got n = {n}; "
            "use --route hypergeom for larger n"
        )
    if route == "hypergeom" and n == 0:
        raise ValueError(
            "--route hypergeom is defined for n >= 1; "
            "use --route diagonal, recurrence or binet for n = 0"
        )
    return _ROUTES[route](n)


def cmd_fib(args) -> int:
    value = _route_value(args.route, args.n)
    if args.format == "json":
        print(_dump_json({"n": args.n, "route": args.route, "terms": value.to_json_terms()}))
    else:
        print(value)
    return 0


def cmd_table(args) -> int:
    table = fibonacci.fib_table(args.max)
    if args.format == "json":
        data = {
            "rows": [
                {"n": row.n, "terms": row.value.to_json_terms(), "classical": row.classical}
                for row in table.rows
            ],
            "pinned_conventions": [
                {"ambiguity": a, "resolution": r} for a, r in table.pinned_conventions
            ],
        }
        print(_dump_json(data))
    else:
        print("| n | F_n | classical |")
        print("| --- | --- | --- |")
        for row in table.rows:
            print(f"| {row.n} | {row.value} | {row.classical} |")
        for ambiguity, resolution in table.pinned_conventions:
            print(f"\nNote: {ambiguity}; {resolution}.")
    return 0


def cmd_op(args) -> int:
    value = operators.fib_op(args.n)
    evaluated = operators.op_eval(value) if args.eval else None
    if args.format == "json":
        data = {"n": args.n, "terms": value.to_json_terms()}
        if evaluated is not None:
            data["evaluated"] = evaluated.to_json_terms()
        print(_dump_json(data))
    else:
        print(value)
        if evaluated is not None:
            print(evaluated)
    return 0


def cmd_gf(args) -> int:
    ratfun = genfun.build_gf(args.which, args.m)
    series = genfun.series_expand(ratfun, args.order)
    if args.format == "json":
        data = {
            "which": args.which,
            "order": args.order,
            "numerator": [c.to_json_terms() for c in ratfun.numerator],
            "denominator": [c.to_json_terms() for c in ratfun.denominator],
            "coefficients": [c.to_json_terms() for c in series.coeffs],
        }
        if args.which == "shifted":
            data["m"] = args.m
        print(_dump_json(data))
    else:
        for k, coeff in enumerate(series.coeffs):
            print(f"x^{k}: {coeff}")
    return 0


def cmd_qh(args) -> int:
    if args.object == "binom":
        value = qh.qh_binomial(args.n, args.k)
    else:
        value = qh.q_fibonacci(args.n)
    if args.format == "json":
        data = {"object": args.object, "n": args.n, "terms": value.to_json_terms()}
        if args.object == "binom":
            data["k"] = args.k
        print(_dump_json(data))
    else:
        print(value)
    return 0


def cmd_eval(args) -> int:
    value = _route_value(args.route, args.n).eval_point(args.h, args.hp)
    if args.format == "json":
        print(
            _dump_json(
                {
                    "n": args.n,
                    "route": args.route,
                    "h": str(args.h),
                    "hp": str(args.hp),
                    "value": str(value),
                }
            )
        )
    else:
        print(value)
    return 0


def _verify_groups(args) -> tuple[list[IdentityReport], list[dict]]:
    """Build merged reports per requested group, plus experimental blobs."""
    groups: list[IdentityReport] = []
    extras: list[dict] = []
    wanted = args.suite

    def want(name: str) -> bool:
        return wanted in (name, "all")

    if want("pascal"):
        seed = DEFAULT_SEED if args.seed is None else args.seed
        groups.append(merge_reports("pascal", pascal.verify_pascal(args.max or 12, seed=seed)))
    if want("fib"):
        groups.append(merge_reports("fib", fibonacci.verify_fibonacci(args.max)))
    if want("operators"):
        groups.append(merge_reports("operators", operators.verify_operators(args.max)))
    if want("gf"):
        groups.append(merge_reports("gf", genfun.verify_genfun(args.order or 16)))
    if want("weighted"):
        reports = [
            genfun.weighted_series_check(
                2 if args.p is None else args.p,
                Fraction(1, 100) if args.h is None else args.h,
                Fraction(1, 2) if args.hp is None else args.hp,
                args.order or 80,
                Fraction(1, 10**12) if args.tol is None else args.tol,
            ),
            genfun.verify_classical_weights(),
        ]
        groups.append(merge_reports("weighted", reports))
    if want("qh"):
        groups.append(merge_reports("qh", qh.verify_qh(args.max)))
        if args.experimental or args.strict or wanted == "qh":
            experimental = qh.experimental_report(args.max or 10)
            extras.append(experimental.to_dict())
            if args.strict:
                summary = experimental.summary()
                strict = IdentityReport("qh-strict")
                for name in STRICT_QH_IDENTITIES:
                    strict.cases += 1
                    if not summary.get(name, False):
                        strict.failures.append(
                            Failure(
                                params={"identity": name},
                                lhs="holds for all measured n",
                                rhs="failed for some n",
                            )
                        )
                groups.append(strict)
    return groups, extras


def _check_verify_bounds(args) -> None:
    """Refuse, before any suite starts, a flag the suite does not read or a --max above its cap."""
    if args.suite != "all":
        reads = "--max" if args.suite in VERIFY_MAX else "--order"
        for flag, value in (("--max", args.max), ("--order", args.order)):
            if value is not None and flag != reads:
                raise ValueError(f"verify {args.suite} does not read {flag}; its bound is {reads}")
        for flag, reader in VERIFY_FLAG_READERS.items():
            if getattr(args, flag[2:]) is not None and args.suite != reader:
                raise ValueError(f"verify {args.suite} does not read {flag}; only verify {reader} does")
    over = [
        f"verify {suite} ({cap})"
        for suite, cap in VERIFY_MAX.items()
        if args.suite in (suite, "all") and args.max is not None and args.max > cap
    ]
    if over:
        raise ValueError(f"--max {args.max} is above the cap of {', '.join(over)}")


def cmd_verify(args) -> int:
    _check_verify_bounds(args)
    groups, extras = _verify_groups(args)
    total_failures = sum(len(g.failures) for g in groups)
    if args.format == "json":
        if len(groups) == 1 and not extras:
            print(_dump_json(groups[0].to_dict()))
        else:
            data = {
                "schema": SCHEMA,
                "suites": [g.to_dict() for g in groups],
                "failures": total_failures,
            }
            if extras:
                data["experimental"] = extras
            print(_dump_json(data))
    else:
        for g in groups:
            status = "PASS" if g.passed else f"FAIL ({len(g.failures)} failures)"
            print(f"{g.suite}: {status} [{g.cases} cases]")
            for pin in g.pinned_conventions:
                print(f"  pinned: {pin.ambiguity} -> {pin.resolution}")
            for f in g.failures[:MARKDOWN_FAILURES]:
                print(f"  failure {f.params}: {f.lhs} != {f.rhs}")
            hidden = len(g.failures) - MARKDOWN_FAILURES
            if hidden > 0:
                print(f"  ... and {hidden} more failures not shown")
        for blob in extras:
            print("qh-experimental summary:")
            for name, holds in blob["summary"].items():
                print(f"  {name}: {'holds' if holds else 'fails'} (measured, not asserted)")
    return 1 if total_failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hfib",
        description="Exact computer algebra for h-deformed Fibonacci numbers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pascal", help="deformed Pascal triangle")
    p.add_argument("--rows", type=int, required=True, help="largest row index")
    p.add_argument("--format", choices=("markdown", "json", "csv"), default="markdown")
    p.set_defaults(func=cmd_pascal)

    p = sub.add_parser("fib", help="one deformed Fibonacci number")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--route", choices=tuple(_ROUTES), default="diagonal")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_fib)

    p = sub.add_parser(
        "table",
        aliases=["table2"],
        help="deformed Fibonacci numbers with classical limits",
    )
    p.add_argument("--max", type=int, default=10, help="largest index")
    p.add_argument("--format", choices=("markdown", "json"), default="markdown")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("op", help="operator Fibonacci polynomial in D")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--eval", action="store_true", help="also print the evaluated polynomial")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_op)

    p = sub.add_parser("gf", help="generating-function expansion")
    p.add_argument("--which", choices=genfun.GF_NAMES, required=True)
    p.add_argument("--m", type=int, default=1, help="shift for --which shifted")
    p.add_argument("--order", type=int, default=16)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_gf)

    p = sub.add_parser("qh", help="two-parameter (q, h) objects")
    qh_sub = p.add_subparsers(dest="object", required=True)
    pb = qh_sub.add_parser("binom", help="(q, h)-deformed binomial")
    pb.add_argument("--n", type=int, required=True)
    pb.add_argument("--k", type=int, required=True)
    pb.add_argument("--format", choices=("text", "json"), default="text")
    pb.set_defaults(func=cmd_qh)
    pf = qh_sub.add_parser("fib", help="q-deformed Fibonacci number")
    pf.add_argument("--n", type=int, required=True)
    pf.add_argument("--format", choices=("text", "json"), default="text")
    pf.set_defaults(func=cmd_qh)

    p = sub.add_parser("eval", help="evaluate F_n at an exact rational point")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--h", type=_rational, required=True, help=_RATIONAL_HELP.format(flag="--h"))
    p.add_argument(
        "--hp", type=_rational, required=True, help=_RATIONAL_HELP.format(flag="--hp")
    )
    p.add_argument("--route", choices=tuple(_ROUTES), default="diagonal")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("verify", help="run identity suites")
    p.add_argument(
        "suite",
        choices=("pascal", "fib", "operators", "gf", "weighted", "qh", "all"),
    )
    p.add_argument(
        "--max",
        type=_positive_int,
        default=None,
        help="index bound of pascal, fib, operators and qh; at most "
        + ", ".join(f"{cap} for {suite}" for suite, cap in VERIFY_MAX.items()),
    )
    p.add_argument(
        "--order", type=_positive_int, default=None, help="truncation order of gf and weighted"
    )
    p.add_argument("--p", type=int, default=None, help=_read_by("--p", "weighted series base"))
    p.add_argument(
        "--h", type=_rational, default=None, help=_read_by("--h", _RATIONAL_HELP.format(flag="--h"))
    )
    p.add_argument(
        "--hp",
        type=_rational,
        default=None,
        help=_read_by("--hp", _RATIONAL_HELP.format(flag="--hp")),
    )
    tol_help = "exact rational bound on the gap of the weighted sums; default 1/10^12"
    p.add_argument("--tol", type=_rational, default=None, help=_read_by("--tol", tol_help))
    p.add_argument("--seed", type=int, default=None, help=_read_by("--seed", "sampling seed"))
    p.add_argument(
        "--experimental",
        action="store_true",
        default=None,
        help=_read_by(
            "--experimental", "include the measured q-layer report (never a gate by itself)"
        ),
    )
    p.add_argument(
        "--strict",
        action="store_true",
        default=None,
        help=_read_by("--strict", "gate on the pinned experimental identities as well"),
    )
    p.add_argument("--format", choices=("json", "markdown"), default="json")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_negative_rationals(sys.argv[1:] if argv is None else argv))
    try:
        code = args.func(args)
        # Flush here, so that a closed pipe is met below rather than at exit.
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed the pipe early (`hfib ... | head`).  Point stdout
        # at devnull so the interpreter's own flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, OverflowError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
