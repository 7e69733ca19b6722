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
import json
import os
import re
import sys
from fractions import Fraction
from typing import Callable, NamedTuple

from hfib import fibonacci, genfun, operators, pascal, qh
from hfib.report import SCHEMA, IdentityReport, merge_reports

# Each route as (builder of F_n in Q[h, hp], form of F_n in Q[D]): `fib` prints
# the first, and `eval` the value of the second at its point (operators.op_value).
_ROUTES = {
    "diagonal": (fibonacci.hfib_diagonal, operators.fib_op),
    "recurrence": (fibonacci.hfib_recurrence, fibonacci.recurrence_op),
    "hypergeom": (fibonacci.hfib_hypergeometric, fibonacci.hypergeometric_op),
    "binet": (lambda n: operators.op_eval(operators.binet_fib(n)), operators.binet_fib),
}

# The largest value of each size flag, keyed by (command as its refusal names
# it, flag); main() refuses a value above it before any work.  Each figure is
# one process on 2 vCPUs, with peak RSS.
_CAPS = {
    # Output grows as rows^4: 0.45 s, 33 MB RSS and 12.7 MB of stdout at 100
    # (1.4 s and 237 MB with --format json), 1.3 s, 83 MB and 64 MB at 150 (83 MB
    # with --format csv too), 28 s at 300.
    ("pascal", "--rows"): 100,
    # Also for the alias `table2`.  Output grows as n^4: 0.6 s, 36 MB RSS and
    # 8.5 MB of stdout at 150 (1.6 s and 194 MB with --format json), 1.1 s,
    # 65 MB and 27 MB at 200 (2.8 s and 458 MB with --format json).
    ("table", "--max"): 150,
    # Every route: F_n has Theta(n^2) terms, so its text grows faster than n^3.
    # At 800, 1.4-2.0 s, 152-166 MB RSS and 38 MB of stdout (2.0-2.7 s and
    # 223-245 MB with --format json); at 1000, 2.8-3.8 s, 290-314 MB and 75 MB
    # (3.7-4.8 s and 397-436 MB with --format json).
    ("fib", "--n"): 800,
    # --eval prints F_n itself, as `fib` does: 0.9 s and 152 MB RSS at 800 (1.3-1.4 s
    # and 224 MB with --format json), 1.7 s and 290 MB at 1000 (2.4 s and 399 MB).
    # The Q[D] form alone takes 0.13 s at 800, 0.8 s at 5000, 4.1-4.6 s at 10000.
    ("op", "--n"): 800,
    # `gf --which cube`: 1.9 s and 51 MB RSS at 500, 5.8 s and 125 MB at 800.
    ("gf", "--order"): 500,
    # `gf --which shifted`, whose coefficients are F_(m+k) for k below the order:
    # 2.2 s, 81 MB RSS and 62 MB of stdout at 1000 and --order 500 (0.19 s at
    # --order 4), 5.4 s, 167 MB and 196 MB at 2000 (0.28 s at --order 4).
    ("gf", "--m"): 1000,
    # 0.8 s, 89 MB RSS and 10 MB of stdout at n = 100, k = 50, 2.5 s, 286 MB and
    # 52 MB at 150 (6.8 s and 727 MB with --format json), 3.8 s, 460 MB and 95 MB
    # at n = 175, k = 87.
    ("qh binom", "--n"): 150,
    # 0.9 s and 89 MB RSS at 60, 1.7 s and 156 MB at 70, 3.6 s and 323 MB at 85.
    ("qh fib", "--n"): 70,
    # Every route; Binet is the slowest: 0.15 s and 17 MB RSS at 1000, 0.73 s and
    # 17 MB at 2000, 2.5 s and 20 MB at 4000; the other routes take 0.14-0.28 s at 2000.
    ("eval", "--n"): 2000,
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
    return f"{text}; read by verify {_FLAG_READER[flag]} (and verify all)"


def _bound_help(flag: str, text: str) -> str:
    """Help text of a bound flag: its suites in run order, as "a, b and c", and their caps."""
    names = [name for name, suite in VERIFY_SUITES.items() if suite.bound == flag]
    caps = ", ".join(f"{VERIFY_SUITES[name].cap} for {name}" for name in names)
    return f"{text} of {', '.join(names[:-1])} and {names[-1]}; at most {caps}"


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
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["n", "k", "value"])
        for row in triangle:
            for k, entry in enumerate(row.entries):
                writer.writerow([row.n, k, str(entry)])
    else:
        print("| n | k | value |")
        print("| --- | --- | --- |")
        for row in triangle:
            for k, entry in enumerate(row.entries):
                print(f"| {row.n} | {k} | {entry} |")
    return 0


def cmd_fib(args) -> int:
    value = _ROUTES[args.route][0](args.n)
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
    if args.m is not None and args.which != "shifted":
        raise ValueError(f"gf --which {args.which} does not read --m; only --which shifted does")
    m = 1 if args.m is None else args.m
    ratfun = genfun.build_gf(args.which, m)
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
            data["m"] = m
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
    value = operators.op_value(_ROUTES[args.route][1](args.n), args.h, args.hp)
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


class _Suite(NamedTuple):
    bound: str  # the size flag it reads, --max or --order
    cap: int  # the largest value of its bound flag it takes
    reads: tuple[str, ...]  # the other flags only it reads
    # run(args, experimental) returns its sub-reports and appends any q-layer report to
    # `experimental`; it looks library functions up at call time, so patches take effect.
    run: Callable[[argparse.Namespace, list], list[IdentityReport]]


def _run_weighted(args, experimental: list) -> list[IdentityReport]:
    # Each flag defaults to None, so that a given flag can be told from an absent one.
    params = genfun.weighted_params(args.p, args.h, args.hp, args.order, args.tol)
    series = genfun.weighted_series_check(*params)
    return [series, genfun.verify_classical_weights()]


def _run_qh(args, experimental: list) -> list[IdentityReport]:
    reports = qh.verify_qh(args.max)
    if args.experimental or args.strict or args.suite == "qh":
        experimental.append(qh.experimental_report(args.max))
    return reports


# The verify suites in run order; `verify all` runs them all and takes every
# flag.  Each cap keeps one `hfib verify <suite> --max <n>` (or `--order <n>`)
# process to a few seconds on 2 vCPUs; at the cap and one step above it: pascal
# 0.8 s at 80, 1.4 s at 100; fib 0.6 s at 40, 1.2 s at 50; operators 0.28 s at
# 20, 1.0 s at 24 (most of it the power sums, on images of 422 bits per lane);
# gf 1.2 s at 240, 3.1 s at 320 (the cube's images set one width of 497 bits
# per lane at 240); weighted 0.17 s and
# 17 MB RSS at 200, 0.26 s and 17 MB at 400; qh 0.33 s at 20 (2.1 s on term maps).
VERIFY_SUITES = {
    "pascal": _Suite(
        "--max", 80, ("--seed",), lambda a, _: pascal.verify_pascal(a.max, seed=a.seed)
    ),
    "fib": _Suite("--max", 40, (), lambda a, _: fibonacci.verify_fibonacci(a.max)),
    "operators": _Suite("--max", 20, (), lambda a, _: operators.verify_operators(a.max)),
    "gf": _Suite("--order", 240, (), lambda a, _: genfun.verify_genfun(a.order)),
    "weighted": _Suite("--order", 200, ("--p", "--h", "--hp", "--tol"), _run_weighted),
    "qh": _Suite("--max", 20, ("--experimental", "--strict"), _run_qh),
}

# The one suite that reads each flag in a `reads`; `verify all` takes them all.
_FLAG_READER = {flag: name for name, suite in VERIFY_SUITES.items() for flag in suite.reads}


def _verify_groups(args) -> tuple[list[IdentityReport], list[dict]]:
    """Build merged reports per requested group, plus experimental blobs."""
    groups: list[IdentityReport] = []
    experimental: list[qh.ExperimentalReport] = []
    for name, suite in VERIFY_SUITES.items():
        if args.suite in (name, "all"):
            groups.append(merge_reports(name, suite.run(args, experimental)))
    if args.strict:
        groups.extend(qh.strict_report(report) for report in experimental)
    return groups, [report.to_dict() for report in experimental]


def _check_verify_bounds(args) -> None:
    """Refuse, before any suite starts, a flag the suite does not read or a bound above its cap."""
    if args.suite != "all":
        reads = VERIFY_SUITES[args.suite].bound
        for flag, value in (("--max", args.max), ("--order", args.order)):
            if value is not None and flag != reads:
                raise ValueError(f"verify {args.suite} does not read {flag}; its bound is {reads}")
        for flag, reader in _FLAG_READER.items():
            if getattr(args, flag[2:]) is not None and args.suite != reader:
                raise ValueError(f"verify {args.suite} does not read {flag}; only verify {reader} does")
    for flag in ("--max", "--order"):
        value = getattr(args, flag[2:]) or 0
        over = [
            f"verify {name} ({suite.cap})"
            for name, suite in VERIFY_SUITES.items()
            if args.suite in (name, "all") and suite.bound == flag and value > suite.cap
        ]
        if over:
            raise ValueError(f"{flag} {value} is above the cap of {', '.join(over)}")


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
    p.add_argument("--m", type=int, default=None, help="shift for --which shifted; default 1")
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
    p.add_argument("suite", choices=(*VERIFY_SUITES, "all"))
    max_help = _bound_help("--max", "index bound")
    p.add_argument("--max", type=_positive_int, default=None, help=max_help)
    order_help = _bound_help("--order", "truncation order")
    p.add_argument("--order", type=_positive_int, default=None, help=order_help)
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
    # Exact values may pass Python's limit of 4300 digits for int-str conversion
    # (0 where it is lifted or absent), in a flag's value as in the output: lift
    # it from parsing on, and restore it on every exit, argparse's SystemExit too.
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if digits:
        sys.set_int_max_str_digits(0)
    try:
        args = parser.parse_args(_attach_negative_rationals(sys.argv[1:] if argv is None else argv))
        # Every subcommand with --n takes a non-negative index only.
        if getattr(args, "n", 0) < 0:
            raise ValueError(f"--n takes a non-negative index, got --n {args.n}")
        # A size flag above its cap is refused here, before any work, under the
        # command's name in _CAPS (`gf --m` is None when not given).
        command = "table" if args.command == "table2" else args.command
        if command == "qh":
            command = f"qh {args.object}"
        for (name, flag), cap in _CAPS.items():
            value = getattr(args, flag[2:]) if name == command else None
            if value is not None and value > cap:
                raise ValueError(f"{command} {flag} is capped at {cap}, got {flag} {value}")
        if getattr(args, "route", None) == "hypergeom" and args.n == 0:
            raise ValueError(
                "--route hypergeom is defined for n >= 1; "
                "use --route diagonal, recurrence or binet for n = 0"
            )
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
    finally:
        if digits:
            sys.set_int_max_str_digits(digits)


if __name__ == "__main__":
    sys.exit(main())
