from __future__ import annotations

import argparse
import csv
import io
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from math import comb, factorial
from pathlib import Path

import pytest

import hfib
from hfib import algebra, cli, fibonacci, operators
from hfib.algebra import HPoly
from hfib.report import Failure, IdentityReport

REPO = Path(__file__).resolve().parents[1]


def run_cli(*argv: str, capsys) -> tuple[int, str]:
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_fib_text(capsys) -> None:
    code, out = run_cli("fib", "--n", "5", capsys=capsys)
    assert code == 0
    assert out.strip() == "1 + 3*h*hp + h^2*hp + h^2*hp^2"


def test_fib_zero(capsys) -> None:
    code, out = run_cli("fib", "--n", "0", capsys=capsys)
    assert code == 0
    assert out.strip() == "0"


def test_fib_routes_agree(capsys) -> None:
    outputs = set()
    for route in ("diagonal", "recurrence", "hypergeom", "binet"):
        code, out = run_cli("fib", "--n", "7", "--route", route, capsys=capsys)
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1


def test_fib_json_round_trip(capsys) -> None:
    from hfib.algebra import HPoly
    from hfib.fibonacci import hfib_diagonal

    code, out = run_cli("fib", "--n", "8", "--format", "json", capsys=capsys)
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 8
    assert HPoly.from_json_terms(data["terms"]) == hfib_diagonal(8)


def test_fib_negative_index_errors(capsys) -> None:
    code = cli.main(["fib", "--n", "-1"])
    captured = capsys.readouterr()
    assert code == 2
    assert "error:" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ("fib", "--n", "-1"),
        ("fib", "--n", "-1", "--route", "hypergeom"),
        ("eval", "--n", "-1", "--h", "1", "--hp", "1"),
        ("op", "--n", "-1"),
        ("qh", "fib", "--n", "-1"),
        ("qh", "binom", "--n", "-1", "--k", "0"),
    ],
)
def test_negative_n_is_refused_by_flag(argv, monkeypatch, capsys) -> None:
    # refused before any work, naming the flag rather than a library function
    def refuse(*args):
        pytest.fail("work started")

    for route in cli._ROUTES:
        monkeypatch.setitem(cli._ROUTES, route, (refuse, refuse))
    monkeypatch.setattr(cli.operators, "fib_op", refuse)
    monkeypatch.setattr(cli.qh, "q_fibonacci", refuse)
    monkeypatch.setattr(cli.qh, "qh_binomial", refuse)
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: --n takes a non-negative index, got --n -1\n"


def test_pascal_markdown(capsys) -> None:
    code, out = run_cli("pascal", "--rows", "2", capsys=capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "| n | k | value |"
    assert lines[-1] == "| 2 | 2 | h^2*hp + h^2*hp^2 |"


def test_pascal_csv_parses(capsys) -> None:
    code, out = run_cli("pascal", "--rows", "3", "--format", "csv", capsys=capsys)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["n", "k", "value"]
    assert len(rows) == 1 + 4 + 3 + 2 + 1


def test_pascal_json(capsys) -> None:
    code, out = run_cli("pascal", "--rows", "1", "--format", "json", capsys=capsys)
    assert code == 0
    data = json.loads(out)
    assert [row["n"] for row in data["rows"]] == [0, 1]


def test_table_alias_and_footnote(capsys) -> None:
    code, out = run_cli("table", "--max", "9", capsys=capsys)
    assert code == 0
    code2, out2 = run_cli("table2", "--max", "9", capsys=capsys)
    assert code2 == 0
    assert out == out2
    assert "Note:" in out


def test_table_json_conventions(capsys) -> None:
    code, out = run_cli("table", "--max", "10", "--format", "json", capsys=capsys)
    assert code == 0
    data = json.loads(out)
    assert len(data["rows"]) == 11
    assert data["rows"][10]["classical"] == 55
    assert data["pinned_conventions"]


def test_op_with_eval(capsys) -> None:
    code, out = run_cli("op", "--n", "5", "--eval", capsys=capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "1 + 3*D + D^2"
    assert lines[1] == "1 + 3*h*hp + h^2*hp + h^2*hp^2"


def test_gf_json(capsys) -> None:
    code, out = run_cli("gf", "--which", "fib", "--order", "5", "--format", "json", capsys=capsys)
    assert code == 0
    data = json.loads(out)
    assert len(data["coefficients"]) == 5
    assert data["coefficients"][0] == []


def test_gf_shifted_requires_valid_m(capsys) -> None:
    code = cli.main(["gf", "--which", "shifted", "--m", "0"])
    captured = capsys.readouterr()
    assert code == 2
    assert "error:" in captured.err


@pytest.mark.parametrize("which", ["fib", "cube"])
def test_gf_refuses_m_without_shifted(which, monkeypatch, capsys) -> None:
    monkeypatch.setattr(cli.genfun, "build_gf", lambda *a: pytest.fail("the expansion started"))
    code = cli.main(["gf", "--which", which, "--m", "5"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "--which shifted" in captured.err


def test_gf_shifted_defaults_m_to_1(capsys) -> None:
    argv = ("gf", "--which", "shifted", "--order", "6", "--format", "json")
    code, out = run_cli(*argv, capsys=capsys)
    assert code == 0
    assert json.loads(out)["m"] == 1
    assert run_cli(*argv, "--m", "1", capsys=capsys) == (0, out)


def test_qh_subcommands(capsys) -> None:
    code, out = run_cli("qh", "binom", "--n", "2", "--k", "1", capsys=capsys)
    assert code == 0
    assert out.strip() == "h*hp + h*hp*q"
    code, out = run_cli("qh", "fib", "--n", "3", capsys=capsys)
    assert code == 0
    assert out.strip() == "1 + h*hp*q"


def test_eval_text_and_json(capsys) -> None:
    code, out = run_cli("eval", "--n", "5", "--h", "1", "--hp", "1", capsys=capsys)
    assert code == 0
    assert out.strip() == "6"
    code, out = run_cli(
        "eval", "--n", "5", "--h", "1/10", "--hp", "1/2", "--format", "json", capsys=capsys
    )
    assert code == 0
    data = json.loads(out)
    assert data["value"] == "463/400"


def test_eval_rejects_bad_rational(capsys) -> None:
    with pytest.raises(SystemExit):
        cli.main(["eval", "--n", "2", "--h", "x", "--hp", "1"])


def test_verify_single_suite_json(capsys) -> None:
    code, out = run_cli("verify", "operators", "--max", "6", capsys=capsys)
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == "hfib-report/1"
    assert data["suite"] == "operators"
    assert data["failures"] == []


def test_verify_all_json_shape(capsys) -> None:
    code, out = run_cli("verify", "all", "--max", "6", capsys=capsys)
    assert code == 0
    data = json.loads(out)
    assert data["failures"] == 0
    assert [s["suite"] for s in data["suites"]] == [
        "pascal",
        "fib",
        "operators",
        "gf",
        "weighted",
        "qh",
    ]


def test_verify_qh_includes_experimental(capsys) -> None:
    code, out = run_cli("verify", "qh", "--max", "6", capsys=capsys)
    assert code == 0
    data = json.loads(out)
    assert data["experimental"][0]["suite"] == "qh-experimental"
    assert data["failures"] == 0


def test_verify_strict_adds_gate(capsys) -> None:
    code, out = run_cli("verify", "qh", "--max", "6", "--strict", capsys=capsys)
    assert code == 0
    data = json.loads(out)
    assert any(s["suite"] == "qh-strict" for s in data["suites"])


def test_verify_markdown(capsys) -> None:
    code, out = run_cli("verify", "fib", "--max", "8", "--format", "markdown", capsys=capsys)
    assert code == 0
    assert out.startswith("fib: PASS")
    assert "pinned:" in out


def test_verify_weighted_divergent_params_error(capsys) -> None:
    code = cli.main(["verify", "weighted", "--h", "1/10"])
    captured = capsys.readouterr()
    assert code == 2
    assert "decrease |h|" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "weighted", "--order", "-1"),
        ("verify", "fib", "--max", "0"),
        ("verify", "gf", "--order", "0"),
    ],
)
def test_verify_bound_below_one_exits_2(argv, monkeypatch, capsys) -> None:
    monkeypatch.setattr(cli, "_verify_groups", lambda args: pytest.fail("a suite started"))
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    assert exc.value.code == 2
    assert "must be at least 1" in capsys.readouterr().err


def _refuse_build(*args):
    pytest.fail("the build started")


@pytest.mark.parametrize(
    "argv",
    [
        ("fib", "--n", "0", "--route", "hypergeom"),
        ("eval", "--n", "0", "--route", "hypergeom", "--h", "1", "--hp", "1"),
    ],
)
def test_hypergeom_route_refuses_n_0_and_names_routes_that_take_it(argv, monkeypatch, capsys) -> None:
    monkeypatch.setitem(cli._ROUTES, "hypergeom", (_refuse_build, _refuse_build))
    code = cli.main(list(argv))
    err = capsys.readouterr().err
    assert code == 2
    # every route the message names takes n = 0, in both forms
    for route in ("diagonal", "recurrence", "binet"):
        assert route in err
        build, form = cli._ROUTES[route]
        assert build(0) == 0
        assert cli.operators.op_value(form(0), 1, 1) == 0


@pytest.mark.parametrize("route", ["diagonal", "recurrence", "hypergeom", "binet"])
def test_eval_builds_no_polynomial(route, monkeypatch, capsys) -> None:
    # eval reads only the Q[D] form of each route and sums its value at the point
    def refuse(*args, **kwargs):
        raise AssertionError("eval built a polynomial")

    for name in cli._ROUTES:
        monkeypatch.setitem(cli._ROUTES, name, (refuse, cli._ROUTES[name][1]))
    for name in ("__init__", "from_terms", "from_hp_lanes", "eval_point"):
        monkeypatch.setattr(HPoly, name, refuse)
    for module in (algebra, operators, fibonacci):
        monkeypatch.setattr(module, "d_image", refuse)
    monkeypatch.setattr(operators, "op_eval", refuse)
    for name in ("hfib_diagonal", "hfib_recurrence", "hfib_hypergeometric"):
        monkeypatch.setattr(fibonacci, name, refuse)
    hfib.clear_caches()
    argv = ("eval", "--n", "60", "--route", route, "--h", "-7/3", "--hp", "2/5")
    code, out = run_cli(*argv, capsys=capsys)
    assert code == 0
    assert out.encode() == (REPO / "tests" / "golden" / "eval_n60_recurrence.txt").read_bytes()


def test_eval_at_cap_runs_and_the_routes_agree(capsys) -> None:
    values = set()
    for route in ("diagonal", "recurrence", "hypergeom", "binet"):
        argv = ("eval", "--n", str(cli._CAPS["eval", "--n"]), "--route", route, "--h", "1/10", "--hp", "1/2")
        code, out = run_cli(*argv, capsys=capsys)
        assert code == 0
        values.add(out)
    assert len(values) == 1


def test_eval_prints_values_beyond_4300_digits(capsys) -> None:
    # Python refuses by default to convert an int of more than 4300 digits to str;
    # main lifts that limit while the subcommand runs and restores the caller's
    before = sys.get_int_max_str_digits()
    code, out = run_cli("eval", "--n", "60", "--h", "1/1" + "0" * 200, "--hp", "2", capsys=capsys)
    assert code == 0
    assert sys.get_int_max_str_digits() == before
    # F_60 = sum_k C(59 - k, k) h^k (hp)_k, and (2)_k = (k + 1)!
    h = Fraction(1, 10**200)
    expected = sum(comb(59 - k, k) * h**k * factorial(k + 1) for k in range(30))
    sys.set_int_max_str_digits(0)
    try:
        assert len(out) > 4300
        assert out == f"{expected}\n"
    finally:
        sys.set_int_max_str_digits(before)


def test_eval_reads_rationals_beyond_4300_digits(capsys) -> None:
    # argparse converts --h before the subcommand runs, so the limit is lifted from parsing on
    before = sys.get_int_max_str_digits()
    code, out = run_cli("eval", "--n", "3", "--h", "1/1" + "0" * 4400, "--hp", "2", capsys=capsys)
    assert code == 0
    assert sys.get_int_max_str_digits() == before
    # F_3 = 1 + h * hp = 1 + 2/10^4400 = (5*10^4399 + 1) / (5*10^4399)
    assert out == f"5{'0' * 4398}1/5{'0' * 4399}\n"


@pytest.mark.parametrize("argv", [("eval", "--n", "3"), ("--help",)])
def test_limit_is_restored_when_argparse_exits(argv, capsys) -> None:
    before = sys.get_int_max_str_digits()
    with pytest.raises(SystemExit):
        cli.main(list(argv))
    assert sys.get_int_max_str_digits() == before


@pytest.mark.parametrize(
    "argv, refused",
    [
        (("verify", "pascal", "--max", "81"), ["pascal"]),
        (("verify", "fib", "--max", "41"), ["fib"]),
        (("verify", "operators", "--max", "21"), ["operators"]),
        (("verify", "qh", "--max", "21", "--format", "markdown"), ["qh"]),
        (("verify", "all", "--max", "41"), ["fib", "operators", "qh"]),
        (("verify", "gf", "--order", "241"), ["gf"]),
        (("verify", "weighted", "--order", "201", "--format", "markdown"), ["weighted"]),
        (("verify", "all", "--order", "300"), ["gf", "weighted"]),
        (("verify", "all", "--order", "220", "--max", "20"), ["weighted"]),
    ],
)
def test_verify_max_above_cap_exits_2(argv, refused, monkeypatch, capsys) -> None:
    # the same refusal for --order, the bound of gf and weighted
    monkeypatch.setattr(cli, "_verify_groups", lambda args: pytest.fail("a suite started"))
    code = cli.main(list(argv))
    err = capsys.readouterr().err
    assert code == 2
    flag = cli.VERIFY_SUITES[refused[0]].bound
    assert err.startswith(f"error: {flag} {argv[argv.index(flag) + 1]} is above the cap of ")
    for suite, record in cli.VERIFY_SUITES.items():
        assert (f"verify {suite} ({record.cap})" in err) == (suite in refused)


def _instant_route(n):
    return HPoly.one()


# For each (command, flag) of cli._CAPS: the argv variants that flag is refused
# alike in (every route, format and alias), each without the capped flag, and
# the builders as (namespace, name, stub that answers at once).
CAPPED_ARGV = {
    ("pascal", "--rows"): (
        [("pascal", "--format", fmt) for fmt in ("markdown", "json", "csv")],
        [(cli.pascal, "pascal_triangle", lambda rows: [])],
    ),
    ("table", "--max"): (
        [(command, "--format", fmt) for command in ("table", "table2") for fmt in ("markdown", "json")],
        [(cli.fibonacci, "fib_table", lambda n_max: cli.fibonacci.FibTable((), ()))],
    ),
    ("fib", "--n"): (
        [("fib", "--route", route, "--format", fmt) for route in cli._ROUTES for fmt in ("text", "json")],
        [(cli._ROUTES, route, (_instant_route, _instant_route)) for route in cli._ROUTES],
    ),
    ("op", "--n"): (
        [("op", *flags, "--format", fmt) for flags in ((), ("--eval",)) for fmt in ("text", "json")],
        [
            (cli.operators, "fib_op", lambda n: cli.operators.OpPoly.one()),
            (cli.operators, "op_eval", lambda x: HPoly.one()),
        ],
    ),
    ("gf", "--order"): (
        [("gf", "--which", which) for which in cli.genfun.GF_NAMES],
        [
            (cli.genfun, "build_gf", lambda which, m: cli.genfun.gf_shifted(1)),
            (cli.genfun, "series_expand", lambda f, order: cli.genfun.OpSeries(())),
        ],
    ),
    ("gf", "--m"): (
        [("gf", "--which", "shifted", "--order", "4", "--format", fmt) for fmt in ("text", "json")],
        [(cli.genfun, "build_gf", lambda which, m: cli.genfun.gf_shifted(1))],
    ),
    ("qh binom", "--n"): (
        [("qh", "binom", "--k", "0", "--format", fmt) for fmt in ("text", "json")],
        [(cli.qh, "qh_binomial", lambda n, k: HPoly.one())],
    ),
    ("qh fib", "--n"): (
        [("qh", "fib", "--format", fmt) for fmt in ("text", "json")],
        [(cli.qh, "q_fibonacci", lambda n: HPoly.one())],
    ),
    ("eval", "--n"): (
        [("eval", "--route", route, "--h", "1", "--hp", "1") for route in cli._ROUTES],
        [(cli._ROUTES, route, (_instant_route, lambda n: cli.operators.OpPoly.one())) for route in cli._ROUTES],
    ),
}


CAP_IDS = [f"{command} {flag}" for command, flag in cli._CAPS]


def _plant(monkeypatch, builders, refuse: bool) -> None:
    for namespace, name, stub in builders:
        if refuse:
            stub = (_refuse_build, _refuse_build) if isinstance(stub, tuple) else _refuse_build
        if isinstance(namespace, dict):
            monkeypatch.setitem(namespace, name, stub)
        else:
            monkeypatch.setattr(namespace, name, stub)


def _assert_refused_above_cap(command, flag, argv, capsys) -> None:
    cap = cli._CAPS[command, flag]
    code = cli.main([*argv, flag, str(cap + 1)])
    captured = capsys.readouterr()
    assert code == 2, argv
    assert captured.out == ""
    assert captured.err == f"error: {command} {flag} is capped at {cap}, got {flag} {cap + 1}\n"


@pytest.mark.parametrize(("command", "flag"), list(cli._CAPS), ids=CAP_IDS)
def test_size_flag_above_cap_exits_2_before_any_work(command, flag, monkeypatch, capsys) -> None:
    variants, builders = CAPPED_ARGV[command, flag]
    _plant(monkeypatch, builders, refuse=True)
    for argv in variants:
        _assert_refused_above_cap(command, flag, argv, capsys)


@pytest.mark.parametrize("route", ["diagonal", "recurrence", "hypergeom", "binet"])
def test_eval_n_above_cap_exits_2(route, monkeypatch, capsys) -> None:
    # one cap for every route, refused before either form of F_n is built
    _plant(monkeypatch, CAPPED_ARGV["eval", "--n"][1], refuse=True)
    argv = ("eval", "--route", route, "--h", "1", "--hp", "1")
    _assert_refused_above_cap("eval", "--n", argv, capsys)


@pytest.mark.parametrize("fmt", ["markdown", "json", "csv"])
def test_pascal_rows_above_cap_exits_2(fmt, monkeypatch, capsys) -> None:
    _plant(monkeypatch, CAPPED_ARGV["pascal", "--rows"][1], refuse=True)
    _assert_refused_above_cap("pascal", "--rows", ("pascal", "--format", fmt), capsys)


@pytest.mark.parametrize("command", ["table", "table2"])
@pytest.mark.parametrize("fmt", ["markdown", "json"])
def test_table_max_above_cap_exits_2(command, fmt, monkeypatch, capsys) -> None:
    # table2 is an alias of table, so its refusal names table
    _plant(monkeypatch, CAPPED_ARGV["table", "--max"][1], refuse=True)
    _assert_refused_above_cap("table", "--max", (command, "--format", fmt), capsys)


@pytest.mark.parametrize(("command", "flag"), list(cli._CAPS), ids=CAP_IDS)
def test_size_flag_at_cap_runs(command, flag, monkeypatch, capsys) -> None:
    variants, builders = CAPPED_ARGV[command, flag]
    _plant(monkeypatch, builders, refuse=False)
    for argv in variants:
        assert cli.main([*argv, flag, str(cli._CAPS[command, flag])]) == 0, argv
        assert capsys.readouterr().err == ""


def test_every_int_flag_outside_verify_is_capped() -> None:
    # qh binom --k needs no cap of its own: a k above n returns 0 at once, so --n bounds it
    exempt = {("qh binom", "--k")}
    int_flags = set()
    parsers = [cli.build_parser()]
    while parsers:
        parser = parsers.pop()
        command = parser.prog.removeprefix("hfib").strip()
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                parsers.extend(action.choices.values())
            elif action.type is int and command != "verify":
                int_flags.add((command, action.option_strings[0]))
    assert int_flags - exempt == set(cli._CAPS)


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "pascal", "--max", "80"),
        ("verify", "all", "--max", "20"),
        ("verify", "gf", "--order", "240"),
        ("verify", "all", "--order", "200", "--max", "20"),
    ],
)
def test_verify_max_at_cap_or_unused_runs(argv, monkeypatch, capsys) -> None:
    monkeypatch.setattr(cli, "_verify_groups", lambda args: ([], []))
    assert cli.main(list(argv)) == 0


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "gf", "--max", "1000"),
        ("verify", "weighted", "--max", "1000"),
        ("verify", "gf", "--max", "5", "--format", "markdown"),
        ("verify", "fib", "--order", "5"),
        ("verify", "pascal", "--order", "5"),
        ("verify", "operators", "--order", "5"),
        ("verify", "qh", "--order", "5", "--max", "6"),
    ],
)
def test_verify_unread_bound_flag_exits_2(argv, monkeypatch, capsys) -> None:
    # gf and weighted read --order; every other suite reads --max
    reads, unread = ("--order", "--max") if argv[1] in ("gf", "weighted") else ("--max", "--order")
    monkeypatch.setattr(cli, "_verify_groups", lambda args: pytest.fail("a suite started"))
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: verify {argv[1]} does not read {unread}; its bound is {reads}\n"


@pytest.mark.parametrize(
    "argv, flag, reader",
    [
        (("verify", "gf", "--h", "1/3", "--p", "7", "--format", "markdown"), "--p", "weighted"),
        (("verify", "gf", "--h", "1/3"), "--h", "weighted"),
        (("verify", "qh", "--h=-7/3", "--max", "6"), "--h", "weighted"),
        (("verify", "fib", "--hp", "1/2"), "--hp", "weighted"),
        (("verify", "pascal", "--tol", "1/1000"), "--tol", "weighted"),
        (("verify", "weighted", "--seed", "7"), "--seed", "pascal"),
        (("verify", "operators", "--seed", "7", "--max", "6"), "--seed", "pascal"),
        (("verify", "pascal", "--experimental"), "--experimental", "qh"),
        (("verify", "weighted", "--strict"), "--strict", "qh"),
    ],
)
def test_verify_unread_flag_exits_2(argv, flag, reader, monkeypatch, capsys) -> None:
    monkeypatch.setattr(cli, "_verify_groups", lambda args: pytest.fail("a suite started"))
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: verify {argv[1]} does not read {flag}; only verify {reader} does\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "weighted", "--p", "3", "--h", "1/50", "--hp", "1/3", "--tol", "1/1000"),
        ("verify", "pascal", "--seed", "7", "--max", "6"),
        ("verify", "qh", "--experimental", "--strict", "--max", "6"),
        (
            "verify", "all", "--p", "3", "--h", "1/50", "--hp", "1/3", "--tol", "1/1000",
            "--seed", "7", "--experimental", "--strict", "--max", "6", "--order", "8",
        ),
    ],
)
def test_verify_suite_takes_the_flags_it_reads(argv, monkeypatch, capsys) -> None:
    monkeypatch.setattr(cli, "_verify_groups", lambda args: ([], []))
    assert cli.main(list(argv)) == 0


def test_verify_weighted_defaults(monkeypatch, capsys) -> None:
    # unset weighted flags resolve to the documented defaults
    seen = []

    def record(*args):
        seen.append(args)
        raise ValueError("recorded")

    monkeypatch.setattr(cli.genfun, "weighted_series_check", record)
    assert cli.main(["verify", "weighted"]) == 2
    assert seen == [(2, Fraction(1, 100), Fraction(1, 2), 80, Fraction(1, 10**12))]


def test_verify_all_takes_both_bound_flags(monkeypatch, capsys) -> None:
    seen = []
    monkeypatch.setattr(cli, "_verify_groups", lambda args: seen.append(args) or ([], []))
    assert cli.main(["verify", "all", "--max", "20", "--order", "80"]) == 0
    assert (seen[0].max, seen[0].order) == (20, 80)


def test_verify_markdown_names_hidden_failures(monkeypatch, capsys) -> None:
    failing = IdentityReport("pascal-recurrences")
    failing.cases = 30
    failing.failures.extend(Failure({"n": n}, "1", "2") for n in range(25))
    monkeypatch.setattr(cli.pascal, "verify_pascal", lambda n_max, seed=None: [failing])
    code, out = run_cli("verify", "pascal", "--format", "markdown", capsys=capsys)
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "pascal: FAIL (25 failures) [30 cases]"
    assert sum(line.startswith("  failure ") for line in lines) == 20
    assert lines[-1] == "  ... and 5 more failures not shown"


def test_verify_help_names_the_reader_of_each_flag() -> None:
    parser = cli.build_parser()
    (commands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    helps = {
        option: action.help
        for action in commands.choices["verify"]._actions
        for option in action.option_strings
    }
    for reader, record in cli.VERIFY_SUITES.items():
        for flag in record.reads:
            assert f"read by verify {reader} " in helps[flag], flag
    assert "exact rational" in helps["--tol"] and "default 1/10^12" in helps["--tol"]


@pytest.mark.parametrize("command", ["eval", "verify"])
def test_help_names_attached_negative_form(command, capsys) -> None:
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--help"])
    assert exc.value.code == 0
    out = " ".join(capsys.readouterr().out.split())
    for flag in ("--h", "--hp"):
        assert f"{flag} -7/3 or {flag}=-7/3" in out


def test_verify_failure_exit_code(monkeypatch, capsys) -> None:
    failing = IdentityReport("pascal-recurrences")
    failing.cases = 1
    failing.failures.append(Failure({"n": 1}, "1", "2"))
    monkeypatch.setattr(cli.pascal, "verify_pascal", lambda n_max, seed=None: [failing])
    code, out = run_cli("verify", "pascal", capsys=capsys)
    assert code == 1
    data = json.loads(out)
    assert data["failures"]


@pytest.mark.parametrize("fmt", ["json", "markdown"])
def test_verify_fails_a_sub_suite_that_checks_no_case(fmt, monkeypatch, capsys) -> None:
    # a vacuous sub-suite fails its group, by name, though nothing it checked failed
    monkeypatch.setattr(fibonacci, "verify_partial_sum", lambda n_max: IdentityReport("fib-partial-sum"))
    code, out = run_cli("verify", "fib", "--format", fmt, capsys=capsys)
    assert code == 1
    if fmt == "json":
        assert json.loads(out)["failures"] == [
            {"params": {"suite": "fib-partial-sum"}, "lhs": "0 cases checked", "rhs": "at least 1"}
        ]
    else:
        lines = out.splitlines()
        assert lines[0].startswith("fib: FAIL (1 failures) [")
        assert lines[-1] == "  failure {'suite': 'fib-partial-sum'}: 0 cases checked != at least 1"


@pytest.mark.parametrize(
    "argv, golden",
    [
        (("verify", "all", "--seed", "7"), "verify_all_seed7.txt"),
        (
            ("eval", "--n", "60", "--route", "recurrence", "--h=-7/3", "--hp", "2/5"),
            "eval_n60_recurrence.txt",
        ),
        (
            ("fib", "--n", "90", "--route", "recurrence", "--format", "json"),
            "fib_n90_recurrence.json",
        ),
        (("fib", "--n", "60", "--route", "binet"), "fib_n60_binet.txt"),
        (
            ("eval", "--n", "60", "--route", "recurrence", "--h", "-7/3", "--hp", "2/5"),
            "eval_n60_recurrence.txt",
        ),
        (("op", "--n", "20", "--eval"), "op_n20_eval.txt"),
        (("op", "--n", "20", "--eval", "--format", "json"), "op_n20_eval.json"),
        (("gf", "--which", "cube", "--order", "8", "--format", "json"), "gf_cube_order8.json"),
        (("verify", "qh", "--experimental", "--format", "json"), "verify_qh_experimental.json"),
    ],
)
def test_stdout_matches_golden(argv, golden, capsys) -> None:
    # Pins stdout across versions; criterion 9 pins it within one version.
    code, out = run_cli(*argv, capsys=capsys)
    assert code == 0
    assert out.encode() == (REPO / "tests" / "golden" / golden).read_bytes()


def test_verify_help_matches_golden(monkeypatch, capsys) -> None:
    # argparse wraps help at $COLUMNS, so pin the width
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--help"])
    assert exc.value.code == 0
    golden = REPO / "tests" / "golden" / "verify_help.txt"
    assert capsys.readouterr().out.encode() == golden.read_bytes()


def test_cli_determinism_subprocess() -> None:
    cmd = [sys.executable, "-m", "hfib.cli", "verify", "all", "--max", "6"]
    a = subprocess.run(cmd, capture_output=True, text=True)
    b = subprocess.run(cmd, capture_output=True, text=True)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


@pytest.mark.parametrize(
    "argv", [("fib", "--n", "200", "--format", "json"), ("pascal", "--rows", "40")]
)
def test_closed_pipe_exits_1_without_traceback(argv) -> None:
    # Each output is far larger than a pipe's buffer, so once the reader has
    # closed its end after 10 bytes, a later write must meet the closed pipe.
    proc = subprocess.Popen(
        [sys.executable, "-m", "hfib.cli", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    head = proc.stdout.read(10)
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert len(head) == 10
    assert b"Traceback" not in err, err.decode()
    assert proc.returncode == 1


def test_entry_point_installed(tmp_path, monkeypatch) -> None:
    # Run the installed `hfib` script if there is one; otherwise write the
    # launcher an installer would generate from [project.scripts] and run that.
    if shutil.which("hfib") is None:
        tomllib = pytest.importorskip("tomllib")
        with open(REPO / "pyproject.toml", "rb") as fh:
            entry = tomllib.load(fh)["project"]["scripts"]["hfib"]
        module, func = (part.strip() for part in entry.split(":"))
        launcher = tmp_path / "hfib"
        launcher.write_text(
            f"#!{sys.executable}\n"
            "import sys\n"
            f"from {module} import {func}\n"
            f"sys.exit({func}())\n"
        )
        launcher.chmod(0o755)
        monkeypatch.setenv("PATH", str(tmp_path), prepend=os.pathsep)
    result = subprocess.run(["hfib", "fib", "--n", "3"], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "1 + h*hp"
