from __future__ import annotations

import pytest

from hfib.fibonacci import fib_table, hfib_negative, verify_fibonacci
from hfib.genfun import build_gf, series_expand
from hfib.operators import OpMatrix2, SqrtExt, verify_operators
from hfib.pascal import pascal_row, verify_pascal
from hfib.qh import ExperimentalCheck, ExperimentalReport, verify_qh
from hfib.report import SCHEMA, Failure, IdentityReport, PinnedConvention, merge_reports


def test_check_records_failures_lazily() -> None:
    report = IdentityReport("demo")
    assert report.check({"n": 1}, 2, 2)
    assert not report.check({"n": 2}, 2, 3)
    assert report.cases == 2
    assert not report.passed
    (failure,) = report.failures
    assert failure.params == {"n": 2}
    assert (failure.lhs, failure.rhs) == ("2", "3")


def test_to_dict_schema() -> None:
    report = IdentityReport("demo")
    report.pin("which reading", "the one that holds")
    data = report.to_dict()
    assert data["schema"] == SCHEMA
    assert data["suite"] == "demo"
    assert data["failures"] == []
    assert data["pinned_conventions"] == [
        {"ambiguity": "which reading", "resolution": "the one that holds"}
    ]


def test_merge_prefixes_params_with_sub_suite() -> None:
    a = IdentityReport("alpha", cases=3)
    a.failures.append(Failure({"n": 7}, "x", "y"))
    a.pin("amb", "res")
    b = IdentityReport("beta", cases=2)
    merged = merge_reports("outer", [a, b])
    assert merged.suite == "outer"
    assert merged.cases == 5
    assert merged.failures[0].params == {"suite": "alpha", "n": 7}
    assert len(merged.pinned_conventions) == 1
    assert not merged.passed


def test_a_report_of_no_case_does_not_pass() -> None:
    empty = IdentityReport("empty")
    assert not empty.failures and not empty.passed
    merged = merge_reports("outer", [IdentityReport("alpha", cases=2), empty])
    assert merged.cases == 2
    assert merged.failures == [Failure({"suite": "empty"}, "0 cases checked", "at least 1")]


def _reading_cases(sides):
    """cases(reading) for check_first_reading over {reading: [(lhs, rhs), ...]}; each call is logged."""
    calls = []

    def cases(reading):
        calls.append(reading)
        for i, (lhs, rhs) in enumerate(sides[reading]):
            yield {"reading": reading, "i": i}, lhs, rhs

    return cases, calls


def test_first_reading_that_holds_is_checked_and_pinned_once() -> None:
    # the printed reading passes two cases, then fails: the trial records none of them
    cases, calls = _reading_cases(
        {"printed": [(1, 1), (2, 2), (3, 4), (5, 5)], "fixed": [(1, 1), (2, 2), (3, 3)], "spare": [(0, 1)]}
    )
    report = IdentityReport("demo")
    report.check_first_reading(cases, {"printed": None, "fixed": ("amb", "fix"), "spare": ("amb", "spare")})
    assert calls == ["printed", "fixed"]
    assert report == IdentityReport("demo", cases=3, pinned_conventions=[PinnedConvention("amb", "fix")])


def test_first_reading_falls_back_to_every_case_of_the_last_under_its_pin() -> None:
    cases, calls = _reading_cases({"printed": [(1, 2)], "fixed": [(1, 1), (2, 3), (4, 5), (6, 6)]})
    report = IdentityReport("demo")
    report.check_first_reading(cases, {"printed": None, "fixed": ("amb", "fix")})
    assert calls == ["printed", "fixed", "fixed"]
    assert report.cases == 4
    assert [f.params for f in report.failures] == [{"reading": "fixed", "i": 1}, {"reading": "fixed", "i": 2}]
    assert report.pinned_conventions == [PinnedConvention("amb", "fix")]


@pytest.mark.parametrize(
    "suite, n_max",
    [
        (verify_fibonacci, 0),
        (verify_fibonacci, -1),
        (verify_operators, 0),
        (verify_qh, 0),
        (verify_qh, -1),
        (verify_pascal, 0),
        (verify_pascal, -1),
    ],
)
def test_suites_refuse_n_max_below_one(suite, n_max) -> None:
    # 0 used to run the default scales and -1 a vacuous pass with no cases
    with pytest.raises(ValueError, match="at least 1"):
        suite(n_max)


# Each immutable result type, as (builder of a fresh instance, one of its fields).
RECORDS = {
    "Failure": (lambda: Failure({"n": 7}, "x", "y"), "lhs"),
    "PinnedConvention": (lambda: PinnedConvention("amb", "res"), "resolution"),
    "OpMatrix2": (OpMatrix2.identity, "a12"),
    "SqrtExt": (SqrtExt.one, "odd"),
    "OpSeries": (lambda: series_expand(build_gf("fib"), 6), "coeffs"),
    "OpRatFun": (lambda: build_gf("square"), "denominator"),
    "NegHFib": (lambda: hfib_negative(5), "numerator"),
    "FibTableRow": (lambda: fib_table(4).rows[4], "value"),
    "FibTable": (lambda: fib_table(9), "rows"),
    "TriangleRow": (lambda: pascal_row(4), "entries"),
    "ExperimentalCheck": (lambda: ExperimentalCheck("partial-sum", 3, True), "holds"),
}


@pytest.mark.parametrize("name", RECORDS)
def test_records_are_frozen_values(name) -> None:
    build, field = RECORDS[name]
    a, b = build(), build()
    assert type(a).__name__ == name
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(b, field))
    assert a == b and not a != b
    if name != "Failure":  # its params are a dict
        assert hash(a) == hash(b)


def test_records_keep_their_arithmetic_and_length() -> None:
    # as tuples, int * matrix would repeat it and len(series) would count one field
    ident = OpMatrix2.identity()
    for scaled in (2 * ident, ident * 2):
        assert (scaled.a11, scaled.a12, scaled.a21, scaled.a22) == (2, 0, 0, 2)
    assert len(series_expand(build_gf("fib"), 6)) == 6


@pytest.mark.parametrize("cls, args", [(IdentityReport, ("demo",)), (ExperimentalReport, ())])
def test_reports_are_mutable_values(cls, args) -> None:
    a, b = cls(*args), cls(*args)
    assert a == b and a.suite == b.suite
    a.suite = "other"
    assert a != b
    with pytest.raises(TypeError):
        hash(b)
