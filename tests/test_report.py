from __future__ import annotations

import pytest

from hfib.fibonacci import verify_fibonacci
from hfib.operators import verify_operators
from hfib.pascal import verify_pascal
from hfib.qh import verify_qh
from hfib.report import SCHEMA, Failure, IdentityReport, merge_reports


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
