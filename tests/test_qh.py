from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hfib.algebra import H, HP, Q, HPoly, d_image
from hfib.fibonacci import hfib_diagonal
from hfib.pascal import h_binomial
from hfib.qh import (
    ExperimentalReport,
    _q_diagonal,
    experimental_report,
    q_binomial,
    q_fibonacci,
    q_int,
    qh_binomial,
    verify_qh,
    verify_qh_recurrences,
)
from oracles import oracle_q_binomial
from test_fibonacci import _shift_calls

# regression pins on the measured experimental outcomes; these freeze
# what the report says, they are not assertions that the math must hold
EXPECTED_EXPERIMENTAL = {
    "recurrence-literal": False,
    "recurrence-augmented": True,
    "recurrence-augmented-q1": True,
    "alt-weight-recurrence-literal": False,
    "alt-weight-recurrence-augmented": False,
    "alt-weight-recurrence-qn-augmented": True,
    "partial-sum": True,
    "odd-index-sum": False,
    "even-index-sum-cleared": False,
}


def test_q_int_values() -> None:
    assert q_int(0) == 0
    assert q_int(1) == 1
    assert q_int(3) == 1 + Q + Q**2
    with pytest.raises(ValueError):
        q_int(-1)


def test_q_binomial_values() -> None:
    assert q_binomial(4, 2) == 1 + Q + 2 * Q**2 + Q**3 + Q**4
    assert q_binomial(3, 1) == 1 + Q + Q**2
    assert q_binomial(5, 0) == 1
    assert q_binomial(3, 4) == 0
    assert q_binomial(3, -1) == 0
    # beyond the recursion limit
    assert q_binomial(1500, 1) == q_int(1500)
    with pytest.raises(ValueError):
        q_binomial(-1, 0)


@given(st.integers(min_value=0, max_value=9), st.integers(min_value=0, max_value=9))
def test_q_binomial_at_integer_points(n: int, k: int) -> None:
    # the product formula at q = 2 and 3: q_binomial is built from it, so this
    # is not independent; test_q_binomial_matches_subset_sums is
    for qv in (2, 3):
        if k > n:
            want = Fraction(0)
        else:
            want = Fraction(1)
            for i in range(1, k + 1):
                want *= Fraction(qv ** (n - k + i) - 1, qv**i - 1)
        assert q_binomial(n, k).eval_point(0, 0, qv) == want


def test_q_binomial_matches_subset_sums() -> None:
    for n in range(11):
        for k in range(n + 2):
            got = {eq: coeff for (_, _, eq), coeff in q_binomial(n, k).terms()}
            assert got == oracle_q_binomial(n, k), (n, k)


@given(st.integers(min_value=0, max_value=10), st.integers(min_value=0, max_value=10))
def test_q_binomial_symmetry(n: int, k: int) -> None:
    if k <= n:
        assert q_binomial(n, k) == q_binomial(n, n - k)


def test_qh_binomial_structure() -> None:
    # q-binomial times the h-weight h^k (hp)(hp+1)...(hp+k-1)
    assert qh_binomial(3, 2) == q_binomial(3, 2) * H**2 * HP * (HP + 1)
    assert qh_binomial(4, 0) == 1
    assert qh_binomial(2, 3) == 0


@given(st.integers(min_value=0, max_value=10))
def test_qh_binomial_q1_reduction(n: int) -> None:
    for k in range(n + 1):
        assert qh_binomial(n, k).substitute_q(1) == h_binomial(n, k)


@given(st.integers(min_value=0, max_value=12))
def test_q_fibonacci_q1_reduction(n: int) -> None:
    assert q_fibonacci(n).substitute_q(1) == hfib_diagonal(n)


def test_q_fibonacci_small_values() -> None:
    assert q_fibonacci(0) == 0
    assert q_fibonacci(1) == 1
    assert q_fibonacci(2) == 1
    assert q_fibonacci(3) == 1 + Q * H * HP
    assert q_fibonacci(4) == 1 + Q * (1 + Q) * H * HP


def test_verify_qh_all_pass() -> None:
    for report in verify_qh(8):
        assert report.passed, report.to_dict()


def test_recurrence_suite_pins_reading() -> None:
    report = verify_qh_recurrences(8)
    assert report.passed
    resolutions = [pin.resolution for pin in report.pinned_conventions]
    assert any("stepped" in text for text in resolutions)
    assert any("(2, 3)" in text for text in resolutions)


def test_recurrence_suite_pins_the_evidence_at_any_scale() -> None:
    # the stepped reading is searched past row 1, so its first failure is pinned here too
    report = verify_qh_recurrences(1)
    assert report.passed
    assert any("(2, 3)" in pin.resolution for pin in report.pinned_conventions)


def test_experimental_summary_frozen() -> None:
    report = experimental_report(n_max=10)
    assert report.summary() == EXPECTED_EXPERIMENTAL


def test_experimental_report_shape() -> None:
    report = experimental_report(n_max=6)
    data = report.to_dict()
    assert data["experimental"] is True
    assert data["schema"]
    assert data["suite"] == "qh-experimental"
    assert len(data["conventions"]) == 3
    names = {check["identity"] for check in data["checks"]}
    assert names == set(EXPECTED_EXPERIMENTAL)
    for check in data["checks"]:
        assert isinstance(check["holds"], bool)
        assert isinstance(check["n"], int)


def test_experimental_checks_are_per_index(n_max: int = 6) -> None:
    report = experimental_report(n_max=n_max)
    literal = [c for c in report.checks if c.identity == "recurrence-literal"]
    assert len(literal) >= n_max - 2
    assert any(not c.holds for c in literal)


def test_experimental_sides_equal_the_literal_sums(monkeypatch: pytest.MonkeyPatch) -> None:
    seen: dict[tuple[str, int], tuple[HPoly, HPoly]] = {}
    record = ExperimentalReport.record

    def capture(self, identity, n, lhs, rhs):
        seen[identity, n] = (lhs, rhs)
        return record(self, identity, n, lhs, rhs)

    monkeypatch.setattr(ExperimentalReport, "record", capture)
    experimental_report(n_max=8)
    for n in range(1, 9):
        shifted = q_fibonacci(n - 1).shift_hprime(1)
        assert seen["recurrence-literal", n][1] == q_fibonacci(n) + Q ** (n - 1) * shifted
        alt_shifted = _q_diagonal(n - 1, 1).shift_hprime(1)
        assert seen["alt-weight-recurrence-literal", n][1] == (
            _q_diagonal(n, 1) + Q ** (n - 1) * alt_shifted
        )
        partial = sum((Q**k * q_fibonacci(k).shift_hprime(1) for k in range(n + 1)), HPoly.zero())
        assert seen["partial-sum", n][0] == H * HP * partial
        odd = even = HPoly.zero()
        for k in range(1, n + 1):
            weight = d_image(n - k)
            odd = odd + Q ** (2 * k) * weight * q_fibonacci(2 * k - 1).shift_hprime(n - k)
            even = even + Q ** (2 * n - 2 * k) * weight * q_fibonacci(2 * k).shift_hprime(n - k)
        assert seen["odd-index-sum", n][0] == odd
        assert seen["even-index-sum-cleared", n][0] == even


def test_recurrences_shift_each_binomial_once(monkeypatch: pytest.MonkeyPatch) -> None:
    # 231 entries in rows 0..20 and 9 shifts of the stepped-reading search; shifting
    # each entry in both rules makes 492
    assert _shift_calls(monkeypatch, lambda: verify_qh_recurrences(20)) <= 240


def test_experimental_report_shifts_at_most_100_times_at_20(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    # 4 shifts per n; summing each left side afresh makes 750
    assert _shift_calls(monkeypatch, lambda: experimental_report(20)) <= 100
