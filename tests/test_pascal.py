from __future__ import annotations

import json
import random
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
import sympy
from hypothesis import example, given
from hypothesis import strategies as st

from hfib import pascal
from hfib.algebra import H, HP, HPoly
from hfib.pascal import (
    charlier,
    charlier_samples,
    h_binomial,
    pascal_row,
    pascal_triangle,
    row_sum,
    verify_charlier_link,
    verify_column_sum,
    verify_pascal,
    verify_pascal_recurrences,
)
from hfib.report import IdentityReport
from oracles import golden_shape, oracle_h_binomial
from test_fibonacci import _calls, _shift_calls

GOLDEN = Path(__file__).parent / "golden"


def test_h_binomial_small_values() -> None:
    assert h_binomial(0, 0) == 1
    assert h_binomial(1, 1) == H * HP
    assert h_binomial(2, 2) == H**2 * HP + H**2 * HP**2
    assert h_binomial(3, 1) == 3 * H * HP


def test_h_binomial_bounds() -> None:
    assert h_binomial(3, 4) == 0
    assert h_binomial(3, -1) == 0
    with pytest.raises(ValueError):
        h_binomial(-1, 0)


def test_h_binomial_edges_have_no_q() -> None:
    for n in range(8):
        for k in range(n + 1):
            assert h_binomial(n, k).max_exponents()[2] == 0


def test_h_binomial_matches_golden() -> None:
    rows = json.loads((GOLDEN / "pascal_rows.json").read_text())
    for n_str, row in rows.items():
        for k_str, shape in row.items():
            assert golden_shape(h_binomial(int(n_str), int(k_str))) == shape


def test_h_binomial_matches_sympy_oracle() -> None:
    from oracles import assert_matches

    for n in range(10):
        for k in range(n + 1):
            assert_matches(h_binomial(n, k), oracle_h_binomial(n, k))


def test_pascal_row_and_triangle() -> None:
    row = pascal_row(3)
    assert row.n == 3
    assert list(row.entries) == [h_binomial(3, k) for k in range(4)]
    tri = pascal_triangle(4)
    assert [r.n for r in tri] == [0, 1, 2, 3, 4]
    assert tri[-1].entries == pascal_row(4).entries


def test_row_sum_matches_entry_total() -> None:
    for n in range(9):
        assert row_sum(n) == sum(pascal_row(n).entries, HPoly.zero())


def test_charlier_values() -> None:
    # c_0 = 1, c_1(z; a) = -(z - a)/a
    assert charlier(0, Fraction(3), Fraction(2)) == 1
    assert charlier(1, Fraction(3), Fraction(2)) == Fraction(-1, 2)
    with pytest.raises(ValueError):
        charlier(2, Fraction(1), Fraction(0))


def _charlier_reference(n: int, z: Fraction, a: Fraction) -> Fraction:
    # c_n(z; a) = sum_k C(n, k) a^-k (-z)(-z+1)...(-z+k-1), term by term
    total = Fraction(0)
    for k in range(n + 1):
        rising = Fraction(1)
        for i in range(k):
            rising *= -z + i
        total += comb(n, k) * rising / a**k
    return total


rationals = st.one_of(
    st.integers(min_value=-20, max_value=20),
    st.fractions(min_value=-20, max_value=20, max_denominator=9),
)


@given(st.integers(min_value=0, max_value=15), rationals, rationals.filter(bool))
@example(15, Fraction(3), Fraction(-1, 2))
@example(12, 4, -3)
def test_charlier_matches_term_by_term_sum(n: int, z, a) -> None:
    value = charlier(n, z, a)
    assert type(value) is Fraction
    assert value == _charlier_reference(n, Fraction(z), Fraction(a))


def test_charlier_refuses_floats() -> None:
    for z, a in ((0.1, 3), (1, 0.5)):
        with pytest.raises(TypeError, match="exact rational"):
            charlier(2, z, a)


def test_charlier_link_at_known_point() -> None:
    # row sums evaluate to Charlier values at z = -hp, a = 1/h
    hv, hpv = Fraction(1, 3), Fraction(5, 2)
    for n in range(6):
        lhs = row_sum(n).eval_point(hv, hpv)
        rhs = charlier(n, -hpv, 1 / hv)
        assert lhs == rhs


def test_charlier_samples_distinct_and_nonzero() -> None:
    rng = random.Random(99)
    samples = charlier_samples(12, rng)
    assert len(samples) == 12
    hs = [s[0] for s in samples]
    hps = [s[1] for s in samples]
    assert all(v != 0 for v in hs)
    assert len(set(hs)) == len(hs)
    assert len(set(hps)) == len(hps)


def test_verify_recurrences_clean() -> None:
    report = verify_pascal_recurrences(10)
    assert report.passed
    assert report.cases > 0
    assert not report.pinned_conventions


def test_verify_column_sum_pins_convention() -> None:
    report = verify_column_sum(10)
    assert report.passed
    assert len(report.pinned_conventions) == 1
    assert "i = j" in report.pinned_conventions[0].resolution


def test_column_sum_with_no_reading_holding_reports_the_last_under_its_pin(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    # a stray h on C_h(3, 2), the right side at (n, j) = (2, 1), breaks both lower bounds
    binomial = pascal.h_binomial
    monkeypatch.setattr(
        pascal, "h_binomial", lambda n, k: binomial(n, k) + (H if (n, k) == (3, 2) else 0)
    )
    expected = IdentityReport("pascal-column-sum")
    for case in pascal._column_sum_cases(6, from_j=True):
        expected.check(*case)
    report = verify_column_sum(6)
    assert not expected.passed
    assert (report.cases, report.failures) == (expected.cases, expected.failures)
    (pin,) = report.pinned_conventions
    assert "i = j" in pin.resolution


def test_recurrences_shift_each_binomial_once(monkeypatch: pytest.MonkeyPatch) -> None:
    # one shift per entry of rows 0..80; shifting it in both rules makes 6,723
    assert _shift_calls(monkeypatch, lambda: verify_pascal_recurrences(80)) <= 3321


def test_column_sum_adds_once_per_entry(monkeypatch: pytest.MonkeyPatch) -> None:
    # one running-sum addition per entry and one hp + j per case, 3,240 cases at 80;
    # re-summing each column for every n, for the search and again for the checks,
    # makes 190,082
    assert _calls(monkeypatch, "__add__", lambda: verify_column_sum(80)) <= 6482


def test_verify_charlier_link_seeded() -> None:
    a = verify_charlier_link(6, seed=1)
    b = verify_charlier_link(6, seed=1)
    assert a.passed and b.passed
    assert a.to_dict() == b.to_dict()


def test_verify_charlier_link_rejects_zero_h() -> None:
    with pytest.raises(ValueError):
        verify_charlier_link(4, samples=[(Fraction(0), Fraction(1))])


def test_verify_pascal_all_pass() -> None:
    for report in verify_pascal(10):
        assert report.passed, report.to_dict()


def test_absorption_identity_spot() -> None:
    # (k+1) C(n+1, k+1) = (n+1) h hp C(n, k) at hp -> hp+1
    n, k = 5, 2
    lhs = (k + 1) * h_binomial(n + 1, k + 1)
    rhs = (n + 1) * H * HP * h_binomial(n, k).shift_hprime(1)
    assert lhs == rhs


def test_additive_recurrence_spot_sympy() -> None:
    h, hp = sympy.symbols("h hp")
    n, k = 6, 3
    lhs = oracle_h_binomial(n + 1, k)
    rhs = sympy.expand(
        oracle_h_binomial(n, k) + h * hp * oracle_h_binomial(n, k - 1).subs(hp, hp + 1)
    )
    assert sympy.simplify(lhs - rhs) == 0
