from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import hfib
from hfib.algebra import H, HP, HPoly, d_image, shifted_factorial
from hfib import algebra, fibonacci, kernels, operators
from hfib.operators import D, OpPoly, op_eval
from hfib.fibonacci import (
    classical_fib,
    fib_table,
    hfib_diagonal,
    hfib_hypergeometric,
    hfib_negative,
    hfib_recurrence,
    recurrence_op,
    verify_fibonacci,
    verify_odd_even_sums,
    verify_partial_sum,
    verify_routes,
)
from hfib.report import IdentityReport
from oracles import H as SH
from oracles import assert_matches, golden_shape, oracle_hfib, oracle_rising_hp

GOLDEN = Path(__file__).parent / "golden"


def test_classical_sequence() -> None:
    values = [classical_fib(n) for n in range(11)]
    assert values == [0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55]
    with pytest.raises(ValueError):
        classical_fib(-1)


def test_first_deformed_values() -> None:
    assert hfib_diagonal(0) == 0
    assert hfib_diagonal(1) == 1
    assert hfib_diagonal(2) == 1
    assert hfib_diagonal(3) == 1 + H * HP
    assert hfib_diagonal(4) == 1 + 2 * H * HP
    assert hfib_diagonal(5) == 1 + 3 * H * HP + H**2 * HP + H**2 * HP**2


def test_table_matches_golden() -> None:
    golden = json.loads((GOLDEN / "fib_table.json").read_text())
    table = fib_table(10)
    assert len(table.rows) == 11
    for row in table.rows:
        assert golden_shape(row.value) == golden[str(row.n)]
    assert [row.classical for row in table.rows] == [0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55]


def test_table_flags_row9_misprint() -> None:
    assert fib_table(10).pinned_conventions
    assert not fib_table(8).pinned_conventions
    with pytest.raises(ValueError):
        fib_table(-1)


def test_row9_top_term_weight() -> None:
    # the corrected row: top term is h^4 hp(hp+1)(hp+2)(hp+3)
    row9 = hfib_diagonal(9)
    assert row9.max_exponents()[0] == 4
    expected = (
        1
        + 7 * H * HP
        + 15 * H**2 * shifted_factorial(HP, 1, 2)
        + 10 * H**3 * shifted_factorial(HP, 1, 3)
        + H**4 * shifted_factorial(HP, 1, 4)
    )
    assert row9 == expected


@given(st.integers(min_value=0, max_value=40))
def test_diagonal_matches_sympy_oracle(n: int) -> None:
    assert_matches(hfib_diagonal(n), oracle_hfib(n))


@given(st.integers(min_value=0, max_value=60))
@example(80)
@example(120)
def test_recurrence_route_agrees(n: int) -> None:
    assert hfib_recurrence(n) == hfib_diagonal(n)


@given(st.integers(min_value=0, max_value=60))
def test_recurrence_route_is_int_and_q_free(n: int) -> None:
    terms = hfib_recurrence(n).terms()
    assert all(type(c) is int and c for _, c in terms)
    assert all(eq == 0 for (_, _, eq), _ in terms)


def test_recurrence_lanes_layout() -> None:
    # F_5 = 1 + 3*h*hp + h^2*hp + h^2*hp^2 is 1 + 3*h*(hp)_1 + h^2*(hp)_2 in the
    # rising-factorial basis, the image of 1 + 3D + D^2 that the route keeps
    assert recurrence_op(5) == 1 + 3 * D + D**2
    assert op_eval(1 + 3 * D + D**2) == hfib_diagonal(5)
    assert op_eval(OpPoly.zero()) == 0


def test_recurrence_route_satisfies_the_ring_recurrence() -> None:
    # keeps shift_hprime checked against the route, which moves its own keys instead
    for n in range(3, 41):
        expected = hfib_recurrence(n - 1) + H * HP * hfib_recurrence(n - 2).shift_hprime(1)
        assert hfib_recurrence(n) == expected


@given(st.integers(min_value=0, max_value=24))
def test_rising_expand_matches_sympy_oracle(j: int) -> None:
    assert_matches(op_eval(D**j), SH**j * oracle_rising_hp(j))


@given(
    st.dictionaries(st.integers(0, 30), st.integers(-(10**6), 10**6).filter(bool), max_size=20)
)
def test_rising_key_move_matches_the_ring_shift(f: dict[int, int]) -> None:
    # multiplying by D is multiplying the image by h*hp after shifting hp by one
    x = OpPoly.from_coeffs(f)
    assert op_eval(D * x) == H * HP * op_eval(x).shift_hprime(1)


def test_recurrence_route_is_independent_and_bounded(monkeypatch: pytest.MonkeyPatch) -> None:
    # the recurrence and hypergeometric routes share only op_eval, which reads no d_image
    hfib.clear_caches()
    expected = {n: hfib_diagonal(n) for n in (30, 120)}

    def refuse(*args: object) -> None:
        raise AssertionError("a route read another route's code")

    others = ("d_image", "h_binomial", "comb", "binet_fib", "fib_op")
    for name in others:
        monkeypatch.setattr(fibonacci, name, refuse, raising=False)
        monkeypatch.setattr(operators, name, refuse, raising=False)
    monkeypatch.setattr(algebra, "d_image", refuse)
    monkeypatch.setattr(kernels, "taylor_shift", refuse)
    monkeypatch.setattr(algebra, "taylor_shift", refuse)
    for n, value in expected.items():
        assert hfib_recurrence(n) == value
        assert hfib_hypergeometric(n) == value
    monkeypatch.undo()
    # each call steps from F_0 and F_1, so no call order changes a value
    for n in (200, 12, 200, 0, 1):
        assert hfib_recurrence(n) == hfib_diagonal(n)


def test_hypergeometric_route_agrees() -> None:
    # the scalar C(n-1-k, k) absorbs (-4)^k, so no Fraction reaches a coefficient
    for n in range(1, 61):
        value = hfib_hypergeometric(n)
        assert value == hfib_diagonal(n)
        assert {type(coeff) for _, coeff in value.terms()} == {int}


def _stack_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_recurrence_route_stays_shallow() -> None:
    # the route steps in a loop from F_0 and F_1, so the depth does not grow with n
    hfib.clear_caches()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 100)
    try:
        value = hfib_recurrence(150)
    finally:
        sys.setrecursionlimit(limit)
    assert value.classical_limit() == classical_fib(150)


def test_hypergeometric_rejects_nonpositive() -> None:
    with pytest.raises(ValueError):
        hfib_hypergeometric(0)


def test_recurrence_spot_check() -> None:
    # F_6 = F_5 + h hp F_4(hp -> hp+1)
    lhs = hfib_diagonal(6)
    rhs = hfib_diagonal(5) + H * HP * hfib_diagonal(4).shift_hprime(1)
    assert lhs == rhs


@given(st.integers(min_value=0, max_value=30))
def test_classical_limit_is_classical_fib(n: int) -> None:
    assert hfib_diagonal(n).classical_limit() == classical_fib(n)


def test_negative_index_values() -> None:
    m1 = hfib_negative(1)
    assert m1.numerator == 1
    assert m1.denominator == H * HP
    m2 = hfib_negative(2)
    assert m2.numerator == -1
    assert m2.denominator == H**2 * HP * (HP + 1)
    m3 = hfib_negative(3)
    assert m3.numerator == 1 + H * HP
    assert m3.denominator_count == 3
    with pytest.raises(ValueError):
        hfib_negative(0)


def test_reflection_case_sees_a_wrong_diagonal(monkeypatch: pytest.MonkeyPatch) -> None:
    # hfib_negative builds its numerator from hfib_diagonal, so the reflection side
    # must read F_n from another route for the case to be able to fail
    diagonal = fibonacci.hfib_diagonal
    monkeypatch.setattr(fibonacci, "hfib_diagonal", lambda n: diagonal(n) + H if n == 7 else diagonal(n))
    hfib.clear_caches()
    failed = [failure.params for failure in fibonacci.verify_negative_reflection(15).failures]
    hfib.clear_caches()
    assert {"n": 7, "route": "reflection"} in failed


@given(st.integers(min_value=1, max_value=15))
def test_negative_numerator_matches_operator_route(n: int) -> None:
    from hfib.operators import neg_fib_op, op_eval

    assert hfib_negative(n).numerator == op_eval(neg_fib_op(n))


def test_partial_sum_pins_unshifted_right_side() -> None:
    report = verify_partial_sum(12)
    assert report.passed
    assert report.pinned_conventions


def test_verify_routes_clean() -> None:
    report = verify_routes(20)
    assert report.passed
    assert report.cases > 0


def test_verify_fibonacci_all_pass() -> None:
    for report in verify_fibonacci(12):
        assert report.passed, report.to_dict()


def _checked_sides(monkeypatch: pytest.MonkeyPatch, run) -> list[tuple[dict, HPoly, HPoly]]:
    """(params, lhs, rhs) of every case that run() checks."""
    seen = []
    check = IdentityReport.check

    def record(self, params, lhs, rhs):
        seen.append((params, lhs, rhs))
        return check(self, params, lhs, rhs)

    monkeypatch.setattr(IdentityReport, "check", record)
    run()
    return seen


def _calls(monkeypatch: pytest.MonkeyPatch, method: str, run) -> int:
    """How many times run() calls HPoly.<method>."""
    calls = 0
    original = getattr(HPoly, method)

    def counted(self, *args):
        nonlocal calls
        calls += 1
        return original(self, *args)

    monkeypatch.setattr(HPoly, method, counted)
    run()
    return calls


def _shift_calls(monkeypatch: pytest.MonkeyPatch, run) -> int:
    return _calls(monkeypatch, "shift_hprime", run)


def test_odd_even_left_sides_equal_the_literal_double_sum(monkeypatch: pytest.MonkeyPatch) -> None:
    sides = _checked_sides(monkeypatch, lambda: verify_odd_even_sums(10))
    assert len(sides) == 20
    for params, lhs, _ in sides:
        n, first = params["n"], 1 if params["parity"] == "odd indices" else 2
        literal = HPoly.zero()
        for k in range(1, n + 1):
            literal = literal + d_image(n - k) * hfib_diagonal(2 * k - 2 + first).shift_hprime(n - k)
        assert lhs == literal, params


def test_partial_sum_left_sides_equal_the_literal_sum(monkeypatch: pytest.MonkeyPatch) -> None:
    sides = _checked_sides(monkeypatch, lambda: verify_partial_sum(10))
    assert [params["n"] for params, _, _ in sides] == list(range(1, 11))
    for params, lhs, _ in sides:
        literal = HPoly.zero()
        for k in range(1, params["n"] + 1):
            literal = literal + hfib_diagonal(k).shift_hprime(1)
        assert lhs == H * HP * literal


def test_odd_even_sums_shift_once_per_side_and_n(monkeypatch: pytest.MonkeyPatch) -> None:
    assert _shift_calls(monkeypatch, lambda: verify_odd_even_sums(20)) <= 40


def test_partial_sum_shifts_once_per_summand(monkeypatch: pytest.MonkeyPatch) -> None:
    # 20 running-sum shifts, plus one for the literal right side, which fails at n = 1
    assert _shift_calls(monkeypatch, lambda: verify_partial_sum(20)) <= 21
