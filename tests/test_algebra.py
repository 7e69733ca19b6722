from __future__ import annotations

import random
from fractions import Fraction
from math import comb

import pytest
import sympy
from hypothesis import example, given
from hypothesis import strategies as st

from hfib.algebra import (
    H,
    HP,
    Q,
    DivergentLimitError,
    HPoly,
    d_image,
    render_terms,
    shifted_factorial,
)
from hfib.fibonacci import hfib_diagonal
from hfib.operators import D, OpPoly, op_value
from oracles import H as SH
from oracles import HP as SHP
from oracles import Q as SQ
from oracles import assert_matches, hpoly_to_sympy, oracle_rising, oracle_shift

coeffs = st.one_of(
    st.integers(min_value=-50, max_value=50),
    st.fractions(min_value=-20, max_value=20, max_denominator=9),
)
exponents = st.tuples(
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=0, max_value=3),
)
polys = st.dictionaries(exponents, coeffs, max_size=6).map(
    lambda d: HPoly.from_terms((e, c) for e, c in d.items())
)
op_polys = st.dictionaries(st.integers(min_value=0, max_value=8), coeffs, max_size=6).map(
    OpPoly.from_coeffs
)
RING_POLYS = {HPoly: polys, OpPoly: op_polys}


def test_constants_and_zero() -> None:
    assert HPoly.zero().is_zero
    assert not HPoly.zero()
    assert HPoly.one() == 1
    assert HPoly.const(Fraction(3, 2)) == Fraction(3, 2)
    assert HPoly.const(0).is_zero
    assert len(H * HP * Q) == 1


def test_from_terms_merges_and_drops_zeros() -> None:
    p = HPoly.from_terms([((1, 0, 0), 2), ((1, 0, 0), -2), ((0, 1, 0), 5)])
    assert p == 5 * HP
    assert len(p) == 1


def test_arithmetic_small() -> None:
    p = (1 + H * HP) ** 2
    assert p == 1 + 2 * H * HP + H**2 * HP**2
    assert p - p == 0
    assert -p + p == 0
    assert p * 0 == 0
    assert (H + HP) * (H - HP) == H**2 - HP**2


def test_pow_rejects_negative() -> None:
    with pytest.raises(ValueError):
        (1 + H) ** -1


def test_scalar_coercion() -> None:
    for x in (H, D):
        assert x * Fraction(1, 2) + x * Fraction(1, 2) == x
        with pytest.raises(TypeError):
            type(x).const(0.5)
        with pytest.raises(TypeError):
            x + 1.5  # type: ignore[operator]


@pytest.mark.parametrize(
    "call",
    [
        lambda: (1 + HP * Q).substitute_q(0.1),
        lambda: (1 + H * HP).eval_point(0.1, Fraction(1, 2)),
        lambda: (1 + H * HP).eval_point(Fraction(1, 10), 0.5),
        lambda: (H * Q).eval_point(1, 1, q=0.5),
        lambda: op_value(D**2, 0.1, 1),
        lambda: op_value(D**2, 1, 0.1),
    ],
    ids=["substitute_q", "eval_point-h", "eval_point-hp", "eval_point-q", "op_value-h", "op_value-hp"],
)
def test_scalar_entry_points_refuse_floats(call) -> None:
    with pytest.raises(TypeError, match="exact rational"):
        call()


@pytest.mark.parametrize("x, text", [(H, "1 + h"), (D, "1 + D")], ids=["HPoly", "OpPoly"])
def test_bool_coefficients_are_stored_as_int(x, text) -> None:
    ring = type(x)
    for p in (x + True, True + x, x * True + ring.const(True)):
        assert str(p) == text
        assert ring.from_json_terms(p.to_json_terms()) == p
        assert {type(coeff) for _, coeff in p.terms()} == {int}
    one = ring.const(True)
    assert one.to_json_terms() == [{"coeff": "1"}]
    assert ring.from_json_terms(one.to_json_terms()) == one
    assert [type(coeff) for _, coeff in one.terms()] == [int]


def test_rings_refuse_each_other() -> None:
    for operation in (
        lambda: H + D,
        lambda: D + H,
        lambda: D * H,
        lambda: H * D,
        lambda: H - D,
        lambda: D**2.0,
        lambda: H**2.0,
    ):
        with pytest.raises(TypeError):
            operation()
    assert HPoly.one() != OpPoly.one()
    assert OpPoly.one() != HPoly.one()
    assert not HPoly.one() == OpPoly.one()


def test_canonical_term_order() -> None:
    # (total degree, then h, hp, q exponents) ascending
    p = H**2 * HP + HP**3 + H + 1
    keys = [e for e, _ in p.terms()]
    assert keys == [(0, 0, 0), (1, 0, 0), (0, 3, 0), (2, 1, 0)]


def test_rendering() -> None:
    assert str(HPoly.zero()) == "0"
    assert str(HPoly.one()) == "1"
    assert str(1 + 3 * H * HP - H**2 * HP) == "1 + 3*h*hp - h^2*hp"
    assert str(-H) == "-h"
    assert str(H * Q - HP) == "-hp + h*q"
    assert str(HPoly.const(Fraction(-1, 2)) * H) == "-1/2*h"


def test_render_terms_custom_names() -> None:
    # renders in the order given; HPoly/OpPoly pre-sort canonically
    text = render_terms([((2,), 1), ((0,), -1)], ("z",))
    assert text == "z^2 - 1"


def test_total_degree_and_max_exponents() -> None:
    p = H**2 * HP + Q**3
    assert p.total_degree == 3
    assert p.max_exponents() == (2, 1, 3)
    assert HPoly.zero().total_degree == 0
    assert HPoly.zero().max_exponents() == (0, 0, 0)


def test_constant_term() -> None:
    assert (3 + H).constant_term() == 3
    assert H.constant_term() == 0


def test_equality_and_hash() -> None:
    a = 1 + H * HP
    b = HPoly.one() + H * HP
    assert a == b
    assert hash(a) == hash(b)
    assert a != 1
    assert HPoly.const(7) == 7
    assert {a: "x"}[b] == "x"


def test_exponent_overflow_guard() -> None:
    top = 2**21 - 1
    with pytest.raises(OverflowError):
        H ** (2**21)
    # kpow squares without a check, so the power must be refused before it runs
    with pytest.raises(OverflowError):
        (HP ** (2**20)) ** 4
    for var in (H, HP, Q):
        big = var ** (2**20)
        # one-term products and powers are key moves, still behind the guard
        for overflowing in (lambda: big * big, lambda: big * (big + 1), lambda: big**2):
            with pytest.raises(OverflowError):
                overflowing()
        # a product reaching the capacity exactly in one lane is kept
        full = big * var ** (2**20 - 2) * (1 + var)
        assert full.max_exponents() == tuple(top if v is var else 0 for v in (H, HP, Q))
        with pytest.raises(OverflowError):
            full * var
    # every lane at capacity in one product, next to a lower term
    corner = H**top * (HP**top + Q) * (Q ** (top - 1) + 1)
    assert corner.max_exponents() == (top, top, top)
    assert len(corner) == 4


def test_shift_hprime_matches_substitution() -> None:
    p = 2 * H**2 * HP**3 + HP - 5
    for delta in (-2, -1, 0, 1, 3):
        assert_matches(p.shift_hprime(delta), oracle_shift(hpoly_to_sympy(p), delta))
    # Fraction coefficients, gaps in the hp exponents and q terms
    polys = [
        Fraction(3, 4) * HP**5 - Fraction(1, 6) * H * HP**2 + Fraction(5, 2),
        H**3 * HP**7 * Q**2 - 4 * HP**4 * Q + Q**3 + Fraction(2, 9) * H * HP,
        Fraction(1, 2) * HP**2 + Fraction(1, 2) * HP,
    ]
    for p in polys:
        for delta in (-7, -1, 1, 5):
            shifted = p.shift_hprime(delta)
            assert_matches(shifted, oracle_shift(hpoly_to_sympy(p), delta))
            for _, coeff in shifted.terms():
                assert coeff and (type(coeff) is int or coeff.denominator > 1)


def test_shift_hprime_rejects_non_integer() -> None:
    with pytest.raises(TypeError):
        HP.shift_hprime(Fraction(1, 2))  # type: ignore[arg-type]


def test_substitute_q() -> None:
    p = 1 + H * Q + HP * Q**2
    assert p.substitute_q(1) == 1 + H + HP
    assert p.substitute_q(0) == HPoly.one()
    assert p.substitute_q(Fraction(1, 2)) == 1 + H * Fraction(1, 2) + HP * Fraction(1, 4)
    assert p.substitute_q(2).max_exponents()[2] == 0


def test_eval_point() -> None:
    p = 1 + 3 * H * HP + H**2 * HP + H**2 * HP**2
    assert p.eval_point(1, 1) == 6
    assert p.eval_point(Fraction(1, 2), 2) == 1 + 3 + Fraction(1, 2) + 1
    assert (H * Q).eval_point(2, 1, q=3) == 6
    assert (H * Q).eval_point(2, 1) == 0
    # h = 0, q != 0, negative rationals, the zero polynomial and a Fraction coefficient
    polys = [
        p,
        HPoly.zero(),
        Fraction(-5, 3) * H**2 * HP**3 * Q + 7 * HP**2 * Q**4 - Fraction(1, 2) + H,
        HP**6 - Q**2,
    ]
    points = [
        (0, Fraction(2, 5), Fraction(-3, 2)),
        (Fraction(-7, 3), Fraction(2, 5), 0),
        (Fraction(-1, 4), Fraction(-9, 7), Fraction(5, 6)),
        (0, 0, 0),
    ]
    for poly in polys:
        expr = hpoly_to_sympy(poly)
        for hv, hpv, qv in points:
            value = poly.eval_point(hv, hpv, qv)
            assert type(value) is Fraction
            point = {SH: sympy.Rational(hv), SHP: sympy.Rational(hpv), SQ: sympy.Rational(qv)}
            assert value == Fraction(str(expr.subs(point)))


@pytest.mark.parametrize("n", [61, 64])
def test_eval_point_at_high_hp_degree(n) -> None:
    # F_61 and F_64 have hp-degree 30 and 31.  An eval_point error of 1e-20
    # there fails no verify suite: the Charlier link stops at row 10 and the
    # weighted series compares within 1e-12.  So check exactly against
    # sum_k C(n-1-k, k) h^k (hp)_k.  No hp is an integer, so no rising
    # factorial vanishes and every degree counts.
    rng = random.Random(n)
    points = [
        (Fraction(rng.randint(1, 99), 999_983), Fraction(rng.randint(1, 99), 101)),
        (Fraction(rng.randint(1, 99), 97), -Fraction(rng.randint(1, 99), 101)),
        (-Fraction(rng.randint(1, 99), 97), Fraction(rng.randint(1, 99), 101)),
        (-Fraction(rng.randint(1, 99), 999_983), -Fraction(rng.randint(1, 99), 101)),
    ]
    value = hfib_diagonal(n)
    for hv, hpv in points:
        expected = sum(
            comb(n - 1 - k, k) * hv**k * op_value(D**k, 1, hpv) for k in range((n + 1) // 2)
        )
        assert value.eval_point(hv, hpv) == expected, (hv, hpv)


def test_classical_limit() -> None:
    # hp = 1/h, h -> 0: monomials with equal h and hp exponents survive
    p = 1 + 3 * H * HP + H**2 * HP + H**2 * HP**2
    assert p.classical_limit() == 5
    assert HPoly.const(Fraction(2, 3)).classical_limit() == Fraction(2, 3)
    assert (H**2 * HP).classical_limit() == 0
    with pytest.raises(DivergentLimitError):
        (H * HP**2).classical_limit()
    with pytest.raises(ValueError):
        (H * Q).classical_limit()


def test_json_round_trip() -> None:
    p = 1 - H * HP * Fraction(7, 3) + Q**2
    data = p.to_json_terms()
    assert all(set(obj) <= {"coeff", "h", "hp", "q"} for obj in data)
    assert HPoly.from_json_terms(data) == p
    assert HPoly.from_json_terms([]) == 0


def test_json_omits_zero_exponents() -> None:
    (obj,) = (3 * H).to_json_terms()
    assert obj == {"coeff": "3", "h": 1}


def test_shifted_factorial_values() -> None:
    assert shifted_factorial(HP, 1, 0) == 1
    assert shifted_factorial(HP, 1, 2) == HP + HP**2
    assert shifted_factorial(H * HP, H, 3) == 2 * H**3 * HP + 3 * H**3 * HP**2 + H**3 * HP**3
    assert_matches(shifted_factorial(HP, 1, 5), sympy.expand(sympy.rf(SHP, 5)))
    for k in range(7):
        assert_matches(d_image(k), SH**k * sympy.rf(SHP, k))
    for k in range(41):
        assert d_image(k) == H**k * shifted_factorial(HP, 1, k)
    for bad in (-1, 1.5):
        with pytest.raises(ValueError):
            d_image(bad)
    with pytest.raises(ValueError):
        shifted_factorial(HP, 1, -1)


def test_op_value_of_a_d_power_is_a_rising_factorial() -> None:
    # D^k at h = 1 is the rising factorial (hp)_k
    assert op_value(D**0, 1, Fraction(1, 2)) == 1
    assert op_value(D**3, 1, Fraction(1, 2)) == Fraction(1, 2) * Fraction(3, 2) * Fraction(5, 2)
    assert op_value(D**4, 1, Fraction(-2)) == 0


@given(
    st.one_of(
        st.integers(min_value=-15, max_value=15),
        st.fractions(min_value=-15, max_value=15, max_denominator=9),
    ),
    st.integers(min_value=0, max_value=20),
)
@example(Fraction(-4), 7)
@example(-4, 3)
@example(Fraction(7, 3), 0)
def test_op_value_of_a_d_power_matches_sympy(start, count: int) -> None:
    value = op_value(D**count, 1, start)
    assert type(value) is Fraction
    assert value == oracle_rising(Fraction(start), count)


@given(polys, st.sampled_from([0, 1, -1, 2, Fraction(1, 2), None]), st.fractions(max_denominator=9))
def test_substitute_q_matches_plain_sum(poly: HPoly, qv, drawn: Fraction) -> None:
    qv = drawn if qv is None else qv
    expected: dict = {}
    for (eh, ehp, eq), coeff in poly.terms():
        expected[eh, ehp, 0] = expected.get((eh, ehp, 0), 0) + Fraction(coeff) * Fraction(qv) ** eq
    result = poly.substitute_q(qv)
    assert dict(result.terms()) == {e: c for e, c in expected.items() if c}
    # integral coefficients come back as int, never Fraction(k, 1)
    for _, coeff in result.terms():
        assert type(coeff) is int or coeff.denominator > 1


def check_ring_axioms(ring, data) -> None:
    # The surface HPoly and OpPoly share through TermRing.
    a, b, c = (data.draw(RING_POLYS[ring]) for _ in range(3))
    k = data.draw(coeffs)
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + 0 == a
    assert a * 1 == a
    assert a - a == 0
    assert -(a - b) == b - a
    assert a**2 == a * a
    # equal polynomials built differently hash alike
    assert hash((a + b) - b) == hash(a)
    assert hash(a * b) == hash(b * a)
    # a scalar operand acts as the constant polynomial
    assert a + k == k + a == a + ring.const(k)
    assert a - k == a - ring.const(k) and k - a == ring.const(k) - a
    assert a * k == k * a == a * ring.const(k)
    assert (ring.const(k) == k) and (ring.const(k) == ring.const(k) + 0)
    assert repr(a) == f"{ring.__name__}({a})"
    assert ring.from_json_terms(a.to_json_terms()) == a


@given(data=st.data())
def test_ring_axioms(data) -> None:
    check_ring_axioms(HPoly, data)


@given(data=st.data())
def test_op_ring_axioms(data) -> None:
    check_ring_axioms(OpPoly, data)


@given(polys, polys, st.integers(min_value=-3, max_value=3))
def test_shift_hprime_is_ring_map(a: HPoly, b: HPoly, delta: int) -> None:
    assert (a + b).shift_hprime(delta) == a.shift_hprime(delta) + b.shift_hprime(delta)
    assert (a * b).shift_hprime(delta) == a.shift_hprime(delta) * b.shift_hprime(delta)
    assert a.shift_hprime(delta).shift_hprime(-delta) == a


@given(
    polys,
    polys,
    st.fractions(min_value=-9, max_value=9, max_denominator=4),
    st.fractions(min_value=-9, max_value=9, max_denominator=4),
    st.fractions(min_value=-9, max_value=9, max_denominator=4),
)
def test_eval_point_is_ring_map(a: HPoly, b: HPoly, hv: Fraction, hpv: Fraction, qv: Fraction) -> None:
    assert (a + b).eval_point(hv, hpv, qv) == a.eval_point(hv, hpv, qv) + b.eval_point(hv, hpv, qv)
    assert (a * b).eval_point(hv, hpv, qv) == a.eval_point(hv, hpv, qv) * b.eval_point(hv, hpv, qv)


@given(polys, st.integers(min_value=0, max_value=4))
def test_pow_matches_repeated_product(a: HPoly, n: int) -> None:
    expected = HPoly.one()
    for _ in range(n):
        expected = expected * a
    assert a**n == expected


@given(polys)
def test_json_round_trip_property(a: HPoly) -> None:
    assert HPoly.from_json_terms(a.to_json_terms()) == a


def test_from_hp_lanes() -> None:
    got = HPoly.from_hp_lanes([(1, 2, [0, 3, 0, -4]), (0, 0, (4,)), (5, 0, [])], den=2)
    assert got == HPoly.from_terms(
        [((1, 1, 2), Fraction(3, 2)), ((1, 3, 2), -2), ((0, 0, 0), 2)]
    )
    assert [type(c) for _, c in got.terms()] == [int, Fraction, int]
    assert HPoly.from_hp_lanes([]) == 0
    with pytest.raises(ValueError):
        HPoly.from_hp_lanes([(-1, 0, [1])])
    with pytest.raises(OverflowError):
        HPoly.from_hp_lanes([(2**21, 0, [1])])
