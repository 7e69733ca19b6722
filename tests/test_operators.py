from __future__ import annotations

import sys
from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import hfib
from hfib import algebra, fibonacci, genfun, operators
from hfib.algebra import H, HP, HPoly, d_image, shifted_factorial
from hfib.fibonacci import classical_fib, hfib_diagonal
from hfib.operators import (
    D,
    OpMatrix2,
    OpPoly,
    SqrtExt,
    annihilator,
    binet_fib,
    fib_op,
    lambda_minus,
    lambda_plus,
    neg_fib_op,
    op_eval,
    op_value,
    qh_matrix,
    qh_powers,
    verify_addition,
    verify_catalan,
    verify_docagne,
    verify_inverse_powers,
    verify_operators,
    verify_power_sums,
)
from hfib.report import IdentityReport
from oracles import oracle_annihilator

op_polys = st.dictionaries(
    st.integers(min_value=0, max_value=6),
    st.one_of(
        st.integers(min_value=-30, max_value=30),
        st.fractions(min_value=-9, max_value=9, max_denominator=5),
    ),
    max_size=5,
).map(OpPoly.from_coeffs)


def test_op_poly_basics() -> None:
    assert OpPoly.zero().is_zero
    assert OpPoly.one() == 1
    assert D.degree == 1
    assert (1 + 3 * D + D**2).coeff(1) == 3
    assert str(1 + 3 * D + D**2) == "1 + 3*D + D^2"
    assert str(OpPoly.zero()) == "0"
    assert (D - D).degree == 0


def test_op_poly_json_round_trip() -> None:
    p = 1 - D * Fraction(2, 3) + D**4
    assert OpPoly.from_json_terms(p.to_json_terms()) == p
    (first, *_) = p.to_json_terms()
    assert first == {"coeff": "1"}
    for bad in (2.5, 2.0, "2"):
        with pytest.raises(TypeError):
            OpPoly.from_json_terms([{"coeff": "1", "d": bad}])
        with pytest.raises(TypeError):
            HPoly.from_json_terms([{"coeff": "1", "h": bad}])
    with pytest.raises(ValueError):
        OpPoly.from_json_terms([{"coeff": "1", "d": -1}])


def test_fib_op_values() -> None:
    assert fib_op(0) == 0
    assert fib_op(1) == 1
    assert fib_op(2) == 1
    assert fib_op(3) == 1 + D
    assert fib_op(4) == 1 + 2 * D
    assert fib_op(5) == 1 + 3 * D + D**2
    with pytest.raises(ValueError):
        fib_op(-2)


@given(st.integers(min_value=1, max_value=40))
def test_fib_op_recurrence(n: int) -> None:
    assert fib_op(n + 1) == fib_op(n) + D * fib_op(n - 1)


@given(st.integers(min_value=0, max_value=30))
def test_op_eval_gives_deformed_fib(n: int) -> None:
    assert op_eval(fib_op(n)) == hfib_diagonal(n)


def test_op_eval_substitution() -> None:
    assert op_eval(OpPoly.one()) == 1
    assert op_eval(D) == H * HP
    assert op_eval(D**2) == H**2 * HP * (HP + 1)
    assert op_eval(3 * D - 1) == 3 * H * HP - 1


def _image_term_by_term(x: OpPoly) -> HPoly:
    # the earlier definition of op_eval, kept as its reference: c_k * d_image(k), term by term
    acc = HPoly.zero()
    for exp, coeff in x.terms():
        acc = acc + coeff * d_image(exp)
    return acc


@given(op_polys)
@example(OpPoly.zero())
@example(Fraction(1, 3) * D**4 - Fraction(5, 6) * D + 7)
@example(Fraction(3, 7) * fib_op(40) - D**25)
def test_op_eval_is_the_sum_of_d_images(x: OpPoly) -> None:
    assert op_eval(x) == _image_term_by_term(x)


@given(op_polys, st.integers(min_value=0, max_value=5))
def test_composition_rule(x: OpPoly, n: int) -> None:
    # evaluating D^n * X factors through a shifted evaluation of X
    lhs = op_eval(D**n * x)
    weight = H**n * shifted_factorial(HP, 1, n)
    rhs = weight * op_eval(x).shift_hprime(n)
    assert lhs == rhs


@given(op_polys, op_polys)
def test_op_eval_is_additive_not_multiplicative(x: OpPoly, y: OpPoly) -> None:
    assert op_eval(x + y) == op_eval(x) + op_eval(y)


points = st.one_of(
    st.integers(min_value=-9, max_value=9),
    st.fractions(min_value=-9, max_value=9, max_denominator=12),
)


@given(op_polys, points, points)
@example(OpPoly.zero(), Fraction(2, 3), Fraction(-1, 2))
@example(1 + 3 * D + D**2, 0, Fraction(5, 7))
@example(Fraction(1, 3) * D**4 - D, Fraction(-7, 3), 0)
@example(D**6 + Fraction(5, 2), -2, Fraction(-11, 4))
def test_op_value_is_the_evaluated_image(x: OpPoly, h, hp) -> None:
    value = op_value(x, h, hp)
    assert type(value) is Fraction
    assert value == op_eval(x).eval_point(h, hp)


def test_op_eval_multiplicativity_fails_in_general() -> None:
    # the image of D*D is not the square of the image of D
    assert op_eval(D * D) != op_eval(D) * op_eval(D)


def test_matrix_generator_and_powers() -> None:
    q = qh_matrix()
    assert q.det() == -D
    q1, q2 = qh_powers(2)
    assert q1 == q
    assert (q2.a11, q2.a12, q2.a21, q2.a22) == (1 + D, OpPoly.one(), D, D)


def test_qh_powers_equal_the_binary_powers() -> None:
    # the walk Q^(n+1) = Q^n Q against OpMatrix2.__pow__
    q = qh_matrix()
    assert list(qh_powers(130)) == [q**n for n in range(1, 131)]


@pytest.mark.parametrize("order", [range(1, 131), range(130, 0, -1)], ids=["ascending", "descending"])
def test_qh_power_equals_the_binary_power(order) -> None:
    # the last power of each walk against OpMatrix2.__pow__, from cold caches,
    # so no call leans on what an earlier, longer or shorter, call left behind
    hfib.clear_caches()
    q = qh_matrix()
    for n in order:
        assert list(qh_powers(n))[-1] == q**n


def test_qh_powers_of_none_is_empty() -> None:
    assert list(qh_powers(0)) == []


def test_qh_powers_is_a_lazy_walk() -> None:
    # the first power comes at once, however many the walk is asked for
    assert next(qh_powers(10**9)) == qh_matrix()


@pytest.mark.parametrize("n_max", [-1, 5.0, "5", None])
def test_qh_powers_refuses_a_non_integer_or_negative_count(n_max) -> None:
    # at the call, before any power is asked for
    with pytest.raises(ValueError, match="n_max"):
        qh_powers(n_max)


def test_qh_powers_runs_without_recursion() -> None:
    # a recursion of one frame per power would need 300 frames more than this allows
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 60)
    try:
        powers = list(qh_powers(300))
    finally:
        sys.setrecursionlimit(limit)
    assert len(powers) == 300 and powers[-1].a12 == fib_op(300)


@given(st.integers(min_value=1, max_value=15))
def test_matrix_power_entries_are_fib_ops(n: int) -> None:
    m = list(qh_powers(n))[-1]
    assert m.a11 == fib_op(n + 1)
    assert m.a12 == fib_op(n)
    assert m.a21 == D * fib_op(n)
    assert m.a22 == D * fib_op(n - 1)


@given(st.integers(min_value=1, max_value=12))
def test_matrix_determinant_power(n: int) -> None:
    assert list(qh_powers(n))[-1].det() == (-D) ** n


@given(op_polys, op_polys, op_polys, op_polys)
def test_matrix_square_equals_the_eight_product_form(a, b, c, d) -> None:
    m = OpMatrix2(a, b, c, d)
    eight = OpMatrix2(a * a + b * c, a * b + b * d, c * a + d * c, c * b + d * d)
    assert m * m == eight
    assert m**2 == eight
    assert m * OpMatrix2(a, b, c, d) == eight


def test_matrix_identity_and_pow_guard() -> None:
    ident = OpMatrix2.identity()
    assert qh_matrix() * ident == qh_matrix()
    assert qh_matrix() ** 0 == ident
    with pytest.raises(ValueError):
        qh_matrix() ** -1


def test_sqrt_ext_symmetric_functions() -> None:
    lp, lm = lambda_plus(), lambda_minus()
    total = lp + lm
    assert total.even == 1 and total.odd == 0
    prod = lp * lm
    assert prod.even == -D and prod.odd == 0
    diff = lp - lm
    assert diff.even == 0 and diff.odd == 1


def test_sqrt_ext_squares() -> None:
    # s^2 = 1 + 4D folds back into the even part
    s = SqrtExt(OpPoly.zero(), OpPoly.one())
    sq = s * s
    assert sq.even == 1 + 4 * D and sq.odd == 0
    lp = lambda_plus()
    assert lp * lp == lp**2


@given(st.integers(min_value=0, max_value=25))
@example(120)
@example(240)
@example(1000)
def test_binet_route(n: int) -> None:
    assert binet_fib(n) == fib_op(n)


def test_binet_route_reads_no_other_route(monkeypatch) -> None:
    # an independent route: no other F_n builder, no D-image and no power in Z[D][s]
    expected = {n: fib_op(n) for n in (0, 1, 2, 7, 60, 301)}

    def refuse(*args, **kwargs):
        raise AssertionError("the Binet route read another route")

    monkeypatch.setattr(operators, "fib_op", refuse)
    monkeypatch.setattr(fibonacci, "recurrence_op", refuse)
    monkeypatch.setattr(fibonacci, "hypergeometric_op", refuse)
    monkeypatch.setattr(algebra, "d_image", refuse)
    monkeypatch.setattr(operators, "d_image", refuse)
    monkeypatch.setattr(SqrtExt, "__pow__", refuse)
    for n, value in expected.items():
        assert binet_fib(n) == value, n


def test_binet_coefficients_are_int() -> None:
    # integral coefficients are stored as int, never as Fraction(k, 1)
    for n in range(61):
        assert all(type(c) is int for _, c in binet_fib(n).terms()), n


def _annihilates(coeffs: tuple[OpPoly, ...], seq, count: int) -> bool:
    """sum_i coeffs[i] * seq(n + i) vanishes for n = 0, 1, ..., count - 1."""
    return all(
        sum((c * seq(n + i) for i, c in enumerate(coeffs)), OpPoly.zero()) == 0
        for n in range(count)
    )


@pytest.mark.parametrize("k", range(5))
def test_annihilator_annihilates_powers(k: int) -> None:
    # every index read stays below 25
    coeffs = annihilator(k)
    assert len(coeffs) == k + 2
    assert _annihilates(coeffs, lambda n: fib_op(n) ** k, 25 - (k + 1))


def test_annihilator_step_2_annihilates_both_sections() -> None:
    coeffs = annihilator(1, 2)
    assert _annihilates(coeffs, lambda n: fib_op(2 * n), 12)
    assert _annihilates(coeffs, lambda n: fib_op(2 * n + 1), 11)


def test_annihilator_reversed_is_the_printed_denominator() -> None:
    one = OpPoly.one()
    assert annihilator(1)[::-1] == (one, -1 * one, -1 * D)
    assert annihilator(1, 2)[::-1] == (one, -1 - 2 * D, D**2)
    assert annihilator(2)[::-1] == (one, -1 - D, -1 * D - D**2, D**3)
    assert annihilator(3)[::-1] == (
        one,
        -1 - 2 * D,
        -1 * D - 3 * D**2 - 2 * D**3,
        D**3 + 2 * D**4,
        D**6,
    )
    assert all(type(c) is int for poly in annihilator(4) for _, c in poly.terms())


@pytest.mark.parametrize("k, step", [(-1, 1), (2, 0), (1, -1)])
def test_annihilator_refuses_bad_arguments(k: int, step: int) -> None:
    with pytest.raises(ValueError):
        annihilator(k, step)


def test_annihilator_refuses_a_non_integer() -> None:
    # refused on purpose, before the range test, not from inside fib_op
    for args in ((2.0, 1), (2, 1.0), (-1.0, 1)):
        with pytest.raises(TypeError, match="integers"):
            annihilator(*args)


@pytest.mark.parametrize("step", range(1, 7))
def test_annihilator_matches_the_product_form(step: int) -> None:
    # the Fibonomial rule in Z[D] against the product in Z[D][s] on plain term maps
    for k in range(11):
        assert [dict(c.terms()) for c in annihilator(k, step)] == oracle_annihilator(k, step), k


def test_annihilator_reads_no_quadratic_extension(monkeypatch) -> None:
    def refuse(*args, **kwargs):
        raise AssertionError("the annihilator computed in Z[D][s]")

    hfib.clear_caches()
    monkeypatch.setattr(SqrtExt, "__mul__", refuse)
    monkeypatch.setattr(SqrtExt, "__pow__", refuse)
    for k in range(5):
        for step in range(1, 4):
            assert [dict(c.terms()) for c in annihilator(k, step)] == oracle_annihilator(k, step)


def test_neg_fib_op_values() -> None:
    assert neg_fib_op(0) == 0
    assert neg_fib_op(1) == fib_op(1)
    assert neg_fib_op(2) == -fib_op(2)
    assert neg_fib_op(3) == fib_op(3)
    # beyond the recursion limit; g_n at D = 1 is F_(-n) = (-1)^(n+1) F_n
    assert sum(coeff for _, coeff in neg_fib_op(1500).terms()) == -classical_fib(1500)
    with pytest.raises(ValueError):
        neg_fib_op(-1)


@given(st.integers(min_value=2, max_value=20))
def test_neg_index_recurrence(n: int) -> None:
    assert neg_fib_op(n) == -neg_fib_op(n - 1) + D * neg_fib_op(n - 2)


def test_cassini_spot() -> None:
    # F_4 F_6 - F_5^2 = (-D)^... : check the n = 5 instance directly
    lhs = fib_op(4) * fib_op(6) - fib_op(5) * fib_op(5)
    assert lhs == -(D**4)


def _explicit_power_sum(k: int, n: int, form: str) -> OpPoly:
    """The power sum summed term by term, each power built apart: the oracle for Horner's rule."""
    total = OpPoly.zero()
    for i in range(n + 1):
        weight = comb(n, i) * fib_op(k) ** i * fib_op(i)
        if form == "F_(k-1) weights":
            total = total + D ** (n - i) * fib_op(k - 1) ** (n - i) * weight
        else:
            total = total + (-1) ** (i + 1) * fib_op(k + 1) ** (n - i) * weight
    return total


def _record_checks(monkeypatch, widths: list | None = None) -> list:
    """The (params, lhs, rhs) of every case checked from here on, in order, each side in Q[D].

    A grid suite, or gf-expansions, hands a passing case to the report as
    two images at 2^B, or two OpMatrix2s of images; each is decoded at the
    lane bits B of its call, which is also appended to `widths` when given.
    """
    seen, widths = [], [] if widths is None else widths
    check = IdentityReport.check
    image_width = operators._image_width

    def recording_width(bound: int) -> int:
        widths.append(image_width(bound))
        return widths[-1]

    def decoded(side):
        operator = isinstance(side, OpPoly) or isinstance(side, OpMatrix2) and isinstance(side.a11, OpPoly)
        return side if operator else operators._decode(side, widths[-1])

    def recording(self, params, lhs, rhs):
        seen.append((params, decoded(lhs), decoded(rhs)))
        return check(self, params, lhs, rhs)

    monkeypatch.setattr(operators, "_image_width", recording_width)
    monkeypatch.setattr(genfun, "_image_width", recording_width)
    monkeypatch.setattr(IdentityReport, "check", recording)
    return seen


def test_verify_power_sums_cases(monkeypatch) -> None:
    # every left side, taken by Horner's rule, equals the explicit sum
    seen = _record_checks(monkeypatch)
    report = verify_power_sums(8, 8)
    assert report.cases == len(seen) == 2 * 8 * 8
    assert not report.failures
    for params, lhs, _ in seen:
        assert lhs == _explicit_power_sum(params["k"], params["n"], params["form"]), params


# op-ring's calls and the cases of each report, as its benchmark workload pins them
_OP_RING_CALLS = (
    (verify_power_sums, (12, 12), {"op-power-sums": 288}),
    (verify_catalan, (40,), {"op-catalan": 820}),
    (verify_docagne, (40,), {"op-docagne": 1600}),
    (operators.verify_cassini, (60,), {"op-cassini": 120}),
    (verify_addition, (30, 30), {"op-addition": 3600}),
    (verify_inverse_powers, (40,), {"op-inverse-powers": 120}),
    (operators.verify_binet, (60,), {"op-binet": 61}),
    (genfun.verify_genfun, (40,), {"op-symmetric-lemmas": 16, "gf-expansions": 480}),
)


@pytest.mark.parametrize("suite, args, cases", _OP_RING_CALLS, ids=lambda x: getattr(x, "__name__", None))
def test_op_ring_sizes_keep_their_cases_and_pass(suite, args, cases) -> None:
    result = suite(*args)
    reports = result if isinstance(result, list) else [result]
    assert {r.suite: r.cases for r in reports} == cases
    assert [r.failures for r in reports] == [[]] * len(reports)


def test_verify_operators_default_cases() -> None:
    reports = verify_operators()
    assert {r.suite: r.cases for r in reports} == {
        "op-matrix-powers": 50,
        "op-cassini": 40,
        "op-addition": 576,
        "op-cayley-hamilton": 16,
        "op-inverse-powers": 36,
        "op-power-sums": 72,
        "op-catalan": 120,
        "op-docagne": 225,
        "op-negative-index": 21,
        "op-doubling": 20,
        "op-alternating": 20,
        "op-binet": 26,
        "op-symmetric-lemmas": 16,
    }
    assert all(r.passed for r in reports)


def test_verify_operators_all_pass() -> None:
    for report in verify_operators(8):
        assert report.passed, report.to_dict()


@pytest.mark.parametrize(
    "suite, args, failures, cases",
    [
        (verify_addition, (12, 12), 188, 576),
        (verify_catalan, (15,), 24, 120),
        (verify_docagne, (15,), 60, 225),
        (verify_power_sums, (6, 6), 5, 72),
        (verify_power_sums, (8, 3), 9, 48),
        (verify_inverse_powers, (12,), 8, 36),
    ],
)
def test_grid_suites_detect_a_wrong_fib_op(suite, args, failures, cases, monkeypatch) -> None:
    # F_7 off by one: the failures pinned here are the ones each suite reported
    # before its products were hoisted, so a hoisted product that went stale or
    # served both sides of a check would change them.
    exact = operators.fib_op
    monkeypatch.setattr(operators, "fib_op", lambda n: exact(n) + 1 if n == 7 else exact(n))
    report = suite(*args)
    assert (len(report.failures), report.cases) == (failures, cases)


@pytest.mark.parametrize(
    "suite, args, products",
    [
        (verify_addition, (12, 12), 121),
        (verify_addition, (5, 9), 32),
        (verify_addition, (9, 5), 32),
        (verify_docagne, (15,), 196),
        (verify_docagne, (10,), 81),
        (verify_catalan, (15,), 91),
        (operators.verify_cassini, (20,), 35 + 17 + 18),
        (verify_power_sums, (6, 6), 0),
        (verify_inverse_powers, (12,), 0),
    ],
)
def test_grid_suites_compute_each_product_once(suite, args, products, monkeypatch) -> None:
    # each input is imaged once per call, and no term map is multiplied but by a
    # one-term D-shift.  Two consecutive powers share two entries (a12 of Q^(n+1)
    # is a11 of Q^n, a22 of Q^(n+1) is a21 of Q^n), so the suites that read
    # Q^1..Q^N image 2 (N - 1) entries once for each power that holds them, so
    # that a fault in one power's shared entry is not hidden by the power before.
    # Of the image products, one F_a F_b per ordered pair with 3 <= a and 3 <= b:
    # a <= m_max + 1 and b <= n_max + 1 for addition, a, b <= bound + 1 for
    # d'Ocagne; single-term factors such as F_1 and F_2 are not counted.  Cassini's
    # determinant form adds a d for 4 <= n and b c for 3 <= n, where both factors
    # of F_(n+1) D F_(n-1) and of F_n D F_n have two or more terms.  The power sums
    # multiply images by powers and sums of images, and the inverse powers by
    # signed shifts of them, so they count none.
    imaged, count = [], 0
    images, kmul = operators._images, algebra.kmul

    class Image(int):
        def __mul__(self, other):
            nonlocal count
            if isinstance(other, OpMatrix2):
                return NotImplemented  # the matrix scales its entries by this image
            count += self.terms >= 2 and getattr(other, "terms", 0) >= 2
            return int(self) * int(other)

        __rmul__ = __mul__

    def counting_images(xs, width: int) -> list[int]:
        xs = list(xs)
        imaged.extend(xs)
        out = []
        for x, image in zip(xs, images(xs, width)):
            out.append(Image(image))
            out[-1].terms = len(x)
        return out

    def refusing(a: dict, b: dict) -> dict:
        assert min(len(a), len(b)) <= 1, "a grid suite multiplied term maps"
        return kmul(a, b)

    monkeypatch.setattr(operators, "_images", counting_images)
    monkeypatch.setattr(algebra, "kmul", refusing)
    assert suite(*args).passed
    shared = 2 * (args[0] - 1) if suite in (operators.verify_cassini, verify_inverse_powers) else 0
    assert imaged and len(imaged) - len({id(x) for x in imaged}) == shared
    assert count == products


def _docagne_cases(m: int, n: int, fib) -> list[tuple[dict, OpPoly, OpPoly]]:
    lhs = fib(m) * fib(n + 1) - fib(m + 1) * fib(n)
    if m >= n:
        return [({"branch": "m >= n"}, lhs, (-D) ** n * fib(m - n))]
    return [({"branch": "m < n"}, lhs, (-D) ** m * (-1) ** (n - m) * neg_fib_op(n - m))]


# form -> (a, b, c, d): the sum F_(m+a) F_(n+b) + D F_(m+c) F_(n+d)
_ADDITION_FORMS = {
    "m+n+1": (1, 1, 0, 0),
    "m+n, split right": (1, 0, 0, -1),
    "m+n, split left": (0, 1, -1, 0),
    "m+n-1": (0, 0, -1, -1),
}


def _addition_cases(m: int, n: int, fib) -> list[tuple[dict, OpPoly, OpPoly]]:
    return [
        ({"form": form}, fib(m + n + a + b - 1), fib(m + a) * fib(n + b) + D * fib(m + c) * fib(n + d))
        for form, (a, b, c, d) in _ADDITION_FORMS.items()
    ]


@pytest.mark.parametrize(
    "suite, args, grid, cases",
    [
        (verify_docagne, (15,), (15, 15), _docagne_cases),
        (verify_addition, (12, 12), (12, 12), _addition_cases),
        (verify_addition, (5, 9), (5, 9), _addition_cases),
        (verify_addition, (9, 5), (9, 5), _addition_cases),
    ],
)
def test_grid_suites_check_each_case_once(suite, args, grid, cases, monkeypatch) -> None:
    # each case is checked once, in (m, n, form) order, under its own label and
    # with its own two sides: F_7 is off by D, so a sum read for the wrong index
    # order or split shows even where both splits give F_(m+n)
    exact = operators.fib_op

    def wrong(n: int) -> OpPoly:
        return exact(n) + D if n == 7 else exact(n)

    monkeypatch.setattr(operators, "fib_op", wrong)
    seen = _record_checks(monkeypatch)
    report = suite(*args)
    # each witness prints both sides as polynomials, decoded from their images
    witnesses = [(params, str(lhs), str(rhs)) for params, lhs, rhs in seen if lhs != rhs]
    assert [(f.params, f.lhs, f.rhs) for f in report.failures] == witnesses
    expected = [
        ({"m": m, "n": n, **label}, lhs, rhs)
        for m in range(1, grid[0] + 1)
        for n in range(1, grid[1] + 1)
        for label, lhs, rhs in cases(m, n, wrong)
    ]
    assert seen == expected


@pytest.mark.parametrize(
    "suite, args, cases",
    [
        (verify_addition, (1, 1), 4),
        (verify_addition, (3, 7), 84),
        (verify_addition, (7, 3), 84),
        (verify_docagne, (1,), 1),
        (verify_docagne, (2,), 4),
        (verify_catalan, (1,), 1),
        (verify_power_sums, (1, 1), 2),
        (verify_power_sums, (3, 5), 30),
        (verify_inverse_powers, (1,), 3),
    ],
)
def test_grid_suites_at_small_and_non_square_sizes(suite, args, cases) -> None:
    report = suite(*args)
    assert report.cases == cases
    assert report.passed, report.to_dict()


int_op_polys = st.dictionaries(
    st.integers(min_value=0, max_value=12),
    st.one_of(st.integers(min_value=-99, max_value=99), st.integers(min_value=-(2**70), max_value=2**70)),
    max_size=10,
).map(OpPoly.from_coeffs)


def _l1(x: OpPoly) -> int:
    return sum(abs(c) for _, c in x.terms())


@given(int_op_polys, int_op_polys, st.integers(min_value=0, max_value=6), st.sampled_from((0, 1, 72)))
@example(OpPoly.zero(), OpPoly.zero(), 0, 0)
@example(-1 - D, 1 + D, 3, 0)  # 4-bit lanes, every lane of a + b cancels
@example(-64 * D**5, OpPoly.zero(), 1, 0)  # a negative top lane, in 8-bit lanes
@example(fib_op(40), fib_op(41) - D**12, 2, 0)
def test_images_decode_to_the_ring_operations(a: OpPoly, b: OpPoly, j: int, extra: int) -> None:
    # evaluation at 2^B is a ring map, one-to-one below 2^(B-1): with every result's
    # coefficients that small, the images of a b, a + b, a - b and D^j a decode to them,
    # at the fewest lane bits and at `extra` bits more
    width = operators._image_width(max(_l1(a) * _l1(b), _l1(a) + _l1(b))) + extra
    x, y = operators._images((a, b), width)
    for image, expected in ((x * y, a * b), (x + y, a + b), (x - y, a - b), (x << width * j, D**j * a)):
        assert operators._decode(image, width) == expected


@given(st.lists(int_op_polys, min_size=8, max_size=8), st.sampled_from((0, 1, 72)))
@example([OpPoly.zero()] * 8, 0)
@example([*qh_matrix() ** 9, *qh_matrix() ** 4], 0)
@example([-(2**70) * D**3, *[OpPoly.one()] * 6, 2**70 * D], 0)  # a negative top lane
def test_image_matrices_decode_to_the_matrix_operations(entries: list, extra: int) -> None:
    # OpMatrix2's product, det, scalar * and - take only +, - and * on entries, so on
    # matrices of images they are the images of the term-map results: each decodes,
    # entry by entry, at the fewest lane bits that bound them and at `extra` bits more
    x, y = OpMatrix2(*entries[:4]), OpMatrix2(*entries[4:])
    most = max(map(_l1, entries))
    width = operators._image_width(2 * most * most) + extra
    u, v = (OpMatrix2(*operators._images(m, width)) for m in (x, y))
    assert operators._decode(u * v, width) == x * y
    assert operators._decode(u.det(), width) == x.det()
    assert operators._decode(u - v, width) == x - y
    assert operators._decode((1 << width) * u, width) == D * x
    assert operators._decode(v * -1, width) == -1 * y


def test_images_refuse_a_fraction(monkeypatch) -> None:
    # the proof covers Z[D] only: a Fraction coefficient is refused, never taken on term maps
    for width in (1, 64, 65):  # the narrowest lane, and lanes on either side of 64 bits
        with pytest.raises(TypeError):
            operators._images([D, Fraction(1, 2) * D], width)
    exact = operators.fib_op
    monkeypatch.setattr(operators, "fib_op", lambda n: Fraction(1, 3) * exact(n) if n == 7 else exact(n))
    for suite, args in ((verify_catalan, (8,)), (verify_docagne, (8,)), (verify_addition, (4, 4))):
        with pytest.raises(TypeError):
            suite(*args)


# gf name -> the target of its k-th coefficient, on term maps; "shifted" reads m too
_GF_TARGETS = {
    "fib": lambda k, m: fib_op(k),
    "even": lambda k, m: fib_op(2 * k),
    "odd": lambda k, m: fib_op(2 * k + 1),
    "square": lambda k, m: fib_op(k) ** 2,
    "product": lambda k, m: fib_op(k) * fib_op(k + 1),
    "product-shift": lambda k, m: fib_op(k + 1) * fib_op(k + 2),
    "cube": lambda k, m: fib_op(k) ** 3,
    "shifted": lambda k, m: fib_op(m + k),
}


def _reference_sides(suite: str, params: dict) -> tuple:
    """Both sides of one image-checked case, built in Q[D] by the term-map kernels, with no image."""
    fib = fib_op
    if suite == "gf-expansions":
        name, k, m = params["gf"], params["k"], params.get("m")
        ratfun = genfun.gf_shifted(m) if name == "shifted" else genfun.build_gf(name)
        return genfun.series_expand(ratfun, k + 1).coefficient(k), _GF_TARGETS[name](k, m)
    if suite == "op-cassini":
        n = params["n"]
        if "form" in params:
            return (qh_matrix() ** n).det(), (-D) ** n
        return fib(n + 1) * fib(n - 1) - fib(n) * fib(n), -((-D) ** (n - 1))
    if suite == "op-catalan":
        n, m = params["n"], params["m"]
        return fib(n - m) * fib(n + m) - fib(n) * fib(n), (-1) ** (n + 1 - m) * D ** (n - m) * fib(m) ** 2
    if suite == "op-power-sums":
        k, n = params["k"], params["n"]
        return _explicit_power_sum(k, n, params["form"]), fib(k * n)
    if suite == "op-inverse-powers":
        n = params["n"]
        power, zero = qh_matrix() ** n, OpPoly.zero()
        signed = (-1) ** n * OpMatrix2(D * fib(n - 1), -1 * fib(n), -1 * D * fib(n), fib(n + 1))
        target = OpMatrix2(D**n, zero, zero, D**n)
        if params.get("side") == "right":
            return power * signed, target
        if params.get("side") == "left":
            return signed * power, target
        combo = (-1) ** (n + 1) * (fib(n) * qh_matrix() - fib(n + 1) * OpMatrix2.identity())
        return combo * power, target
    cases = _docagne_cases if suite == "op-docagne" else _addition_cases
    label = {key: value for key, value in params.items() if key not in ("m", "n")}
    ((_, lhs, rhs),) = [case for case in cases(params["m"], params["n"], fib) if case[0] == label]
    return lhs, rhs


def _l1_sides(*sides) -> int:
    return sum(_l1(x) for side in sides for x in (side if isinstance(side, OpMatrix2) else (side,)))


@pytest.mark.parametrize(
    "suite, args, cases", (*_OP_RING_CALLS[:6], _OP_RING_CALLS[7]), ids=lambda x: getattr(x, "__name__", None)
)
def test_image_width_bounds_every_case_at_op_ring_sizes(suite, args, cases, monkeypatch) -> None:
    # ||lhs||_1 + ||rhs||_1 < 2^(B-1) for every case, with both sides built without images;
    # so equal images prove each case, and each decoded side is that side
    widths = []
    seen = _record_checks(monkeypatch, widths)
    result = suite(*args)
    reports = result if isinstance(result, list) else [result]
    (width,) = widths
    assert all(r.passed for r in reports) and len(seen) == sum(cases.values())
    # gf's root lemmas take no image; its expansions are the last report
    imaged = reports[-1].suite
    for params, lhs, rhs in seen:
        if "lemma" in params:
            continue
        expected = _reference_sides(imaged, params)
        assert (lhs, rhs) == expected, params
        assert _l1_sides(*expected) < 2 ** (width - 1), params
