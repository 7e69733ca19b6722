from __future__ import annotations

from fractions import Fraction

import pytest

from hfib import fibonacci, genfun
from hfib.algebra import HPoly
from hfib.fibonacci import classical_fib, hfib_diagonal
from hfib.genfun import (
    GF_NAMES,
    ConvergenceError,
    OpRatFun,
    build_gf,
    gf_shifted,
    series_expand,
    verify_classical_weights,
    verify_genfun,
    weighted_params,
    weighted_series_check,
)
from hfib.operators import D, OpPoly, fib_op


def test_series_expand_fibonacci() -> None:
    series = series_expand(build_gf("fib"), 12)
    for k in range(12):
        assert series.coefficient(k) == fib_op(k)


def test_series_expand_requires_unit_constant() -> None:
    bad = OpRatFun((OpPoly.one(),), (2 * OpPoly.one(),))
    with pytest.raises(ValueError):
        series_expand(bad, 4)
    with pytest.raises(ValueError):
        series_expand(build_gf("fib"), -1)


def test_series_expand_zero_order() -> None:
    assert len(series_expand(build_gf("fib"), 0)) == 0


def test_build_gf_names() -> None:
    assert set(GF_NAMES) == {
        "fib",
        "even",
        "odd",
        "square",
        "product",
        "product-shift",
        "cube",
        "shifted",
    }
    for name in GF_NAMES:
        f = build_gf(name, m=2)
        assert isinstance(f, OpRatFun)
    with pytest.raises(ValueError):
        build_gf("nope")
    with pytest.raises(ValueError):
        gf_shifted(0)


def test_all_expansions_match_targets() -> None:
    for report in verify_genfun(order=12):
        assert report.passed, report.to_dict()


def test_wrong_annihilator_coefficient_fails_verify_genfun(monkeypatch) -> None:
    # the denominators come only from annihilator, so a planted wrong
    # coefficient must show up in the expansions of every closed form
    real = genfun.annihilator

    def planted(k: int, step: int = 1) -> tuple[OpPoly, ...]:
        coeffs = real(k, step)
        return coeffs[:1] + (coeffs[1] + D,) + coeffs[2:]

    monkeypatch.setattr(genfun, "annihilator", planted)
    lemmas, expansions = verify_genfun(12)
    assert lemmas.passed
    assert {f.params["gf"] for f in expansions.failures} == set(GF_NAMES)


def test_square_expansion_spot() -> None:
    series = series_expand(build_gf("square"), 8)
    for k in range(8):
        assert series.coefficient(k) == fib_op(k) ** 2


def test_weighted_check_passes_in_convergent_regime() -> None:
    report = weighted_series_check(2, Fraction(1, 100), Fraction(1, 2), order=80)
    assert report.passed
    assert report.cases == 1
    assert report.pinned_conventions


def test_weighted_check_small_order() -> None:
    # looser tolerance lets a short truncation certify
    report = weighted_series_check(2, Fraction(1, 10), Fraction(1, 2), order=20, tol=Fraction(1, 10**4))
    assert report.passed


def test_weighted_check_rejects_asymptotic_regime() -> None:
    # at h = 1/10 the transformed terms bottom out near 1.5e-9, so a
    # 1e-12 certificate is impossible at any order
    with pytest.raises(ConvergenceError):
        weighted_series_check(2, Fraction(1, 10), Fraction(1, 2), order=80)
    with pytest.raises(ConvergenceError):
        weighted_series_check(2, Fraction(1, 10), Fraction(1, 2), order=120)


def test_weighted_check_domain_errors() -> None:
    with pytest.raises(ValueError):
        weighted_series_check(0, Fraction(1, 100), Fraction(1, 2))
    with pytest.raises(ConvergenceError):
        weighted_series_check(1, Fraction(1, 100), Fraction(1, 2))
    with pytest.raises(ValueError):
        weighted_series_check(2, Fraction(1, 100), Fraction(1, 2), tol=Fraction(0))
    with pytest.raises(ValueError):
        weighted_series_check(2, Fraction(1, 100), Fraction(1, 2), order=-1)


@pytest.mark.parametrize(
    "h, hp, tol",
    [
        (0.01, Fraction(1, 2), Fraction(1, 10**12)),
        (Fraction(1, 100), 0.5, Fraction(1, 10**12)),
        (Fraction(1, 100), Fraction(1, 2), 1e-12),
    ],
    ids=["h", "hp", "tol"],
)
def test_weighted_check_refuses_floats(h, hp, tol) -> None:
    with pytest.raises(TypeError, match="exact rational"):
        weighted_series_check(2, h, hp, tol=tol)


def test_weighted_check_advice_names_failing_side() -> None:
    # too-short truncation: the Fibonacci side is the uncertified one
    with pytest.raises(ConvergenceError, match="increase the order"):
        weighted_series_check(2, Fraction(1, 100), Fraction(1, 2), order=8)
    # asymptotic regime: the transformed side can never certify
    with pytest.raises(ConvergenceError, match="decrease \\|h\\|"):
        weighted_series_check(2, Fraction(1, 10), Fraction(1, 2), order=80)


@pytest.mark.parametrize("order", [80, 200])
def test_weighted_check_advises_a_larger_p_when_fibonacci_terms_grow(order) -> None:
    # at p = -1 the terms F_i/p^(i+1) grow in magnitude, so no order certifies
    # the Fibonacci side while the transformed side (p^2 - p = 2) does
    with pytest.raises(ConvergenceError, match=r"increase \|p\|") as exc:
        weighted_series_check(-1, Fraction(1, 100), Fraction(1, 2), order=order)
    assert "increase the order" not in str(exc.value)


def test_weighted_check_at_order_1_advises_a_larger_order() -> None:
    # F_0 = 0, so the growth test has no previous term to compare with at
    # order 1; there the Fibonacci side misses, and order 2 certifies
    args = (2, Fraction(1, 100), Fraction(1, 2))
    with pytest.raises(ConvergenceError, match="increase the order"):
        weighted_series_check(*args, order=1, tol=Fraction(1, 5))
    assert weighted_series_check(*args, order=2, tol=Fraction(1, 5)).passed


@pytest.mark.parametrize("p", [2, -2, 3])
def test_weighted_check_passes_where_fibonacci_terms_shrink(p) -> None:
    assert weighted_series_check(p).passed


def test_weighted_check_resolves_defaults() -> None:
    assert weighted_params() == (2, Fraction(1, 100), Fraction(1, 2), 80, Fraction(1, 10**12))
    assert weighted_params(3, tol=Fraction(1, 7))[::4] == (3, Fraction(1, 7))


@pytest.mark.parametrize("order", [3, 5])
def test_weighted_check_advises_a_larger_order_while_terms_shrink(order) -> None:
    # at h = 1/100 the transformed side misses at a short order, but its terms
    # still shrink (|h (hp + order - 1)| < p^2 - p) and order 40 certifies
    with pytest.raises(ConvergenceError, match="increase the order"):
        weighted_series_check(2, Fraction(1, 100), Fraction(1, 2), order=order)
    assert weighted_series_check(2, Fraction(1, 100), Fraction(1, 2), order=40).passed


def test_weighted_agreement_is_tight() -> None:
    # both sides are near sum_i F_i(h, hp) / p^(i+1); recompute the left
    # sum here and pin the certified gap well below the tolerance
    p, hv, hpv, order = 2, Fraction(1, 100), Fraction(1, 2), 80
    lhs = sum(
        (hfib_diagonal(i).eval_point(hv, hpv) / Fraction(p) ** (i + 1) for i in range(order + 1)),
        Fraction(0),
    )
    rising = Fraction(1)
    rhs = Fraction(0)
    base = Fraction(p * p - p)
    for j in range(order + 1):
        rhs += hv**j * rising / base ** (j + 1)
        rising *= hpv + j
    assert abs(lhs - rhs) < Fraction(1, 10**20)


@pytest.mark.parametrize(
    "p, hv, hpv, order, tol",
    [
        (2, Fraction(1, 10), Fraction(7, 3), 20, Fraction(1, 10**4)),
        (2, Fraction(1, 5), Fraction(-3, 2), 8, Fraction(1, 1000)),
    ],
)
def test_weighted_failure_shows_the_exact_sums(p, hv, hpv, order, tol) -> None:
    # tails below tol but a gap above it: the failure carries both exact sums
    report = weighted_series_check(p, hv, hpv, order, tol)
    (failure,) = report.failures
    lhs = sum(
        (hfib_diagonal(i).eval_point(hv, hpv) / Fraction(p) ** (i + 1) for i in range(order + 1)),
        Fraction(0),
    )
    rhs = Fraction(0)
    for j in range(order + 1):
        rising = Fraction(1)
        for i in range(j):
            rising *= hpv + i
        rhs += hv**j * rising / Fraction(p * p - p) ** (j + 1)
    assert (failure.lhs, failure.rhs) == (str(lhs), str(rhs))
    assert failure.params == {"p": p, "h": str(hv), "hp": str(hpv), "order": order}


def test_classical_weight_identities() -> None:
    report = verify_classical_weights()
    assert report.passed
    assert report.cases == 4
    assert 2 == classical_fib(1) + 1
    assert 56 == classical_fib(10) + 1


@pytest.mark.parametrize(
    "p, hv, hpv, order",
    [
        (2, Fraction(0), Fraction(1, 2), 40),
        (2, Fraction(1, 100), Fraction(0), 40),
        (2, Fraction(-3, 7), Fraction(5, 3), 30),
        (-2, Fraction(1, 100), Fraction(1, 2), 40),
        (3, Fraction(1, 10), Fraction(-7, 4), 40),
        (2, Fraction(1, 100), Fraction(1, 2), 0),
        (2, Fraction(1, 100), Fraction(1, 2), 1),
        (Fraction(-7, 2), Fraction(2, 9), Fraction(-5, 4), 25),
    ],
)
def test_weighted_fibonacci_side_equals_the_evaluated_sum(p, hv, hpv, order) -> None:
    terms = [
        hfib_diagonal(i).eval_point(hv, hpv) / Fraction(p) ** (i + 1) for i in range(order + 1)
    ]
    previous = terms[-2] if order else Fraction(0)
    assert genfun._fib_side(Fraction(p), hv, hpv, order) == (sum(terms), previous, terms[-1])


@pytest.mark.parametrize("order", [None, 200])
def test_weighted_check_builds_no_fibonacci_polynomial(order, monkeypatch) -> None:
    def refuse(*args):
        raise AssertionError("the weighted series built or evaluated a polynomial")

    monkeypatch.setattr(fibonacci, "hfib_diagonal", refuse)
    monkeypatch.setattr(HPoly, "eval_point", refuse)
    assert weighted_series_check(order=order).passed
