"""Independent oracles used to cross-check package results.

Everything here is built from sympy primitives (symbols, rf, binomial)
or from plain loops, and shares no code paths with the package, so
agreement is meaningful.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import sympy

H, HP, Q = sympy.symbols("h hp q")


def oracle_term_product(a: dict, b: dict) -> dict:
    """Schoolbook product of two term maps; zero sums are dropped at the end."""
    acc: dict = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            acc[ka + kb] = acc.get(ka + kb, 0) + ca * cb
    return {key: coeff for key, coeff in acc.items() if coeff}


# Each sum below is one sympy.Add over all its terms: adding the terms one at a
# time rebuilds the growing sum at every step, quadratic in the term count.


def hpoly_to_sympy(value) -> sympy.Expr:
    terms = (
        sympy.Rational(Fraction(coeff)) * H**eh * HP**ehp * Q**eq
        for (eh, ehp, eq), coeff in value.terms()
    )
    return sympy.expand(sympy.Add(*terms))


def golden_shape(value) -> list[list]:
    """The terms of an HPoly in q-free golden-file form: sorted [eh, ehp, "coeff"] rows."""
    return sorted([eh, ehp, str(Fraction(c))] for (eh, ehp, _), c in value.terms())


def oppoly_to_sympy(value, d: sympy.Symbol) -> sympy.Expr:
    terms = (sympy.Rational(Fraction(coeff)) * d**exp for exp, coeff in value.terms())
    return sympy.expand(sympy.Add(*terms))


def oracle_h_binomial(n: int, k: int) -> sympy.Expr:
    # C(n,k) * h^k * hp(hp+1)...(hp+k-1)
    return sympy.expand(sympy.binomial(n, k) * H**k * sympy.rf(HP, k))


def oracle_hfib(n: int) -> sympy.Expr:
    return sympy.expand(sympy.Add(*(oracle_h_binomial(n - 1 - k, k) for k in range((n - 1) // 2 + 1))))


def oracle_q_binomial(n: int, k: int) -> dict[int, int]:
    """Gaussian binomial [n, k] as {q-exponent: coefficient}, by subset sums.

    Each k-subset S of {0, ..., n-1} contributes q^(sum(S) - k(k-1)/2),
    the number of inversions of the 0/1 word it marks.
    """
    acc: dict[int, int] = {}
    for subset in combinations(range(n), k):
        e = sum(subset) - k * (k - 1) // 2
        acc[e] = acc.get(e, 0) + 1
    return acc


def oracle_rising_hp(count: int) -> sympy.Expr:
    """hp(hp+1)...(hp+count-1) through sympy's rf."""
    return sympy.expand(sympy.rf(HP, count))


def oracle_rising(start: Fraction, count: int) -> Fraction:
    """start*(start+1)*...*(start+count-1) through sympy's rf."""
    value = sympy.rf(sympy.Rational(start.numerator, start.denominator), count)
    return Fraction(int(value.p), int(value.q))


def oracle_shift(expr: sympy.Expr, delta: int) -> sympy.Expr:
    return sympy.expand(expr.subs(HP, HP + delta))


def assert_matches(value, expr: sympy.Expr) -> None:
    got = hpoly_to_sympy(value)
    want = sympy.expand(expr)
    assert sympy.simplify(got - want) == 0, f"{got} != {want}"
