"""Independent oracles used to cross-check package results.

Everything here is built from sympy primitives (symbols, rf, binomial)
or from plain loops, and shares no code paths with the package, so
agreement is meaningful.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import sympy

from hfib import algebra, qh

H, HP, Q = sympy.symbols("h hp q")


def oracle_term_product(a: dict, b: dict) -> dict:
    """Schoolbook product of two term maps; zero sums are dropped at the end."""
    acc: dict = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            acc[ka + kb] = acc.get(ka + kb, 0) + ca * cb
    return {key: coeff for key, coeff in acc.items() if coeff}


def _term_combination(*scaled: tuple[int, dict]) -> dict:
    """sum of c * m over the (c, m) pairs, for term maps m; zero sums are dropped."""
    acc: dict = {}
    for c, m in scaled:
        for key, coeff in m.items():
            acc[key] = acc.get(key, 0) + c * coeff
    return {key: coeff for key, coeff in acc.items() if coeff}


def oracle_annihilator(k: int, step: int) -> list[dict[int, int]]:
    """Ascending x-coefficients of prod_(a=0..k) (x - lp^(step a) lm^(step (k-a))), as D-term maps.

    The product form in Z[D][s] / (s^2 - (1 + 4D)), each element a pair
    (even, odd) of term maps: with lp, lm = (1 +- s)/2 each factor is
    scaled to 2^(step k) x - (1 + s)^(step a) (1 - s)^(step (k-a)).  The
    s-parts of the product must cancel and its one division by
    2^(step k (k+1)) must be exact; both are asserted.
    """
    discriminant = {0: 1, 1: 4}

    def times(x, y):
        (xe, xo), (ye, yo) = x, y
        odd_odd = oracle_term_product(oracle_term_product(xo, yo), discriminant)
        return (
            _term_combination((1, oracle_term_product(xe, ye)), (1, odd_odd)),
            _term_combination((1, oracle_term_product(xe, yo)), (1, oracle_term_product(xo, ye))),
        )

    def ladder(x, top):
        """x^0, x^1, ..., x^top."""
        powers = [({0: 1}, {})]
        for _ in range(top):
            powers.append(times(powers[-1], x))
        return powers

    plus = ladder(({0: 1}, {0: 1}), step)[-1]
    minus = ladder(({0: 1}, {0: -1}), step)[-1]
    plus_powers, minus_powers = ladder(plus, k), ladder(minus, k)
    scale, zero = 1 << (step * k), ({}, {})
    product = [({0: 1}, {})]
    for a in range(k + 1):
        root = times(plus_powers[a], minus_powers[k - a])
        # product * (scale x - root): shift up one power of x, subtract root * product
        product = [
            tuple(_term_combination((scale, r), (-1, t)) for r, t in zip(raised, times(root, c)))
            for raised, c in zip([zero, *product], [*product, zero])
        ]
    assert not any(odd for _, odd in product), "s-part of the annihilator did not cancel"
    divisor = 1 << (step * k * (k + 1))
    assert not any(c % divisor for even, _ in product for c in even.values())
    return [{exp: c // divisor for exp, c in even.items()} for even, _ in product]


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


def oracle_qh_pascal_cases(n_max: int):
    """(params, lhs, rhs) of both q-Pascal rules on rows 0..n_max, built as products in Q[h, hp, q].

    The construction qh.verify_qh_recurrences checked before it moved to
    Z[q][D] images: with C = qh.qh_binomial, additive
    C(n+1, k) = q^k C(n, k) + h*hp C(n, k-1)[hp -> hp+1] and absorption
    [k+1] C(n+1, k+1) = [n+1] h*hp C(n, k)[hp -> hp+1].  It shares the
    package's HPoly arithmetic, not its lane codec.
    """
    weight = algebra.H * algebra.HP
    for n in range(n_max + 1):
        shifted = [qh.qh_binomial(n, k).shift_hprime(1) for k in range(n + 1)]
        for k in range(n + 2):
            rhs = algebra.Q**k * qh.qh_binomial(n, k) + (weight * shifted[k - 1] if k else 0)
            yield {"rule": "additive", "n": n, "k": k}, qh.qh_binomial(n + 1, k), rhs
        for k in range(n + 1):
            lhs = qh.q_int(k + 1) * qh.qh_binomial(n + 1, k + 1)
            yield {"rule": "absorption", "n": n, "k": k}, lhs, qh.q_int(n + 1) * weight * shifted[k]
