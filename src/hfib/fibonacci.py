"""h-deformed Fibonacci numbers: four routes and their identity suites.

The deformed Fibonacci number F_n is the diagonal sum of the deformed
Pascal triangle, a polynomial in h and hp that collapses to the ordinary
Fibonacci number in the classical limit h*hp = 1, h -> 0.  Four
computation routes are kept deliberately separate so they can be played
against each other:

  * hfib_diagonal   - diagonal sums of deformed binomial coefficients
  * hfib_recurrence - the two-step recurrence, whose second term shifts
                      hp by one: F_(n+1) = F_n + h*hp*F_(n-1)[hp -> hp+1];
                      it runs as F_(n+1) = F_n + D*F_(n-1) in Q[D]
  * hfib_hypergeometric - a terminating 3F1-type series in Q[D]
  * operators.binet_fib - the exact Binet formula in Q[D]

The last three are each op_eval of their Q[D] form, which expands D^k
to h^k (hp)_k from dense rows of rising-factorial coefficients
(algebra.rising_rows; Graham, Knuth & Patashnik, Concrete Mathematics,
1994, secs. 2.6, 6.1).  The diagonal route takes its weights h^k (hp)_k
from d_image instead, so route equivalence compares two independent
expansions.

Negative indices are rationally deformed: F_(-n) is a ratio whose
denominator is h^n * (hp)(hp+1)...(hp+n-1); NegHFib carries the
numerator and that denominator shape exactly.

Some of the summation identities circulate in print with missing
weights or shifted parameters.  Their verify functions hand the printed
reading and the corrected one to IdentityReport.check_first_reading,
which checks the first that holds in every case and pins it in the
report (see verify_doubling_sum).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import NamedTuple

from hfib.algebra import H, HP, HPoly, d_image
from hfib.operators import OpPoly, _horner, binet_fib, fib_op, neg_fib_op, op_eval, two_step_op
from hfib.pascal import h_binomial
from hfib.report import IdentityReport, suite_scale


def classical_fib(n: int) -> int:
    """Ordinary Fibonacci number, F_0 = 0, F_1 = 1."""
    if n < 0:
        raise ValueError("index must be non-negative")
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


@lru_cache(maxsize=None)
def hfib_diagonal(n: int) -> HPoly:
    """Diagonal sum route: F_n = sum_k C_h(n-1-k, k), F_0 = 0."""
    if n < 0:
        raise ValueError("index must be non-negative; use hfib_negative")
    if n == 0:
        return HPoly.zero()
    total = HPoly.zero()
    for k in range((n - 1) // 2 + 1):
        total = total + h_binomial(n - 1 - k, k)
    return total


def recurrence_op(n: int) -> OpPoly:
    """F_n in Q[D] by the two-step recurrence F_(k+1) = F_k + D * F_(k-1), from F_0 and F_1."""
    if n < 0:
        raise ValueError("index must be non-negative; use hfib_negative")
    return two_step_op(n, 1)


def hfib_recurrence(n: int) -> HPoly:
    """Recurrence route: F_(n+1) = F_n + h*hp * F_(n-1) with hp shifted by one.

    Since hp * (hp+1)_j = (hp)_(j+1), the shifted term is the image of
    D * F_(n-1) under D^k -> h^k (hp)_k, so the recurrence runs in Q[D] and
    only F_n is expanded, by op_eval.
    """
    return op_eval(recurrence_op(n))


def hypergeometric_op(n: int) -> OpPoly:
    """The terminating hypergeometric series of F_n, as an element of Q[D].

    F_n = sum_k [((1-n)/2)_k ((2-n)/2)_k / ((1-n)_k k!)] * (-4)^k * D^k,

    where (x)_k is the ordinary rising factorial.  One of the two
    numerator factors hits zero before the denominator factor (1-n)_k
    can vanish, so the series terminates while every partial coefficient
    stays a well-defined rational.  With (-4)^k folded in, each
    coefficient is the integer C(n-1-k, k), stored as an int.
    """
    if n < 1:
        raise ValueError("hypergeometric route is defined for n >= 1")
    a, b, d = Fraction(1 - n, 2), Fraction(2 - n, 2), Fraction(1 - n)
    coeffs = {0: Fraction(1)}
    k = 0
    while True:
        fa, fb = a + k, b + k
        if fa == 0 or fb == 0:
            return OpPoly.from_coeffs(coeffs)
        fd = d + k
        if fd == 0:
            raise ArithmeticError("series hit the denominator pole before terminating")
        coeffs[k + 1] = coeffs[k] * -4 * fa * fb / (fd * (k + 1))
        k += 1


def hfib_hypergeometric(n: int) -> HPoly:
    """Terminating hypergeometric route: hypergeometric_op(n) under D^k -> h^k (hp)_k, by op_eval."""
    return op_eval(hypergeometric_op(n))


class NegHFib(NamedTuple):
    """Negative-index value F_(-n) as an exact ratio.

    numerator / (h^n * (hp)(hp+1)...(hp+n-1)); denominator_count is the
    length n of that shifted factorial.
    """

    n: int
    numerator: HPoly

    @property
    def denominator_count(self) -> int:
        return self.n

    @property
    def denominator(self) -> HPoly:
        return d_image(self.n)


def hfib_negative(n: int) -> NegHFib:
    """F_(-n) for n >= 1, via the reflection F_(-n) = (-1)^(n-1) F_n / (h^n (hp)_n)."""
    if n < 1:
        raise ValueError("hfib_negative takes the positive magnitude n of the index -n")
    return NegHFib(n, (-1) ** (n - 1) * hfib_diagonal(n))


# -- tabulation ----------------------------------------------------------


class FibTableRow(NamedTuple):
    n: int
    value: HPoly
    classical: int


class FibTable(NamedTuple):
    rows: tuple[FibTableRow, ...]
    pinned_conventions: tuple[tuple[str, str], ...]


def fib_table(n_max: int = 10) -> FibTable:
    """First deformed Fibonacci numbers with their classical limits.

    The printed source table misprints the top-degree weight of row 9
    (h^3 where the diagonal sum forces h^4); the computed value is
    authoritative and the discrepancy is flagged so downstream renderers
    can footnote it.
    """
    if n_max < 0:
        raise ValueError("row count must be non-negative")
    rows = []
    for n in range(n_max + 1):
        value = hfib_diagonal(n)
        limit = value.classical_limit()
        assert limit.denominator == 1
        rows.append(FibTableRow(n, value, int(limit)))
    pins = []
    if n_max >= 9:
        pins.append(
            (
                "printed row n = 9 shows a top term h^3 * hp*(hp+1)*(hp+2)*(hp+3)",
                "the diagonal sum forces h^4 on that term; the computed row is used",
            )
        )
    return FibTable(tuple(rows), tuple(pins))


# -- identity suites ------------------------------------------------------


def verify_routes(n_max: int = 30) -> IdentityReport:
    """All four routes agree: diagonal vs recurrence, hypergeometric, Binet."""
    report = IdentityReport("fib-route-equivalence")
    for n in range(n_max + 1):
        base = hfib_diagonal(n)
        report.check({"n": n, "route": "recurrence"}, hfib_recurrence(n), base)
        if n >= 1:
            report.check({"n": n, "route": "hypergeometric"}, hfib_hypergeometric(n), base)
        report.check({"n": n, "route": "binet"}, op_eval(binet_fib(n)), base)
    return report


def verify_classical_limit(n_max: int = 30) -> IdentityReport:
    """Classical limits of F_n against the ordinary Fibonacci numbers."""
    report = IdentityReport("fib-classical-limit")
    for n in range(n_max + 1):
        report.check(
            {"n": n}, hfib_diagonal(n).classical_limit(), Fraction(classical_fib(n))
        )
    return report


def verify_partial_sum(n_max: int = 20) -> IdentityReport:
    """Partial sums: h*hp * sum_k F_k[hp -> hp+1] = F_(n+2) - 1.

    The printed right side carries a stray hp-shift marker on F_(n+2);
    taking F_(n+2) at the unshifted parameters makes every instance
    pass.  The literal reading is tried first and the unshifted one
    pinned when it fails.  The left sides are running partial sums, one
    shift per summand, shared by both readings.
    """
    report = IdentityReport("fib-partial-sum")
    lhs: dict[int, HPoly] = {}
    acc = HPoly.zero()
    for n in range(1, n_max + 1):
        acc = acc + hfib_diagonal(n).shift_hprime(1)
        lhs[n] = H * HP * acc

    def cases(shifted: bool):
        for n, side in lhs.items():
            rhs = hfib_diagonal(n + 2)
            yield {"n": n}, side, (rhs.shift_hprime(1) if shifted else rhs) - 1

    report.check_first_reading(
        cases,
        {
            True: None,
            False: (
                "shift marker printed on the right side F_(n+2)",
                "right side is F_(n+2) at unshifted (h, hp); the shift applies "
                "only inside the summed terms",
            ),
        },
    )
    return report


def verify_odd_even_sums(n_max: int = 20) -> IdentityReport:
    """Weighted sums of odd-index terms to F_(2n) and even-index to F_(2n+1).

    The n-th left side is sum_k d_image(n-k) * F_j[hp -> hp+n-k] over
    j = 2k-1 (odd) or 2k (even).  Since d_image(m+1) = h*hp *
    d_image(m)[hp -> hp+1], it is h*hp times the (n-1)-th left side with
    hp shifted by one, plus its new last term F_(2n-1) or F_(2n): one
    shift per side and n, as in Horner's rule.
    """
    report = IdentityReport("fib-odd-even-sums")
    odd_acc = HPoly.zero()
    even_acc = HPoly.zero()
    for n in range(1, n_max + 1):
        odd_acc = H * HP * odd_acc.shift_hprime(1) + hfib_diagonal(2 * n - 1)
        even_acc = H * HP * even_acc.shift_hprime(1) + hfib_diagonal(2 * n)
        report.check({"n": n, "parity": "odd indices"}, odd_acc, hfib_diagonal(2 * n))
        report.check(
            {"n": n, "parity": "even indices"},
            even_acc,
            hfib_diagonal(2 * n + 1) - d_image(n),
        )
    return report


def verify_doubling_sum(n_max: int = 12) -> IdentityReport:
    """Binomial doubling sum_(i) C(n,i) ... F_i[hp -> hp+n-i] = F_(2n).

    The literal print carries no weight on the summands, which already
    fails at n = 2; the evaluated image of the operator doubling
    identity carries the weight h^(n-i) * (hp)(hp+1)...(hp+n-i-1).  The
    literal form is tried first and the weighted form pinned when it
    fails.
    """

    def cases(weighted: bool):
        for n in range(1, n_max + 1):
            acc = HPoly.zero()
            for i in range(1, n + 1):
                weight = comb(n, i) * d_image(n - i) if weighted else comb(n, i)
                acc = acc + weight * hfib_diagonal(i).shift_hprime(n - i)
            yield {"n": n}, acc, hfib_diagonal(2 * n)

    report = IdentityReport("fib-doubling-sum")
    report.check_first_reading(
        cases,
        {
            False: None,
            True: (
                "binomial doubling sum printed without weights on the summands",
                "each summand carries h^(n-i) * (hp)(hp+1)...(hp+n-i-1), the "
                "evaluated image of the operator doubling identity",
            ),
        },
    )
    return report


def verify_alternating_sum(n_max: int = 12) -> IdentityReport:
    """Alternating binomial sum sum_(i) C(n,i) (-1)^(n-i) F_i = (-1)^(n-1) F_n.

    All indices at the same (h, hp); the literal print holds as stated.
    The sum is taken by Horner's rule in -1.
    """
    report = IdentityReport("fib-alternating-sum")
    for n in range(1, n_max + 1):
        lhs = _horner(-1, [comb(n, i) * hfib_diagonal(i) for i in range(1, n + 1)])
        report.check({"n": n}, lhs, (-1) ** (n - 1) * hfib_diagonal(n))
    return report


def verify_negative_reflection(n_max: int = 15) -> IdentityReport:
    """NegHFib numerators against (-1)^(n-1) op_eval(fib_op(n)) and the operator negative indices.

    The numerators are built from hfib_diagonal, so the reflection cases read F_n from op_eval.
    """
    report = IdentityReport("fib-negative-reflection")
    for n in range(1, n_max + 1):
        value = hfib_negative(n)
        report.check(
            {"n": n, "route": "reflection"},
            value.numerator,
            (-1) ** (n - 1) * op_eval(fib_op(n)),
        )
        report.check(
            {"n": n, "route": "operator"},
            op_eval(neg_fib_op(n)),
            value.numerator,
        )
    return report


def verify_fibonacci(n_max: int | None = None) -> list[IdentityReport]:
    """All h-Fibonacci suites; n_max, when given, overrides every scale."""
    scale = suite_scale(n_max)
    return [
        verify_routes(scale(30)),
        verify_classical_limit(scale(30)),
        verify_partial_sum(scale(20)),
        verify_odd_even_sums(scale(20)),
        verify_doubling_sum(scale(12)),
        verify_alternating_sum(scale(12)),
        verify_negative_reflection(scale(15)),
    ]
