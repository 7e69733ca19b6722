"""h-deformed binomial coefficients and their Pascal triangle.

The deformed coefficient attaches the weight h^k * hp*(hp+1)*...*(hp+k-1)
to the ordinary binomial coefficient C(n, k).  Setting h*hp = 1 and
letting h -> 0 recovers C(n, k), which is the classical-limit invariant
the tests lean on.

Two Pascal-type recurrences hold, both shifting hp by one in the lower
row; a column-sum identity and an evaluation link to Charlier
polynomials round out the suite.  The column-sum statement is ambiguous
at column 0 as printed, so verify_column_sum searches the candidate
lower bounds, pins the one that holds everywhere, and records the choice
in the report.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Iterator, NamedTuple

from hfib.algebra import H, HP, HPoly, _coerce_scalar, d_image
from hfib.operators import OpPoly, op_value
from hfib.report import DEFAULT_SEED, IdentityReport, suite_scale


def _in_row(n: int, k: int) -> bool:
    """Whether 0 <= k <= n; a non-integer index or a negative n is refused first."""
    if not (isinstance(n, int) and isinstance(k, int)):
        raise TypeError(f"binomial indices must be integers, got ({n!r}, {k!r})")
    if n < 0:
        raise ValueError("row index must be non-negative")
    return 0 <= k <= n


@lru_cache(maxsize=None, typed=True)
def h_binomial(n: int, k: int) -> HPoly:
    """Deformed binomial coefficient C(n,k) * h^k * (hp)(hp+1)...(hp+k-1).

    Out-of-range k (negative or above n) gives the zero polynomial, as
    for ordinary binomials; n must be non-negative.
    """
    if not _in_row(n, k):
        return HPoly.zero()
    return comb(n, k) * d_image(k)


class TriangleRow(NamedTuple):
    n: int
    entries: tuple[HPoly, ...]


def pascal_row(n: int) -> TriangleRow:
    return TriangleRow(n, tuple(h_binomial(n, k) for k in range(n + 1)))


def pascal_triangle(n_max: int) -> list[TriangleRow]:
    if n_max < 0:
        raise ValueError("row count must be non-negative")
    return [pascal_row(n) for n in range(n_max + 1)]


def row_sum(n: int) -> HPoly:
    total = HPoly.zero()
    for k in range(n + 1):
        total = total + h_binomial(n, k)
    return total


def charlier(n: int, z, a) -> Fraction:
    """Charlier polynomial value c_n(z; a) = sum C(n,k) a^-k (-z)(-z+1)...

    Exact rational evaluation; a must be nonzero.  The sum is the image of
    (1 + D)^n = sum C(n,k) D^k at h = 1/a, hp = -z, taken by op_value.
    """
    if n < 0:
        raise ValueError("degree must be non-negative")
    av = _coerce_scalar(a)
    if av == 0:
        raise ValueError("Charlier parameter a must be nonzero")
    binomials = OpPoly({k: comb(n, k) for k in range(n + 1)})
    return op_value(binomials, 1 / Fraction(av), -_coerce_scalar(z))


def charlier_samples(count: int, rng: random.Random) -> list[tuple[Fraction, Fraction]]:
    """Exact rational sample points (h, hp) with pairwise-distinct coordinates.

    h is kept nonzero because the Charlier link evaluates at a = 1/h; a
    count above the number of distinct h values can never be drawn and raises ValueError.
    """
    if count > 2482:  # the distinct nonzero values ±a/b of h, 1 <= a <= 99 and 1 <= b <= 20
        raise ValueError(f"at most 2482 samples have distinct h, not {count}")
    samples: list[tuple[Fraction, Fraction]] = []
    seen_h: set[Fraction] = set()
    seen_hp: set[Fraction] = set()
    while len(samples) < count:
        hv = Fraction(rng.randint(1, 99), rng.randint(1, 20))
        if rng.random() < 0.5:
            hv = -hv
        hpv = Fraction(rng.randint(-99, 99), rng.randint(1, 20))
        if hv == 0 or hv in seen_h or hpv in seen_hp:
            continue
        seen_h.add(hv)
        seen_hp.add(hpv)
        samples.append((hv, hpv))
    return samples


def pascal_rule_cases(binomial, q, bracket, n_max: int) -> Iterator[tuple[dict, HPoly, HPoly]]:
    """(params, lhs, rhs) of both Pascal-type rules of `binomial` on rows 0..n_max.

    additive C(n+1, k) = q^k C(n, k) + h*hp C(n, k-1)[hp -> hp+1] and absorption
    [k+1] C(n+1, k+1) = [n+1] h*hp C(n, k)[hp -> hp+1], with q, [m] = 1, m for the
    h-binomials and Q, q_int(m) for the (q, h) ones.
    """
    for n in range(n_max + 1):
        # row n shifted once; the additive rule reads entry k - 1, absorption entry k
        shifted = [binomial(n, k).shift_hprime(1) for k in range(n + 1)]
        for k in range(n + 2):
            lhs = binomial(n + 1, k)
            rhs = q**k * binomial(n, k) + (H * HP * shifted[k - 1] if k else 0)
            yield {"rule": "additive", "n": n, "k": k}, lhs, rhs
        for k in range(n + 1):
            lhs = bracket(k + 1) * binomial(n + 1, k + 1)
            rhs = bracket(n + 1) * H * HP * shifted[k]
            yield {"rule": "absorption", "n": n, "k": k}, lhs, rhs


def verify_pascal_recurrences(n_max: int = 12) -> IdentityReport:
    """Both Pascal-type recurrences on the full triangle up to row n_max."""
    report = IdentityReport("pascal-recurrences")
    for case in pascal_rule_cases(h_binomial, 1, int, n_max):
        report.check(*case)
    return report


def _column_sum_cases(n_max: int, from_j: bool) -> Iterator[tuple[dict, HPoly, HPoly]]:
    """(params, lhs, rhs) for 1 <= n <= n_max and j < n, the sums kept as running column sums.

    The sum of column j starts at i = j when from_j, else at the printed
    i = 1.  The two differ only in column 0, by the row-0 term.
    """
    columns = [h_binomial(0, 0) if from_j else HPoly.zero()]
    for n in range(1, n_max + 1):
        columns = [acc + h_binomial(n, j) for j, acc in enumerate(columns)]
        columns.append(h_binomial(n, n))
        for j in range(n):
            yield {"n": n, "j": j}, H * (HP + j) * columns[j], h_binomial(n + 1, j + 1)


def verify_column_sum(n_max: int = 12) -> IdentityReport:
    """Column-sum identity h*(hp+j) * sum_i C_h(i, j) = C_h(n+1, j+1).

    The printed lower bound i = 1 drops the i = 0 term of column 0 and
    fails there; starting the sum at i = j (identical for j >= 1) makes
    every instance pass.  The printed bound is tried first, and the
    first reading that holds everywhere is pinned.
    """
    report = IdentityReport("pascal-column-sum")
    report.check_first_reading(
        lambda from_j: _column_sum_cases(n_max, from_j),
        {
            False: None,
            True: (
                "column-sum lower bound at column j = 0 (printed as i = 1)",
                "sum starts at i = j, which includes the row-0 term when j = 0; "
                "identical to the printed form for every j >= 1",
            ),
        },
    )
    return report


def verify_charlier_link(
    n_max: int = 10,
    samples: list[tuple[Fraction, Fraction]] | None = None,
    seed: int | None = None,
) -> IdentityReport:
    """Row sums evaluated at (h, hp) against Charlier values c_n(-hp; 1/h).

    Checked by exact rational sampling: the identity is polynomial, and
    distinct sample coordinates exceeding the degree in each variable
    make the sampled check conclusive.  Samples need h != 0.
    """
    if samples is None:
        rng = random.Random(DEFAULT_SEED if seed is None else seed)
        samples = charlier_samples(max(12, n_max + 2), rng)
    report = IdentityReport("pascal-charlier-link")
    for hv, hpv in samples:
        if Fraction(hv) == 0:
            raise ValueError("Charlier link samples must have h != 0")
    for n in range(n_max + 1):
        sums = row_sum(n)
        for hv, hpv in samples:
            lhs = sums.eval_point(hv, hpv)
            rhs = charlier(n, -Fraction(hpv), Fraction(1) / Fraction(hv))
            report.check(
                {"n": n, "h": str(Fraction(hv)), "hp": str(Fraction(hpv))},
                lhs,
                rhs,
            )
    return report


def verify_pascal(n_max: int | None = None, seed: int | None = None) -> list[IdentityReport]:
    """All h-Pascal suites; n_max, when given, overrides every scale (at most 10 for Charlier)."""
    scale = suite_scale(n_max)
    return [
        verify_pascal_recurrences(scale(12)),
        verify_column_sum(scale(12)),
        verify_charlier_link(min(scale(10), 10), seed=seed),
    ]
