"""Generating functions over Q[D] and the weighted numeric series.

A generating function here is a rational function in x whose numerator
and denominator are polynomials in x with OpPoly (that is, Q[D])
coefficients.  Closed forms for sums of products of operator Fibonacci
numbers come from the extension roots: every denominator below is a
product of factors (1 - r*x) over the relevant root monomials, reduced
to Q[D] through the symmetric-function lemmas checked in
hfib.operators.verify_symmetric_lemmas.

series_expand performs exact long division (the denominator must have
constant term 1) and re-multiplies the result against the denominator
before returning, so a returned expansion is already self-checked.

The weighted series at the end is the one numeric statement in the
library: summing F_i(h, hp) / p^(i+1) against the transformed side
sum_j h^j (hp)(hp+1)...(hp+j-1) / (p^2-p)^(j+1).  Both sides are exact
rationals; "numeric" only means the comparison is a truncation bounded
by a tolerance rather than a polynomial identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from hfib.algebra import _coerce_scalar, rising_numerators
from hfib.fibonacci import classical_fib, hfib_diagonal
from hfib.operators import D, OpPoly, fib_op, verify_symmetric_lemmas
from hfib.report import Failure, IdentityReport, suite_scale


class ConvergenceError(ArithmeticError):
    """The truncated weighted series cannot certify the requested tolerance."""


@dataclass(frozen=True)
class OpSeries:
    """Truncated power series in x with Q[D] coefficients."""

    coeffs: tuple[OpPoly, ...]

    def __len__(self) -> int:
        return len(self.coeffs)

    def coefficient(self, k: int) -> OpPoly:
        return self.coeffs[k]

    def mul_xpoly(self, xpoly: tuple[OpPoly, ...]) -> "OpSeries":
        """Product with an x-polynomial, truncated to this series' order."""
        order = len(self.coeffs)
        out = [OpPoly.zero()] * order
        for j, factor in enumerate(xpoly):
            if factor.is_zero:
                continue
            for k in range(order - j):
                out[j + k] = out[j + k] + factor * self.coeffs[k]
        return OpSeries(tuple(out))


@dataclass(frozen=True)
class OpRatFun:
    """Rational function in x over Q[D], as coefficient tuples."""

    numerator: tuple[OpPoly, ...]
    denominator: tuple[OpPoly, ...]


def xpoly_mul(a: tuple[OpPoly, ...], b: tuple[OpPoly, ...]) -> tuple[OpPoly, ...]:
    out = [OpPoly.zero()] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = out[i + j] + ai * bj
    return tuple(out)


def series_expand(f: OpRatFun, order: int) -> OpSeries:
    """First `order` coefficients of f, by exact long division.

    Requires denominator constant term 1 (every generating function here
    is normalized that way).  The quotient is re-multiplied against the
    denominator and compared with the numerator before returning.
    """
    if order < 0:
        raise ValueError("order must be non-negative")
    den = f.denominator
    if not den or den[0] != OpPoly.one():
        raise ValueError("denominator must have constant term 1")
    num = f.numerator
    coeffs: list[OpPoly] = []
    for k in range(order):
        s = num[k] if k < len(num) else OpPoly.zero()
        for j in range(1, min(k, len(den) - 1) + 1):
            s = s - den[j] * coeffs[k - j]
        coeffs.append(s)
    series = OpSeries(tuple(coeffs))
    back = series.mul_xpoly(den)
    for k in range(order):
        expected = num[k] if k < len(num) else OpPoly.zero()
        if back.coefficient(k) != expected:
            raise ArithmeticError("long division failed its re-multiplication check")
    return series


@lru_cache(maxsize=None)
def _require_lemmas() -> bool:
    # Denominators below assume the root symmetric functions reduce as
    # checked there; refuse to hand out closed forms if that ever broke.
    if not verify_symmetric_lemmas().passed:
        raise ArithmeticError("symmetric-function lemmas failed; closed forms invalid")
    return True


_ONE = OpPoly.one()
_ZERO = OpPoly.zero()


def gf_fib() -> OpRatFun:
    """sum_n F_n x^n = x / (1 - x - D x^2)."""
    _require_lemmas()
    return OpRatFun((_ZERO, _ONE), (_ONE, -1 * _ONE, -1 * D))


def gf_shifted(m: int) -> OpRatFun:
    """sum_n F_(m+n) x^n = (F_m + D F_(m-1) x) / (1 - x - D x^2), m >= 1."""
    if m < 1:
        raise ValueError("shift must be at least 1")
    _require_lemmas()
    return OpRatFun((fib_op(m), D * fib_op(m - 1)), (_ONE, -1 * _ONE, -1 * D))


def _den_even() -> tuple[OpPoly, ...]:
    # (1 - lp^2 x)(1 - lm^2 x) = 1 - (1+2D) x + D^2 x^2
    return (_ONE, -1 * (_ONE + 2 * D), D * D)


def gf_even() -> OpRatFun:
    """sum_n F_(2n) x^n = x / (1 - (1+2D) x + D^2 x^2)."""
    _require_lemmas()
    return OpRatFun((_ZERO, _ONE), _den_even())


def gf_odd() -> OpRatFun:
    """sum_n F_(2n+1) x^n = (1 - D x) / (1 - (1+2D) x + D^2 x^2)."""
    _require_lemmas()
    return OpRatFun((_ONE, -1 * D), _den_even())


def _den_square() -> tuple[OpPoly, ...]:
    # Roots lp^2, lp*lm, lm^2: the even denominator times (1 + D x).
    return xpoly_mul(_den_even(), (_ONE, D))


def gf_square() -> OpRatFun:
    """sum_n F_n^2 x^n = (x - D x^2) / ((1 - (1+2D) x + D^2 x^2)(1 + D x))."""
    _require_lemmas()
    return OpRatFun((_ZERO, _ONE, -1 * D), _den_square())


def gf_product() -> OpRatFun:
    """sum_n F_n F_(n+1) x^n = x / ((1 - (1+2D) x + D^2 x^2)(1 + D x))."""
    _require_lemmas()
    return OpRatFun((_ZERO, _ONE), _den_square())


def gf_product_shift() -> OpRatFun:
    """sum_n F_(n+1) F_(n+2) x^n = 1 / ((1 - (1+2D) x + D^2 x^2)(1 + D x))."""
    _require_lemmas()
    return OpRatFun((_ONE,), _den_square())


def gf_cube() -> OpRatFun:
    """sum_n F_n^3 x^n, roots lp^3, lp^2 lm, lp lm^2, lm^3.

    (x - 2D x^2 - D^3 x^3) over
    (1 - (1+3D) x - D^3 x^2)(1 + D x - D^3 x^2).
    """
    _require_lemmas()
    d3 = D**3
    den = xpoly_mul(
        (_ONE, -1 * (_ONE + 3 * D), -1 * d3),
        (_ONE, D, -1 * d3),
    )
    return OpRatFun((_ZERO, _ONE, -2 * D, -1 * d3), den)


_GF_TARGETS = {
    "fib": (gf_fib, lambda k: fib_op(k)),
    "even": (gf_even, lambda k: fib_op(2 * k)),
    "odd": (gf_odd, lambda k: fib_op(2 * k + 1)),
    "square": (gf_square, lambda k: fib_op(k) ** 2),
    "product": (gf_product, lambda k: fib_op(k) * fib_op(k + 1)),
    "product-shift": (gf_product_shift, lambda k: fib_op(k + 1) * fib_op(k + 2)),
    "cube": (gf_cube, lambda k: fib_op(k) ** 3),
}

GF_NAMES = tuple(_GF_TARGETS) + ("shifted",)


def build_gf(name: str, m: int = 1) -> OpRatFun:
    """Closed form by name; `m` applies only to the shifted family."""
    if name == "shifted":
        return gf_shifted(m)
    try:
        builder, _ = _GF_TARGETS[name]
    except KeyError:
        raise ValueError(f"unknown generating function {name!r}") from None
    return builder()


def verify_genfun(order: int | None = None, shift_max: int = 5) -> list[IdentityReport]:
    """Expansions against direct fib_op products, plus the root lemmas; order defaults to 16."""
    order = suite_scale(order)(16)
    expansions = IdentityReport("gf-expansions")
    for name, (build, target) in _GF_TARGETS.items():
        series = series_expand(build(), order)
        for k in range(order):
            expansions.check({"gf": name, "k": k}, series.coefficient(k), target(k))
    for m in range(1, shift_max + 1):
        series = series_expand(gf_shifted(m), order)
        for k in range(order):
            expansions.check({"gf": "shifted", "m": m, "k": k}, series.coefficient(k), fib_op(m + k))
    return [verify_symmetric_lemmas(), expansions]


# -- weighted numeric series ----------------------------------------------


def weighted_series_check(
    p: int,
    h: Fraction,
    hp: Fraction,
    order: int = 80,
    tol: Fraction = Fraction(1, 10**12),
) -> IdentityReport:
    """Truncated comparison of sum_i F_i(h,hp)/p^(i+1) with its transform.

    Both sides are summed to the same truncation order in exact rational
    arithmetic: the weighted Fibonacci series against the transformed
    series sum_j h^j (hp)(hp+1)...(hp+j-1) / (p^2-p)^(j+1).

    The transformed side is only asymptotic in h: its term ratio grows
    like (hp+j)|h|/(p^2-p), so past j of about (p^2-p)/|h| the terms
    increase and no truncation can certify a tolerance below the
    smallest term.  The guard therefore demands that the final term of
    each side is below tol and raises ConvergenceError otherwise.  It
    advises a smaller |h| when the transformed side misses and its terms
    no longer shrink, |h (hp + order - 1)| >= |p^2 - p|, else a larger order.
    """
    if p == 0:
        raise ValueError("weight base p must be nonzero")
    pv = _coerce_scalar(p)
    base = pv * pv - pv
    if base == 0:
        raise ConvergenceError("p^2 - p vanishes at p = 1; the transformed side degenerates")
    hv, hpv, tol = _coerce_scalar(h), _coerce_scalar(hp), _coerce_scalar(tol)
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    if order < 0:
        raise ValueError("order must be non-negative")

    lhs = Fraction(0)
    lhs_term = Fraction(0)
    for i in range(order + 1):
        lhs_term = hfib_diagonal(i).eval_point(hv, hpv) / pv ** (i + 1)
        lhs += lhs_term
    # With h = e/f, hp = c/d, p^2 - p = s/t and N the order, term j is
    # t * x^j * R_j * w^(N-j) over (f d)^N * s^(N+1), where x = e t, w = f d s
    # and R_j is the rising numerator of c/d: one Horner sum in w, divided once.
    f, d, s, t = hv.denominator, hpv.denominator, base.numerator, base.denominator
    x, w = hv.numerator * t, f * d * s
    rhs_num = 0
    x_power = 1
    for r in rising_numerators(hpv.numerator, d, order):
        term_num = x_power * r
        rhs_num = rhs_num * w + term_num
        x_power *= x
    rhs_den = (f * d) ** order * s ** (order + 1)
    rhs = Fraction(t * rhs_num, rhs_den)
    rhs_term = Fraction(t * term_num, rhs_den)
    if abs(lhs_term) >= tol or abs(rhs_term) >= tol:
        if abs(rhs_term) < tol:
            advice = "increase the order: the Fibonacci side converges geometrically in 1/p"
        elif abs(hv * (hpv + order - 1)) < abs(base):
            advice = "increase the order: the transformed terms still shrink at this order"
        else:
            advice = (
                "decrease |h|: the transformed series is asymptotic and a "
                "larger order stops helping once its terms start growing"
            )
        raise ConvergenceError(
            f"truncated tails are not below the tolerance at order {order}; {advice}"
        )
    report = IdentityReport("gf-weighted-series")
    report.pin(
        "the transformed series diverges for any h != 0, so only "
        "configurations whose final terms on both sides fall below the "
        "tolerance are compared; others raise ConvergenceError",
        "last-term magnitude is the truncation-tail proxy on each side",
    )
    report.cases += 1
    if abs(lhs - rhs) >= tol:
        report.failures.append(
            Failure(
                params={"p": p, "h": str(hv), "hp": str(hpv), "order": order},
                lhs=str(lhs),
                rhs=str(rhs),
            )
        )
    return report


def verify_classical_weights() -> IdentityReport:
    """Integer specializations p^2 - p = f_k + 1 behind the weighted series."""
    report = IdentityReport("gf-classical-weights")
    for p, k in ((2, 1), (3, 5), (8, 10), (10, 11)):
        report.check({"p": p, "k": k}, p * p - p, classical_fib(k) + 1)
    return report
