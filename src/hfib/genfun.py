"""Generating functions over Q[D] and the weighted numeric series.

A generating function here is a rational function in x whose numerator
and denominator are polynomials in x with OpPoly (that is, Q[D])
coefficients.  Closed forms for sums of products of operator Fibonacci
numbers come from the extension roots: every denominator below is a
product of factors (1 - r*x) over the relevant root monomials, and is
read from hfib.operators.annihilator, which builds its coefficients in
Z[D] by the Fibonomial rule, with no extension.  One table states
each closed form once: its numerator and the (k, step) of its
denominator.

series_expand performs exact long division (the denominator must have
constant term 1).  Each coefficient is solved from the numerator, so
re-multiplying by the denominator would only restate the division;
verify_genfun checks the expansions against products of fib_op, each
coefficient and its target taken as integer images at D = 2^B, as the
grid suites of hfib.operators check theirs.

The weighted series at the end is the one numeric statement in the
library: summing F_i(h, hp) / p^(i+1) against the transformed side
sum_j h^j (hp)(hp+1)...(hp+j-1) / (p^2-p)^(j+1).  Both sides are exact
rationals, valued by operators.op_value; "numeric" only means the
comparison is a truncation bounded by a tolerance rather than a
polynomial identity.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from hfib.algebra import _coerce_scalar
from hfib.fibonacci import classical_fib
from hfib.operators import (
    D, OpPoly, _check_images, _image_width, _images, _l1, annihilator, fib_op, op_value, verify_symmetric_lemmas
)
from hfib.report import Failure, IdentityReport, suite_scale


class ConvergenceError(ArithmeticError):
    """The truncated weighted series cannot certify the requested tolerance."""


class OpSeries(NamedTuple):
    """Truncated power series in x with Q[D] coefficients."""

    coeffs: tuple[OpPoly, ...]

    def __len__(self) -> int:  # the order, not the one field of the tuple
        return len(self.coeffs)

    def coefficient(self, k: int) -> OpPoly:
        return self.coeffs[k]


class OpRatFun(NamedTuple):
    """Rational function in x over Q[D], as coefficient tuples."""

    numerator: tuple[OpPoly, ...]
    denominator: tuple[OpPoly, ...]


def series_expand(f: OpRatFun, order: int) -> OpSeries:
    """First `order` coefficients of f, by exact long division.

    Requires denominator constant term 1 (every generating function here
    is normalized that way).
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
    return OpSeries(tuple(coeffs))


_ONE = OpPoly.one()
_ZERO = OpPoly.zero()

# The closed forms, name -> (numerator, (k, step), target): sum_n target(F, n) x^n
# is the numerator over annihilator(k, step) reversed, whose roots are the k+1
# products lp^(step a) lm^(step (k-a)), for F the sequence of the F_j.  The
# numerators are the stated closed forms, written out rather than fitted to the
# first terms of the target.
_GF_TABLE = {
    "fib": ((_ZERO, _ONE), (1, 1), lambda f, n: f[n]),
    "even": ((_ZERO, _ONE), (1, 2), lambda f, n: f[2 * n]),
    "odd": ((_ONE, -1 * D), (1, 2), lambda f, n: f[2 * n + 1]),
    "square": ((_ZERO, _ONE, -1 * D), (2, 1), lambda f, n: f[n] ** 2),
    "product": ((_ZERO, _ONE), (2, 1), lambda f, n: f[n] * f[n + 1]),
    "product-shift": ((_ONE,), (2, 1), lambda f, n: f[n + 1] * f[n + 2]),
    "cube": ((_ZERO, _ONE, -2 * D, -1 * D**3), (3, 1), lambda f, n: f[n] ** 3),
}

GF_NAMES = tuple(_GF_TABLE) + ("shifted",)
_SHIFT_MAX = 5  # verify_genfun checks gf_shifted(m) for m = 1 .. _SHIFT_MAX


def gf_shifted(m: int) -> OpRatFun:
    """sum_n F_(m+n) x^n = (F_m + D F_(m-1) x) / (1 - x - D x^2), m >= 1."""
    if m < 1:
        raise ValueError("shift must be at least 1")
    return OpRatFun((fib_op(m), D * fib_op(m - 1)), annihilator(1)[::-1])


def build_gf(name: str, m: int = 1) -> OpRatFun:
    """Closed form by name; `m` applies only to the shifted family."""
    if name == "shifted":
        return gf_shifted(m)
    try:
        numerator, (k, step), _ = _GF_TABLE[name]
    except KeyError:
        raise ValueError(f"unknown generating function {name!r}") from None
    return OpRatFun(numerator, annihilator(k, step)[::-1])


def verify_genfun(order: int | None = None) -> list[IdentityReport]:
    """Expansions against products of fib_op, on images, plus the root lemmas; order defaults to 16.

    Each coefficient is imaged and checked against its target taken on the
    images of the F_j.  Every F_j has non-negative coefficients, so a target
    applied to the norms ||F_j||_1 is that target's own l1 norm, and one
    width above every ||coefficient||_1 + ||target||_1 serves the call.
    """
    order = suite_scale(order)(16)
    expansions = IdentityReport("gf-expansions")
    families = [
        ({"gf": name}, series_expand(build_gf(name), order).coeffs, target)
        for name, (_, _, target) in _GF_TABLE.items()
    ]
    families += [
        ({"gf": "shifted", "m": m}, series_expand(gf_shifted(m), order).coeffs, lambda f, k, m=m: f[m + k])
        for m in range(1, _SHIFT_MAX + 1)
    ]
    # F_j for j below this count covers F_(2k+1) of "odd", F_(k+2) of
    # "product-shift" and F_(m+k) of "shifted", for every k < order
    fibs = [fib_op(j) for j in range(order + max(order, _SHIFT_MAX, 2))]
    norms = [_l1(x) for x in fibs]
    bound = max(
        (_l1(c) + target(norms, k) for _, coeffs, target in families for k, c in enumerate(coeffs)), default=0
    )
    width = _image_width(bound)
    f = _images(fibs, width)
    for params, coeffs, target in families:
        for k, image in enumerate(_images(coeffs, width)):
            _check_images(expansions, {**params, "k": k}, image, target(f, k), width)
    return [verify_symmetric_lemmas(), expansions]


# -- weighted numeric series ----------------------------------------------


# p, h, hp, order and tol of the weighted check, for each one left at None.
_WEIGHTED_DEFAULTS = (2, Fraction(1, 100), Fraction(1, 2), 80, Fraction(1, 10**12))


def weighted_params(p=None, h=None, hp=None, order=None, tol=None) -> tuple:
    """(p, h, hp, order, tol) with each None replaced by its default."""
    given = (p, h, hp, order, tol)
    return tuple(d if v is None else v for v, d in zip(given, _WEIGHTED_DEFAULTS))


def _fib_side(pv: Fraction, hv: Fraction, hpv: Fraction, order: int) -> tuple[Fraction, ...]:
    """(sum_(i <= order) F_i(h, hp) / p^(i+1), its term at order - 1, its last term).

    With p = a/b the sum is op_value of sum_i a^(order-i) b^(i+1) fib_op(i)
    over a^(order+1); no polynomial F_i is built.  The term at order - 1 is
    0 at order 0.
    """
    a, b = pv.numerator, pv.denominator
    weighted = sum(a ** (order - i) * b ** (i + 1) * fib_op(i) for i in range(order + 1))

    def term(i: int) -> Fraction:
        return op_value(fib_op(i), hv, hpv) / pv ** (i + 1)

    total = op_value(weighted, hv, hpv) / a ** (order + 1)
    return total, term(order - 1) if order else Fraction(0), term(order)


def weighted_series_check(
    p: int | None = None,
    h: Fraction | None = None,
    hp: Fraction | None = None,
    order: int | None = None,
    tol: Fraction | None = None,
) -> IdentityReport:
    """Truncated comparison of sum_i F_i(h,hp)/p^(i+1) with its transform.

    Both sides are summed to the same truncation order in exact rational
    arithmetic: the weighted Fibonacci series against the transformed
    series sum_j h^j (hp)(hp+1)...(hp+j-1) / (p^2-p)^(j+1).  Each side is
    the value at (h, hp) of one Q[D] element, taken by op_value (see
    _fib_side), so no polynomial F_i is built or evaluated.

    The transformed side is only asymptotic in h: its term ratio grows
    like (hp+j)|h|/(p^2-p), so past j of about (p^2-p)/|h| the terms
    increase and no truncation can certify a tolerance below the
    smallest term.  The guard therefore demands that the final term of
    each side is below tol and raises ConvergenceError otherwise.  It
    advises a smaller |h| when the transformed side misses and its terms
    no longer shrink, |h (hp + order - 1)| >= |p^2 - p|; a larger |p| when
    only the Fibonacci side misses and its last term is no smaller than
    the one before (F_0 = 0 gives order 1 no such comparison); else a
    larger order.

    Each argument left at None takes its default from weighted_params.
    """
    p, h, hp, order, tol = weighted_params(p, h, hp, order, tol)
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

    lhs, lhs_prev, lhs_term = _fib_side(pv, hv, hpv, order)
    # the transformed side is the image of sum_j D^j / (p^2 - p)^(j+1)
    weights = {j: Fraction(base) ** -(j + 1) for j in range(order + 1)}
    rhs = op_value(OpPoly.from_coeffs(weights), hv, hpv)
    rhs_term = op_value(OpPoly.from_coeffs({order: weights[order]}), hv, hpv)
    if abs(lhs_term) >= tol or abs(rhs_term) >= tol:
        if abs(rhs_term) < tol and 0 < abs(lhs_prev) <= abs(lhs_term):
            advice = (
                "increase |p|: the Fibonacci terms F_i/p^(i+1) no longer shrink, "
                "so a larger order stops helping"
            )
        elif abs(rhs_term) < tol:
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
