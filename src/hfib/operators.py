"""Operator calculus behind the deformed Fibonacci numbers.

The deformation acts through the operator D = -h * d/dt applied to
t^(-hp).  Because every identity used here lives in the commutative ring
Q[D], D is modeled as a plain indeterminate: OpPoly is the univariate
exact-coefficient polynomial ring Q[D].

fib_op(n) is the operator Fibonacci polynomial sum_k C(n-1-k, k) D^k.
Applying the whole calculus to t^(-hp) and evaluating at t = 1 sends
D^k to h^k * (hp)(hp+1)...(hp+k-1); op_eval performs that substitution
and lands in Q[h, hp].  The substitution is not a ring homomorphism.
It obeys the composition rule

    op_eval(D^n * X) = h^n * (hp)_(1;n) * shift_hprime(op_eval(X), n)

because D acts on t^(-(hp+j)) factors produced by earlier D's.  Every
evaluated identity below goes through that rule.

Three further structures live here: the 2x2 matrix [[1, 1], [D, 0]]
whose powers tile the operator Fibonacci numbers, the quadratic
extension Q[D][s]/(s^2 - (1+4D)), which serves only the symmetric lemmas
on its roots (1 +- s)/2, and the negative-index operators g_n = D^n F_-n
defined by running the recurrence backwards.

The suites ask the kernels for few and small products.  Each matrix
power Q^n is built once per process: qh_power is a cache that squares
Q^(n // 2).  The grid suites (addition, d'Ocagne, Catalan, Cassini,
power sums, inverse powers) build each product F_a F_b, each D-shift
and each signed power of D once per call, into rows and ladders local
to the call, and the checks read them from there.  Each F_a F_b is
computed once per call and read for both orders: the addition and
d'Ocagne rows hold only b >= a, and F_b F_a is read there.  The binomial
power sums are taken by Horner's rule in their small factor, so no
power of it is built, and each weight is scaled by C(n, i) once for
both of their forms.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest
from math import comb, lcm
from operator import index, mul
from typing import NamedTuple

from hfib.algebra import HPoly, Scalar, TermRing, _coerce_scalar, d_image, rising_numerators, rising_rows
from hfib.kernels import binary_power
from hfib.report import IdentityReport, suite_scale


class OpPoly(TermRing):
    """Exact polynomial in the commuting indeterminate D, keyed by the D-exponent."""

    __slots__ = ()

    VARIABLES = ("D",)
    _JSON_NAMES = ("d",)
    _RING = "Q[D]"

    @staticmethod
    def _exponents(key: int) -> tuple[int]:
        return (key,)

    @staticmethod
    def _key(exp: int) -> int:
        exp = index(exp)
        if exp < 0:
            raise ValueError("D-exponents must be non-negative")
        return exp

    @staticmethod
    def _rank(key: int) -> int:
        return key  # the key is the degree

    @classmethod
    def from_coeffs(cls, coeffs: dict[int, Scalar]) -> "OpPoly":
        return cls.from_terms(((exp,), coeff) for exp, coeff in coeffs.items())

    @property
    def degree(self) -> int:
        """Degree in D, with the zero polynomial at 0 by convention."""
        return max(self._terms, default=0)

    def terms(self) -> list[tuple[int, Scalar]]:
        return sorted(self._terms.items())

    def coeff(self, exp: int) -> Scalar:
        return self._terms.get(exp, 0)


D = OpPoly({1: 1})


@lru_cache(maxsize=None)
def fib_op(n: int) -> OpPoly:
    """Operator Fibonacci polynomial sum_k C(n-1-k, k) D^k, with F_0 = 0.

    Satisfies the classical two-step recurrence F_(n+1) = F_n + D*F_(n-1);
    the suites check that against this closed form.
    """
    if n < 0:
        raise ValueError("index must be non-negative; use neg_fib_op for negative indices")
    if n == 0:
        return OpPoly.zero()
    return OpPoly({k: comb(n - 1 - k, k) for k in range((n - 1) // 2 + 1)})


def two_step_op(n: int, sign: int) -> OpPoly:
    """u_n in Q[D] for u_0 = 0, u_1 = 1 and u_(k+1) = sign * u_k + D * u_(k-1), n >= 0.

    Each u_k is its list of D-coefficients, and D * u_(k-1) is that list
    moved up by one place.  Every call steps from u_0 and u_1 in a loop.
    """
    prev, cur = [], [1]
    for _ in range(n):
        prev, cur = cur, [sign * a + b for a, b in zip_longest(cur, (0, *prev), fillvalue=0)]
    return OpPoly(dict(enumerate(prev)))


def op_eval(x: OpPoly) -> HPoly:
    """Substitute D^k -> h^k * (hp)(hp+1)...(hp+k-1) into Q[h, hp], by rising_rows over one denominator."""
    terms, rows = x._terms, rising_rows(x.degree)
    m = lcm(*(c.denominator for c in terms.values() if type(c) is not int))
    lanes = ((k, 0, [c.numerator * (m // c.denominator) * r for r in rows[k]]) for k, c in terms.items())
    return HPoly.from_hp_lanes(lanes, m)


def op_value(x: OpPoly, h, hp) -> Fraction:
    """op_eval(x).eval_point(h, hp), with no polynomial built.

    With h = e/f, hp = c/d, K the degree of x and m the common denominator
    of its coefficients c_k, D^k contributes the integer
    m c_k e^k R_k (f d)^(K-k), R_k the rising numerator of c/d.  The sum is
    taken by Horner's rule in f d and divided once, by m (f d)^K.
    """
    hv, hpv = _coerce_scalar(h), _coerce_scalar(hp)
    terms = x._terms
    m = lcm(*(c.denominator for c in terms.values() if type(c) is not int))
    e, fd = hv.numerator, hv.denominator * hpv.denominator
    total, e_power = 0, 1
    for k, r in enumerate(rising_numerators(hpv.numerator, hpv.denominator, x.degree)):
        c = terms.get(k)
        total = total * fd + (c.numerator * (m // c.denominator) * e_power * r if c else 0)
        e_power *= e
    return Fraction(total, m * fd**x.degree)


# -- the 2x2 operator matrix ------------------------------------------


class OpMatrix2(NamedTuple):
    """2x2 matrix over Q[D]; entries row-major a11, a12, a21, a22.

    A tuple underneath: __mul__ and __rmul__ scale by a number, where a
    tuple would repeat.
    """

    a11: OpPoly
    a12: OpPoly
    a21: OpPoly
    a22: OpPoly

    @classmethod
    def identity(cls) -> "OpMatrix2":
        return cls(OpPoly.one(), OpPoly.zero(), OpPoly.zero(), OpPoly.one())

    def __add__(self, other: "OpMatrix2") -> "OpMatrix2":
        return OpMatrix2(
            self.a11 + other.a11,
            self.a12 + other.a12,
            self.a21 + other.a21,
            self.a22 + other.a22,
        )

    def __sub__(self, other: "OpMatrix2") -> "OpMatrix2":
        return OpMatrix2(
            self.a11 - other.a11,
            self.a12 - other.a12,
            self.a21 - other.a21,
            self.a22 - other.a22,
        )

    def __mul__(self, other) -> "OpMatrix2":
        if other is self:
            # Q[D] is commutative, so a square takes five products, not eight
            a, b, c, d = self
            bc, trace = b * c, a + d
            return OpMatrix2(a * a + bc, b * trace, c * trace, d * d + bc)
        if isinstance(other, OpMatrix2):
            return OpMatrix2(
                self.a11 * other.a11 + self.a12 * other.a21,
                self.a11 * other.a12 + self.a12 * other.a22,
                self.a21 * other.a11 + self.a22 * other.a21,
                self.a21 * other.a12 + self.a22 * other.a22,
            )
        if isinstance(other, (OpPoly, int, Fraction)):
            return OpMatrix2(
                self.a11 * other, self.a12 * other, self.a21 * other, self.a22 * other
            )
        return NotImplemented

    def __rmul__(self, other) -> "OpMatrix2":
        if isinstance(other, (OpPoly, int, Fraction)):
            return self * other
        return NotImplemented

    def __pow__(self, exponent: int) -> "OpMatrix2":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("matrix power needs a non-negative integer exponent")
        return binary_power(self, exponent, mul) if exponent else OpMatrix2.identity()

    def det(self) -> OpPoly:
        return self.a11 * self.a22 - self.a12 * self.a21

    def __str__(self) -> str:
        return f"[[{self.a11}, {self.a12}], [{self.a21}, {self.a22}]]"


def qh_matrix() -> OpMatrix2:
    """The generator [[1, 1], [D, 0]] of the operator Fibonacci tiling."""
    return OpMatrix2(OpPoly.one(), OpPoly.one(), D, OpPoly.zero())


@lru_cache(maxsize=None)
def qh_power(n: int) -> OpMatrix2:
    """Q^n for Q = [[1, 1], [D, 0]] and n >= 1, from the cached Q^(n // 2).

    One five-product square of Q^(n // 2), then, for odd n, one product by
    Q, which only moves entries and shifts a column by D: binary powering
    through the cache (Knuth, TAOCP vol. 2, 4.6.3), so each power is built
    once until hfib.clear_caches and the powers 1..N take O(N) products.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError("matrix power is defined for n >= 1")
    if n == 1:
        return qh_matrix()
    half = qh_power(n >> 1)
    a, b, c, d = square = half * half
    # [[a, b], [c, d]] * [[1, 1], [D, 0]] = [[a + D b, a], [c + D d, c]]
    return OpMatrix2(a + D * b, a, c + D * d, c) if n & 1 else square


# -- quadratic extension and the Binet route ---------------------------

_DISCRIMINANT = OpPoly({0: 1, 1: 4})  # 1 + 4D


class SqrtExt(NamedTuple):
    """Element even + odd*s of Q[D][s] / (s^2 - (1+4D))."""

    even: OpPoly
    odd: OpPoly

    @classmethod
    def one(cls) -> "SqrtExt":
        return cls(OpPoly.one(), OpPoly.zero())

    def __add__(self, other: "SqrtExt") -> "SqrtExt":
        return SqrtExt(self.even + other.even, self.odd + other.odd)

    def __sub__(self, other: "SqrtExt") -> "SqrtExt":
        return SqrtExt(self.even - other.even, self.odd - other.odd)

    def __mul__(self, other: "SqrtExt") -> "SqrtExt":
        return SqrtExt(
            self.even * other.even + self.odd * other.odd * _DISCRIMINANT,
            self.even * other.odd + self.odd * other.even,
        )

    def __pow__(self, exponent: int) -> "SqrtExt":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("extension power needs a non-negative integer exponent")
        return binary_power(self, exponent, mul) if exponent else SqrtExt.one()

    def __str__(self) -> str:
        return f"({self.even}) + ({self.odd})*s"


def lambda_plus() -> SqrtExt:
    half = OpPoly.const(Fraction(1, 2))
    return SqrtExt(half, half)


def lambda_minus() -> SqrtExt:
    half = OpPoly.const(Fraction(1, 2))
    return SqrtExt(half, OpPoly.const(Fraction(-1, 2)))


def binet_fib(n: int) -> OpPoly:
    """Operator Fibonacci number via (lp^n - lm^n) / (lp - lm), exactly.

    With lp, lm = (1 +- s)/2 and lp - lm = s, the quotient is 2/2^n times
    the odd part (the coefficient of s) of (1 + s)^n, sum_i C(n, 2i+1) s^(2i);
    s^2 = 1 + 4D makes that sum_i C(n, 2i+1) (1 + 4D)^i, summed by Horner's
    rule in Z[D].  The division of twice that sum by 2^n is exact and
    asserted to, so no coefficient is ever a fraction (integer-preserving
    arithmetic, as in Bareiss, Math. Comp. 22, 1968).
    """
    if n < 0:
        raise ValueError("index must be non-negative")
    odd = OpPoly.zero()
    for i in range((n - 1) // 2, -1, -1):
        odd = odd * _DISCRIMINANT + comb(n, 2 * i + 1)
    divisor, terms = 1 << n, {}
    for exp, coeff in odd._terms.items():
        quotient, remainder = divmod(2 * coeff, divisor)
        if remainder:
            raise ArithmeticError(f"twice the odd part of (1 + s)^n is not divisible by {divisor}")
        terms[exp] = quotient
    return OpPoly(terms)


@lru_cache(maxsize=None, typed=True)
def annihilator(k: int, step: int = 1) -> tuple[OpPoly, ...]:
    """Ascending x-coefficients of prod_(a=0..k) (x - lp^(step a) lm^(step (k-a))).

    Its roots are the root monomials of degree k in lp^step and lm^step,
    so it annihilates every sum of products of k factors F_(step n + c):
    reversed, it is the denominator of their generating function, and
    its order k + 1 bounds the initial values that fix such a sequence
    (Zeilberger, "The C-finite ansatz", Ramanujan J. 31, 2013).

    Built in Z[D] by the Fibonomial rule (Lucas, Amer. J. Math. 1, 1878;
    Hoggatt, Fibonacci Quart. 5, 1967).  With P = lp^step + lm^step =
    F_(step+1) + D F_(step-1) and Q = (lp lm)^step = (-D)^step, let
    U_0 = 0, U_1 = 1 and U_(m+1) = P U_m - Q U_(m-1).  The coefficient of
    x^(k+1-j) is (-1)^j Q^(j(j-1)/2) [k+1, j], where the Fibonomials
    follow [n, j] = U_(n-j+1) [n-1, j-1] - Q U_(j-1) [n-1, j] and
    [n, 0] = [n, n] = 1.
    """
    if not (isinstance(k, int) and isinstance(step, int)):
        raise TypeError(f"annihilator needs integers, got ({k!r}, {step!r})")
    if k < 0 or step < 1:
        raise ValueError("annihilator needs k >= 0 and step >= 1")
    p, q, one = fib_op(step + 1) + D * fib_op(step - 1), (-D) ** step, OpPoly.one()
    u = [OpPoly.zero(), one]  # U_0, ..., U_(k+1)
    for _ in range(k):
        u.append(p * u[-1] - q * u[-2])
    row = [one]  # [n, j] for j = 0..n, from n = 0
    for n in range(1, k + 2):
        row = [one, *(u[n - j + 1] * row[j - 1] - q * u[j - 1] * row[j] for j in range(1, n)), one]
    return tuple((-1) ** j * q ** (j * (j - 1) // 2) * row[j] for j in range(k + 1, -1, -1))


# -- negative indices ---------------------------------------------------


def neg_fib_op(n: int) -> OpPoly:
    """g_n = D^n F_(-n), by the backward recurrence g_n = -g_(n-1) + D * g_(n-2).

    That is F_(-n) = F_(-n+2) - F_(-n+1) cleared by D^n, from g_0 = 0 and g_1 = 1.
    """
    if n < 0:
        raise ValueError("neg_fib_op takes the positive magnitude n of the index -n")
    return two_step_op(n, -1)


# -- identity suites -----------------------------------------------------


def _ev_shift(x: OpPoly, weight: int) -> HPoly:
    """op_eval of D^weight * x via the composition rule."""
    return d_image(weight) * op_eval(x).shift_hprime(weight)


def verify_matrix_powers(n_max: int = 10) -> IdentityReport:
    """Powers of [[1,1],[D,0]] tile operator Fibonacci numbers.

    Structural check of all four entries of the n-th power, then the
    evaluated form of each entry via the composition rule.
    """
    report = IdentityReport("op-matrix-powers")
    for n in range(1, n_max + 1):
        p = qh_power(n)
        expected = OpMatrix2(fib_op(n + 1), fib_op(n), D * fib_op(n), D * fib_op(n - 1))
        report.check({"n": n, "entries": "structural"}, p, expected)
        report.check({"n": n, "entry": "11"}, op_eval(p.a11), op_eval(fib_op(n + 1)))
        report.check({"n": n, "entry": "12"}, op_eval(p.a12), op_eval(fib_op(n)))
        report.check({"n": n, "entry": "21"}, op_eval(p.a21), _ev_shift(fib_op(n), 1))
        report.check({"n": n, "entry": "22"}, op_eval(p.a22), _ev_shift(fib_op(n - 1), 1))
    return report


def verify_cassini(n_max: int = 20) -> IdentityReport:
    """Cassini identity and the determinant statement it comes from.

    Both right sides are read from one ladder of (-D)^j, built once per call.
    """
    report = IdentityReport("op-cassini")
    signed = _power_ladder(-D, n_max)  # (-1)^j D^j
    for n in range(1, n_max + 1):
        lhs = fib_op(n + 1) * fib_op(n - 1) - fib_op(n) ** 2
        report.check({"n": n}, lhs, -signed[n - 1])
        report.check({"n": n, "form": "det"}, qh_power(n).det(), signed[n])
    return report


def _upper_row(a: int, entries, above: dict[int, OpPoly] | None = None) -> dict[int, OpPoly]:
    """Row a of a symmetric table T, keyed by b: the entries T[a][a], T[a][a+1], ...

    Only the upper triangle is built.  Given the row above, T[a][a-1] is
    read from it as T[a-1][a], so each unordered entry is computed once.
    """
    row = {} if above is None else {a - 1: above[a]}
    row.update(enumerate(entries, a))
    return row


def _product_row(a: int, top: int, above: dict[int, OpPoly] | None = None) -> dict[int, OpPoly]:
    """F_a F_b for b = a, ..., top, keyed by b, and F_a F_(a-1) read from the row above."""
    return _upper_row(a, (fib_op(a) * fib_op(b) for b in range(a, top + 1)), above)


def _power_ladder(x: OpPoly, top: int) -> list[OpPoly]:
    """x^0, x^1, ..., x^top by repeated multiplication."""
    ladder = [OpPoly.one()]
    for _ in range(top):
        ladder.append(ladder[-1] * x)
    return ladder


def verify_addition(m_max: int = 12, n_max: int = 12) -> IdentityReport:
    """The four index-addition formulas on an m x n grid.

    Each product F_a F_b, and its shift D F_a F_b, is computed once per
    call and read for both index orders: a window of upper product rows
    for m and m + 1, and of shifted rows for m - 1 and m, slides down the
    grid, and each case (m, n) with m <= n is checked with its mirror
    (n, m), which reads the same products with the two splits swapped.
    Every case is still its own sum.
    """
    report = IdentityReport("op-addition")
    side, top = min(m_max, n_max), max(m_max, n_max) + 1

    def check(m: int, n: int, outer: tuple, right: tuple, left: tuple, inner: tuple) -> None:
        for form, index, (product, shift) in (
            ("m+n+1", m + n + 1, outer),
            ("m+n, split right", m + n, right),
            ("m+n, split left", m + n, left),
            ("m+n-1", m + n - 1, inner),
        ):
            report.check({"m": m, "n": n, "form": form}, fib_op(index), product + shift)

    row = _product_row(0, top)
    shifted = _upper_row(0, (D * row[b] for b in range(top)))
    row = _product_row(1, top, row)
    for m in range(1, side + 1):
        nxt = _product_row(m + 1, top, row)
        shifted_prev, shifted = shifted, _upper_row(m, (D * row[b] for b in range(m, top)), shifted)
        for n in range(m, top):
            outer, inner = (nxt[n + 1], shifted[n]), (row[n], shifted_prev[n - 1])
            right, left = (nxt[n], shifted[n - 1]), (row[n + 1], shifted_prev[n])
            if n <= n_max:
                check(m, n, outer, right, left, inner)
            if m < n <= m_max:
                check(n, m, outer, left, right, inner)
        row = nxt
    return report


def verify_cayley_hamilton(k_max: int = 15) -> IdentityReport:
    """Q^2 = Q + D*I and the collapsed power Q^k = F_k Q + D F_(k-1) I."""
    report = IdentityReport("op-cayley-hamilton")
    q = qh_matrix()
    identity = OpMatrix2.identity()
    report.check({"form": "characteristic"}, q * q, q + D * identity)
    for k in range(1, k_max + 1):
        report.check(
            {"k": k, "form": "collapsed power"},
            qh_power(k),
            fib_op(k) * q + (D * fib_op(k - 1)) * identity,
        )
    return report


def verify_inverse_powers(n_max: int = 12) -> IdentityReport:
    """Adjugate-style inverses, multiplicatively: Q^n * M = D^n * I.

    Inverses of Q^n live outside Q[D] (they need D^-n), so the checks
    clear denominators and stay polynomial.  Each Q^n is built once per
    process, by qh_power, and shared by the three checks at n; each D^n is
    read from a ladder built once per call.
    """
    report = IdentityReport("op-inverse-powers")
    identity = OpMatrix2.identity()
    q, zero = qh_matrix(), OpPoly.zero()
    d_powers = _power_ladder(D, n_max)
    for n in range(1, n_max + 1):
        power = qh_power(n)
        adj = OpMatrix2(
            D * fib_op(n - 1), -1 * fib_op(n), (-1 * D) * fib_op(n), fib_op(n + 1)
        )
        signed = (-1) ** n * adj
        target = OpMatrix2(d_powers[n], zero, zero, d_powers[n])  # D^n I
        report.check({"n": n, "side": "right"}, power * signed, target)
        report.check({"n": n, "side": "left"}, signed * power, target)
        combo = (-1) ** (n + 1) * (fib_op(n) * q - fib_op(n + 1) * identity)
        report.check({"n": n, "form": "linear combination"}, combo * power, target)
    return report


def _horner(x: TermRing | int, coeffs: list[TermRing]) -> TermRing:
    """sum_i coeffs[i] x^(len(coeffs) - 1 - i), by Horner's rule in x."""
    acc = coeffs[0]
    for c in coeffs[1:]:
        acc = acc * x + c
    return acc


def verify_power_sums(n_max: int = 6, k_max: int = 6) -> IdentityReport:
    """Binomial expansions of F_(kn) in terms of F_k, F_(k-1) and F_(k+1).

    Both forms are sums sum_i C(n, i) x^(n-i) c_i w_i over the weights
    w_i = F_k^i F_i: x = D F_(k-1) with c_i = 1, and x = F_(k+1) with
    c_i = (-1)^(i+1).  Each sum is taken by Horner's rule in x (Knuth,
    TAOCP vol. 2, 4.6.4), n products by the small x and no power of it.
    The weights are built once per k and scaled by C(n, i) once per
    (k, n), for both forms: since x^(n-i) (-1)^(i+1) = (-1)^(n+1) (-x)^(n-i),
    the F_(k+1) form is (-1)^(n+1) times the sum in -F_(k+1) with c_i = 1.
    """
    report = IdentityReport("op-power-sums")
    for k in range(1, k_max + 1):
        weighted = [p * fib_op(i) for i, p in enumerate(_power_ladder(fib_op(k), n_max))]
        shifted, negated = D * fib_op(k - 1), -fib_op(k + 1)
        for n in range(1, n_max + 1):
            target = fib_op(k * n)
            scaled = [comb(n, i) * weighted[i] for i in range(n + 1)]
            report.check({"k": k, "n": n, "form": "F_(k-1) weights"}, _horner(shifted, scaled), target)
            alt = (-1) ** (n + 1) * _horner(negated, scaled)
            report.check({"k": k, "n": n, "form": "F_(k+1) weights"}, alt, target)
    return report


def verify_catalan(n_max: int = 15) -> IdentityReport:
    """Catalan identity F_(n-m) F_(n+m) - F_n^2 = (-1)^(n+1-m) D^(n-m) F_m^2.

    Each product is computed once per call: the squares F_0^2 ... F_N^2
    are built once and read by both sides, and each signed shift
    (-1)^(j+1) D^j once, into a ladder.
    """
    report = IdentityReport("op-catalan")
    squares = [fib_op(j) ** 2 for j in range(n_max + 1)]
    signed = [-p for p in _power_ladder(-D, n_max)]  # (-1)^(j+1) D^j
    for n in range(1, n_max + 1):
        for m in range(1, n + 1):
            lhs = fib_op(n - m) * fib_op(n + m) - squares[n]
            report.check({"n": n, "m": m}, lhs, signed[n - m] * squares[m])
    return report


def verify_docagne(bound: int = 15) -> IdentityReport:
    """d'Ocagne identity F_m F_(n+1) - F_(m+1) F_n, both index orders.

    For m >= n the right side is (-1)^n D^n F_(m-n); for m < n the
    negative index appears and the denominator-cleared form is
    (-1)^n D^m g_(n-m) = (-D)^m (-1)^(n-m) g_(n-m).  Each product F_a F_b
    is computed once per call and read for both index orders: two upper
    product rows, for m and m + 1, slide down the grid, and each case
    (m, n) with m < n is checked with its mirror (n, m), whose left side
    is the same two products subtracted the other way.  The (-D)^j and
    the signed (-1)^j g_j are built once per call and read from there.
    """
    report = IdentityReport("op-docagne")
    top = bound + 1
    signed_d = _power_ladder(-D, bound)
    signed_g = [(-1) ** j * neg_fib_op(j) for j in range(bound)]

    def check(m: int, n: int, lhs: OpPoly) -> None:
        if m >= n:
            rhs = signed_d[n] * fib_op(m - n)
            branch = "m >= n"
        else:
            rhs = signed_d[m] * signed_g[n - m]
            branch = "m < n"
        report.check({"m": m, "n": n, "branch": branch}, lhs, rhs)

    row = _product_row(1, top)
    for m in range(1, bound + 1):
        nxt = _product_row(m + 1, top)
        check(m, m, row[m + 1] - row[m + 1])  # F_(m+1) F_m read as F_m F_(m+1)
        for n in range(m + 1, bound + 1):
            first, second = row[n + 1], nxt[n]  # F_m F_(n+1) and F_(m+1) F_n
            check(m, n, first - second)
            check(n, m, second - first)
        row = nxt
    return report


def verify_neg_index(n_max: int = 20) -> IdentityReport:
    """Reflection g_n = (-1)^(n-1) F_n, recurrence route against closed form."""
    report = IdentityReport("op-negative-index")
    for n in range(n_max + 1):
        sign = 1 if n % 2 else -1
        report.check({"n": n}, neg_fib_op(n), sign * fib_op(n))
    return report


def verify_doubling(n_max: int = 20) -> IdentityReport:
    """Index doubling sum_(i) C(n,i) D^(n-i) F_i = F_(2n), by Horner's rule in D."""
    report = IdentityReport("op-doubling")
    for n in range(1, n_max + 1):
        lhs = _horner(D, [comb(n, i) * fib_op(i) for i in range(n + 1)])
        report.check({"n": n}, lhs, fib_op(2 * n))
    return report


def verify_alternating(n_max: int = 20) -> IdentityReport:
    """Alternating sum sum_(i) C(n,i) (-1)^(n-i) F_i = (-1)^(n-1) F_n, by Horner's rule in -1."""
    report = IdentityReport("op-alternating")
    for n in range(1, n_max + 1):
        lhs = _horner(-1, [comb(n, i) * fib_op(i) for i in range(n + 1)])
        report.check({"n": n}, lhs, (-1) ** (n - 1) * fib_op(n))
    return report


def verify_binet(n_max: int = 25) -> IdentityReport:
    """Exact Binet route against the closed binomial form."""
    report = IdentityReport("op-binet")
    for n in range(n_max + 1):
        report.check({"n": n}, binet_fib(n), fib_op(n))
    return report


def verify_symmetric_lemmas() -> IdentityReport:
    """Symmetric functions of the extension roots, reduced to Q[D].

    They are the coefficients of the generating-function denominators,
    checked here one by one in Q[D][s]; annihilator builds those
    denominators in Z[D] by the Fibonomial rule, with no extension.
    """
    report = IdentityReport("op-symmetric-lemmas")
    lp, lm = lambda_plus(), lambda_minus()
    one = OpPoly.one()

    def even_value(x: SqrtExt, label: str) -> OpPoly:
        report.check({"lemma": label, "part": "odd"}, x.odd, OpPoly.zero())
        return x.even

    report.check({"lemma": "sum"}, even_value(lp + lm, "sum"), one)
    report.check({"lemma": "product"}, even_value(lp * lm, "product"), -1 * D)
    diff = lp - lm
    report.check({"lemma": "difference squared"}, even_value(diff * diff, "difference squared"), one + 4 * D)
    report.check({"lemma": "power sum 2"}, even_value(lp * lp + lm * lm, "power sum 2"), one + 2 * D)
    prod = lp * lm
    report.check({"lemma": "product squared"}, even_value(prod * prod, "product squared"), D * D)
    report.check(
        {"lemma": "power sum 3"},
        even_value(lp**3 + lm**3, "power sum 3"),
        one + 3 * D,
    )
    report.check(
        {"lemma": "mixed cubic"},
        even_value(lp * lp * lm + lp * lm * lm, "mixed cubic"),
        -1 * D,
    )
    report.check({"lemma": "product cubed"}, even_value(prod**3, "product cubed"), -1 * D**3)
    return report


def verify_operators(n_max: int | None = None) -> list[IdentityReport]:
    """All operator suites; n_max, when given, overrides every scale."""
    scale = suite_scale(n_max)
    return [
        verify_matrix_powers(scale(10)),
        verify_cassini(scale(20)),
        verify_addition(scale(12), scale(12)),
        verify_cayley_hamilton(scale(15)),
        verify_inverse_powers(scale(12)),
        verify_power_sums(scale(6), scale(6)),
        verify_catalan(scale(15)),
        verify_docagne(scale(15)),
        verify_neg_index(scale(20)),
        verify_doubling(scale(20)),
        verify_alternating(scale(20)),
        verify_binet(scale(25)),
        verify_symmetric_lemmas(),
    ]
