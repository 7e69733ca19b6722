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

qh_powers(n) walks Q^1 ... Q^n holding one power, each from the one
before by moving entries and shifting a column by D, so it takes no
product; OpMatrix2 also holds the integer images of a power.  The grid
suites (addition, d'Ocagne, Catalan, both forms of Cassini, power sums,
inverse powers) check their polynomial identities on integer images,
with no term map per case.
Evaluation at D = 2^B is a ring map Z[D] -> Z, one-to-one on the
polynomials whose coefficients are below 2^(B-1) in size, and
||x y||_1 <= ||x||_1 ||y||_1.  Each call reads the l1 norms of the
objects it checks, bounds ||lhs||_1 + ||rhs||_1 over its cases, picks
the fewest lane bits B that put that bound below 2^(B-1), and images each
input once through the Kronecker lane codec of hfib.kernels (kpack).  A
case is then big-integer products and sums, a D^j is a shift by B j
bits, and equal images prove lhs = rhs, since
||lhs - rhs||_inf <= ||lhs||_1 + ||rhs||_1 < 2^(B-1) (Kronecker, 1882;
Harvey, J. Symbolic Comput. 44, 2009).  A failing case is decoded back
to Q[D] (kunpack), so its witness shows both sides as polynomials.  The
d'Ocagne and addition suites walk their grids in natural (m, n) order
and take each ordered product F_a F_b once per call, from two sliding
rows of image products.  The binomial power sums are taken by Horner's
rule in their small factor, and each weight is scaled by C(n, i) once
for both forms.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, islice, repeat, zip_longest
from math import comb
from operator import add, index, mul, sub
from typing import Iterator, NamedTuple

from hfib.algebra import (
    HPoly, Scalar, TermRing, _coerce_scalar, common_denominator, d_image, rising_numerators, rising_rows
)
from hfib.kernels import binary_power, kpack, kunpack
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
    m = common_denominator(terms.values())
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
    m = common_denominator(terms.values())
    e, fd = hv.numerator, hv.denominator * hpv.denominator
    total, e_power = 0, 1
    for k, r in enumerate(rising_numerators(hpv.numerator, hpv.denominator, x.degree)):
        c = terms.get(k)
        total = total * fd + (c.numerator * (m // c.denominator) * e_power * r if c else 0)
        e_power *= e
    return Fraction(total, m * fd**x.degree)


# -- the 2x2 operator matrix ------------------------------------------


class OpMatrix2(NamedTuple):
    """2x2 matrix over Q[D], or of the images of its entries; row-major a11, a12, a21, a22.

    Its product, det, scalar * and - use only +, - and * on entries.  A
    tuple underneath: __mul__ and __rmul__ scale by any non-tuple, where a
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
        return OpMatrix2(*map(add, self, other))

    def __sub__(self, other: "OpMatrix2") -> "OpMatrix2":
        return OpMatrix2(*map(sub, self, other))

    def __mul__(self, other) -> "OpMatrix2":
        if isinstance(other, OpMatrix2):
            a, b, c, d = self
            e, f, g, h = other
            return OpMatrix2(a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)
        if isinstance(other, tuple):
            return NotImplemented
        return OpMatrix2(*(x * other for x in self))

    __rmul__ = __mul__  # only a scalar reaches it, and entries commute with scalars

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


def qh_powers(n_max: int) -> Iterator[OpMatrix2]:
    """Q^1, ..., Q^n_max for Q = [[1, 1], [D, 0]], walked one power at a time.

    [[a, b], [c, d]] * Q = [[a + D b, a], [c + D d, c]] only moves entries
    and shifts a column by D, so the walk takes no product of term maps and
    holds only the current power.  A bad n_max is refused at the call.
    """
    if not isinstance(n_max, int) or n_max < 0:
        raise ValueError("matrix powers are counted by an integer n_max >= 0")

    def times_q(power: OpMatrix2, _) -> OpMatrix2:
        a, b, c, d = power
        return OpMatrix2(a + D * b, a, c + D * d, c)

    return islice(accumulate(repeat(None), times_q, initial=qh_matrix()), n_max)


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


def _l1(x: OpPoly) -> int:
    """||x||_1, the sum of the absolute values of the coefficients of x."""
    return sum(map(abs, x._terms.values()))


def _image_width(bound: int) -> int:
    """Lane bits B of a call's images at 2^B, the fewest with bound < 2^(B-1).

    bound is at least ||lhs||_1 + ||rhs||_1 for every case of the call, so
    equal images prove lhs = rhs and each side decodes from its image.
    """
    return bound.bit_length() + 1


def _images(xs, width: int) -> list[int]:
    """The image at 2^width of each operator; a Fraction coefficient raises TypeError."""
    return [kpack(x._terms, width) for x in xs]


def _signed_shift(image: int, j: int, width: int) -> int:
    """The image of (-D)^j x, given that of x."""
    return (-image if j & 1 else image) << (width * j)


def _decode(image, width: int):
    """The operator, or for an OpMatrix2 of images the OpMatrix2, whose image this is."""
    if isinstance(image, OpMatrix2):
        return OpMatrix2(*(_decode(entry, width) for entry in image))
    return OpPoly(kunpack(image, width))


def _check_images(report: IdentityReport, params: dict, lhs, rhs, width: int) -> None:
    """One case on images; a failing one is checked on its decoded sides, for the witness."""
    if lhs == rhs:
        report.check(params, lhs, rhs)
    else:
        report.check(params, _decode(lhs, width), _decode(rhs, width))


def verify_matrix_powers(n_max: int = 10) -> IdentityReport:
    """Powers of [[1,1],[D,0]] tile operator Fibonacci numbers.

    Structural check of all four entries of the n-th power, then the
    evaluated form of each entry via the composition rule.
    """
    report = IdentityReport("op-matrix-powers")
    for n, p in enumerate(qh_powers(n_max), 1):
        expected = OpMatrix2(fib_op(n + 1), fib_op(n), D * fib_op(n), D * fib_op(n - 1))
        report.check({"n": n, "entries": "structural"}, p, expected)
        report.check({"n": n, "entry": "11"}, op_eval(p.a11), op_eval(fib_op(n + 1)))
        report.check({"n": n, "entry": "12"}, op_eval(p.a12), op_eval(fib_op(n)))
        report.check({"n": n, "entry": "21"}, op_eval(p.a21), _ev_shift(fib_op(n), 1))
        report.check({"n": n, "entry": "22"}, op_eval(p.a22), _ev_shift(fib_op(n - 1), 1))
    return report


def verify_cassini(n_max: int = 20) -> IdentityReport:
    """Cassini identity F_(n+1) F_(n-1) - F_n^2 = -(-D)^(n-1) and det Q^n = (-D)^n, on images.

    The determinant form images the four entries of each Q^n from
    qh_powers and takes the det of that OpMatrix2 of images.  With M the
    largest ||F_k||_1, k <= n_max + 1, and P the largest ||entry||_1 of
    Q^1..Q^n_max, each case has ||lhs||_1 + ||rhs||_1 <= 2 max(M, P)^2 + 1.
    """
    report = IdentityReport("op-cassini")
    fibs = [fib_op(k) for k in range(n_max + 2)]
    powers = list(qh_powers(n_max))
    most = max(map(_l1, (*fibs, *(x for power in powers for x in power))))
    width = _image_width(2 * most * most + 1)
    f = _images(fibs, width)
    for n, power in enumerate(powers, 1):
        rhs = -_signed_shift(1, n - 1, width)
        _check_images(report, {"n": n}, f[n + 1] * f[n - 1] - f[n] * f[n], rhs, width)
        det = OpMatrix2(*_images(power, width)).det()
        _check_images(report, {"n": n, "form": "det"}, det, _signed_shift(1, n, width), width)
    return report


def verify_addition(m_max: int = 12, n_max: int = 12) -> IdentityReport:
    """The four index-addition formulas on an m x n grid, on images.

    Each right side is a sum S(a, b) = F_(a+1) F_(b+1) + D F_a F_b: at
    (m, n) the forms m+n+1, split right, split left and m+n-1 read S(m, n),
    S(m, n-1), S(m-1, n) and S(m-1, n-1).  The row of S for m is built from
    the image products F_m F_b and F_(m+1) F_b, b <= n_max + 1, and kept
    for m + 1, so each product is taken once per call.  With M the largest
    ||F_k||_1 read, each case has ||lhs||_1 + ||rhs||_1 <= 2 M^2 + M.
    """
    report = IdentityReport("op-addition")
    fibs = [fib_op(k) for k in range(m_max + n_max + 2)]
    most = max(map(_l1, fibs))
    width = _image_width(2 * most * most + most)
    f = _images(fibs, width)
    columns = f[: n_max + 2]

    def sums(row: list[int], nxt: list[int]) -> list[int]:
        return [nxt[b + 1] + (row[b] << width) for b in range(n_max + 1)]

    row = [f[1] * y for y in columns]
    above = sums([f[0] * y for y in columns], row)  # S(0, b)
    for m in range(1, m_max + 1):
        nxt = [f[m + 1] * y for y in columns]
        here = sums(row, nxt)  # S(m, b)
        for n in range(1, n_max + 1):
            for form, index, rhs in (
                ("m+n+1", m + n + 1, here[n]),
                ("m+n, split right", m + n, here[n - 1]),
                ("m+n, split left", m + n, above[n]),
                ("m+n-1", m + n - 1, above[n - 1]),
            ):
                _check_images(report, {"m": m, "n": n, "form": form}, f[index], rhs, width)
        row, above = nxt, here
    return report


def verify_cayley_hamilton(k_max: int = 15) -> IdentityReport:
    """Q^2 = Q + D*I and the collapsed power Q^k = F_k Q + D F_(k-1) I."""
    report = IdentityReport("op-cayley-hamilton")
    q = qh_matrix()
    identity = OpMatrix2.identity()
    report.check({"form": "characteristic"}, q * q, q + D * identity)
    for k, power in enumerate(qh_powers(k_max), 1):
        report.check(
            {"k": k, "form": "collapsed power"},
            power,
            fib_op(k) * q + (D * fib_op(k - 1)) * identity,
        )
    return report


def verify_inverse_powers(n_max: int = 12) -> IdentityReport:
    """Adjugate-style inverses, multiplicatively: Q^n * M = D^n * I, on images.

    Inverses of Q^n live outside Q[D] (they need D^-n), so the checks
    clear denominators and stay polynomial.  Each Q^n from qh_powers is
    imaged once per call into an OpMatrix2 of images; the signed adjugate,
    (-1)^(n+1) (F_n Q - F_(n+1) I) and the target D^n I are OpMatrix2s
    built from the images of the F_k and of D.  With
    P the largest ||entry||_1 of Q^1..Q^n_max and M the largest ||F_k||_1,
    the signed adjugate and the linear combination have entries of l1 norm
    at most 2 M, so each entry of a case has ||lhs||_1 + ||rhs||_1 <= 4 P M + 1.
    """
    report = IdentityReport("op-inverse-powers")
    fibs = [fib_op(k) for k in range(n_max + 2)]
    powers = list(qh_powers(n_max))
    most = max(map(_l1, fibs))
    entry = max(_l1(x) for power in powers for x in power)
    width = _image_width(4 * entry * most + 1)
    f, d = _images(fibs, width), 1 << width  # d is the image of D
    q, identity = OpMatrix2(1, 1, d, 0), OpMatrix2(1, 0, 0, 1)
    for n, power in enumerate(powers, 1):
        power, sign = OpMatrix2(*_images(power, width)), (-1) ** n
        signed = sign * OpMatrix2(d * f[n - 1], -f[n], -d * f[n], f[n + 1])
        combo = -sign * (f[n] * q - f[n + 1] * identity)
        target = d**n * identity
        for params, lhs in (
            ({"n": n, "side": "right"}, power * signed),
            ({"n": n, "side": "left"}, signed * power),
            ({"n": n, "form": "linear combination"}, combo * power),
        ):
            _check_images(report, params, lhs, target, width)
    return report


def _horner(x, coeffs: list):
    """sum_i coeffs[i] x^(len(coeffs) - 1 - i), by Horner's rule in x, on term maps or on images."""
    acc = coeffs[0]
    for c in coeffs[1:]:
        acc = acc * x + c
    return acc


def verify_power_sums(n_max: int = 6, k_max: int = 6) -> IdentityReport:
    """Binomial expansions of F_(kn) in terms of F_k, F_(k-1) and F_(k+1), on images.

    Both forms are sums sum_i C(n, i) x^(n-i) c_i w_i over the weights
    w_i = F_k^i F_i: x = D F_(k-1) with c_i = 1, and x = F_(k+1) with
    c_i = (-1)^(i+1).  Each sum is taken by Horner's rule in x (Knuth,
    TAOCP vol. 2, 4.6.4), n products by the small x and no power of it.
    The weights are built once per k and scaled by C(n, i) once per
    (k, n), for both forms: since x^(n-i) (-1)^(i+1) = (-1)^(n+1) (-x)^(n-i),
    the F_(k+1) form is (-1)^(n+1) times the sum in -F_(k+1) with c_i = 1.
    With W the largest ||F_i||_1, i <= n_max, a sum at (k, n) has l1 norm at
    most W (max(||F_(k-1)||_1, ||F_(k+1)||_1) + ||F_k||_1)^n, and its
    right side F_(kn) at most the largest ||F_(kn)||_1.
    """
    report = IdentityReport("op-power-sums")
    ks, ns = range(1, k_max + 1), range(1, n_max + 1)
    indices = sorted({*range(max(k_max + 1, n_max) + 1), *(k * n for k in ks for n in ns)})
    fibs = {j: fib_op(j) for j in indices}
    norm = {j: _l1(x) for j, x in fibs.items()}
    weight = max(norm[i] for i in range(n_max + 1))
    sums = max(max(norm[k - 1], norm[k + 1]) + norm[k] for k in ks)
    width = _image_width(weight * max(sums, 1) ** n_max + max(norm[k * n] for k in ks for n in ns))
    f = dict(zip(indices, _images(fibs.values(), width)))
    for k in ks:
        weighted, power = [], 1
        for i in range(n_max + 1):
            weighted.append(power * f[i])
            power *= f[k]
        shifted, negated = f[k - 1] << width, -f[k + 1]
        for n in ns:
            target = f[k * n]
            scaled = [comb(n, i) * weighted[i] for i in range(n + 1)]
            lhs = _horner(shifted, scaled)
            _check_images(report, {"k": k, "n": n, "form": "F_(k-1) weights"}, lhs, target, width)
            alt = (-1) ** (n + 1) * _horner(negated, scaled)
            _check_images(report, {"k": k, "n": n, "form": "F_(k+1) weights"}, alt, target, width)
    return report


def verify_catalan(n_max: int = 15) -> IdentityReport:
    """Catalan identity F_(n-m) F_(n+m) - F_n^2 = (-1)^(n+1-m) D^(n-m) F_m^2, on images.

    Each product is computed once per call: the squares F_0^2 ... F_N^2
    are built once and read by both sides.  With M the largest
    ||F_k||_1, k <= 2 n_max, each case has ||lhs||_1 + ||rhs||_1 <= 3 M^2.
    """
    report = IdentityReport("op-catalan")
    fibs = [fib_op(k) for k in range(2 * n_max + 1)]
    most = max(map(_l1, fibs))
    width = _image_width(3 * most * most)
    f = _images(fibs, width)
    squares = [x * x for x in f[: n_max + 1]]
    for n in range(1, n_max + 1):
        for m in range(1, n + 1):
            lhs = f[n - m] * f[n + m] - squares[n]
            _check_images(report, {"n": n, "m": m}, lhs, -_signed_shift(squares[m], n - m, width), width)
    return report


def verify_docagne(bound: int = 15) -> IdentityReport:
    """d'Ocagne identity F_m F_(n+1) - F_(m+1) F_n, both index orders, on images.

    For m >= n the right side is (-1)^n D^n F_(m-n); for m < n the
    negative index appears and the denominator-cleared form is
    (-1)^n D^m g_(n-m) = (-D)^m (-1)^(n-m) g_(n-m).  Two rows of image
    products, F_m F_b and F_(m+1) F_b, slide down the grid, so each product
    is taken once per call.  With M the largest ||F_k||_1, k <= bound + 1,
    and G the largest ||g_j||_1, j < bound, each case has
    ||lhs||_1 + ||rhs||_1 <= 2 M^2 + max(M, G).
    """
    report = IdentityReport("op-docagne")
    fibs = [fib_op(k) for k in range(bound + 2)]
    negs = [neg_fib_op(j) for j in range(bound)]
    most = max(map(_l1, fibs))
    width = _image_width(2 * most * most + max((most, *map(_l1, negs))))
    f = _images(fibs, width)
    signed_g = [-g if j & 1 else g for j, g in enumerate(_images(negs, width))]  # (-1)^j g_j
    row = [f[1] * y for y in f]
    for m in range(1, bound + 1):
        nxt = [f[m + 1] * y for y in f]
        for n in range(1, bound + 1):
            if m >= n:
                rhs, branch = _signed_shift(f[m - n], n, width), "m >= n"
            else:
                rhs, branch = _signed_shift(signed_g[n - m], m, width), "m < n"
            lhs = row[n + 1] - nxt[n]  # F_m F_(n+1) - F_(m+1) F_n
            _check_images(report, {"m": m, "n": n, "branch": branch}, lhs, rhs, width)
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
