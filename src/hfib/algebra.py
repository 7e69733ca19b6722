"""Exact sparse polynomials in the deformation parameters h, h' and q.

Everything downstream reduces its claims to equalities in the ring
Q[h, h', q], so this module is deliberately strict: coefficients are
exact rationals (int or fractions.Fraction), floats are rejected, and
equality of polynomials is equality of term maps.  The second parameter
h' is written ``hp`` throughout (it is an independent variable, not a
derivative).

Representation.  A polynomial is a dict from a packed exponent key to a
nonzero coefficient.  The three exponents occupy 21-bit lanes of one
integer, ``(eh << 42) | (ehp << 21) | eq``, so that integer addition of
keys is exponent-vector addition and the shared term-map kernels
(hfib.kernels) stay univariate in shape.  Lane overflow is impossible in
practice (degrees beyond 2**21 are unreachable at this library's scale)
but multiplication guards it anyway.

Canonical term order is graded lexicographic with h > hp > q, ascending,
i.e. sorted by (total degree, h-exponent, hp-exponent, q-exponent).
Rendering and the JSON wire format both follow it.

The JSON wire format for a polynomial is a list of term objects
``{"coeff": "num/den", "h": int, "hp": int, "q": int}`` in canonical
order, where omitted exponent keys mean zero and the coefficient string
is the exact rational (no denominator part when it is 1).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import lcm
from typing import Iterable, Union

from hfib.kernels import kadd, kmul, kpow, kscale

Scalar = Union[int, Fraction]

VARIABLES = ("h", "hp", "q")

_LANE_BITS = 21
_LANE_LIMIT = 1 << _LANE_BITS
_LANE_MASK = _LANE_LIMIT - 1
_HP_SHIFT = _LANE_BITS
_H_SHIFT = 2 * _LANE_BITS


class DivergentLimitError(ArithmeticError):
    """The classical limit h*hp = 1, h -> 0 does not exist for this polynomial."""


def _pack(eh: int, ehp: int, eq: int) -> int:
    if eh < 0 or ehp < 0 or eq < 0:
        raise ValueError("exponents must be non-negative")
    if eh >= _LANE_LIMIT or ehp >= _LANE_LIMIT or eq >= _LANE_LIMIT:
        raise OverflowError(f"exponent beyond lane capacity {_LANE_LIMIT - 1}")
    return (eh << _H_SHIFT) | (ehp << _HP_SHIFT) | eq


def _unpack(key: int) -> tuple[int, int, int]:
    return key >> _H_SHIFT, (key >> _HP_SHIFT) & _LANE_MASK, key & _LANE_MASK


def _coerce_scalar(value) -> Scalar:
    """Accept an exact rational, demoting integral Fractions to int."""
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    raise TypeError(f"expected an exact rational (int or Fraction), got {type(value).__name__}")


def _sort_key(exponents: tuple[int, int, int]) -> tuple[int, int, int, int]:
    eh, ehp, eq = exponents
    return (eh + ehp + eq, eh, ehp, eq)


def _taylor_shift(coeffs: list[int], delta: int) -> list[int]:
    """Ascending coefficients of p(x + delta), given those of p(x).

    The shift by one is d rounds of running sums (Horner's scheme, by
    additions only).  Any other delta is that shift between two diagonal
    scalings: with b_j = a_j * delta**j, p(delta*y + delta) = sum b_j (y+1)**j,
    and the coefficient of y**j there is delta**j times that of x**j.
    """
    d = len(coeffs) - 1
    if d == 0:
        return coeffs
    if delta != 1:
        powers = [delta**j for j in range(d + 1)]
        coeffs = [c * p for c, p in zip(coeffs, powers)]
    top_down = coeffs[::-1]
    for n in range(d + 1, 1, -1):
        top_down[:n] = accumulate(top_down[:n])
    shifted = top_down[::-1]
    if delta != 1:
        shifted = [c // p for c, p in zip(shifted, powers)]
    return shifted


def _power_table(x: Fraction, exponents: set[int]) -> tuple[dict[int, int], int]:
    """x**e as t[e] / b**m for each e in exponents, with x = a/b and m the largest.

    Returns (t, b**m).  Only the exponents that occur get an entry, so a
    sparse high-degree polynomial does not pay for every power below m.
    """
    a, b = x.numerator, x.denominator
    m = max(exponents, default=0)
    return {e: a**e * b ** (m - e) for e in exponents}, b**m


class HPoly:
    """Sparse exact polynomial in h, hp and q.

    Instances are immutable in intent: no public method mutates, and all
    arithmetic returns fresh objects.  Construct via :meth:`const`,
    :meth:`variable`, :meth:`from_terms` or the module constants H, HP, Q.
    """

    __slots__ = ("_terms", "_max_exponents")

    def __init__(self, terms: dict[int, Scalar] | None = None):
        # Internal: `terms` must already be packed, coerced and zero-free.
        self._terms: dict[int, Scalar] = {} if terms is None else terms
        # Filled by max_exponents on first use; the term map never changes.
        self._max_exponents: tuple[int, int, int] | None = None

    # -- construction ------------------------------------------------

    @classmethod
    def zero(cls) -> "HPoly":
        return cls()

    @classmethod
    def one(cls) -> "HPoly":
        return cls({0: 1})

    @classmethod
    def const(cls, value) -> "HPoly":
        c = _coerce_scalar(value)
        return cls({0: c} if c else {})

    @classmethod
    def variable(cls, name: str) -> "HPoly":
        if name not in VARIABLES:
            raise ValueError(f"unknown variable {name!r}, expected one of {VARIABLES}")
        exponents = [0, 0, 0]
        exponents[VARIABLES.index(name)] = 1
        return cls({_pack(*exponents): 1})

    @classmethod
    def from_terms(cls, terms: Iterable[tuple[tuple[int, int, int], Scalar]]) -> "HPoly":
        """Build from ((eh, ehp, eq), coeff) pairs, merging duplicates."""
        acc: dict[int, Scalar] = {}
        for (eh, ehp, eq), coeff in terms:
            c = _coerce_scalar(coeff)
            if not c:
                continue
            key = _pack(eh, ehp, eq)
            total = acc.get(key, 0) + c
            if total:
                acc[key] = total
            else:
                acc.pop(key, None)
        return cls(acc)

    # -- predicates and views ----------------------------------------

    def __bool__(self) -> bool:
        return bool(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def terms(self) -> list[tuple[tuple[int, int, int], Scalar]]:
        """Terms as ((eh, ehp, eq), coeff) in canonical order."""
        items = [(_unpack(key), coeff) for key, coeff in self._terms.items()]
        items.sort(key=lambda item: _sort_key(item[0]))
        return items

    def __len__(self) -> int:
        return len(self._terms)

    @property
    def total_degree(self) -> int:
        if not self._terms:
            return 0
        return max(sum(_unpack(key)) for key in self._terms)

    def max_exponents(self) -> tuple[int, int, int]:
        """Per-variable maximum exponents (0, 0, 0) for the zero polynomial."""
        if self._max_exponents is not None:
            return self._max_exponents
        mh = mhp = mq = 0
        for key in self._terms:
            eh, ehp, eq = _unpack(key)
            if eh > mh:
                mh = eh
            if ehp > mhp:
                mhp = ehp
            if eq > mq:
                mq = eq
        self._max_exponents = (mh, mhp, mq)
        return self._max_exponents

    def constant_term(self) -> Scalar:
        return self._terms.get(0, 0)

    # -- ring operations ---------------------------------------------

    def _coerce_operand(self, other) -> "HPoly | None":
        if isinstance(other, HPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return HPoly.const(other)
        return None

    def __add__(self, other) -> "HPoly":
        rhs = self._coerce_operand(other)
        if rhs is None:
            return NotImplemented
        return HPoly(kadd(self._terms, rhs._terms))

    __radd__ = __add__

    def __neg__(self) -> "HPoly":
        return HPoly(kscale(self._terms, -1))

    def __sub__(self, other) -> "HPoly":
        rhs = self._coerce_operand(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other) -> "HPoly":
        rhs = self._coerce_operand(other)
        if rhs is None:
            return NotImplemented
        return rhs + (-self)

    def __mul__(self, other) -> "HPoly":
        if isinstance(other, HPoly):
            sh, shp, sq = self.max_exponents()
            oh, ohp, oq = other.max_exponents()
            if (
                sh + oh >= _LANE_LIMIT
                or shp + ohp >= _LANE_LIMIT
                or sq + oq >= _LANE_LIMIT
            ):
                raise OverflowError("product degree beyond lane capacity")
            return HPoly(kmul(self._terms, other._terms))
        if isinstance(other, (int, Fraction)):
            return HPoly(kscale(self._terms, _coerce_scalar(other)))
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "HPoly":
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            raise ValueError("negative powers are not representable in Q[h, hp, q]")
        mh, mhp, mq = self.max_exponents()
        if max(mh, mhp, mq) * max(exponent, 1) >= _LANE_LIMIT:
            raise OverflowError("power degree beyond lane capacity")
        return HPoly(kpow(self._terms, exponent))

    def __eq__(self, other) -> bool:
        if isinstance(other, HPoly):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self._terms == HPoly.const(other)._terms
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    # -- substitutions ------------------------------------------------

    def shift_hprime(self, delta: int) -> "HPoly":
        """Substitute hp -> hp + delta, expanding exactly.

        Terms are grouped by their (h, q) exponents; each group is a dense
        polynomial in hp and gets a Taylor shift by integer additions
        (von zur Gathen & Gerhard, "Fast algorithms for Taylor shifts and
        certain difference equations", ISSAC 1997).  Fraction coefficients
        are first put over one common denominator, so the shift runs on
        ints and integral results come back as ints.
        """
        if not isinstance(delta, int):
            raise TypeError("shift amount must be an integer")
        if delta == 0 or not self._terms:
            return self
        den = lcm(*(c.denominator for c in self._terms.values() if type(c) is not int))
        groups: dict[int, list[int]] = {}
        for key, coeff in self._terms.items():
            ehp = (key >> _HP_SHIFT) & _LANE_MASK
            lane = groups.setdefault(key ^ (ehp << _HP_SHIFT), [])
            if len(lane) <= ehp:
                lane.extend([0] * (ehp + 1 - len(lane)))
            lane[ehp] = coeff if den == 1 else (coeff * den).numerator
        acc: dict[int, Scalar] = {}
        for base, lane in groups.items():
            for ehp, c in enumerate(_taylor_shift(lane, delta)):
                if c:
                    acc[base | (ehp << _HP_SHIFT)] = (
                        c if den == 1 else _coerce_scalar(Fraction(c, den))
                    )
        return HPoly(acc)

    def substitute_q(self, value) -> "HPoly":
        """Substitute an exact rational for q, returning a polynomial in h, hp."""
        v = Fraction(value)
        acc: dict[int, Scalar] = {}
        for key, coeff in self._terms.items():
            eq = key & _LANE_MASK
            c = _coerce_scalar(coeff * v**eq) if eq else coeff
            if not c:
                continue
            new_key = key ^ eq
            total = acc.get(new_key, 0) + c
            if total:
                acc[new_key] = total
            else:
                acc.pop(new_key, None)
        return HPoly(acc)

    def eval_point(self, h, hp, q=0) -> Fraction:
        """Evaluate at an exact rational point.

        With h = a/b, hp = c/d, q = e/f and (mh, mhp, mq) the maximum
        exponents, every term is an integer over the one denominator
        b**mh * d**mhp * f**mq, read from power tables built once.
        """
        hv, hpv, qv = Fraction(h), Fraction(hp), Fraction(q)
        keys = self._terms.keys()
        th, h_den = _power_table(hv, {key >> _H_SHIFT for key in keys})
        thp, hp_den = _power_table(hpv, {(key >> _HP_SHIFT) & _LANE_MASK for key in keys})
        tq, q_den = _power_table(qv, {key & _LANE_MASK for key in keys})
        whole = 0
        part = Fraction(0)
        for key, coeff in self._terms.items():
            value = (
                th[key >> _H_SHIFT] * thp[(key >> _HP_SHIFT) & _LANE_MASK] * tq[key & _LANE_MASK]
            )
            if type(coeff) is int:
                whole += coeff * value
            else:
                part += coeff * value
        return (whole + part) / (h_den * hp_den * q_den)

    def classical_limit(self) -> Fraction:
        """Limit under hp = 1/h, h -> 0 (the constraint h*hp = 1).

        A monomial c*h^a*hp^b becomes c*h^(a-b): it vanishes when a > b,
        survives when a == b and diverges when a < b.  Divergence is
        judged per monomial (no cancellation between monomials), which is
        the conservative contract this library checks against.
        """
        total = Fraction(0)
        for key, coeff in self._terms.items():
            eh, ehp, eq = _unpack(key)
            if eq:
                raise ValueError("classical limit is defined only for q-free polynomials")
            if eh < ehp:
                raise DivergentLimitError(
                    f"monomial with h-exponent {eh} < hp-exponent {ehp} diverges as h -> 0"
                )
            if eh == ehp:
                total += coeff
        return total

    # -- rendering and wire format ------------------------------------

    def __str__(self) -> str:
        return render_terms(
            [((eh, ehp, eq), coeff) for (eh, ehp, eq), coeff in self.terms()],
            VARIABLES,
        )

    def __repr__(self) -> str:
        return f"HPoly({self})"

    def to_json_terms(self) -> list[dict]:
        out = []
        for (eh, ehp, eq), coeff in self.terms():
            obj: dict = {"coeff": str(coeff)}
            if eh:
                obj["h"] = eh
            if ehp:
                obj["hp"] = ehp
            if eq:
                obj["q"] = eq
            out.append(obj)
        return out

    @classmethod
    def from_json_terms(cls, data: Iterable[dict]) -> "HPoly":
        return cls.from_terms(
            (
                (term.get("h", 0), term.get("hp", 0), term.get("q", 0)),
                Fraction(term["coeff"]),
            )
            for term in data
        )


H = HPoly.variable("h")
HP = HPoly.variable("hp")
Q = HPoly.variable("q")


def render_terms(terms: list, variable_names: tuple[str, ...]) -> str:
    """Render ordered (exponent-tuple, coeff) pairs as '1 + 3*h*hp - h^2'."""
    if not terms:
        return "0"
    pieces: list[str] = []
    for exponents, coeff in terms:
        factors = []
        for name, e in zip(variable_names, exponents):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        negative = coeff < 0
        magnitude = -coeff if negative else coeff
        if factors and magnitude == 1:
            body = "*".join(factors)
        elif factors:
            body = "*".join([str(magnitude), *factors])
        else:
            body = str(magnitude)
        if not pieces:
            pieces.append(f"-{body}" if negative else body)
        else:
            pieces.append(f"- {body}" if negative else f"+ {body}")
    return " ".join(pieces)


def shifted_factorial(start, step, count: int) -> HPoly:
    """Product start * (start + step) * ... * (start + (count-1)*step).

    `start` and `step` may each be a polynomial or an exact rational.
    count = 0 gives the empty product 1.
    """
    if not isinstance(count, int) or count < 0:
        raise ValueError("shifted factorial length must be a non-negative integer")
    base = start if isinstance(start, HPoly) else HPoly.const(start)
    increment = step if isinstance(step, HPoly) else HPoly.const(step)
    result = HPoly.one()
    for j in range(count):
        result = result * (base + j * increment)
    return result


@lru_cache(maxsize=None)
def _d_step(k: int) -> HPoly:
    if k == 0:
        return HPoly.one()
    # d_image fills the cache bottom-up, so this read is a cache hit.
    return _d_step(k - 1) * (H * (HP + (k - 1)))


def d_image(k: int) -> HPoly:
    """The h-deformation weight h^k * (hp)(hp+1)...(hp+k-1), the image of D^k."""
    if not isinstance(k, int) or k < 0:
        raise ValueError("d_image needs a non-negative integer power of D")
    for j in range(k):
        _d_step(j)
    return _d_step(k)


def rising_rational(start, count: int) -> Fraction:
    """Numeric shifted factorial start*(start+1)*...*(start+count-1)."""
    if count < 0:
        raise ValueError("rising factorial length must be non-negative")
    value = Fraction(1)
    x = Fraction(start)
    for j in range(count):
        value *= x + j
    return value
