"""Exact sparse polynomials: the base class TermRing and its ring HPoly.

TermRing holds what the library's two exact rings share: construction,
arithmetic over the term-map kernels (hfib.kernels), equality, rendering
and the JSON wire format.  Its subclasses are HPoly, the ring Q[h, h', q]
defined here, and OpPoly, the operator ring Q[D] in hfib.operators.

Everything downstream reduces its claims to equalities in these rings,
so this module is deliberately strict: coefficients are exact rationals
(int or fractions.Fraction; bools and integral Fractions are stored as
int), floats are rejected, and equality of polynomials is equality of
term maps.  The second parameter h' is written ``hp`` throughout (it is
an independent variable, not a derivative).

Representation.  A polynomial is a dict from an integer key to a nonzero
coefficient.  OpPoly's key is the D-exponent.  HPoly's three exponents
occupy 22-bit lanes of one integer, ``(eh << 44) | (ehp << 22) | eq``,
so that integer addition of keys is exponent-vector addition.  Each
exponent is at most 2**21 - 1, so bit 21 of every lane is a guard bit
that no valid key sets.  Two valid exponents sum to less than 2**22, so
a product never carries from one lane into the next, and it overflowed
exactly when one of its keys sets a guard bit; HPoly's multiplication
refuses it then.

Canonical term order is graded lexicographic, ascending: by total degree,
then by the exponent tuple (h, hp, q).  Rendering and the JSON wire
format both follow it.

The JSON wire format for a polynomial is a list of term objects
``{"coeff": "num/den", "h": int, "hp": int, "q": int}`` (``"d"`` for
OpPoly) in canonical order, where omitted exponent keys mean zero and
the coefficient string is the exact rational (no denominator part when
it is 1).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from itertools import accumulate
from math import lcm
from operator import add, mul, or_
from typing import Iterable, Sequence, Union

from hfib.kernels import kadd, kmul, kpow, kscale, ksub, taylor_shift

Scalar = Union[int, Fraction]

VARIABLES = ("h", "hp", "q")

# Exponents stay below _LANE_LIMIT; the lane's top bit is the guard bit.
_LANE_LIMIT = 1 << 21
_LANE_BITS = 22
_LANE_MASK = (1 << _LANE_BITS) - 1
_HP_SHIFT = _LANE_BITS
_H_SHIFT = 2 * _LANE_BITS
_GUARD = (_LANE_LIMIT << _H_SHIFT) | (_LANE_LIMIT << _HP_SHIFT) | _LANE_LIMIT
_KEY_BITS = 3 * _LANE_BITS


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
    """Accept an exact rational, demoting bools and integral Fractions to int."""
    if type(value) is int:
        return value
    if isinstance(value, int):
        return int(value)
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    raise TypeError(f"expected an exact rational (int or Fraction), got {type(value).__name__}")


def common_denominator(coeffs: Iterable[Scalar]) -> int:
    """The least common multiple of the denominators of exact coefficients, 1 for none."""
    return lcm(*(c.denominator for c in coeffs if type(c) is not int))


def _power_table(x: Scalar, exponents: set[int]) -> tuple[dict[int, int], int]:
    """x**e as t[e] / b**m for each e in exponents, with x = a/b and m the largest.

    Returns (t, b**m).  Only the exponents that occur get an entry, so a
    sparse high-degree polynomial does not pay for every power below m.
    """
    a, b = x.numerator, x.denominator
    m = max(exponents, default=0)
    return {e: a**e * b ** (m - e) for e in exponents}, b**m


class TermRing:
    """The arithmetic and codec HPoly and OpPoly share, over a term map.

    A subclass gives its variable names (VARIABLES, and _JSON_NAMES on the
    wire), its ring's name for messages (_RING), and the hooks `_exponents`
    (key -> exponent tuple), `_key` (exponents -> key, validating) and
    `_rank` (key -> an integer whose order is the canonical term order).
    Operands mix only with the same ring and with exact rationals.
    """

    __slots__ = ("_terms",)

    VARIABLES: tuple[str, ...]
    _JSON_NAMES: tuple[str, ...]
    _RING: str

    def __init__(self, terms: dict[int, Scalar] | None = None):
        # Internal: `terms` must already be keyed, coerced and zero-free.
        self._terms: dict[int, Scalar] = {} if terms is None else terms

    # -- construction ------------------------------------------------

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({0: 1})

    @classmethod
    def const(cls, value):
        c = _coerce_scalar(value)
        return cls({0: c} if c else {})

    @classmethod
    def from_terms(cls, terms: Iterable[tuple[tuple[int, ...], Scalar]]):
        """Build from (exponent tuple, coeff) pairs, merging duplicates."""
        acc: dict[int, Scalar] = {}
        for exponents, coeff in terms:
            key = cls._key(*exponents)
            acc[key] = acc.get(key, 0) + _coerce_scalar(coeff)
        return cls({key: _coerce_scalar(c) for key, c in acc.items() if c})

    # -- predicates --------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    # -- ring operations ---------------------------------------------

    def _coerce_operand(self, other):
        if type(other) is type(self):
            return other
        if isinstance(other, (int, Fraction)):
            return self.const(other)
        return None

    def __add__(self, other):
        rhs = self._coerce_operand(other)
        if rhs is None:
            return NotImplemented
        return type(self)(kadd(self._terms, rhs._terms))

    __radd__ = __add__

    def __neg__(self):
        return type(self)(kscale(self._terms, -1))

    def __sub__(self, other):
        rhs = self._coerce_operand(other)
        if rhs is None:
            return NotImplemented
        return type(self)(ksub(self._terms, rhs._terms))

    def __rsub__(self, other):
        rhs = self._coerce_operand(other)
        if rhs is None:
            return NotImplemented
        return type(self)(ksub(rhs._terms, self._terms))

    def __mul__(self, other):
        if type(other) is type(self):
            return type(self)(kmul(self._terms, other._terms))
        if isinstance(other, (int, Fraction)):
            return type(self)(kscale(self._terms, _coerce_scalar(other)))
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            raise ValueError(f"negative powers are not representable in {self._RING}")
        return type(self)(kpow(self._terms, exponent))

    def __eq__(self, other) -> bool:
        if type(other) is type(self):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self._terms == self.const(other)._terms
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    # -- rendering and wire format ------------------------------------

    def _exponent_terms(self) -> list[tuple[tuple[int, ...], Scalar]]:
        """Terms as (exponent tuple, coeff) in canonical order."""
        terms, exponents = self._terms, self._exponents
        return [(exponents(key), terms[key]) for key in sorted(terms, key=self._rank)]

    def __str__(self) -> str:
        return render_terms(self._exponent_terms(), self.VARIABLES)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"

    def to_json_terms(self) -> list[dict]:
        """Terms as {"coeff": "num/den", <name>: exponent, ...}, zero exponents omitted."""
        out = []
        for exponents, coeff in self._exponent_terms():
            obj: dict = {"coeff": str(coeff)}
            for name, e in zip(self._JSON_NAMES, exponents):
                if e:
                    obj[name] = e
            out.append(obj)
        return out

    @classmethod
    def from_json_terms(cls, data: Iterable[dict]):
        return cls.from_terms(
            (tuple(term.get(name, 0) for name in cls._JSON_NAMES), Fraction(term["coeff"]))
            for term in data
        )


class HPoly(TermRing):
    """Sparse exact polynomial in h, hp and q.

    Instances are immutable in intent: no public method mutates, and all
    arithmetic returns fresh objects.  Construct via :meth:`const`,
    :meth:`variable`, :meth:`from_terms` or the module constants H, HP, Q.
    """

    __slots__ = ()

    VARIABLES = VARIABLES
    _JSON_NAMES = VARIABLES
    _RING = "Q[h, hp, q]"
    _exponents = staticmethod(_unpack)
    _key = staticmethod(_pack)

    @staticmethod
    def _rank(key: int) -> int:
        # total degree above the key, whose integer order is the lex order of its lanes
        degree = (key >> _H_SHIFT) + ((key >> _HP_SHIFT) & _LANE_MASK) + (key & _LANE_MASK)
        return (degree << _KEY_BITS) | key

    # -- construction ------------------------------------------------

    @classmethod
    def variable(cls, name: str) -> "HPoly":
        if name not in VARIABLES:
            raise ValueError(f"unknown variable {name!r}, expected one of {VARIABLES}")
        exponents = [0, 0, 0]
        exponents[VARIABLES.index(name)] = 1
        return cls({_pack(*exponents): 1})

    @classmethod
    def from_hp_lanes(
        cls, lanes: Iterable[tuple[int, int, Sequence[int]]], den: int = 1
    ) -> "HPoly":
        """The sum of c_j * h^eh * hp^j * q^eq / den over lanes (eh, eq, [c_0, c_1, ...]).

        Each lane is a dense list of int coefficients in hp, one lane per
        (eh, eq) pair.  Zero coefficients are not stored, and a quotient by
        den that is integral is stored as an int.
        """
        acc: dict[int, Scalar] = {}
        for eh, eq, coeffs in lanes:
            if len(coeffs) > _LANE_LIMIT:
                raise OverflowError(f"exponent beyond lane capacity {_LANE_LIMIT - 1}")
            base = _pack(eh, 0, eq)
            for ehp, c in enumerate(coeffs):
                if c:
                    acc[base | (ehp << _HP_SHIFT)] = c
        if den != 1:
            acc = {key: _coerce_scalar(Fraction(c, den)) for key, c in acc.items()}
        return cls(acc)

    # -- views ---------------------------------------------------------

    def terms(self) -> list[tuple[tuple[int, int, int], Scalar]]:
        """Terms as ((eh, ehp, eq), coeff) in canonical order."""
        return self._exponent_terms()

    @property
    def total_degree(self) -> int:
        if not self._terms:
            return 0
        return max(sum(_unpack(key)) for key in self._terms)

    def max_exponents(self) -> tuple[int, int, int]:
        """Per-variable maximum exponents (0, 0, 0) for the zero polynomial."""
        mh = mhp = mq = 0
        for key in self._terms:
            eh, ehp, eq = _unpack(key)
            if eh > mh:
                mh = eh
            if ehp > mhp:
                mhp = ehp
            if eq > mq:
                mq = eq
        return mh, mhp, mq

    def constant_term(self) -> Scalar:
        return self._terms.get(0, 0)

    # -- lane-guarded products -----------------------------------------

    def __mul__(self, other) -> "HPoly":
        if type(other) is HPoly:
            product = kmul(self._terms, other._terms)
            if reduce(or_, product, 0) & _GUARD:
                raise OverflowError("product degree beyond lane capacity")
            return HPoly(product)
        return TermRing.__mul__(self, other)

    def __pow__(self, exponent: int) -> "HPoly":
        # kpow squares through unchecked kmul, so a lane could carry past its
        # guard bit into the next before any result is seen: check the degree first.
        if isinstance(exponent, int) and exponent > 0:
            if max(self.max_exponents()) * exponent >= _LANE_LIMIT:
                raise OverflowError("power degree beyond lane capacity")
        return TermRing.__pow__(self, exponent)

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
        den = common_denominator(self._terms.values())
        groups: dict[int, list[int]] = {}
        for key, coeff in self._terms.items():
            ehp = (key >> _HP_SHIFT) & _LANE_MASK
            lane = groups.setdefault(key ^ (ehp << _HP_SHIFT), [])
            if len(lane) <= ehp:
                lane.extend([0] * (ehp + 1 - len(lane)))
            lane[ehp] = coeff if den == 1 else (coeff * den).numerator
        return HPoly.from_hp_lanes(
            (
                (base >> _H_SHIFT, base & _LANE_MASK, taylor_shift(lane, delta))
                for base, lane in groups.items()
            ),
            den,
        )

    def substitute_q(self, value) -> "HPoly":
        """Substitute an exact rational for q, returning a polynomial in h, hp.

        With q = a/b and m the largest q-exponent, q**eq is read as an
        integer over b**m from a power table, and Fraction coefficients are
        put over one common denominator first.  Each (h, hp) coefficient is
        then an integer sum, divided once; integral results are stored as
        int, and an integral q with int coefficients makes no Fraction.
        """
        v = _coerce_scalar(value)
        powers, den = _power_table(v, {key & _LANE_MASK for key in self._terms})
        den_c = common_denominator(self._terms.values())
        acc: dict[int, int] = {}
        for key, coeff in self._terms.items():
            eq = key & _LANE_MASK
            num = coeff.numerator * (den_c // coeff.denominator)
            acc[key ^ eq] = acc.get(key ^ eq, 0) + num * powers[eq]
        den *= den_c
        if den == 1:
            return HPoly({key: c for key, c in acc.items() if c})
        return HPoly({key: _coerce_scalar(Fraction(c, den)) for key, c in acc.items() if c})

    def eval_point(self, h, hp, q=0) -> Fraction:
        """Evaluate at an exact rational point.

        With h = a/b, hp = c/d, q = e/f and (mh, mhp, mq) the maximum
        exponents, every term is an integer over the one denominator
        b**mh * d**mhp * f**mq, read from power tables built once.
        """
        hv, hpv, qv = _coerce_scalar(h), _coerce_scalar(hp), _coerce_scalar(q)
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
        whole = 0
        part = Fraction(0)
        for key, coeff in self._terms.items():
            if key & _LANE_MASK:
                raise ValueError("classical limit is defined only for q-free polynomials")
            eh, ehp = key >> _H_SHIFT, (key >> _HP_SHIFT) & _LANE_MASK
            if eh < ehp:
                raise DivergentLimitError(
                    f"monomial with h-exponent {eh} < hp-exponent {ehp} diverges as h -> 0"
                )
            if eh == ehp:
                if type(coeff) is int:
                    whole += coeff
                else:
                    part += coeff
        return part + whole


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


def rising_numerators(a: int, b: int, count: int) -> list[int]:
    """[R_0, ..., R_count] with R_k = a*(a + b)*...*(a + (k-1)*b), for b >= 1.

    With x = a/b, the rising factorial x*(x+1)*...*(x+k-1) is R_k / b**k,
    so callers sum integers over one power of b and divide once.
    """
    return list(accumulate(range(a, a + count * b, b), mul, initial=1))


def rising_rows(count: int) -> list[list[int]]:
    """[row_0, ..., row_count], row k the ascending hp-coefficients of (hp)_k = hp(hp+1)...(hp+k-1).

    Since (hp)_(k+1) = (hp + k) * (hp)_k, row k+1 is row k moved up one place
    plus k times row k: the unsigned Stirling numbers of the first kind.
    """
    rows = [[1]]
    for k in range(count):
        row = rows[-1]
        rows.append([*map(add, (0, *row), (*(k * c for c in row), 0))])
    return rows
