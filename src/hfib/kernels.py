"""Kernels: the five term-map loops of hfib.algebra.TermRing and one dense-list shift.

A term map is a dict from a non-negative integer exponent key to a
nonzero exact rational coefficient (int or fractions.Fraction).  Keys
add under multiplication, so callers that pack several exponents into
one integer (hfib.algebra packs three 22-bit lanes) get multivariate
arithmetic for free as long as no lane overflows; the univariate
operator ring uses the bare exponent as the key.

Coefficients live in an integral domain, so a product of nonzero
coefficients is never zero and only sums need a zero check.  Kernels
never mutate their arguments and never store a zero coefficient.
ksub is a - b in one pass, with no negated copy of b.

kmul has two product paths, chosen from its operands.  A one-term
operand c x^k moves every key of the other by k and scales its
coefficients by c, and kpow raises a one-term map to {k*n: c**n}.
Everything else takes the schoolbook double loop.  The Kronecker lane
codec is one pair in plain integer arithmetic: kpack writes the image
a(2^B) of a map of int coefficients, one signed lane of B bits each,
and kunpack reads the map back from an image as balanced base-2^B digits
(Kronecker, 1882; Harvey, "Faster polynomial multiplication via
multipoint Kronecker substitution", J. Symbolic Comput. 44, 2009).  The
grid suites of hfib.operators and the expansions of hfib.genfun check
whole identities on these images, where a product of polynomials is one
big-integer product.

The sixth kernel, taylor_shift, works on a dense list of int
coefficients of one variable rather than on a term map: it returns the
coefficients of p(x + delta) by additions only (von zur Gathen &
Gerhard, "Fast algorithms for Taylor shifts and certain difference
equations", ISSAC 1997).  HPoly.shift_hprime runs it on each hp-lane of a
polynomial.  The recurrence route of hfib.fibonacci does not: it runs in
Q[D], where its shift is a move of the coefficient list by one place.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Sequence


def kadd(a: dict, b: dict) -> dict:
    if not a:
        return dict(b)
    if not b:
        return dict(a)
    out = dict(a)
    for key, coeff in b.items():
        have = out.get(key)
        if have is None:
            out[key] = coeff
        else:
            total = have + coeff
            if total:
                out[key] = total
            else:
                del out[key]
    return out


def ksub(a: dict, b: dict) -> dict:
    if not b:
        return dict(a)
    out = dict(a)
    for key, coeff in b.items():
        have = out.get(key)
        if have is None:
            out[key] = -coeff
        else:
            total = have - coeff
            if total:
                out[key] = total
            else:
                del out[key]
    return out


def kscale(a: dict, c) -> dict:
    if not c:
        return {}
    return {key: coeff * c for key, coeff in a.items()}


# An image above this many bits is packed and read in halves of its lanes: L lanes
# of B bits then cost O(L B log L) bit operations, where one running sum costs O(L^2 B).
_LEAF_BITS = 16384


def kpack(a: dict, bits: int) -> int:
    """The image a(2**bits) of a map of int coefficients, one signed lane of `bits` bits each.

    Only int coefficients have an image: shifting any other raises TypeError.
    """
    if len(a) * bits <= _LEAF_BITS:
        return sum(c << (bits * k) for k, c in a.items())
    return _pack_sorted(sorted(a.items()), bits, 0)


def _pack_sorted(terms: list, bits: int, base: int) -> int:
    """sum c 2**(bits (k - base)) over terms sorted by key k, the upper half shifted once."""
    if len(terms) * bits <= max(_LEAF_BITS, bits):
        return sum(c << (bits * (k - base)) for k, c in terms)
    mid, split = len(terms) // 2, terms[len(terms) // 2][0]
    return _pack_sorted(terms[:mid], bits, base) + (_pack_sorted(terms[mid:], bits, split) << bits * (split - base))


def kunpack(image: int, bits: int) -> dict:
    """The term map whose image at 2**bits is `image`, every coefficient in [-2**(bits - 1), 2**(bits - 1)).

    The lanes are read from the bottom up as balanced digits: the lowest
    lane, taken in that range, is the lowest coefficient, and taking it
    off leaves the image of the rest times 2**bits, negative coefficients
    and cancelled lanes included.  A large image in lanes of 2 bits or more is
    read as the lower half of its lanes, taken unsigned, and the upper half
    plus the carry (0 or 1).  A 1-bit lane has only the digits -1 and 0, so
    there a positive image has no map and raises ValueError.
    """
    if bits == 1 and image > 0:
        raise ValueError("a positive image has no lanes of 1 bit, whose digits are -1 and 0")
    size = image.bit_length()
    if size > max(_LEAF_BITS, bits) and bits > 1:
        low = -(-size // bits) // 2
        out = kunpack(image & ((1 << bits * low) - 1), bits)
        high = kunpack((image >> bits * low) + out.pop(low, 0), bits)
        return {**out, **{k + low: c for k, c in high.items()}}
    half, mask = 1 << (bits - 1), (1 << bits) - 1
    out, key = {}, 0
    while image:
        c = ((image + half) & mask) - half
        if c:
            out[key] = c
        image = (image - c) >> bits
        key += 1
    return out


def kmul(a: dict, b: dict) -> dict:
    if not a or not b:
        return {}
    if len(a) > len(b):
        a, b = b, a
    if len(a) == 1:
        ((ka, ca),) = a.items()
        return {ka + kb: ca * cb for kb, cb in b.items()}
    out = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            key = ka + kb
            prod = ca * cb
            have = out.get(key)
            if have is None:
                out[key] = prod
            else:
                total = have + prod
                if total:
                    out[key] = total
                else:
                    del out[key]
    return out


def binary_power(base, n: int, mul):
    """base**n for n >= 1 by square-and-multiply with the product `mul`, none by the identity."""
    result = None
    while n:
        if n & 1:
            result = base if result is None else mul(result, base)
        n >>= 1
        if n:
            base = mul(base, base)
    return result


def kpow(a: dict, n: int) -> dict:
    if n < 0:
        raise ValueError("kpow exponent must be non-negative")
    if n == 0:
        return {0: 1}
    if len(a) == 1:
        ((key, coeff),) = a.items()
        return {key * n: coeff**n}
    return binary_power(a, n, kmul)


def taylor_shift(coeffs: Sequence[int], delta: int) -> list[int]:
    """Ascending coefficients of p(x + delta), given those of p(x).

    The shift by one is d rounds of running sums (Horner's scheme, by
    additions only): each round runs over the coefficients from the top
    down, and its last sum is the next coefficient of the result from the
    bottom up.  Any other delta is that shift between two diagonal
    scalings: with b_j = a_j * delta**j, p(delta*y + delta) = sum b_j (y+1)**j,
    and the coefficient of y**j there is delta**j times that of x**j.
    """
    d = len(coeffs) - 1
    if d <= 0 or not delta:
        return list(coeffs)
    if delta != 1:
        powers = [delta**j for j in range(d + 1)]
        coeffs = [c * p for c, p in zip(coeffs, powers)]
    top_down = coeffs[::-1]
    shifted = []
    append = shifted.append
    for _ in range(d):
        top_down = [*accumulate(top_down)]
        append(top_down.pop())
    append(top_down[0])
    if delta != 1:
        shifted = [c // p for c, p in zip(shifted, powers)]
    return shifted
