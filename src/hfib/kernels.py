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
codec is one pair: kpack writes the image a(2^B) of a dense map of int
coefficients, one signed lane each, B = 8 * lane_width(bits), and kunpack
reads a map back from an image (Kronecker, 1882; Harvey, "Faster
polynomial multiplication via multipoint Kronecker substitution",
J. Symbolic Comput. 44, 2009).  Lanes of 1, 2, 4 or 8 bytes are machine
words that `array` packs and reads in C; wider lanes are two's-complement
words that int.to_bytes writes and int.from_bytes reads.  The grid
suites of hfib.operators and the expansions of hfib.genfun check whole
identities on these images, where a product of polynomials is one
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

import sys
from array import array
from itertools import accumulate, repeat
from typing import Sequence

# (item size, signed typecode) of the machine words that carry Kronecker lanes,
# narrowest first; sizes are read from `array`, not assumed.
_WORD_CODES = sorted({array(code).itemsize: code for code in "bhilq"}.items())
_WORD_CODE = dict(_WORD_CODES)
# `array` words are in native byte order; lanes are little-endian words.
_BIG_ENDIAN = sys.byteorder == "big"


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


def lane_width(bits: int) -> int:
    """Bytes in the narrowest Kronecker lane of at least `bits` bits, a machine word if one is wide enough."""
    for width, _ in _WORD_CODES:
        if bits <= 8 * width:
            return width
    return (bits + 7) >> 3


def _halves(width: int, lanes: int) -> int:
    """2**(8 width - 1) in each of `lanes` lanes: the bias that makes every signed lane non-negative."""
    return int.from_bytes((1 << (8 * width - 1)).to_bytes(width, "little") * lanes, "little")


def kpack(a: dict, width: int) -> int:
    """The image a(2**(8 width)) of a dense map of int coefficients, one signed lane each.

    Each coefficient is written as a little-endian two's-complement word
    of `width` bytes: by `array` in C for 1, 2, 4 or 8 bytes, by
    int.to_bytes past that.  A word w of a coefficient c is (c + half) ^ half,
    so XOR with the packed halves turns the words into biased lanes, and
    taking the halves off leaves sum_k c_k 2**(8 width k).  Only int
    coefficients have an image: both writers raise TypeError on any other.
    """
    if not a:
        return 0
    lanes = max(a) + 1
    coeffs = map(a.get, range(lanes), repeat(0))
    code = _WORD_CODE.get(width)
    if code is None:
        to_bytes = int.to_bytes
        words = b"".join([to_bytes(c, width, "little", signed=True) for c in coeffs])
    else:
        words = array(code, coeffs)
        if _BIG_ENDIAN:
            words.byteswap()
    halves = _halves(width, lanes)
    return (int.from_bytes(words, "little") ^ halves) - halves


def kunpack(image: int, width: int) -> dict:
    """The term map whose image at 2**(8 width) is `image`, every coefficient below 2**(8 width - 1) in size.

    The lanes are read back as balanced digits: adding `half` to every lane
    makes each one non-negative, so the lanes give the coefficients exactly,
    negative ones and cancellations included.  A nonzero top coefficient
    puts the image at or above 2**(8 width k - 1) in size, so its bit length
    says how many lanes to read.
    """
    lanes = image.bit_length() // (8 * width) + 1
    halves = _halves(width, lanes)
    raw = ((image + halves) ^ halves).to_bytes(lanes * width, "little")
    code = _WORD_CODE.get(width)
    if code is None:
        from_bytes = int.from_bytes
        words = [from_bytes(raw[i : i + width], "little", signed=True) for i in range(0, len(raw), width)]
    else:
        words = array(code)
        words.frombytes(raw)
        if _BIG_ENDIAN:
            words.byteswap()
    return {key: coeff for key, coeff in enumerate(words) if coeff}


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
