"""Kernels: the four term-map loops of hfib.algebra.TermRing and one dense-list shift.

A term map is a dict from a non-negative integer exponent key to a
nonzero exact rational coefficient (int or fractions.Fraction).  Keys
add under multiplication, so callers that pack several exponents into
one integer (hfib.algebra packs three 22-bit lanes) get multivariate
arithmetic for free as long as no lane overflows; the univariate
operator ring uses the bare exponent as the key.

Coefficients live in an integral domain, so a product of nonzero
coefficients is never zero and only sums need a zero check.  Kernels
never mutate their arguments and never store a zero coefficient.

kmul has two product paths, chosen from its operands.  Dense maps with
int coefficients and at least _KRONECKER_MIN_TERMS terms on the shorter
side are multiplied by Kronecker substitution: each is packed into one
big integer, with one coefficient per fixed-width byte lane, the two
integers are multiplied once (CPython uses Karatsuba at this size) and
the product is read back lane by lane (Kronecker, 1882; Harvey, "Faster
polynomial multiplication via multipoint Kronecker substitution",
J. Symbolic Comput. 44, 2009).  Everything else (small products,
Fraction coefficients and the sparse packed keys of hfib.algebra) takes
the schoolbook double loop.

The fifth kernel, taylor_shift, works on a dense list of int
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

# Shorter-operand term count from which kmul tries the Kronecker path.
# Packing costs a fixed 10-20 us, so below about 8 x 8 terms the schoolbook
# loop wins.  Replaying the dense int products of op-ring's suites with at
# least 4 terms on the shorter side took 361 ms by schoolbook alone and
# 289 / 281 / 276 / 277 ms with this at 6 / 8 / 9 / 10; on `hfib verify all`
# a value below 8 cost time (12.5 ms at 6, 10.4 ms by schoolbook alone).
# perfbench op-ring runs of 20 s could not tell 6, 8, 10 and 12 apart.
_KRONECKER_MIN_TERMS = 9
# A map is dense enough to pack when its largest key is below this many
# times its term count; every lane up to the largest key is packed.
_KRONECKER_SPAN = 2

_INT_ONLY = frozenset((int,))


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


def kscale(a: dict, c) -> dict:
    if not c:
        return {}
    return {key: coeff * c for key, coeff in a.items()}


def _pack(a: dict, top: int, width: int, half: int) -> int:
    """The sum of coeff * 2**(8*width*key) over a's terms, packed from biased byte lanes."""
    filler = half.to_bytes(width, "little")
    lanes = [filler] * (top + 1)
    for key, coeff in a.items():
        lanes[key] = (coeff + half).to_bytes(width, "little")
    return int.from_bytes(b"".join(lanes), "little") - int.from_bytes(filler * (top + 1), "little")


def _kronecker(a: dict, b: dict) -> dict | None:
    """a * b by one big-integer product, or None when a map is sparse or has a Fraction.

    `a` is the shorter map.  A lane of `width` bytes holds every product
    coefficient: each is a sum of at most len(a) products, so its size is
    below 2**(bits(max|a|) + bits(max|b|) + bits(len(a))), and one more bit
    carries the sign.  Lanes are read back as balanced digits: adding
    `half` to every lane makes each one non-negative, so byte slices give
    the coefficients exactly, negative ones and cancellations included.
    """
    top_a, top_b = max(a), max(b)
    if top_a >= _KRONECKER_SPAN * len(a) or top_b >= _KRONECKER_SPAN * len(b):
        return None
    va, vb = a.values(), b.values()
    if not (_INT_ONLY.issuperset(map(type, va)) and _INT_ONLY.issuperset(map(type, vb))):
        return None
    bits = (
        max(map(abs, va)).bit_length()
        + max(map(abs, vb)).bit_length()
        + len(a).bit_length()
        + 1
    )
    width = (bits + 7) >> 3
    half = 1 << (8 * width - 1)
    lanes = top_a + top_b + 1
    product = _pack(a, top_a, width, half) * _pack(b, top_b, width, half)
    from_bytes = int.from_bytes
    biased = product + from_bytes(half.to_bytes(width, "little") * lanes, "little")
    raw = biased.to_bytes(lanes * width, "little")
    coeffs = [from_bytes(raw[i : i + width], "little") - half for i in range(0, len(raw), width)]
    return {key: coeff for key, coeff in enumerate(coeffs) if coeff}


def kmul(a: dict, b: dict) -> dict:
    if not a or not b:
        return {}
    if len(a) > len(b):
        a, b = b, a
    if len(a) >= _KRONECKER_MIN_TERMS:
        out = _kronecker(a, b)
        if out is not None:
            return out
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


def binary_power(base, n: int, one, mul):
    """base**n for n >= 0 by square-and-multiply, from the identity `one` and the product `mul`."""
    result = one
    while n:
        if n & 1:
            result = mul(result, base)
        n >>= 1
        if n:
            base = mul(base, base)
    return result


def kpow(a: dict, n: int) -> dict:
    if n < 0:
        raise ValueError("kpow exponent must be non-negative")
    return binary_power(a, n, {0: 1}, kmul)


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
