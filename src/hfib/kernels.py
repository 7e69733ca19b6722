"""Term-map kernels: the four inner loops of both polynomial rings.

A term map is a dict from an integer exponent key to a nonzero exact
rational coefficient (int or fractions.Fraction).  Keys add under
multiplication, so callers that pack several exponents into one integer
(hfib.algebra packs three 21-bit lanes) get multivariate arithmetic for
free as long as no lane overflows; the univariate operator ring uses the
bare exponent as the key.

Coefficients live in an integral domain, so a product of nonzero
coefficients is never zero and only sums need a zero check.  Kernels
never mutate their arguments and never store a zero coefficient.
"""

from __future__ import annotations


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


def kmul(a: dict, b: dict) -> dict:
    if not a or not b:
        return {}
    if len(a) > len(b):
        a, b = b, a
    out: dict = {}
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


def kpow(a: dict, n: int) -> dict:
    if n < 0:
        raise ValueError("kpow exponent must be non-negative")
    result = {0: 1}
    base = a
    while n:
        if n & 1:
            result = kmul(result, base)
        n >>= 1
        if n:
            base = kmul(base, base)
    return result
