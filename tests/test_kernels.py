from __future__ import annotations

from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from oracles import oracle_term_product

from hfib import kernels

term_maps = st.dictionaries(
    st.integers(min_value=0, max_value=1 << 12),
    st.one_of(
        st.integers(min_value=-99, max_value=99).filter(bool),
        st.fractions(min_value=-9, max_value=9, max_denominator=7).filter(bool),
    ),
    max_size=8,
)


def test_four_kernels_are_exported() -> None:
    for name in ("kadd", "kmul", "kpow", "kscale", "ksub"):
        assert callable(getattr(kernels, name))


def test_small_values() -> None:
    a = {0: 1, 1: 2}
    b = {1: 3}
    assert kernels.kadd(a, b) == {0: 1, 1: 5}
    assert kernels.kmul(a, b) == {1: 3, 2: 6}
    assert kernels.kscale(a, -1) == {0: -1, 1: -2}
    assert kernels.kscale(a, 0) == {}
    assert kernels.kpow(a, 0) == {0: 1}
    assert kernels.kpow(a, 3) == {0: 1, 1: 6, 2: 12, 3: 8}


def test_cancellation_drops_keys() -> None:
    assert kernels.kadd({3: 5}, {3: -5}) == {}
    assert kernels.kmul({0: 1, 1: 1}, {0: 1, 1: -1}) == {0: 1, 2: -1}


def test_kpow_rejects_negative() -> None:
    with pytest.raises(ValueError):
        kernels.kpow({0: 1}, -1)


def test_kpow_makes_no_product_by_the_identity(monkeypatch) -> None:
    # square-and-multiply from the base: bit_length - 1 squares, popcount - 1 products
    products = []
    kmul = kernels.kmul

    def logged(a, b):
        products.append((a, b))
        return kmul(a, b)

    monkeypatch.setattr(kernels, "kmul", logged)
    for n in range(1, 18):
        products.clear()
        assert kernels.kpow({0: 1, 1: 1}, n) == {k: comb(n, k) for k in range(n + 1)}
        assert len(products) == n.bit_length() + n.bit_count() - 2
        assert {0: 1} not in [m for pair in products for m in pair]


@given(term_maps, term_maps)
def test_inputs_not_mutated(a: dict, b: dict) -> None:
    snap_a, snap_b = dict(a), dict(b)
    kernels.kadd(a, b)
    kernels.kmul(a, b)
    kernels.kscale(a, 7)
    kernels.kpow(a, 2)
    assert a == snap_a and b == snap_b


@given(term_maps, term_maps)
def test_no_zero_coefficients_in_results(a: dict, b: dict) -> None:
    for result in (kernels.kadd(a, b), kernels.kmul(a, b), kernels.kscale(a, 3)):
        assert all(result.values())


@example({3: 5}, {3: 5})
@example({}, {0: Fraction(1, 2)})
@given(term_maps, term_maps)
def test_ksub_is_one_pass_kadd_of_the_negation(a: dict, b: dict) -> None:
    snap_a, snap_b = dict(a), dict(b)
    got = kernels.ksub(a, b)
    assert got == kernels.kadd(a, kernels.kscale(b, -1))
    assert all(got.values())
    assert kernels.ksub(a, a) == {}
    assert kernels.ksub(a, {}) == a and kernels.ksub(a, {}) is not a
    assert a == snap_a and b == snap_b


# Dense int maps of 1-80 terms, with coefficients up to 2**200 of either sign;
# zero draws leave gaps but keep the map dense.
big_ints = st.integers(min_value=-(2**200), max_value=2**200)


def _sized(element, key=None):
    """Maps of 1-80 drawn terms, keyed 0, 1, 2, ... or by a key strategy; zeros dropped."""
    sizes = st.integers(min_value=1, max_value=80)
    if key is None:
        coeffs = sizes.flatmap(lambda n: st.lists(element, min_size=n, max_size=n))
        return coeffs.map(lambda cs: {k: c for k, c in enumerate(cs) if c})
    items = sizes.flatmap(lambda n: st.lists(st.tuples(key, element), min_size=n, max_size=n))
    return items.map(lambda kcs: {k: c for k, c in kcs if c})


dense_int_maps = _sized(big_ints)
# The same maps with some coefficients made Fractions.
mixed_maps = _sized(st.one_of(big_ints, st.fractions(max_denominator=50)))
sparse_maps = _sized(big_ints, st.integers(min_value=0, max_value=1 << 12))
# Keys packed as hfib.algebra packs (h, hp, q) exponents in 21-bit lanes.
packed_maps = _sized(
    big_ints,
    st.tuples(*[st.integers(min_value=0, max_value=12)] * 3).map(
        lambda e: (e[0] << 42) | (e[1] << 21) | e[2]
    ),
)


def _check_product(a: dict, b: dict) -> dict:
    snap_a, snap_b = dict(a), dict(b)
    got = kernels.kmul(a, b)
    assert got == oracle_term_product(a, b)
    assert all(got.values())
    assert a == snap_a and b == snap_b
    return got


# every coefficient of the product sums up to 9 products of one sign, the
# largest -9 * 63 * 63
@example({k: 63 for k in range(9)}, {k: -63 for k in range(9)})
@given(dense_int_maps, dense_int_maps)
def test_kmul_dense_int_matches_oracle(a: dict, b: dict) -> None:
    got = _check_product(a, b)
    assert all(type(c) is int for c in got.values())


other_maps = st.one_of(mixed_maps, sparse_maps, packed_maps)


@given(other_maps, other_maps)
def test_kmul_fraction_sparse_and_packed_match_oracle(a: dict, b: dict) -> None:
    _check_product(a, b)


def test_kmul_cancelling_products() -> None:
    # (1 + x)^k (1 - x)^k = (1 - x^2)^k: every odd coefficient cancels.
    for k in range(1, 61):
        got = _check_product(kernels.kpow({0: 1, 1: 1}, k), kernels.kpow({0: 1, 1: -1}, k))
        assert got == {2 * j: (-1) ** j * comb(k, j) for j in range(k + 1)}
    # The same with coefficients near 2**400 in the product.
    plus = kernels.kscale(kernels.kpow({0: 1, 1: 1}, 12), 2**200)
    minus = kernels.kscale(kernels.kpow({0: 1, 1: -1}, 12), -(3**126))
    got = _check_product(plus, minus)
    assert got == {2 * j: (-1) ** (j + 1) * 2**200 * 3**126 * comb(12, j) for j in range(13)}


one_term_maps = st.dictionaries(
    st.integers(min_value=0, max_value=1 << 12),
    st.one_of(
        st.integers(min_value=-(2**70), max_value=2**70).filter(bool),
        st.fractions(min_value=-9, max_value=9, max_denominator=7).filter(bool),
    ),
    min_size=1,
    max_size=1,
)


@example({0: 1}, {})
@example({7: -3}, {k: k + 1 for k in range(40)})
@given(one_term_maps, st.one_of(term_maps, dense_int_maps))
def test_one_term_product_is_a_key_move(a: dict, b: dict) -> None:
    for left, right in ((a, b), (b, a)):
        got = _check_product(left, right)
        if all(type(c) is int for c in (*a.values(), *b.values())):
            assert all(type(c) is int for c in got.values())


@example({5: Fraction(1, 2)}, 0)
@example({0: -1}, 7)
@given(one_term_maps, st.integers(min_value=0, max_value=9))
def test_one_term_power_is_a_key_move(a: dict, n: int) -> None:
    snap = dict(a)
    got = kernels.kpow(a, n)
    expected = {0: 1}
    for _ in range(n):
        expected = oracle_term_product(expected, a)
    assert got == expected
    assert all(got.values())
    # at n = 0 that is {0: 1} with an int, whatever the coefficient's type
    assert [type(c) for c in got.values()] == [type(c) for c in expected.values()]
    assert a == snap


def _lane_bits(a: dict, b: dict) -> int:
    # bits that hold every coefficient of a b with its sign: each is a sum of at
    # most len(a) products, so below 2**(bits(max|a|) + bits(max|b|) + bits(len(a)))
    return (
        max(map(abs, a.values())).bit_length()
        + max(map(abs, b.values())).bit_length()
        + len(a).bit_length()
        + 1
    )


def _edge_pairs(bits: int):
    """Dense 9-term maps whose product needs lanes of exactly `bits` bits."""
    x = (bits - 5) // 2
    ma, mb = 2**x - 1, 2 ** (bits - 5 - x) - 1
    keys = range(9)
    yield {k: ma for k in keys}, {k: mb for k in keys}  # peak 9 * ma * mb, positive
    yield {k: ma for k in keys}, {k: -mb for k in keys}  # the same peak, negative
    # alternating signs: every odd lane cancels to zero
    yield {k: (-1) ** k * ma for k in keys}, {k: mb for k in keys}
    # (1 + x + ... + x^8)(1 - x + ... - x^7) = (1 - x^9)(1 + x^2 + x^4 + x^6): the
    # shorter map has 8 terms, which take as many bits as 9
    yield {k: ma for k in keys}, {k: (-1) ** k * mb for k in range(8)}


@pytest.mark.parametrize("bits", [1, 2, 8, 9, 64, 65, 496])
def test_word_lanes_at_each_width_edge(bits: int) -> None:
    # the two ends of a signed lane of `bits` bits: a 1-bit lane holds only 0 and -1
    low, top = -(2 ** (bits - 1)), 2 ** (bits - 1) - 1
    keys = range(9)
    for a in (
        {k: low for k in keys},  # all negative
        {k: low if k % 2 else top for k in keys},  # alternating ends
        {k: max(low, top - k) for k in keys},  # a different value in each lane, down to low
        {0: low, 8: low},  # zero lanes between, and a negative top lane
    ):
        a = {k: c for k, c in a.items() if c}
        assert kernels.kunpack(kernels.kpack(a, bits), bits) == a
    # cancelling lanes: the sum of two images cancels every odd lane and the top lane
    a = {k: c for k in keys if (c := low if k % 2 else top)}
    b = {k: -c for k, c in a.items() if k % 2 or k == 8}
    got = kernels.kunpack(kernels.kpack(a, bits) + kernels.kpack(b, bits), bits)
    assert got == kernels.kadd(a, b) == {k: top for k in range(0, 8, 2) if top}
    if bits < 8:
        return
    # an image product decodes to the product at the lane size it needs
    for a, b in _edge_pairs(bits):
        assert _lane_bits(a, b) == bits
        got = kernels.kunpack(kernels.kpack(a, bits) * kernels.kpack(b, bits), bits)
        assert got == oracle_term_product(a, b)
        assert all(type(c) is int for c in got.values())
    # from 16 bits on, the peak 9 * ma * mb fills every bit of its lane but the sign
    peak = oracle_term_product(*next(_edge_pairs(bits)))[8]
    assert peak.bit_length() == bits - 1 or bits < 16


def _lane_maps(bits: int):
    """Term maps of int coefficients below 2**(bits - 1) in size, with the lane size."""
    most = 2 ** (bits - 1) - 1
    coeffs = st.integers(min_value=-most, max_value=most).filter(bool) if most else st.nothing()
    return st.tuples(st.just(bits), st.dictionaries(st.integers(min_value=0, max_value=40), coeffs, max_size=12))


@example((1, {}))
@example((600, {}))
@example((3, {0: 3, 5: -3}))  # a negative top lane
@example((64, {0: -1, 1: 2**62, 2: -(2**63) + 1}))
@given(st.integers(min_value=1, max_value=600).flatmap(_lane_maps))
def test_lanes_round_trip(case: tuple) -> None:
    bits, a = case
    assert kernels.kunpack(kernels.kpack(a, bits), bits) == a


def _pack_lane_by_lane(a: dict, bits: int) -> int:
    return sum(c << (bits * k) for k, c in a.items())


def _unpack_lane_by_lane(image: int, bits: int) -> dict:
    # balanced digits read from the bottom, one lane per step
    half, out, key = 1 << (bits - 1), {}, 0
    while image:
        c = ((image + half) & ((1 << bits) - 1)) - half
        if c:
            out[key] = c
        image, key = (image - c) >> bits, key + 1
    return out


def _wide_lane_maps(bits: int):
    """Maps of up to 300 lanes below 2**(bits - 1) in size: large enough to be split in halves."""
    most = 2 ** (bits - 1) - 1
    coeffs = st.integers(min_value=-most, max_value=most).filter(bool) if most else st.nothing()
    keys = st.integers(min_value=0, max_value=600)
    return st.tuples(st.just(bits), st.dictionaries(keys, coeffs, min_size=1, max_size=300))


@example((20000, {0: -5, 3: 7}))  # lanes wider than a leaf: split by lane, never inside one
@example((1, {k: -1 for k in range(0, 40000, 2)}))
@example((497, {k: -(2**496) for k in range(358)}))  # every lane at its negative end
@given(st.integers(min_value=1, max_value=400).flatmap(_wide_lane_maps))
def test_split_images_match_the_lane_by_lane_codec(case: tuple) -> None:
    bits, a = case
    image = kernels.kpack(a, bits)
    assert image == _pack_lane_by_lane(a, bits)
    assert kernels.kunpack(image, bits) == a
    # any integer decodes as the lane-by-lane reader decodes it, carries and all; a
    # 1-bit lane holds only 0 and -1, so only images of at most 0 have digits there
    for other in (image * 3 - 1, -image, image + (1 << bits * (max(a) + 5))):
        if bits > 1 or other <= 0:
            assert kernels.kunpack(other, bits) == _unpack_lane_by_lane(other, bits)
        else:
            with pytest.raises(ValueError):
                kernels.kunpack(other, bits)


def test_a_positive_image_has_no_1_bit_lanes() -> None:
    # the digits of a 1-bit lane are -1 and 0, so sum c 2^k is at most 0: a positive
    # image is refused, below and above the split, and a negative one still decodes
    for image in (1, 6, 1 << 20000, (1 << 20000) - 5):
        with pytest.raises(ValueError, match="1 bit"):
            kernels.kunpack(image, 1)
    assert kernels.kunpack(-5, 1) == {0: -1, 2: -1}
    assert kernels.kunpack(0, 1) == {}


def test_an_image_is_the_map_at_two_to_the_bits() -> None:
    # lanes of any bit count, not whole bytes; only int coefficients have an image
    a = {0: -3, 2: 5, 7: 1}
    for bits in (1, 3, 8, 13):
        x = 2**bits
        assert kernels.kpack(a, bits) == -3 + 5 * x**2 + x**7
    with pytest.raises(TypeError):
        kernels.kpack({0: 1, 1: Fraction(1, 2)}, 8)


def _shift_by_definition(a: list[int], delta: int) -> list[int]:
    # q_j = sum_i C(i, j) * delta**(i - j) * a_i, the coefficients of p(x + delta)
    return [sum(comb(i, j) * delta ** (i - j) * a[i] for i in range(j, len(a))) for j in range(len(a))]


shift_lists = st.one_of(
    st.lists(st.integers(min_value=-(2**70), max_value=2**70), min_size=1, max_size=12),
    st.lists(st.integers(min_value=-99, max_value=99), min_size=40, max_size=90),
)


@example([5], 7)
@example([-1, 1], 1)
@example([9, -6, 1], 3)
@given(shift_lists, st.sampled_from((-3, -1, 1, 2, 7)))
def test_taylor_shift_matches_definition(a: list[int], delta: int) -> None:
    snap = list(a)
    got = kernels.taylor_shift(a, delta)
    assert got == _shift_by_definition(a, delta)
    assert all(type(c) is int for c in got)
    assert kernels.taylor_shift(tuple(a), delta) == got
    assert a == snap


@pytest.mark.parametrize("delta", [-3, -1, 1, 2, 7])
def test_taylor_shift_cancels_to_zero(delta: int) -> None:
    # (x - delta)**k shifted by delta is x**k: every lower coefficient cancels to 0.
    for k in range(13):
        a = [comb(k, j) * (-delta) ** (k - j) for j in range(k + 1)]
        assert kernels.taylor_shift(a, delta) == [0] * k + [1]
    assert kernels.taylor_shift([4, 0, -2], 0) == [4, 0, -2]
    assert kernels.taylor_shift([], delta) == []
