from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

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
    for name in ("kadd", "kmul", "kpow", "kscale"):
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
