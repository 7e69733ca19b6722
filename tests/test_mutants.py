"""Planted faults that the identity suites must catch.

Each row plants one fault by monkeypatch, with every cache cleared before
and after, and names the suites that must then report at least one
failure.  A suite that stays green under its row's fault has a blind
spot: either the fault is out of its reach or the check is vacuous.
"""

from __future__ import annotations

import pytest

import hfib
from hfib import algebra, fibonacci, genfun, kernels, qh
from hfib.algebra import H, Q


def _taylor_shift_off_from_3(coeffs, delta):
    # constant coefficient off by one for every shift by 3 or more
    out = kernels.taylor_shift(coeffs, delta)
    return [out[0] + 1, *out[1:]] if delta >= 3 and out else out


def _d_image_off_at_6(k):
    return algebra.d_image(k) + H**6 if k == 6 else algebra.d_image(k)


_HFIB_DIAGONAL = fibonacci.hfib_diagonal


def _hfib_diagonal_off_at_7(n):
    return _HFIB_DIAGONAL(n) + H if n == 7 else _HFIB_DIAGONAL(n)


_Q_BINOMIAL = qh.q_binomial


def _q_binomial_off_at_6_3(n, k):
    # vanishes at q = 1, so only the q-Pascal recurrences can see it
    return _Q_BINOMIAL(n, k) + (Q - 1) * Q if (n, k) == (6, 3) else _Q_BINOMIAL(n, k)


# the cube's closed form over the denominator of the squares, (k, step) = (2, 1)
_GF_TABLE_CUBE_OFF = {
    **genfun._GF_TABLE,
    "cube": (*genfun._GF_TABLE["cube"][:1], (2, 1), genfun._GF_TABLE["cube"][2]),
}


# fault -> ((module, attribute, replacement), suites that must fail); d_image is
# planted where the fib suites read it, so h_binomial and hfib_diagonal stay sound.
MUTANTS = {
    "taylor_shift wrong for shifts of 3 or more": (
        (algebra, "taylor_shift", _taylor_shift_off_from_3),
        ("fib-doubling-sum",),
    ),
    "d_image(6) + h^6": (
        (fibonacci, "d_image", _d_image_off_at_6),
        ("fib-odd-even-sums", "fib-doubling-sum"),
    ),
    "hfib_diagonal(7) + h": (
        (fibonacci, "hfib_diagonal", _hfib_diagonal_off_at_7),
        ("fib-odd-even-sums", "fib-partial-sum", "fib-route-equivalence"),
    ),
    "q_binomial(6, 3) + (q - 1) q": (
        (qh, "q_binomial", _q_binomial_off_at_6_3),
        ("qh-recurrences",),
    ),
    "cube generating function over annihilator(2, 1)": (
        (genfun, "_GF_TABLE", _GF_TABLE_CUBE_OFF),
        ("gf-expansions",),
    ),
}


@pytest.fixture
def cold_caches():
    hfib.clear_caches()
    yield
    hfib.clear_caches()


def _failures_by_suite() -> dict[str, int]:
    reports = [*fibonacci.verify_fibonacci(), *qh.verify_qh(), *genfun.verify_genfun()]
    return {report.suite: len(report.failures) for report in reports}


def test_the_unplanted_suites_pass(cold_caches) -> None:
    failures = _failures_by_suite()
    assert {suite for _, suites in MUTANTS.values() for suite in suites} <= set(failures)
    assert not any(failures.values()), failures


@pytest.mark.parametrize("fault", MUTANTS)
def test_planted_fault_is_caught(fault, cold_caches, monkeypatch) -> None:
    (module, attribute, replacement), suites = MUTANTS[fault]
    monkeypatch.setattr(module, attribute, replacement)
    failures = _failures_by_suite()
    assert all(failures[suite] > 0 for suite in suites), failures
