from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import hfib
from hfib import qh
from hfib.algebra import H, HP, Q, HPoly, d_image
from hfib.kernels import kpack
from hfib.fibonacci import hfib_diagonal
from hfib.pascal import h_binomial
from hfib.qh import (
    ExperimentalReport,
    _q_diagonal,
    experimental_report,
    q_binomial,
    q_fibonacci,
    q_int,
    qh_binomial,
    verify_qh,
    verify_qh_recurrences,
)
from hfib.report import IdentityReport
from oracles import oracle_q_binomial, oracle_qh_pascal_cases
from test_fibonacci import _shift_calls

# regression pins on the measured experimental outcomes; these freeze
# what the report says, they are not assertions that the math must hold
EXPECTED_EXPERIMENTAL = {
    "recurrence-literal": False,
    "recurrence-augmented": True,
    "recurrence-augmented-q1": True,
    "alt-weight-recurrence-literal": False,
    "alt-weight-recurrence-augmented": False,
    "alt-weight-recurrence-qn-augmented": True,
    "partial-sum": True,
    "odd-index-sum": False,
    "even-index-sum-cleared": False,
}


def test_q_int_values() -> None:
    assert q_int(0) == 0
    assert q_int(1) == 1
    assert q_int(3) == 1 + Q + Q**2
    with pytest.raises(ValueError):
        q_int(-1)


def test_q_binomial_values() -> None:
    assert q_binomial(4, 2) == 1 + Q + 2 * Q**2 + Q**3 + Q**4
    assert q_binomial(3, 1) == 1 + Q + Q**2
    assert q_binomial(5, 0) == 1
    assert q_binomial(3, 4) == 0
    assert q_binomial(3, -1) == 0
    # beyond the recursion limit
    assert q_binomial(1500, 1) == q_int(1500)
    with pytest.raises(ValueError):
        q_binomial(-1, 0)


@given(st.integers(min_value=0, max_value=9), st.integers(min_value=0, max_value=9))
def test_q_binomial_at_integer_points(n: int, k: int) -> None:
    # the product formula at q = 2 and 3: q_binomial is built from it, so this
    # is not independent; test_q_binomial_matches_subset_sums is
    for qv in (2, 3):
        if k > n:
            want = Fraction(0)
        else:
            want = Fraction(1)
            for i in range(1, k + 1):
                want *= Fraction(qv ** (n - k + i) - 1, qv**i - 1)
        assert q_binomial(n, k).eval_point(0, 0, qv) == want


def test_q_binomial_matches_subset_sums() -> None:
    for n in range(11):
        for k in range(n + 2):
            got = {eq: coeff for (_, _, eq), coeff in q_binomial(n, k).terms()}
            assert got == oracle_q_binomial(n, k), (n, k)


@given(st.integers(min_value=0, max_value=10), st.integers(min_value=0, max_value=10))
def test_q_binomial_symmetry(n: int, k: int) -> None:
    if k <= n:
        assert q_binomial(n, k) == q_binomial(n, n - k)


def test_qh_binomial_structure() -> None:
    # q-binomial times the h-weight h^k (hp)(hp+1)...(hp+k-1)
    assert qh_binomial(3, 2) == q_binomial(3, 2) * H**2 * HP * (HP + 1)
    assert qh_binomial(4, 0) == 1
    assert qh_binomial(2, 3) == 0


@given(st.integers(min_value=0, max_value=10))
def test_qh_binomial_q1_reduction(n: int) -> None:
    for k in range(n + 1):
        assert qh_binomial(n, k).substitute_q(1) == h_binomial(n, k)


@given(st.integers(min_value=0, max_value=12))
def test_q_fibonacci_q1_reduction(n: int) -> None:
    assert q_fibonacci(n).substitute_q(1) == hfib_diagonal(n)


def test_q_fibonacci_small_values() -> None:
    assert q_fibonacci(0) == 0
    assert q_fibonacci(1) == 1
    assert q_fibonacci(2) == 1
    assert q_fibonacci(3) == 1 + Q * H * HP
    assert q_fibonacci(4) == 1 + Q * (1 + Q) * H * HP


def test_verify_qh_all_pass() -> None:
    for report in verify_qh(8):
        assert report.passed, report.to_dict()


def test_recurrence_suite_pins_reading() -> None:
    report = verify_qh_recurrences(8)
    assert report.passed
    resolutions = [pin.resolution for pin in report.pinned_conventions]
    assert any("stepped" in text for text in resolutions)
    assert any("(2, 3)" in text for text in resolutions)


def test_recurrence_suite_pins_the_evidence_at_any_scale() -> None:
    # the stepped reading is searched past row 1, so its first failure is pinned here too
    report = verify_qh_recurrences(1)
    assert report.passed
    assert any("(2, 3)" in pin.resolution for pin in report.pinned_conventions)


def test_experimental_summary_frozen() -> None:
    report = experimental_report(n_max=10)
    assert report.summary() == EXPECTED_EXPERIMENTAL


def test_experimental_report_shape() -> None:
    report = experimental_report(n_max=6)
    data = report.to_dict()
    assert data["experimental"] is True
    assert data["schema"]
    assert data["suite"] == "qh-experimental"
    assert len(data["conventions"]) == 3
    names = {check["identity"] for check in data["checks"]}
    assert names == set(EXPECTED_EXPERIMENTAL)
    for check in data["checks"]:
        assert isinstance(check["holds"], bool)
        assert isinstance(check["n"], int)


def test_experimental_checks_are_per_index(n_max: int = 6) -> None:
    report = experimental_report(n_max=n_max)
    literal = [c for c in report.checks if c.identity == "recurrence-literal"]
    assert len(literal) >= n_max - 2
    assert any(not c.holds for c in literal)


def test_experimental_sides_decode_to_the_literal_sums(monkeypatch: pytest.MonkeyPatch) -> None:
    # the two literal candidates are polynomials; the other seven are Z[q][D] images,
    # which decode to the sums the candidates state in Q[h, hp, q]
    seen: dict[tuple[str, int], tuple] = {}
    record, layout, layouts = ExperimentalReport.record, qh._layout, []

    def capture(self, identity, n, lhs, rhs):
        seen[identity, n] = (lhs, rhs)
        return record(self, identity, n, lhs, rhs)

    monkeypatch.setattr(ExperimentalReport, "record", capture)
    monkeypatch.setattr(qh, "_layout", lambda *args: layouts.append(layout(*args)) or layouts[-1])
    experimental_report(n_max=8)
    ((width, stride),) = layouts

    def decoded(identity: str, n: int, d_bits: int = stride) -> tuple[HPoly, HPoly]:
        return tuple(qh._decode(x, width, d_bits) for x in seen[identity, n])

    weight = H * HP
    for n in range(1, 9):
        shifted = q_fibonacci(n - 1).shift_hprime(1)
        assert seen["recurrence-literal", n] == (q_fibonacci(n + 1), q_fibonacci(n) + Q ** (n - 1) * shifted)
        augmented = q_fibonacci(n) + Q ** (n - 1) * weight * shifted
        assert decoded("recurrence-augmented", n) == (q_fibonacci(n + 1), augmented)
        # at q = 1 the images are taken at D = 2^width
        at_one = (q_fibonacci(n + 1).substitute_q(1), augmented.substitute_q(1))
        assert decoded("recurrence-augmented-q1", n, width) == at_one
        alt, alt_shifted = _q_diagonal(n, 1), _q_diagonal(n - 1, 1).shift_hprime(1)
        literal = (_q_diagonal(n + 1, 1), alt + Q ** (n - 1) * alt_shifted)
        assert seen["alt-weight-recurrence-literal", n] == literal
        for identity, power in (("alt-weight-recurrence-augmented", n - 1), ("alt-weight-recurrence-qn-augmented", n)):
            assert decoded(identity, n) == (_q_diagonal(n + 1, 1), alt + Q**power * weight * alt_shifted)
        partial = sum((Q**k * q_fibonacci(k).shift_hprime(1) for k in range(n + 1)), HPoly.zero())
        assert decoded("partial-sum", n) == (weight * partial, q_fibonacci(n + 2) - 1)
        odd = even = HPoly.zero()
        for k in range(1, n + 1):
            w = d_image(n - k)
            odd = odd + Q ** (2 * k) * w * q_fibonacci(2 * k - 1).shift_hprime(n - k)
            even = even + Q ** (2 * n - 2 * k) * w * q_fibonacci(2 * k).shift_hprime(n - k)
        assert decoded("odd-index-sum", n) == (odd, q_fibonacci(2 * n))
        cleared = Q ** (2 * n - 1) * (q_fibonacci(2 * n + 1) - d_image(n))
        assert decoded("even-index-sum-cleared", n) == (even, cleared)


def test_recurrences_shift_only_in_the_stepped_search(monkeypatch: pytest.MonkeyPatch) -> None:
    # the images take no hp-shift; the stepped reading's search shifts rows 0..2
    # (1 + 2 + 3 entries) before its first failure at (2, 3), at any n_max
    assert _shift_calls(monkeypatch, lambda: verify_qh_recurrences(20)) == 6
    assert _shift_calls(monkeypatch, lambda: verify_qh_recurrences(1)) == 6


def test_experimental_report_shifts_only_for_the_literal_candidates(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    # one shift per n for each literal candidate, none for the seven on images
    assert _shift_calls(monkeypatch, lambda: experimental_report(20)) == 40


@pytest.fixture
def cold_caches():
    hfib.clear_caches()
    yield
    hfib.clear_caches()


def _plus_q_minus_1_q_at_6_3(q_binomial):
    # vanishes at q = 1, so only the q-Pascal recurrences see it
    return lambda n, k: q_binomial(n, k) + (Q - 1) * Q if (n, k) == (6, 3) else q_binomial(n, k)


def _plus_5_q9_at_4_2(q_binomial):
    # raises the q-degree of [4, 2] from 4 to 9, past every other entry of rows 0..5
    return lambda n, k: q_binomial(n, k) + 5 * Q**9 if (n, k) == (4, 2) else q_binomial(n, k)


@pytest.mark.parametrize(
    "fault, first_failing_row",
    [(None, None), (_plus_q_minus_1_q_at_6_3, 5), (_plus_5_q9_at_4_2, 3)],
)
def test_image_verdicts_and_witnesses_match_the_product_oracle(
    fault, first_failing_row, cold_caches, monkeypatch
) -> None:
    if fault is not None:
        monkeypatch.setattr(qh, "q_binomial", fault(qh.q_binomial))
    for n_max in range(13):
        oracle = IdentityReport("qh-recurrences")
        for case in oracle_qh_pascal_cases(n_max):
            oracle.check(*case)
        report = verify_qh_recurrences(n_max)
        assert report.cases == oracle.cases
        # the failing params are the verdicts, and each failure renders both sides
        assert report.failures == oracle.failures
        assert bool(report.failures) == (first_failing_row is not None and n_max >= first_failing_row)


z_q_d = st.dictionaries(
    st.tuples(st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=8)),
    st.integers(min_value=-(2**40), max_value=2**40).filter(bool),
    max_size=8,
)


def _expand(x: dict) -> HPoly:
    # sum c q^e d_image(k) over the terms c q^e D^k of x, term by term
    return sum((c * Q**e * d_image(k) for (k, e), c in x.items()), HPoly.zero())


@given(z_q_d)
def test_composition_rule_with_q(x: dict) -> None:
    # D^w X expands to d_image(w) * expand(X)[hp -> hp + w], for every w up to the scale cap 20
    expanded = _expand(x)
    for w in range(21):
        assert _expand({(k + w, e): c for (k, e), c in x.items()}) == d_image(w) * expanded.shift_hprime(w)
    # the decoder reads the same expansion back from an image at q = 2^42, D = 2^(42 * 9)
    assert qh._decode(kpack({9 * k + e: c for (k, e), c in x.items()}, 42), 42, 42 * 9) == expanded
