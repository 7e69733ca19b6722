"""Planted faults that the identity suites must catch.

Each row plants one fault by monkeypatch, in each module namespace it
lists, with every cache cleared before and after, and names exactly the
suites that must then report at least one failure: the table is a reach
map, so a fault that starts or stops reaching a suite shows as a diff.
A listed suite that stays green under its row's fault has a blind spot:
either the fault is out of its reach or the check is vacuous.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

import hfib
from hfib import algebra, fibonacci, genfun, kernels, operators, pascal, qh, report
from hfib.algebra import H, Q
from hfib.operators import D


def _taylor_shift_off_from_3(coeffs, delta):
    # constant coefficient off by one for every shift by 3 or more
    out = kernels.taylor_shift(coeffs, delta)
    return [out[0] + 1, *out[1:]] if delta >= 3 and out else out


def _d_image_off_at_6(k):
    return algebra.d_image(k) + H**6 if k == 6 else algebra.d_image(k)


_OP_EVAL = operators.op_eval


def _op_eval_off_from_5(x):
    # one stray h on the expansion of any operator of degree 5 or more
    return _OP_EVAL(x) + (H if x.degree >= 5 else 0)


_KPACK = kernels.kpack


def _image_top_lane_off_from_7_lanes(a, bits):
    # the image at 2^bits one too large in its top lane, for every map of 7 or more lanes
    image = _KPACK(a, bits)
    return image + (1 << bits * max(a)) if a and max(a) >= 6 else image


_KMUL = kernels.kmul


def _one_term_product_off_from_10_terms(a, b):
    # top coefficient one too large on every one-term product of 10 or more terms
    out = _KMUL(a, b)
    if min(len(a), len(b)) == 1 and len(out) >= 10:
        top = max(out)
        out = {**out, top: out[top] + 1}
    return out


_KSUB = kernels.ksub


def _ksub_sign_kept_from_10_terms(a, b):
    # a - b keeps the sign of the first term of b that a lacks, both of 10 or more terms
    out = _KSUB(a, b)
    if len(a) >= 10 and len(b) >= 10:
        for key, coeff in b.items():
            if key not in a:
                out[key] = coeff
                break
    return out


_HFIB_DIAGONAL = fibonacci.hfib_diagonal


def _hfib_diagonal_off_at_7(n):
    return _HFIB_DIAGONAL(n) + H if n == 7 else _HFIB_DIAGONAL(n)


def _hfib_diagonal_plus_1_at_7(n):
    # unlike + h, survives h -> 0, so the classical limit sees it
    return _HFIB_DIAGONAL(n) + 1 if n == 7 else _HFIB_DIAGONAL(n)


_Q_BINOMIAL = qh.q_binomial


def _q_binomial_off_at_6_3(n, k):
    # vanishes at q = 1, so only the q-Pascal recurrences can see it
    return _Q_BINOMIAL(n, k) + (Q - 1) * Q if (n, k) == (6, 3) else _Q_BINOMIAL(n, k)


_EVAL_POINT = algebra.HPoly.eval_point


def _eval_point_off_at_hp_degree_10(self, h, hp, q=0):
    # 10 is the highest hp-degree the Charlier link evaluates at its default scale
    value = _EVAL_POINT(self, h, hp, q)
    return value + Fraction(1, 10**20) if self.max_exponents()[1] >= 10 else value


_OP_VALUE = operators.op_value


def _op_value_off_from_degree_5(x, h, hp):
    value = _OP_VALUE(x, h, hp)
    return value + Fraction(1, 10**20) if x.degree >= 5 else value


def _op_value_off_from_5_terms(x, h, hp):
    # a million times the weighted check's default tolerance; one-term operators,
    # which its convergence guard values, stay sound
    value = _OP_VALUE(x, h, hp)
    return value + Fraction(1, 10**6) if len(x) >= 5 else value


_FIB_OP = operators.fib_op


def _fib_op_off_at_7(n):
    return _FIB_OP(n) + D if n == 7 else _FIB_OP(n)


def _lambda_plus_odd_part_off():
    # lambda_+ = 1/2 + (1/2) s with the odd part 1/2 + D
    half = operators.OpPoly.const(Fraction(1, 2))
    return operators.SqrtExt(half, half + D)


_QH_POWERS = operators.qh_powers


def _qh_powers_off_at_7(n_max):
    # one stray D in the top-right entry of Q^7; op-matrix-powers sees it through matrix equality
    for n, (a11, a12, a21, a22) in enumerate(_QH_POWERS(n_max), 1):
        yield operators.OpMatrix2(a11, a12 + D if n == 7 else a12, a21, a22)


_BINET_FIB = operators.binet_fib


def _binet_fib_off_at_7(n):
    return _BINET_FIB(n) + D if n == 7 else _BINET_FIB(n)


_TWO_STEP_OP = operators.two_step_op


def _two_step_op_off_at_9(n, sign):
    return _TWO_STEP_OP(n, sign) + D**3 if n == 9 else _TWO_STEP_OP(n, sign)


_HORNER = operators._horner


def _horner_off_on_8_terms(x, coeffs):
    return _HORNER(x, coeffs) + 1 if len(coeffs) == 8 else _HORNER(x, coeffs)


_ANNIHILATOR = operators.annihilator


def _annihilator_off_at_2_1(k, step=1):
    # D^4 added to the constant coefficient of annihilator(2, 1)
    coeffs = _ANNIHILATOR(k, step)
    return (coeffs[0] + D**4, *coeffs[1:]) if (k, step) == (2, 1) else coeffs


def _check_first_reading_checks_nothing(self, cases, readings):
    # pins the last reading, as if every earlier one had failed, and checks no case
    pin = list(readings.values())[-1]
    if pin is not None:
        self.pin(*pin)


# the cube's closed form over the denominator of the squares, (k, step) = (2, 1)
_GF_TABLE_CUBE_OFF = {
    **genfun._GF_TABLE,
    "cube": (*genfun._GF_TABLE["cube"][:1], (2, 1), genfun._GF_TABLE["cube"][2]),
}


# fault -> ((module, attribute, replacement), ...), the suites that fail); d_image is
# planted in one module namespace per row (in fibonacci, h_binomial and hfib_diagonal
# stay sound), and fib_op, op_eval and binet_fib wherever a suite reads them.
MUTANTS = {
    "taylor_shift wrong for shifts of 3 or more": (
        ((algebra, "taylor_shift", _taylor_shift_off_from_3),),
        ("fib-doubling-sum",),
    ),
    "d_image(6) + h^6": (
        ((fibonacci, "d_image", _d_image_off_at_6),),
        ("fib-odd-even-sums", "fib-doubling-sum"),
    ),
    # h_binomial reads pascal's d_image, and hfib_diagonal and qh-q1-reduction read h_binomial
    "d_image(6) + h^6 in pascal": (
        ((pascal, "d_image", _d_image_off_at_6),),
        (
            "pascal-recurrences",
            "pascal-column-sum",
            "pascal-charlier-link",
            "fib-route-equivalence",
            "fib-partial-sum",
            "fib-odd-even-sums",
            "fib-doubling-sum",
            "fib-negative-reflection",
            "qh-q1-reduction",
        ),
    ),
    # qh-recurrences checks Z[q][D] images and reads d_image only to decode a failure
    "d_image(6) + h^6 in qh": (
        ((qh, "d_image", _d_image_off_at_6),),
        ("qh-q1-reduction",),
    ),
    # every route but the diagonal one, and the reflection side, expand through op_eval
    "rising-factorial expansion off from (hp)_5": (
        ((operators, "op_eval", _op_eval_off_from_5), (fibonacci, "op_eval", _op_eval_off_from_5)),
        ("fib-negative-reflection", "fib-route-equivalence", "op-matrix-powers"),
    ),
    # planted in operators only, where the grid suites, gf-expansions and qh-recurrences
    # image their inputs; both forms of op-cassini see it, and [n, k] of q-degree 6 or more
    "image top lane + 1 from 7 lanes": (
        ((operators, "kpack", _image_top_lane_off_from_7_lanes),),
        (
            "op-cassini",
            "op-addition",
            "op-inverse-powers",
            "op-power-sums",
            "op-catalan",
            "op-docagne",
            "gf-expansions",
            "qh-recurrences",
        ),
    ),
    # kmul is planted in kernels too, where kpow squares through it.  The grid suites
    # and qh-recurrences multiply images, not term maps; op-cassini is reached through
    # the D-shift steps of qh_powers, whose entries reach 10 terms only at its scale of 20
    "one-term product top coefficient + 1 from 10 terms": (
        (
            (algebra, "kmul", _one_term_product_off_from_10_terms),
            (kernels, "kmul", _one_term_product_off_from_10_terms),
        ),
        (
            "pascal-recurrences",
            "fib-partial-sum",
            "fib-odd-even-sums",
            "fib-doubling-sum",
            "qh-q1-reduction",
            "gf-expansions",
            "op-matrix-powers",
            "op-doubling",
            "op-cassini",
        ),
    ),
    # no grid suite subtracts term maps; the long division of series_expand does
    "ksub keeps a sign from 10 terms": (
        ((algebra, "ksub", _ksub_sign_kept_from_10_terms),),
        ("gf-expansions",),
    ),
    # h vanishes in the classical limit h -> 0 with h hp = 1
    "hfib_diagonal(7) + h": (
        ((fibonacci, "hfib_diagonal", _hfib_diagonal_off_at_7),),
        (
            "fib-route-equivalence",
            "fib-partial-sum",
            "fib-odd-even-sums",
            "fib-doubling-sum",
            "fib-alternating-sum",
            "fib-negative-reflection",
        ),
    ),
    "hfib_diagonal(7) + 1": (
        ((fibonacci, "hfib_diagonal", _hfib_diagonal_plus_1_at_7),),
        (
            "fib-route-equivalence",
            "fib-classical-limit",
            "fib-partial-sum",
            "fib-odd-even-sums",
            "fib-doubling-sum",
            "fib-alternating-sum",
            "fib-negative-reflection",
        ),
    ),
    "q_binomial(6, 3) + (q - 1) q": (
        ((qh, "q_binomial", _q_binomial_off_at_6_3),),
        ("qh-recurrences",),
    ),
    "cube generating function over annihilator(2, 1)": (
        ((genfun, "_GF_TABLE", _GF_TABLE_CUBE_OFF),),
        ("gf-expansions",),
    ),
    "eval_point off by 10^-20 from hp-degree 10": (
        ((algebra.HPoly, "eval_point", _eval_point_off_at_hp_degree_10),),
        ("pascal-charlier-link",),
    ),
    # planted in pascal only: the weighted series reads genfun's op_value
    "op_value off by 10^-20 from degree 5 in pascal": (
        ((pascal, "op_value", _op_value_off_from_degree_5),),
        ("pascal-charlier-link",),
    ),
    "op_value off by 10^-6 from 5 terms in genfun": (
        ((genfun, "op_value", _op_value_off_from_5_terms),),
        ("gf-weighted-series",),
    ),
    # every suite that reads fib_op but op-symmetric-lemmas, which checks the roots only;
    # the weighted series sees the stray D as h hp / 2^8 = 1/51200, far above its tolerance
    "fib_op(7) + D": (
        (
            (operators, "fib_op", _fib_op_off_at_7),
            (genfun, "fib_op", _fib_op_off_at_7),
            (fibonacci, "fib_op", _fib_op_off_at_7),
        ),
        (
            "fib-negative-reflection",
            "op-matrix-powers",
            "op-cassini",
            "op-addition",
            "op-cayley-hamilton",
            "op-inverse-powers",
            "op-power-sums",
            "op-catalan",
            "op-docagne",
            "op-negative-index",
            "op-doubling",
            "op-alternating",
            "op-binet",
            "gf-expansions",
            "gf-weighted-series",
        ),
    ),
    # only op-symmetric-lemmas reads the extension roots
    "lambda_plus with D added to its odd part": (
        ((operators, "lambda_plus", _lambda_plus_odd_part_off),),
        ("op-symmetric-lemmas",),
    ),
    "qh_powers with a12 + D in Q^7": (
        ((operators, "qh_powers", _qh_powers_off_at_7),),
        ("op-matrix-powers", "op-cassini", "op-cayley-hamilton", "op-inverse-powers"),
    ),
    "binet_fib(7) + D": (
        (
            (operators, "binet_fib", _binet_fib_off_at_7),
            (fibonacci, "binet_fib", _binet_fib_off_at_7),
        ),
        ("op-binet", "fib-route-equivalence"),
    ),
    "two_step_op(9) + D^3": (
        (
            (operators, "two_step_op", _two_step_op_off_at_9),
            (fibonacci, "two_step_op", _two_step_op_off_at_9),
        ),
        ("fib-negative-reflection", "fib-route-equivalence", "op-docagne", "op-negative-index"),
    ),
    # op-power-sums is out of reach: at default scale its sums have at most 7 terms
    "_horner + 1 on sums of 8 terms": (
        ((operators, "_horner", _horner_off_on_8_terms), (fibonacci, "_horner", _horner_off_on_8_terms)),
        ("fib-alternating-sum", "op-alternating", "op-doubling"),
    ),
    "annihilator(2, 1) with D^4 added to its constant": (
        ((genfun, "annihilator", _annihilator_off_at_2_1),),
        ("gf-expansions",),
    ),
    # the suites that read through check_first_reading then check no case
    "check_first_reading pins the last reading and checks no case": (
        ((report.IdentityReport, "check_first_reading", _check_first_reading_checks_nothing),),
        ("fib-doubling-sum", "fib-partial-sum", "pascal-column-sum"),
    ),
}


@pytest.fixture
def cold_caches():
    hfib.clear_caches()
    yield
    hfib.clear_caches()


def _failures_by_suite() -> dict[str, int]:
    reports = [
        *fibonacci.verify_fibonacci(),
        *qh.verify_qh(),
        *genfun.verify_genfun(),
        genfun.weighted_series_check(),
        genfun.verify_classical_weights(),
        *pascal.verify_pascal(),
        *operators.verify_operators(),
    ]
    # a report that checked no case records no failure, but does not pass either
    return {report.suite: len(report.failures) or int(not report.passed) for report in reports}


def test_the_unplanted_suites_pass(cold_caches) -> None:
    failures = _failures_by_suite()
    assert {suite for _, suites in MUTANTS.values() for suite in suites} <= set(failures)
    assert not any(failures.values()), failures


@pytest.mark.parametrize("fault", MUTANTS)
def test_planted_fault_is_caught(fault, cold_caches, monkeypatch) -> None:
    plants, suites = MUTANTS[fault]
    for module, attribute, replacement in plants:
        monkeypatch.setattr(module, attribute, replacement)
    failures = _failures_by_suite()
    assert {suite for suite, count in failures.items() if count} == set(suites), failures
