"""Acceptance gate: every shipped guarantee, one criterion per test.

Each criterion appends a PASS/FAIL line to RESULTS; the conftest prints
those in the terminal summary so a full run always shows one line per
criterion.  Runtime-bounded criteria measure with perf_counter and fail
when over budget.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from hypothesis import settings

from hfib.algebra import H, HP, shifted_factorial
from hfib.fibonacci import (
    classical_fib,
    fib_table,
    verify_classical_limit,
    verify_fibonacci,
    verify_routes,
)
from hfib.genfun import (
    ConvergenceError,
    verify_classical_weights,
    verify_genfun,
    weighted_series_check,
)
from hfib.operators import D, fib_op, op_eval, verify_operators
from hfib.pascal import (
    verify_charlier_link,
    verify_column_sum,
    verify_pascal_recurrences,
)
from hfib.qh import experimental_report, verify_q_one_reduction, verify_qh_recurrences
from hfib.report import DEFAULT_SEED
from oracles import golden_shape

GOLDEN = Path(__file__).parent / "golden"
RESULTS: list[str] = []


def _record(number: int, label: str, passed: bool, elapsed: float | None = None) -> None:
    status = "PASS" if passed else "FAIL"
    timing = f" ({elapsed:.2f}s)" if elapsed is not None else ""
    RESULTS.append(f"criterion {number}: {status} {label}{timing}")
    assert passed, f"criterion {number} failed: {label}"


def test_criterion_1_table_reproduction() -> None:
    start = time.perf_counter()
    table = fib_table(10)
    classical = [row.classical for row in table.rows]
    golden = json.loads((GOLDEN / "fib_table.json").read_text())
    polynomials_ok = all(golden_shape(row.value) == golden[str(row.n)] for row in table.rows)
    elapsed = time.perf_counter() - start
    ok = (
        classical == [0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55]
        and polynomials_ok
        and bool(table.pinned_conventions)
        and elapsed < 1.0
    )
    _record(1, "first eleven rows, classical limits, row-9 weight flag", ok, elapsed)


def test_criterion_2_route_equivalence() -> None:
    start = time.perf_counter()
    report = verify_routes(30)
    elapsed = time.perf_counter() - start
    _record(2, "four construction routes agree exactly to n = 30", report.passed and elapsed < 5.0, elapsed)


def test_criterion_3_classical_degeneration() -> None:
    report = verify_classical_limit(30)
    ok = report.passed and all(
        fib_table(10).rows[n].classical == classical_fib(n) for n in range(11)
    )
    _record(3, "h, hp -> classical limit reproduces integer Fibonacci to n = 30", ok)


def test_criterion_4_identity_suites_exact() -> None:
    start = time.perf_counter()
    reports = [
        verify_pascal_recurrences(12),
        verify_column_sum(12),
        *verify_fibonacci(None),
        *verify_operators(None),
    ]
    elapsed = time.perf_counter() - start
    ok = all(r.passed for r in reports) and elapsed < 30.0
    _record(4, f"symbolic identity suites, {sum(r.cases for r in reports)} instances, zero tolerance", ok, elapsed)


def test_criterion_5_charlier_sampled() -> None:
    report = verify_charlier_link(10, seed=DEFAULT_SEED)
    ok = report.passed and report.cases == 11 * 12
    _record(5, "row sums match Charlier values on 12 exact rational samples", ok)


def test_criterion_6_generating_functions() -> None:
    lemmas, expansions = verify_genfun(order=16)
    ok = lemmas.passed and expansions.passed
    _record(6, "all closed forms expand to their coefficient targets through order 15", ok)


def test_criterion_7_weighted_series() -> None:
    # The transformed series is asymptotic: at h = 1/10 its terms bottom
    # out near 1.5e-9, so no truncation can certify 1e-12 and the check
    # must refuse.  At h = 1/100 both tails pass the guard and the two
    # order-80 truncations agree far below the tolerance.
    try:
        weighted_series_check(2, Fraction(1, 10), Fraction(1, 2), order=80)
        refused = False
    except ConvergenceError:
        refused = True
    convergent = weighted_series_check(2, Fraction(1, 100), Fraction(1, 2), order=80)
    bullets = verify_classical_weights()
    ok = refused and convergent.passed and bullets.passed
    _record(7, "order-80 weighted sums agree within 1e-12 in the certified regime", ok)


def test_criterion_8_qh_tier() -> None:
    recurrences = verify_qh_recurrences(10)
    reductions = verify_q_one_reduction(12)
    report = experimental_report(10)
    blob = json.dumps(report.to_dict(), sort_keys=True)
    machine_readable = json.loads(blob)["suite"] == "qh-experimental"
    ok = recurrences.passed and reductions.passed and machine_readable
    _record(8, "q-layer recurrences, q = 1 reductions, experimental report emitted", ok)


def test_criterion_9_invariants_and_determinism() -> None:
    profile_ok = settings().derandomize
    # composition rule spot instance
    x = 2 + 3 * D + D**2
    comp_ok = op_eval(D**3 * x) == (H**3 * shifted_factorial(HP, 1, 3)) * op_eval(x).shift_hprime(3)
    # operator homomorphism into values at a sample index
    hom_ok = op_eval(fib_op(9) + fib_op(4)) == op_eval(fib_op(9)) + op_eval(fib_op(4))
    cmd = [sys.executable, "-m", "hfib.cli", "verify", "all", "--max", "8", "--seed", str(DEFAULT_SEED)]
    a = subprocess.run(cmd, capture_output=True, text=True)
    b = subprocess.run(cmd, capture_output=True, text=True)
    deterministic = a.returncode == 0 and a.stdout == b.stdout
    ok = bool(profile_ok) and comp_ok and hom_ok and deterministic
    _record(9, "property profile derandomized; composition rule; byte-stable verify output", ok)
