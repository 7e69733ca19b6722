"""Two-parameter (q, h) analogue: Gaussian layer under the h-deformation.

The q-deformed binomial coefficient (Gaussian binomial) is layered under
the h-weight to give

    C_qh(n, k) = C_q(n, k) * h^k * (hp)(hp+1)...(hp+k-1),

which satisfies two q-Pascal recurrences (checked exactly) and reduces
to the plain h-deformed coefficient at q = 1.  One notational ambiguity
is pinned by oracle: the shifted factorial attached to the q-coefficient
is the plain length-k one, not a product stepped by q-integers; the
alternative reading breaks the additive recurrence at (n, k) = (2, 3)
and the rejection is recorded in the report.

The Gaussian binomial comes from the product formula (Andrews, The
Theory of Partitions, 1976, ch. 3), with no cache, so the additive
recurrence checked below compares two constructions.

The q-Fibonacci layer is experimental.  q_fibonacci sums q^(k^2)-
weighted diagonals (with the summation bound widened to the full
diagonal so that q = 1 recovers the h-Fibonacci numbers), and
experimental_report measures its candidate identities without asserting
any of them: results are data, recorded per instance, with every
convention that was needed to make a candidate well-formed written into
the report.  Its partial, odd-index and even-index left sides are
running sums, each grown from the one before by at most one hp-shift.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from typing import NamedTuple

from hfib.algebra import H, HP, HPoly, Q, d_image
from hfib.fibonacci import hfib_diagonal
from hfib.pascal import _in_row, h_binomial, pascal_rule_cases
from hfib.report import SCHEMA, IdentityReport, PinnedConvention, _Record, suite_scale


def q_int(n: int) -> HPoly:
    """q-integer [n] = 1 + q + ... + q^(n-1)."""
    if n < 0:
        raise ValueError("q-integer index must be non-negative")
    return HPoly.from_terms(((0, 0, i), 1) for i in range(n))


def q_binomial(n: int, k: int) -> HPoly:
    """Gaussian binomial [n, k] = prod_(i=1..k) (1 - q^(n-k+i)) / (1 - q^i).

    Each partial product is the Gaussian binomial [n-k+i, i], so every
    division is exact.  They run on one dense list of int coefficients
    in q: a factor (1 - q^m) is one backward difference with stride m,
    a divisor (1 - q^i) one forward running sum with stride i, whose top
    i coefficients an exact division leaves at zero (checked).
    """
    if not _in_row(n, k):
        return HPoly.zero()
    k = min(k, n - k)
    coeffs = [1]
    for i in range(1, k + 1):
        m = n - k + i
        coeffs = [a - b for a, b in zip(coeffs + [0] * m, [0] * m + coeffs)]
        for r in range(i):
            coeffs[r::i] = accumulate(coeffs[r::i])
        if any(coeffs[-i:]):
            raise ArithmeticError(f"(1 - q^{i}) does not divide the product for [{n}, {k}]")
        del coeffs[-i:]
    return HPoly.from_terms(((0, 0, e), c) for e, c in enumerate(coeffs))


@lru_cache(maxsize=None, typed=True)
def qh_binomial(n: int, k: int) -> HPoly:
    """(q, h)-deformed binomial C_q(n, k) * h^k * (hp)(hp+1)...(hp+k-1)."""
    if not _in_row(n, k):
        return HPoly.zero()
    return q_binomial(n, k) * d_image(k)


def _qh_binomial_stepped(n: int, k: int) -> HPoly:
    # Rejected alternative reading: shifted factorial stepped by
    # q-integers, prod_j (hp + [j]).  Kept only to document its failure.
    if not _in_row(n, k):
        return HPoly.zero()
    prod = HPoly.one()
    for j in range(k):
        prod = prod * (HP + q_int(j))
    return q_binomial(n, k) * H**k * prod


def q_fibonacci(n: int) -> HPoly:
    """q-weighted diagonal sum: F_n = sum_k q^(k^2) C_qh(n-1-k, k).

    The upper bound runs over the full diagonal (k up to (n-1)/2); the
    printed bound n/2 - 1 stops one term short on even diagonals and
    would break the q = 1 reduction to the h-Fibonacci numbers.
    """
    if n < 0:
        raise ValueError("index must be non-negative")
    return _q_diagonal(n, 0)


@lru_cache(maxsize=None, typed=True)
def _q_diagonal(n: int, linear: int) -> HPoly:
    # sum_k q^(k^2 + linear*k) C_qh(n-1-k, k) over the full diagonal: the
    # q-Fibonacci weight at linear = 0, the alternative q^(k^2 + k) at 1
    total = HPoly.zero()
    for k in range((n - 1) // 2 + 1):
        total = total + Q ** (k * k + linear * k) * qh_binomial(n - 1 - k, k)
    return total


_STEPPED_ROWS = 20  # rows searched for the stepped reading's first failure, (2, 3), at any n_max


def verify_qh_recurrences(n_max: int = 10) -> IdentityReport:
    """Both q-Pascal recurrences on the (q, h) triangle, exactly."""
    report = IdentityReport("qh-recurrences")
    report.pin(
        "shifted factorial attached to the q-binomial (bracketed length)",
        "plain length-k factorial (hp)(hp+1)...(hp+k-1); the reading "
        "stepped by q-integers breaks the additive recurrence",
    )
    stepped = pascal_rule_cases(_qh_binomial_stepped, Q, q_int, _STEPPED_ROWS)
    additive_failures = (
        (p["n"], p["k"]) for p, lhs, rhs in stepped if p["rule"] == "additive" and lhs != rhs
    )
    rejected = next(additive_failures, None)
    if rejected:
        report.pin(
            "evidence for the rejected stepped reading",
            f"additive recurrence first fails at (n, k) = {rejected}",
        )
    for case in pascal_rule_cases(qh_binomial, Q, q_int, n_max):
        report.check(*case)
    return report


def verify_q_one_reduction(n_max: int = 12) -> IdentityReport:
    """q = 1 collapses every (q, h) object onto its h-deformed counterpart."""
    report = IdentityReport("qh-q1-reduction")
    for n in range(n_max + 1):
        for k in range(n + 1):
            report.check(
                {"object": "binomial", "n": n, "k": k},
                qh_binomial(n, k).substitute_q(1),
                h_binomial(n, k),
            )
        report.check(
            {"object": "fibonacci", "n": n},
            q_fibonacci(n).substitute_q(1),
            hfib_diagonal(n),
        )
    return report


def verify_qh(n_max: int | None = None) -> list[IdentityReport]:
    """Both (q, h) suites; n_max, when given, overrides every scale."""
    scale = suite_scale(n_max)
    return [
        verify_qh_recurrences(scale(10)),
        verify_q_one_reduction(scale(12)),
    ]


# -- experimental layer ----------------------------------------------------


class ExperimentalCheck(NamedTuple):
    identity: str
    n: int
    holds: bool


class ExperimentalReport(_Record):
    """Measured (never asserted) candidate identities for the q-layer.

    `pinned` names the candidates that held for every measured instance;
    a strict consumer may choose to gate on exactly those.
    """

    def __init__(
        self,
        suite: str = "qh-experimental",
        checks: list[ExperimentalCheck] | None = None,
        conventions: list[PinnedConvention] | None = None,
    ) -> None:
        self.suite = suite
        self.checks = [] if checks is None else checks
        self.conventions = [] if conventions is None else conventions

    def record(self, identity: str, n: int, lhs: HPoly, rhs: HPoly) -> None:
        self.checks.append(ExperimentalCheck(identity, n, lhs == rhs))

    def summary(self) -> dict[str, bool]:
        out: dict[str, bool] = {}
        for check in self.checks:
            out[check.identity] = out.get(check.identity, True) and check.holds
        return out

    @property
    def pinned(self) -> tuple[str, ...]:
        return tuple(name for name, holds in sorted(self.summary().items()) if holds)

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "suite": self.suite,
            "experimental": True,
            "summary": dict(sorted(self.summary().items())),
            "pinned": list(self.pinned),
            "checks": [
                {"identity": c.identity, "n": c.n, "holds": c.holds} for c in self.checks
            ],
            "conventions": [c.to_dict() for c in self.conventions],
        }


def experimental_report(n_max: int | None = None) -> ExperimentalReport:
    """Measure the candidate q-Fibonacci identities for n up to n_max (default 10).

    Candidates follow the printed h-analogue statements with q-weights;
    where a printed form is not even well-formed over Q[h, hp, q] the
    minimal repair is applied and documented in `conventions`.  Nothing
    here asserts; consumers read the matrix.
    """
    report = ExperimentalReport()
    report.conventions.append(
        PinnedConvention(
            "q-Fibonacci summation bound",
            "full diagonal k <= (n-1)/2, so q = 1 recovers the h-numbers",
        )
    )
    report.conventions.append(
        PinnedConvention(
            "odd-index partial sum lower bound",
            "the k = 0 term would reference the negative index F_(-1); "
            "it is dropped (sum starts at k = 1)",
        )
    )
    report.conventions.append(
        PinnedConvention(
            "even-index partial sum q-denominators",
            "q^(1-2k) factors are cleared by multiplying both sides by "
            "q^(2n-1), keeping everything polynomial",
        )
    )

    # Each left side grows from the one before, as in verify_odd_even_sums:
    # d_image(m+1) = h*hp * d_image(m)[hp -> hp+1], so the odd and even sums
    # take one hp-shift each per n, and F_(n-1)[hp -> hp+1] of each weight
    # is shifted once and read by every candidate that needs it.
    shifted = partial = odd_acc = even_acc = HPoly.zero()
    for n in range(1, suite_scale(n_max)(10) + 1):
        lhs = q_fibonacci(n + 1)
        literal = q_fibonacci(n) + Q ** (n - 1) * shifted
        augmented = q_fibonacci(n) + Q ** (n - 1) * H * HP * shifted
        report.record("recurrence-literal", n, lhs, literal)
        report.record("recurrence-augmented", n, lhs, augmented)
        report.record("recurrence-augmented-q1", n, lhs.substitute_q(1), augmented.substitute_q(1))

        alt = _q_diagonal(n, 1)
        alt_lhs = _q_diagonal(n + 1, 1)
        alt_shifted = _q_diagonal(n - 1, 1).shift_hprime(1)
        alt_augmented = H * HP * alt_shifted
        report.record("alt-weight-recurrence-literal", n, alt_lhs, alt + Q ** (n - 1) * alt_shifted)
        report.record(
            "alt-weight-recurrence-augmented", n, alt_lhs, alt + Q ** (n - 1) * alt_augmented
        )
        report.record("alt-weight-recurrence-qn-augmented", n, alt_lhs, alt + Q**n * alt_augmented)

        shifted = q_fibonacci(n).shift_hprime(1)
        partial = partial + Q**n * shifted
        report.record("partial-sum", n, H * HP * partial, q_fibonacci(n + 2) - 1)

        odd_acc = H * HP * odd_acc.shift_hprime(1) + Q ** (2 * n) * q_fibonacci(2 * n - 1)
        even_acc = Q**2 * H * HP * even_acc.shift_hprime(1) + q_fibonacci(2 * n)
        report.record("odd-index-sum", n, odd_acc, q_fibonacci(2 * n))
        cleared = Q ** (2 * n - 1) * (q_fibonacci(2 * n + 1) - d_image(n))
        report.record("even-index-sum-cleared", n, even_acc, cleared)
    return report


# Experimental identities a strict run is allowed to gate on: the ones
# this module pins as holding (see experimental_report).
STRICT_QH_IDENTITIES = ("partial-sum", "recurrence-augmented", "recurrence-augmented-q1")


def strict_report(experimental: ExperimentalReport) -> IdentityReport:
    """One case per STRICT_QH_IDENTITIES entry, failed unless it held for every measured n."""
    summary = experimental.summary()
    report = IdentityReport("qh-strict")
    for name in STRICT_QH_IDENTITIES:
        measured = "holds for all measured n" if summary.get(name, False) else "failed for some n"
        report.check({"identity": name}, "holds for all measured n", measured)
    return report
