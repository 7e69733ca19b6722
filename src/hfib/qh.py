"""Two-parameter (q, h) analogue: Gaussian layer under the h-deformation.

The q-deformed binomial coefficient (Gaussian binomial) is layered under
the h-weight to give

    C_qh(n, k) = C_q(n, k) * h^k * (hp)(hp+1)...(hp+k-1),

the image of [n, k]_q D^k under D^k -> h^k (hp)_k.  It satisfies two
q-Pascal recurrences and reduces to the plain h-deformed coefficient at
q = 1.  One notational ambiguity is pinned by oracle: the shifted
factorial is the plain length-k one, not a product stepped by q-integers,
whose reading breaks the additive recurrence at (n, k) = (2, 3); the
rejection is recorded in the report.

The Gaussian binomial comes from the product formula (Andrews, The
Theory of Partitions, 1976, ch. 3), with no cache.  As h*hp*x[hp -> hp+1]
is the image of D x, each case of the recurrences is, without its common
D^k, an identity in Z[q], checked on integer images at q = 2^C (Kronecker,
1882) made by the imaging of hfib.operators, a failing case decoded in
Z[q] times d_image(k); the experimental candidates with a D form are
compared on images at q = 2^C, D = 2^(C N).  The q = 1 reduction, the
independent link to the h-side, stays on Q[h, hp, q].

The q-Fibonacci layer is experimental.  q_fibonacci sums q^(k^2)-
weighted diagonals (with the summation bound widened to the full
diagonal so that q = 1 recovers the h-Fibonacci numbers), and
experimental_report measures its candidate identities without asserting
any of them: results are data, recorded per instance, with every
convention that was needed to make a candidate well-formed written into
the report.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from typing import NamedTuple

from hfib.algebra import H, HP, HPoly, Q, d_image
from hfib.fibonacci import hfib_diagonal
from hfib.kernels import kunpack
from hfib.operators import _image_width, _images, _l1
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
    return sum((Q ** (k * k + linear * k) * qh_binomial(n - 1 - k, k) for k in range((n - 1) // 2 + 1)), HPoly.zero())


_STEPPED_ROWS = 20  # rows searched for the stepped reading's first failure, (2, 3), at any n_max


def _layout(bound: int, degree: int) -> tuple[int, int]:
    """Bits (C, C N) of q = 2^C and D = 2^(C N): l1 norms below `bound`, q-degrees below N = degree + 1."""
    width = _image_width(bound)
    return width, width * (degree + 1)


def verify_qh_recurrences(n_max: int = 10) -> IdentityReport:
    """Both q-Pascal recurrences on the (q, h) triangle, on Z[q] images.

    [n+1, k] D^k = q^k [n, k] D^k + D [n, k-1] D^(k-1) and [k+1] [n+1, k+1] D^(k+1)
    = [n+1] D [n, k] D^k, compared in Z[q] without the common D^k.  With M the largest
    ||[n, k]||_1 and P the largest ||[m]||_1, ||lhs||_1 + ||rhs||_1 <= (3 + 2 P) M, whatever
    the q-degrees; each side of a failing case is decoded in Z[q], times d_image(k).
    """
    report = IdentityReport("qh-recurrences")
    report.pin(
        "shifted factorial attached to the q-binomial (bracketed length)",
        "plain length-k factorial (hp)(hp+1)...(hp+k-1); the reading "
        "stepped by q-integers breaks the additive recurrence",
    )
    stepped = pascal_rule_cases(_qh_binomial_stepped, Q, q_int, _STEPPED_ROWS)
    rejected = next(((c["n"], c["k"]) for c, lhs, rhs in stepped if c["rule"] == "additive" and lhs != rhs), None)
    if rejected:
        report.pin("evidence for the rejected stepped reading", f"additive recurrence first fails at (n, k) = {rejected}")
    rows = [[q_binomial(n, k) for k in range(n + 1)] for n in range(n_max + 2)]
    brackets = [q_int(m) for m in range(n_max + 2)]
    width = _image_width((3 + 2 * max(map(_l1, brackets))) * max(_l1(x) for row in rows for x in row))
    b = [[*_images(row, width), 0] for row in rows]  # the 0 is [n, n+1] and [n, -1]
    p = _images(brackets, width)

    def check(params: dict, lhs: int, rhs: int, k: int) -> None:
        if lhs != rhs:  # decoded in Z[q], where q^e has key e, with D^k put back, for the witness
            lhs, rhs = (HPoly(kunpack(x, width)) * d_image(k) for x in (lhs, rhs))
        report.check(params, lhs, rhs)

    for n in range(n_max + 1):
        for k in range(n + 2):
            check({"rule": "additive", "n": n, "k": k}, b[n + 1][k], (b[n][k] << width * k) + b[n][k - 1], k)
        for k in range(n + 1):
            check({"rule": "absorption", "n": n, "k": k}, p[k + 1] * b[n + 1][k + 1], p[n + 1] * b[n][k], k + 1)
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
    return [verify_qh_recurrences(scale(10)), verify_q_one_reduction(scale(12))]


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

    def record(self, identity: str, n: int, lhs: HPoly | int, rhs: HPoly | int) -> None:
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
            "checks": [{"identity": c.identity, "n": c.n, "holds": c.holds} for c in self.checks],
            "conventions": [c.to_dict() for c in self.conventions],
        }


def experimental_report(n_max: int | None = None) -> ExperimentalReport:
    """Measure the candidate q-Fibonacci identities for n up to n_max (default 10).

    Candidates follow the printed h-analogue statements with q-weights;
    where a printed form is not even well-formed over Q[h, hp, q] the
    minimal repair is applied and documented in `conventions`.  Nothing
    here asserts; consumers read the matrix.  Schur's recurrence
    F_(n+1) = F_n + q^(n-1) D F_(n-1), its analogue A_(n+1) = A_n + q^n D A_(n-1)
    for the weight q^(k^2 + k) and telescoping give recurrence-augmented,
    alt-weight-recurrence-qn-augmented and partial-sum for all n; they stay measured.
    The two literal candidates, whose bare hp-shift has no D form, run on
    Q[h, hp, q]; the other seven on Z[q][D] images of F_m, A_m =
    sum_k q^(k^2 + linear k) [m-1-k, k] D^k.  A case reads each F_m (or A_m,
    of equal l1 norm) at most once, adds a constant of l1 norm at most 1 and
    raises q-degrees by at most 2 n.
    """
    report = ExperimentalReport(conventions=[
        PinnedConvention("q-Fibonacci summation bound", "full diagonal k <= (n-1)/2, so q = 1 recovers the h-numbers"),
        PinnedConvention(
            "odd-index partial sum lower bound",
            "the k = 0 term would reference the negative index F_(-1); it is dropped (sum starts at k = 1)",
        ),
        PinnedConvention(
            "even-index partial sum q-denominators",
            "q^(1-2k) factors are cleared by multiplying both sides by q^(2n-1), keeping everything polynomial",
        ),
    ])
    top = suite_scale(n_max)(10)
    diagonals = [[(m - 1 - k, k) for k in range((m - 1) // 2 + 1)] for m in range(2 * top + 2)]
    binomials = {jk: q_binomial(*jk) for terms in diagonals for jk in terms}
    degree = 2 * top + max(k * k + k + max(x._terms, default=0) for (_, k), x in binomials.items())
    width, stride = _layout(1 + sum(map(_l1, binomials.values())), degree)
    image = dict(zip(binomials, _images(binomials.values(), width)))
    near = diagonals[: top + 2]  # the candidates read A_m and F_m at q = 1 only up to m = top + 1
    fib, alt = ([sum(image[j, k] << width * (k * k + linear * k) + stride * k for j, k in terms) for terms in reach]
                for linear, reach in ((0, diagonals), (1, near)))
    # F_m at q = 1 and D = 2^width: each [j, k] is the sum of its coefficients there
    at_one = [sum(sum(binomials[jk]._terms.values()) << width * jk[1] for jk in terms) for terms in near]
    partial = odd = even = 0
    for n in range(1, top + 1):
        literal = q_fibonacci(n) + Q ** (n - 1) * q_fibonacci(n - 1).shift_hprime(1)
        report.record("recurrence-literal", n, q_fibonacci(n + 1), literal)
        report.record("recurrence-augmented", n, fib[n + 1], fib[n] + (fib[n - 1] << width * (n - 1) + stride))
        report.record("recurrence-augmented-q1", n, at_one[n + 1], at_one[n] + (at_one[n - 1] << width))
        alt_literal = _q_diagonal(n, 1) + Q ** (n - 1) * _q_diagonal(n - 1, 1).shift_hprime(1)
        report.record("alt-weight-recurrence-literal", n, _q_diagonal(n + 1, 1), alt_literal)
        augmented = alt[n - 1] << width * (n - 1) + stride
        report.record("alt-weight-recurrence-augmented", n, alt[n + 1], alt[n] + augmented)
        report.record("alt-weight-recurrence-qn-augmented", n, alt[n + 1], alt[n] + (augmented << width))
        partial += fib[n] << width * n + stride  # sum_(k <= n) q^k D F_k
        report.record("partial-sum", n, partial, fib[n + 2] - 1)
        odd = (odd << stride) + (fib[2 * n - 1] << 2 * width * n)
        even = (even << 2 * width + stride) + fib[2 * n]
        report.record("odd-index-sum", n, odd, fib[2 * n])
        cleared = (fib[2 * n + 1] - (1 << stride * n)) << width * (2 * n - 1)
        report.record("even-index-sum-cleared", n, even, cleared)
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
