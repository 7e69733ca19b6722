"""Exact computer algebra for h-deformed Fibonacci numbers.

The deformation replaces the binomial coefficients of Pascal's triangle
by h^k-weighted shifted factorials in a second parameter hp; diagonal
sums of the deformed triangle give polynomial Fibonacci numbers whose
classical limit h*hp = 1, h -> 0 recovers the integers.  Everything is
exact (rational coefficients, polynomial identities); nothing floats.

Module map:

  algebra    - TermRing, the base of both exact rings, and HPoly, Q[h, hp, q]
  pascal     - deformed binomials, triangle, Charlier link
  fibonacci  - the deformed Fibonacci numbers, four routes
  operators  - OpPoly, the ring Q[D]; matrix calculus, exact Binet
  genfun     - generating functions and the weighted series
  qh         - the two-parameter (q, h) layer and its measured report
  report     - IdentityReport plumbing shared by the suites
  cli        - the `hfib` command
"""

from hfib import algebra, fibonacci, genfun, operators, pascal, qh
from hfib.algebra import (
    H,
    HP,
    Q,
    DivergentLimitError,
    HPoly,
    shifted_factorial,
)
from hfib.fibonacci import (
    NegHFib,
    classical_fib,
    fib_table,
    hfib_diagonal,
    hfib_hypergeometric,
    hfib_negative,
    hfib_recurrence,
)
from hfib.genfun import ConvergenceError, OpRatFun, OpSeries, series_expand
from hfib.operators import (
    D,
    OpMatrix2,
    OpPoly,
    SqrtExt,
    binet_fib,
    fib_op,
    neg_fib_op,
    op_eval,
    op_value,
    qh_matrix,
    qh_powers,
)
from hfib.pascal import h_binomial, pascal_row, pascal_triangle, row_sum
from hfib.qh import q_binomial, q_fibonacci, q_int, qh_binomial
from hfib.report import DEFAULT_SEED, IdentityReport

__version__ = "0.1.0"

# Every memo cache in the package; all are unbounded lru_caches.
_CACHES = (
    algebra._d_step,
    fibonacci.hfib_diagonal,
    operators.annihilator,
    operators.fib_op,
    pascal.h_binomial,
    qh.qh_binomial,
    qh._q_diagonal,
)


def clear_caches() -> None:
    """Empty every memo cache in the package, so a long-lived process can free them.

    The caches in _CACHES are the package's only state.  Results do not
    change: each cached value is recomputed on its next use.
    """
    for cache in _CACHES:
        cache.cache_clear()
