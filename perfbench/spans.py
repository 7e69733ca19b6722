"""Per-layer spans and counts for one traced benchmark op.

The tracer wraps the public functions of each hfib layer from outside the
package: it rebinds module attributes and HPoly methods in the running
interpreter and leaves the package source alone.  Kernels are wrapped by
rebinding the names that hfib.algebra and hfib.operators import, so the
kernel backend is never selected or imported here.

A span's self time is its duration minus the time its child spans cover.
The wrapper's own bookkeeping runs outside both, so it is charged to no
layer; its cost shows only in the traced op's wall time.
"""

from __future__ import annotations

import importlib
import sys
import time

KERNELS = ("kadd", "kmul", "kpow", "kscale")

# (span name, module, attribute); the span is named after the module.
FUNCTIONS = (
    ("algebra.shifted_factorial", "algebra", "shifted_factorial"),
    ("operators.op_eval", "operators", "op_eval"),
    ("operators.binet_fib", "operators", "binet_fib"),
    ("operators.fib_op", "operators", "fib_op"),
    ("fibonacci.hfib_diagonal", "fibonacci", "hfib_diagonal"),
    ("fibonacci.hfib_recurrence", "fibonacci", "hfib_recurrence"),
    ("fibonacci.hfib_hypergeometric", "fibonacci", "hfib_hypergeometric"),
    ("genfun.series_expand", "genfun", "series_expand"),
    ("pascal.h_binomial", "pascal", "h_binomial"),
    ("cli.main", "cli", "main"),
)

# Suites return one IdentityReport or a list of them; their case counts
# are recorded as the span's `cases`.
SUITES = (
    ("pascal.verify_pascal", "pascal", "verify_pascal"),
    ("fibonacci.verify_fibonacci", "fibonacci", "verify_fibonacci"),
    ("operators.verify_operators", "operators", "verify_operators"),
    ("genfun.verify_genfun", "genfun", "verify_genfun"),
    ("genfun.weighted_series_check", "genfun", "weighted_series_check"),
    ("qh.verify_qh", "qh", "verify_qh"),
)

# HPoly methods: (span name, attribute names bound to the same function).
METHODS = (
    ("algebra.shift_hprime", ("shift_hprime",)),
    ("algebra.eval_point", ("eval_point",)),
    ("algebra.mul", ("__mul__", "__rmul__")),
)
TERMS_IN = ("algebra.shift_hprime", "algebra.eval_point")

CACHED = ("pascal.h_binomial", "fibonacci.hfib_diagonal", "operators.fib_op")


class _Stat:
    __slots__ = ("calls", "self_s", "busy_s", "terms_in", "terms_out", "cases", "depth")

    def __init__(self):
        self.calls = self.terms_in = self.terms_out = self.cases = self.depth = 0
        self.self_s = self.busy_s = 0.0


def _term_map(value):
    """The term dict of a kernel result, an HPoly or an OpPoly, else None."""
    if isinstance(value, dict):
        return value
    return getattr(value, "_terms", None)


def _coeff_bits(terms: dict) -> int:
    best = 0
    for c in terms.values():
        if type(c) is int:
            bits = c.bit_length()
        else:
            bits = max(c.numerator.bit_length(), c.denominator.bit_length())
        if bits > best:
            best = bits
    return best


def _case_count(result) -> int:
    reports = result if isinstance(result, list) else [result]
    return sum(r.cases for r in reports)


class Tracer:
    """Spans, counts and result sizes for the functions it has wrapped."""

    def __init__(self):
        self.stats: dict[str, _Stat] = {}
        # Child-time accumulators of the open spans; the first is a root.
        self._open = [0.0]
        self.max_terms = 0
        self.max_coeff_bits = 0
        self._caches: dict[str, tuple] = {}

    def wrap(self, name: str, fn, *, terms_in=False, terms_out=False, cases=False):
        stat = self.stats.setdefault(name, _Stat())
        open_spans = self._open
        clock = time.perf_counter

        def span(*args, **kwargs):
            entered = clock()
            stat.calls += 1
            if terms_in:
                stat.terms_in += len(args[0])
            stat.depth += 1
            open_spans.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                children = open_spans.pop()
                stat.self_s += end - start - children
                stat.depth -= 1
                if not stat.depth:
                    stat.busy_s += end - start
            terms = _term_map(result)
            if terms is not None:
                if terms_out:
                    stat.terms_out += len(terms)
                if len(terms) > self.max_terms:
                    self.max_terms = len(terms)
                bits = _coeff_bits(terms)
                if bits > self.max_coeff_bits:
                    self.max_coeff_bits = bits
            if cases:
                stat.cases += _case_count(result)
            open_spans[-1] += clock() - entered
            return result

        return span

    def install(self) -> "Tracer":
        """Wrap every traced hfib function in this interpreter."""
        modules = {
            name: importlib.import_module(f"hfib.{name}")
            for name in ("algebra", "pascal", "fibonacci", "operators", "genfun", "qh", "cli")
        }
        for kernel in KERNELS:
            wrapped = self.wrap(
                f"kernels.{kernel}", getattr(modules["algebra"], kernel), terms_out=True
            )
            for owner in (modules["algebra"], modules["operators"]):
                setattr(owner, kernel, wrapped)
        for specs, is_suite in ((FUNCTIONS, False), (SUITES, True)):
            for name, module, attr in specs:
                original = getattr(modules[module], attr)
                if name in CACHED:
                    self._caches[name] = (original, original.cache_info())
                _rebind(original, self.wrap(name, original, cases=is_suite))
        hpoly = modules["algebra"].HPoly
        for name, attrs in METHODS:
            wrapped = self.wrap(name, getattr(hpoly, attrs[0]), terms_in=name in TERMS_IN)
            for attr in attrs:
                setattr(hpoly, attr, wrapped)
        return self

    def report(self) -> dict:
        """Counts, which repeat exactly for the same inputs, and times."""
        counts: dict[str, int] = {}
        times: dict[str, float] = {}
        for name, stat in self.stats.items():
            for key in ("calls", "terms_in", "terms_out", "cases"):
                counts[f"{name}.{key}"] = getattr(stat, key)
            times[f"{name}.self_s"] = stat.self_s
            times[f"{name}.busy_s"] = stat.busy_s
        for name, (original, before) in self._caches.items():
            after = original.cache_info()
            counts[f"{name}.hits"] = after.hits - before.hits
            counts[f"{name}.misses"] = after.misses - before.misses
        counts["result.max_terms"] = self.max_terms
        counts["result.max_coeff_bits"] = self.max_coeff_bits
        return {"counts": counts, "times": times}


def _rebind(original, wrapped) -> None:
    """Point every hfib module name bound to `original` at `wrapped`."""
    for module_name, module in list(sys.modules.items()):
        if module_name != "hfib" and not module_name.startswith("hfib."):
            continue
        if module_name.startswith("hfib._kernels"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapped)
