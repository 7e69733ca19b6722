"""Run one benchmark op in this fresh interpreter and print its outcome.

    python3 perfbench/worker.py <kind> <inputs as JSON> [--trace]

`kind` is big-n, op-ring or cli (the traced form of a cli-verify op,
which calls hfib.cli.main in process).  The last stdout line is one JSON
object; run.py checks it.  With --trace the functions of every layer are
wrapped first (see spans.py) and the object gains a "trace" entry.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys


def _poly_facts(value) -> dict:
    terms = value.terms()
    bits = max(
        (max(c.numerator.bit_length(), c.denominator.bit_length()) for _, c in terms),
        default=0,
    )
    return {
        # str() renders an integral Fraction and the equal int alike
        "digest": hashlib.sha256(repr([(e, str(c)) for e, c in terms]).encode()).hexdigest(),
        "terms": len(terms),
        "coeff_bits": bits,
        "limit": str(value.classical_limit()),
    }


def big_n(inputs: dict) -> dict:
    from hfib import fibonacci, operators

    routes = {
        "diagonal": fibonacci.hfib_diagonal,
        "recurrence": fibonacci.hfib_recurrence,
        "hypergeometric": fibonacci.hfib_hypergeometric,
        "binet": lambda n: operators.op_eval(operators.binet_fib(n)),
    }
    return {
        str(n): {route: _poly_facts(routes[route](n)) for route in inputs["routes"]}
        for n in inputs["n"]
    }


def op_ring(inputs: dict) -> dict:
    import hfib.genfun
    import hfib.operators

    reports = []
    for module, function, args in inputs["calls"]:
        result = getattr(sys.modules[f"hfib.{module}"], function)(*args)
        reports.extend(result if isinstance(result, list) else [result])
    return {
        "reports": [
            {"suite": r.suite, "cases": r.cases, "failures": len(r.failures)} for r in reports
        ]
    }


def cli(inputs: dict) -> dict:
    import hfib.cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = hfib.cli.main(inputs["argv"])
        except SystemExit as exc:
            code = exc.code
    return {"exit": code, "stdout": out.getvalue()}


OPS = {"big-n": big_n, "op-ring": op_ring, "cli": cli}


def main(argv: list[str]) -> int:
    kind, inputs = argv[0], json.loads(argv[1])
    tracer = None
    if "--trace" in argv[2:]:
        import spans

        tracer = spans.Tracer().install()
    payload = OPS[kind](inputs)
    if tracer is not None:
        payload["trace"] = tracer.report()
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
