"""The benchmark's workloads: what one op runs and how its output is checked.

An op is one unit of user work.  Every op runs in a fresh interpreter,
because the lru caches of hfib (hfib_recurrence, hfib_diagonal,
h_binomial, fib_op, ...) would otherwise turn every op after the first
into a lookup.  A workload derives its inputs from the run's seed, so
the same seed gives the same inputs, and it checks each op's output
against values pinned here; a check that fails raises WrongResult.

Each workload is also constructible at smaller sizes, with the pinned
values for those sizes, which is how the smoke tests run it.
"""

from __future__ import annotations

import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path

WORKER = Path(__file__).resolve().parent / "worker.py"


class WrongResult(Exception):
    """An op's output failed its correctness check."""


def stderr_tail(data: bytes) -> str:
    return data.decode(errors="replace").strip()[-300:]


def worker_command(kind: str, inputs: dict, traced: bool) -> list[str]:
    argv = [sys.executable, str(WORKER), kind, json.dumps(inputs)]
    return argv + ["--trace"] if traced else argv


def worker_payload(proc) -> dict:
    """The JSON object on the last stdout line of a worker that exited 0."""
    if proc.returncode != 0:
        raise WrongResult(f"worker exited {proc.returncode}: {stderr_tail(proc.stderr)}")
    lines = proc.stdout.decode().splitlines()
    if not lines:
        raise WrongResult("worker printed nothing")
    return json.loads(lines[-1])


def classical_fib(n: int) -> int:
    """F_0 = 0, F_1 = 1; computed here so the check does not trust hfib."""
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


# Case counts of `hfib verify all`, which are the same for every seed.
CLI_CASES = (
    ("pascal", 405), ("fib", 237), ("operators", 1238), ("gf", 208), ("weighted", 5), ("qh", 247)
)


@dataclass(frozen=True)
class CliVerify:
    """One `hfib verify <suite> --seed <s>` process per op."""

    suite: str = "all"
    cases: tuple = CLI_CASES

    def inputs(self, seed: int) -> dict:
        cli_seed = random.Random(seed).randrange(1, 2**31)
        return {"argv": ["verify", self.suite, "--seed", str(cli_seed)]}

    def command(self, inputs: dict, traced: bool) -> list[str]:
        if traced:
            return worker_command("cli", inputs, traced)
        return [sys.executable, "-m", "hfib.cli", *inputs["argv"]]

    def payload(self, proc, traced: bool) -> dict:
        if traced:
            return worker_payload(proc)
        return {"exit": proc.returncode, "stdout": proc.stdout.decode()}

    def check(self, payload: dict, state: dict) -> dict:
        if payload["exit"] != 0:
            raise WrongResult(f"hfib exited {payload['exit']}")
        stdout = payload["stdout"]
        report = json.loads(stdout)
        suites = report["suites"] if "suites" in report else [report]
        failures = sum(len(s["failures"]) for s in suites)
        if failures:
            raise WrongResult(f"{failures} identity failures")
        cases = {s["suite"]: s["cases"] for s in suites}
        if cases != dict(self.cases):
            raise WrongResult(f"case counts {cases} differ from the pinned {dict(self.cases)}")
        # Same argv and seed must give byte-identical stdout.
        if state.setdefault("stdout", stdout) != stdout:
            raise WrongResult("stdout differs from an earlier op with the same seed")
        return {"stdout_bytes": len(stdout.encode()), "cases": sum(cases.values())}


# Term counts of F_n, which every route must reproduce.
BIG_N_TERMS = ((80, 781), (120, 1771))
ROUTES = ("diagonal", "recurrence", "hypergeometric", "binet")


@dataclass(frozen=True)
class BigN:
    """F_n by all four routes at each pinned n, in the order given."""

    terms: tuple = BIG_N_TERMS

    def inputs(self, seed: int) -> dict:
        routes = list(ROUTES)
        random.Random(seed).shuffle(routes)
        return {"n": [n for n, _ in self.terms], "routes": routes}

    def command(self, inputs: dict, traced: bool) -> list[str]:
        return worker_command("big-n", inputs, traced)

    def payload(self, proc, traced: bool) -> dict:
        return worker_payload(proc)

    def check(self, payload: dict, state: dict) -> dict:
        terms, bits = {}, 0
        for n, pinned in self.terms:
            routes = payload[str(n)]
            if sorted(routes) != sorted(ROUTES):
                raise WrongResult(f"n={n}: routes {sorted(routes)} ran")
            if len({r["digest"] for r in routes.values()}) != 1:
                raise WrongResult(f"n={n}: the four routes disagree")
            facts = routes[ROUTES[0]]
            if facts["terms"] != pinned:
                raise WrongResult(f"n={n}: {facts['terms']} terms, pinned {pinned}")
            if facts["limit"] != str(classical_fib(n)):
                raise WrongResult(f"n={n}: classical limit {facts['limit']}")
            terms[n] = facts["terms"]
            bits = max(bits, facts["coeff_bits"])
        return {"terms": terms, "coeff_bits": bits}


# (module, function, args) of the Q[D] suites, and each report's cases.
OP_RING_CALLS = (
    ("operators", "verify_power_sums", (12, 12)),
    ("operators", "verify_catalan", (40,)),
    ("operators", "verify_docagne", (40,)),
    ("operators", "verify_cassini", (60,)),
    ("operators", "verify_addition", (30, 30)),
    ("operators", "verify_inverse_powers", (40,)),
    ("operators", "verify_binet", (60,)),
    ("genfun", "verify_genfun", (40,)),
)
OP_RING_CASES = (
    ("op-power-sums", 288),
    ("op-catalan", 820),
    ("op-docagne", 1600),
    ("op-cassini", 120),
    ("op-addition", 3600),
    ("op-inverse-powers", 120),
    ("op-binet", 61),
    ("op-symmetric-lemmas", 16),
    ("gf-expansions", 480),
)


@dataclass(frozen=True)
class OpRing:
    """The Q[D] identity suites, in an order drawn from the seed."""

    calls: tuple = OP_RING_CALLS
    cases: tuple = OP_RING_CASES

    def inputs(self, seed: int) -> dict:
        calls = list(self.calls)
        random.Random(seed).shuffle(calls)
        return {"calls": calls}

    def command(self, inputs: dict, traced: bool) -> list[str]:
        return worker_command("op-ring", inputs, traced)

    def payload(self, proc, traced: bool) -> dict:
        return worker_payload(proc)

    def check(self, payload: dict, state: dict) -> dict:
        reports = payload["reports"]
        failures = sum(r["failures"] for r in reports)
        if failures:
            raise WrongResult(f"{failures} identity failures")
        cases = {r["suite"]: r["cases"] for r in reports}
        if cases != dict(self.cases) or len(cases) != len(reports):
            raise WrongResult(f"case counts {cases} differ from the pinned {dict(self.cases)}")
        return {"cases": sum(cases.values())}


WORKLOADS = {"cli-verify": CliVerify(), "big-n": BigN(), "op-ring": OpRing()}
