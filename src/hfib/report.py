"""Structured results for identity suites.

Every verification suite returns an IdentityReport: how many instances
were checked, which failed (with both sides rendered), and which
notational ambiguities had to be pinned to a convention before the
checks could run.  A report that checked no case does not pass.
Reports serialize under the "hfib-report/1" schema.

Every command is a fresh interpreter, so the package's result types are
typing.NamedTuple classes (immutable) or plain classes (mutable), never
dataclasses: importing `dataclasses` and decorating with it cost each
process 20-28 ms on 2 vCPUs.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

SCHEMA = "hfib-report/1"

# Default seed for every randomized sampling path (CLI and library).
# Fixed so identical invocations are byte-identical; override per call.
DEFAULT_SEED = 112358


class Failure(NamedTuple):
    params: dict
    lhs: str
    rhs: str

    def to_dict(self) -> dict:
        return {"params": dict(self.params), "lhs": self.lhs, "rhs": self.rhs}


class PinnedConvention(NamedTuple):
    ambiguity: str
    resolution: str

    def to_dict(self) -> dict:
        return {"ambiguity": self.ambiguity, "resolution": self.resolution}


class _Record:
    """Value equality and a field-by-field repr over the attributes __init__ sets.

    A record is mutable, so it is unhashable.
    """

    __hash__ = None

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"{type(self).__name__}({fields})"


class IdentityReport(_Record):
    def __init__(
        self,
        suite: str,
        cases: int = 0,
        failures: list[Failure] | None = None,
        pinned_conventions: list[PinnedConvention] | None = None,
    ) -> None:
        self.suite = suite
        self.cases = cases
        self.failures = [] if failures is None else failures
        self.pinned_conventions = [] if pinned_conventions is None else pinned_conventions

    def check(self, params: dict, lhs, rhs) -> bool:
        """Record one instance; both sides are rendered only on failure."""
        self.cases += 1
        if lhs == rhs:
            return True
        self.failures.append(Failure(params=dict(params), lhs=str(lhs), rhs=str(rhs)))
        return False

    def pin(self, ambiguity: str, resolution: str) -> None:
        self.pinned_conventions.append(PinnedConvention(ambiguity, resolution))

    def check_first_reading(self, cases: Callable, readings: dict) -> None:
        """Check the first reading of an identity that holds in every case, and pin it.

        readings maps each reading, in the order tried (the printed one
        first), to its (ambiguity, resolution) pin or None; cases(reading)
        yields its (params, lhs, rhs) one at a time, so no reading is held.
        A trial stops at its first failing case and takes back the cases it
        checked.  When no reading holds, the last is checked in full.
        """
        for reading, pin in readings.items():
            start = self.cases
            for params, lhs, rhs in cases(reading):
                if lhs != rhs:
                    self.cases = start
                    break
                self.check(params, lhs, rhs)
            else:
                break
        else:
            for case in cases(reading):
                self.check(*case)
        if pin is not None:
            self.pin(*pin)

    @property
    def passed(self) -> bool:
        return self.cases > 0 and not self.failures

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "suite": self.suite,
            "cases": self.cases,
            "failures": [f.to_dict() for f in self.failures],
            "pinned_conventions": [p.to_dict() for p in self.pinned_conventions],
        }


def merge_reports(suite: str, reports: list[IdentityReport]) -> IdentityReport:
    """Fold sub-suite reports into one, prefixing params with the sub-suite."""
    merged = IdentityReport(suite)
    for r in reports:
        merged.cases += r.cases
        if not r.cases:  # a sub-suite that checked nothing fails, by name
            merged.failures.append(Failure({"suite": r.suite}, "0 cases checked", "at least 1"))
        for f in r.failures:
            merged.failures.append(
                Failure(params={"suite": r.suite, **f.params}, lhs=f.lhs, rhs=f.rhs)
            )
        merged.pinned_conventions.extend(r.pinned_conventions)
    return merged


def suite_scale(n_max: int | None) -> Callable[[int], int]:
    """The scale of each sub-suite: its own default, or n_max when given.

    An n_max below 1 would check no case and report a vacuous pass, so it
    is refused.
    """
    if n_max is not None and n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {n_max}")
    return lambda default: default if n_max is None else n_max
