"""Smoke tests of the benchmark at its smallest sizes, with no timing gate.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import os

import pytest

import run
from workloads import WORKLOADS, BigN, CliVerify, OpRing

SMOKE = {
    "cli-verify": CliVerify(suite="pascal", cases=(("pascal", 405),)),
    "big-n": BigN(terms=((6, 4), (9, 11))),
    "op-ring": OpRing(
        calls=(
            ("operators", "verify_power_sums", (3, 3)),
            ("operators", "verify_catalan", (4,)),
            ("operators", "verify_docagne", (4,)),
            ("operators", "verify_cassini", (4,)),
            ("operators", "verify_addition", (3, 3)),
            ("operators", "verify_inverse_powers", (4,)),
            ("operators", "verify_binet", (4,)),
            ("genfun", "verify_genfun", (4,)),
        ),
        cases=(
            ("op-power-sums", 18),
            ("op-catalan", 10),
            ("op-docagne", 16),
            ("op-cassini", 8),
            ("op-addition", 36),
            ("op-inverse-powers", 12),
            ("op-binet", 5),
            ("op-symmetric-lemmas", 16),
            ("gf-expansions", 48),
        ),
    ),
}
COUNT_UNITS = ("count", "bits")


@pytest.fixture(autouse=True)
def keep_cpu_affinity(monkeypatch):
    # run.main pins its process to one CPU; the test process stays unpinned.
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: None)


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_untraced_run_is_correct(name):
    record, result = run.run(SMOKE[name], seed=3, seconds=0, trace=False, name=name)
    assert (result["correct"], result["attempted"], result["failed"]) == (True, 1, 0)
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert record["fail_ratio"] == 0 and record["ops"][0]["size"]


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_traced_run_repeats_counts(name):
    record, result = run.run(SMOKE[name], seed=3, seconds=0, trace=True, name=name)
    assert (result["correct"], result["attempted"], result["failed"]) == (True, 4, 0)
    assert record["trace_counts_repeat"] is True
    assert [m["name"] for m in run.per_layer_metrics()] == list(result["metrics"])
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    assert metrics["trace.overhead_ratio"] > 0
    if name == "op-ring":
        assert metrics["algebra.shift_hprime.calls"] == metrics["algebra.mul.calls"] == 0
    if name != "cli-verify":
        assert metrics["algebra.eval_point.calls"] == 0
    else:
        assert metrics["cli.main.busy_s"] > 0


def test_two_traced_runs_give_identical_counts():
    runs = [run.run(SMOKE["big-n"], seed=5, seconds=0, trace=True)[1] for _ in range(2)]
    first, second = (
        {k: m["value"] for k, m in r["metrics"].items() if m["unit"] in COUNT_UNITS}
        for r in runs
    )
    assert first == second and first["result.max_terms"] == 11


def test_wrong_expected_result_counts_as_failure():
    wrong = BigN(terms=((6, 4), (9, 12)))
    record, result = run.run(wrong, seed=3, seconds=0, trace=False)
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 1, 1)
    assert record["fail_ratio"] == 1.0
    assert "pinned 12" in record["ops"][0]["error"]


def test_command_line_prints_record_then_result(monkeypatch, capsys):
    monkeypatch.setitem(WORKLOADS, "big-n", SMOKE["big-n"])
    argv = ["--workload", "big-n", "--seed", "1", "--seconds", "0", "--trace", "0"]
    assert run.main(argv) == 0
    *_, record_line, result_line = capsys.readouterr().out.splitlines()
    assert set(json.loads(result_line)) == {"correct", "attempted", "failed", "metrics"}
    record = json.loads(record_line)["record"]
    assert {"python", "git_revision", "nproc", "seed", "ops"} <= set(record)


def test_exits_nonzero_without_the_package(monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", run.HERE / "no-such-src")
    argv = ["--workload", "big-n", "--seed", "1", "--seconds", "0", "--trace", "0"]
    assert run.main(argv) == 1
    assert capsys.readouterr().out == ""


def test_benchmark_json_lists_what_the_benchmark_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert spec["per_layer"] == run.per_layer_metrics()
