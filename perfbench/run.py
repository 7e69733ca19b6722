"""Benchmark for hfib: closed-loop ops from one client, one worker at a time.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from anywhere inside a source checkout; hfib is imported from the
checkout's src/ directory.  The workloads are in workloads.py.  Each op
runs in a fresh interpreter and is checked before the next one starts;
ops start until --seconds have passed.

With --trace 0 the last stdout line reports the end-to-end metrics:
  setup_s      median time from spawning an interpreter to a completed
               `import hfib`, probed once before every op;
  op_p50_ref   median over verified ops of the op's time, from spawn to
               checked output, divided by the time of a fixed reference
               loop run on the same CPU just before and after the op;
  peak_rss_mb  the largest peak resident memory of any worker.
The record beside it holds the raw median op time in seconds, the op
count, verified ops per second and fail_ratio, the share of attempted
ops that failed (nonzero exit, exception, wrong result or timeout).

Op time is reported relative to the reference loop because on a host
shared with other tenants the speed one CPU gives this process changes
by up to 1.8x, for seconds to minutes at a time.  Whole runs can fall on
a slow stretch.  Over ten 40-second runs per workload on such a host,
the quartile spread of the raw median op time was 15 to 34 % of its
median, that of the reference-relative one 3 to 4 %.  main() pins itself
and its children to one CPU so the loop measures the CPU the ops run on.

With --trace 1 every second op is traced (see spans.py) and the last
line reports the per-layer metrics of layer_map.json: counts, which must
repeat exactly across the traced ops, and the median of each time.

The line before the result holds the run's record: Python version, git
revision, CPU count, seed, inputs, backend and every op's time and
result size.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, WrongResult, stderr_tail

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

OP_TIMEOUT_S = 120
REFERENCE_ROUNDS = 50
# Prints the monotonic clock once `import hfib` has completed.
SETUP_PROBE = (
    "import time, hfib; "
    "print(time.clock_gettime(time.CLOCK_MONOTONIC), getattr(hfib, 'BACKEND', 'python'))"
)
END_TO_END_UNITS = {"setup_s": "s", "op_p50_ref": "ref", "peak_rss_mb": "MB"}


class SetupError(Exception):
    """hfib cannot be imported from this checkout."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def probe_setup(env: dict) -> tuple[float, str]:
    """Seconds from spawn to a completed `import hfib`, and the backend."""
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE],
        capture_output=True, env=env, cwd=ROOT, timeout=OP_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise SetupError(stderr_tail(proc.stderr))
    stamp, backend = proc.stdout.decode().split()
    return float(stamp) - start, backend


def reference_s() -> float:
    """Time of a fixed loop of dict updates and integer products.

    It has the instruction mix of the ops, so its time tracks the speed
    the CPU gives this process at the moment.
    """
    coeffs = {3 * i: 7919 * i - 500_000 for i in range(40)}
    start = time.perf_counter()
    for _ in range(REFERENCE_ROUNDS):
        product: dict = {}
        for ka, ca in coeffs.items():
            for kb, cb in coeffs.items():
                product[ka + kb] = product.get(ka + kb, 0) + ca * cb
    return time.perf_counter() - start


def run_op(workload, inputs: dict, traced: bool, state: dict, env: dict):
    """One checked op: its record, and its trace when traced and correct."""
    record: dict = {"traced": traced}
    trace = None
    before = reference_s()
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            workload.command(inputs, traced),
            capture_output=True, env=env, cwd=ROOT, timeout=OP_TIMEOUT_S,
        )
        payload = workload.payload(proc, traced)
        if traced:
            trace = payload.pop("trace")
        record["size"] = workload.check(payload, state)
    except subprocess.TimeoutExpired:
        record["error"] = f"timed out after {OP_TIMEOUT_S} s"
    except (WrongResult, ValueError, LookupError, TypeError, AttributeError) as exc:
        record["error"] = f"{type(exc).__name__}: {exc}"
    record["s"] = time.perf_counter() - start
    record["ref_s"] = (before + reference_s()) / 2
    return record, (None if "error" in record else trace)


def git_revision() -> str | None:
    git_dir = ROOT / ".git"
    if not git_dir.exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "--git-dir", str(git_dir), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except OSError:
        return None
    return proc.stdout.strip() or None


def per_layer_metrics() -> list[dict]:
    """The per-layer metrics of layer_map.json, in its order."""
    groups = json.loads((HERE / "layer_map.json").read_text())["groups"]
    return [metric for group in groups for metric in group["metrics"]]


def layer_metrics(traces: list[dict], traced: list[float], plain: list[float]) -> dict:
    counts = traces[0]["counts"] if traces else {}
    times = {
        key: statistics.median(t["times"][key] for t in traces)
        for key in (traces[0]["times"] if traces else ())
    }
    values = {}
    for metric in per_layer_metrics():
        name = metric["name"]
        if name.endswith(".hit_ratio"):
            base = name[: -len(".hit_ratio")]
            hits, misses = counts.get(f"{base}.hits", 0), counts.get(f"{base}.misses", 0)
            value = hits / (hits + misses) if hits + misses else 0.0
        elif name == "trace.overhead_ratio":
            value = statistics.median(traced) / statistics.median(plain) if traced and plain else 0.0
        else:
            value = counts[name] if name in counts else times.get(name, 0.0)
        values[name] = {"value": value, "unit": metric["unit"]}
    return values


def run(workload, seed: int, seconds: float, trace: bool, name: str = "") -> tuple[dict, dict]:
    """Set up, run the closed loop, and return (record, result)."""
    if not (SRC / "hfib" / "__init__.py").is_file():
        raise SetupError(f"no hfib package under {SRC}")
    env = child_env()
    inputs = workload.inputs(seed)
    state: dict = {}
    setup_s, ops, traces = [], [], []
    min_ops = 4 if trace else 1  # a traced run compares two traced ops
    start = time.perf_counter()
    while len(ops) < min_ops or time.perf_counter() - start < seconds:
        seconds_to_import, backend = probe_setup(env)
        setup_s.append(seconds_to_import)
        op, op_trace = run_op(workload, inputs, trace and len(ops) % 2 == 1, state, env)
        ops.append(op)
        if op_trace is not None:
            traces.append(op_trace)

    verified = [op for op in ops if "error" not in op]
    failed = len(ops) - len(verified)
    plain = [op["s"] / op["ref_s"] for op in verified if not op["traced"]]
    traced = [op["s"] / op["ref_s"] for op in verified if op["traced"]]
    counts_repeat = all(t["counts"] == traces[0]["counts"] for t in traces)
    if trace:
        metrics = layer_metrics(traces, traced, plain)
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        values = {
            "setup_s": statistics.median(setup_s),
            "op_p50_ref": statistics.median(plain or [op["s"] / op["ref_s"] for op in ops]),
            "peak_rss_mb": peak_kb / 1024,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    correct = failed == 0 and (not trace or (len(traces) >= 2 and counts_repeat))
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "git_revision": git_revision(),
        "nproc": os.cpu_count(),
        "backend": backend,
        "inputs": inputs,
        "setup_s": setup_s,
        "fail_ratio": failed / len(ops),
        "op_p50_s": statistics.median(op["s"] for op in ops if not op["traced"]),
        "op_count": len(plain),
        "ops_per_s": len(verified) / sum(op["s"] for op in ops),
        "trace_counts_repeat": counts_repeat if trace else None,
        "ops": ops,
    }
    result = {"correct": correct, "attempted": len(ops), "failed": failed, "metrics": metrics}
    return record, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # One CPU for this process and its children, so the reference loop
    # runs on the CPU whose speed the ops get.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        record, result = run(
            WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), args.workload
        )
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
