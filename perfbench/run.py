"""The repository benchmark: host-time cost of four batch simulations.

Usage, from the repository root::

    python3 perfbench/run.py --workload seq-write --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all                 # every workload

``--trace 0`` runs untraced passes, each in a fresh worker process, one
after another, until ``--seconds`` is used up (at least three),
and reports the medians of ``wall_s``, ``cpu_s``, ``setup_s`` and
``peak_rss_mib``.  ``--trace 1`` runs one worker that times a plain
pass against a traced one and reports the per-layer metrics instead.

Every pass checks its simulated results (pinned fingerprints at the
default seed, completeness and durability, cache replay, serial =
sharded); the last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` and the exit code is
non-zero if any check failed.  Outside a full checkout (no ``src/repro``)
it exits 2 without a result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
WORKLOADS = ("seq-write", "fleet", "fleet-sharded", "open-loop")
OUT_DIR = os.path.join(ROOT, ".perfbench")

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}

#: A worker that takes longer than this is a wedged pass.
PASS_TIMEOUT_S = 150
#: The whole run must end well inside the caller's 180 s budget.
RUN_BUDGET_S = 170


def _worker(workload: str, seed: int, size: str, mode: str, tag: str,
            timeout: float, spans: str = "") -> Dict[str, Any]:
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", workload, "--seed", str(seed), "--size", size,
        "--mode", mode, "--workdir", os.path.join(OUT_DIR, f"work-{os.getpid()}-{tag}"),
    ]
    if spans:
        cmd += ["--spans", spans]
    # Bytecode cached in the checkout by the warm-up worker, whatever the
    # caller's environment says, so set-up times compare.
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    try:
        done = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return {"error": f"worker timed out after {timeout:.0f} s"}
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return {"error": (done.stderr.strip().splitlines() or ["no output"])[-1]}
    return json.loads(lines[-1])


def _failed_checks(report: Dict[str, Any]) -> List[str]:
    bad = [f"{name}: {detail}" for name, ok, detail, _n in report.get("checks", []) if not ok]
    if "error" in report and report["error"] and not bad:
        bad.append(report["error"].strip().splitlines()[-1])
    return bad


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 size: str = "full", out=sys.stdout) -> Dict[str, Any]:
    """Run one workload; returns the result object (last stdout line).

    ``size="tiny"`` is the benchmark's own smoke shape: one pass is enough.
    """
    min_passes = 1 if size == "tiny" else 3
    started = time.perf_counter()
    deadline = started + RUN_BUDGET_S
    os.makedirs(OUT_DIR, exist_ok=True)
    # Compile bytecode and warm the file cache so set-up times compare.
    _worker(workload, seed, size, "setup", "warmup", PASS_TIMEOUT_S)

    reports: List[Dict[str, Any]] = []
    if trace:
        spans = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.json")
        reports.append(_worker(workload, seed, size, "trace", "trace",
                               deadline - time.perf_counter(), spans))
    else:
        last = 0.0
        while True:
            elapsed = time.perf_counter() - started
            enough = len(reports) >= min_passes
            if enough and elapsed + last > seconds:
                break
            remaining = deadline - time.perf_counter()
            if remaining <= last or remaining <= 0:
                break
            t0 = time.perf_counter()
            reports.append(_worker(workload, seed, size, "plain", str(len(reports)),
                                   min(PASS_TIMEOUT_S, remaining)))
            last = time.perf_counter() - t0
            if "wall_s" not in reports[-1]:
                break

    attempted = sum(r.get("ops", 1) for r in reports)
    failed = sum(r.get("failed", r.get("ops", 1)) for r in reports)
    problems = [p for r in reports for p in _failed_checks(r)]
    correct = not problems and failed == 0 and bool(reports)
    metrics: Dict[str, Dict[str, Any]] = {}
    if trace:
        from tracing import PER_LAYER_UNITS

        layer = reports[0].get("metrics") or {}
        if set(layer) != set(PER_LAYER_UNITS):
            correct = False
            problems.append("per-layer metrics missing: "
                            f"{sorted(set(PER_LAYER_UNITS) - set(layer))}")
        for name, unit in PER_LAYER_UNITS.items():
            if name in layer:
                metrics[name] = {"value": layer[name], "unit": unit}
    else:
        timed = [r for r in reports if "wall_s" in r]
        if len(timed) < len(reports) or not timed:
            correct = False
        for name, unit in END_TO_END.items():
            values = [r[name] for r in timed]
            if values:
                metrics[name] = {"value": statistics.median(values), "unit": unit}
        fingerprints = {r.get("fingerprint") for r in timed}
        if len(fingerprints) > 1:
            correct = False
            problems.append(f"passes disagree: {len(fingerprints)} fingerprints")

    out.write(f"{workload} seed={seed} {'traced' if trace else 'untraced'}: "
              f"{len(reports)} pass(es), {attempted} ops, {failed} failed\n")
    for name, metric in metrics.items():
        out.write(f"  {name:32s} {metric['value']:>16.6g} {metric['unit']}\n")
    if not trace and reports:
        walls = " ".join(f"{r['wall_s']:.3f}" for r in reports if "wall_s" in r)
        out.write(f"  median of {len(reports)} passes; wall_s per pass: {walls}\n")
    if reports and reports[0].get("fingerprint"):
        out.write(f"  fingerprint {reports[0]['fingerprint']}\n")
    for problem in problems:
        out.write(f"  FAILED {problem}\n")
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        sys.stderr.write(f"perfbench: no simulator source under {ROOT}/src; "
                         "run from a full checkout\n")
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {
        name: run_workload(name, args.seed, args.seconds, bool(args.trace))
        for name in names
    }
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
