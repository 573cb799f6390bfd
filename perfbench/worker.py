"""One benchmark pass in a fresh process; prints one JSON line.

``--mode plain`` runs one untraced pass and reports its host wall,
CPU, set-up time and peak RSS; ``--mode setup`` only sets up (the
warm-up worker that caches bytecode).  ``--mode trace`` runs, in this one
process: a plain pass, a traced pass (layers wrapped, then restored),
a second plain pass on the restored classes, and the workload under
``obs.observed()`` and under the sanitizer session; it reports the
per-layer metrics and checks that all five fingerprints agree.

Usage (from the repository root; ``perfbench/run.py`` drives this)::

    python3 perfbench/worker.py --workload seq-write --seed 1 --mode plain \
        --workdir .perfbench/work-manual
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()  # set-up time counts from here, before any import

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import workloads as W  # noqa: E402  (imports every simulator layer)


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_pass(name: str, size: str, seed: int, workdir: str, context=None):
    """Prepare and run one pass; returns (outcome or None, timings, error).

    With a ``context`` (``observed()``/``sanitized()``) the pass runs
    inside it and ``timings["session"]`` is the session it yielded.
    """
    prepare, _check = W.WORKLOADS[name]
    os.makedirs(workdir, exist_ok=True)
    session = None
    try:
        if context is not None:
            session = context.__enter__()
        try:
            run = prepare(size, seed, workdir)
            setup_done = time.perf_counter()
            cpu0 = time.process_time()
            outcome = run()
            timings = {
                "wall_s": time.perf_counter() - setup_done,
                "cpu_s": time.process_time() - cpu0,
                "setup_done": setup_done,
                "session": session,
            }
        finally:
            if context is not None:
                context.__exit__(None, None, None)
    except Exception:  # noqa: BLE001 - a raising pass is a failed pass
        return None, {}, traceback.format_exc()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return outcome, timings, None


def _checked(name, outcome, size, seed, error):
    _prepare, check = W.WORKLOADS[name]
    if outcome is None:
        return [("pass-completed", False, error.strip().splitlines()[-1], 0)]
    return check(outcome, size, seed)


def setup_only(args, workdir) -> dict:
    """Import and set up, run nothing."""
    prepare, _check = W.WORKLOADS[args.workload]
    os.makedirs(workdir, exist_ok=True)
    try:
        prepare(args.size, args.seed, workdir)
        setup_s = time.perf_counter() - STARTED
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"setup_s": setup_s}


def plain(args, workdir) -> dict:
    outcome, timings, error = run_pass(args.workload, args.size, args.seed, workdir)
    checks = _checked(args.workload, outcome, args.size, args.seed, error)
    ops = outcome.ops if outcome is not None else 1
    report = {
        "ops": ops,
        "failed": W.failed_ops(outcome, checks, ops),
        "checks": [list(c) for c in checks],
        "error": error,
    }
    if outcome is not None:
        report.update(
            wall_s=timings["wall_s"],
            cpu_s=timings["cpu_s"],
            setup_s=timings["setup_done"] - STARTED,
            peak_rss_mib=_peak_rss_mib(),
            events=outcome.events,
            fingerprint=outcome.fingerprint,
        )
    return report


def trace(args, workdir) -> dict:
    import tracing
    from repro.analysis.sanitize import sanitized
    from repro.faults.scenarios import _sanitizer_invariants
    from repro.obs.core import observed

    # Fail loud before any pass: every target must still exist.
    targets = tracing.resolve_targets()
    name, size, seed = args.workload, args.size, args.seed
    runs = {}
    first, t1, error = run_pass(name, size, seed, workdir)
    runs["plain"] = (first, t1, error)
    tracer = tracing.Tracer(targets)
    tracer.wrap()
    try:
        runs["traced"] = run_pass(name, size, seed, workdir)
    finally:
        tracer.unwrap()
    runs["plain-restored"] = run_pass(name, size, seed, workdir)
    runs["observed"] = run_pass(name, size, seed, workdir, observed())
    runs["sanitized"] = run_pass(name, size, seed, workdir, sanitized())

    checks = _checked(name, first, size, seed, error)
    for label, (outcome, _t, err) in runs.items():
        if outcome is None:
            checks.append((f"{label}-completed", False, err.strip().splitlines()[-1], 0))
        elif first is not None and label != "plain":
            checks.append((
                f"{label}-fingerprint-equal", outcome.fingerprint == first.fingerprint,
                f"{outcome.fingerprint[:16]} != plain {first.fingerprint[:16]}",
                outcome.ops,
            ))
    observed_session = runs["observed"][1].get("session")
    checks.append((
        "observed-run-attached", bool(observed_session and observed_session.observabilities),
        "obs.observed() attached no observer", 0,
    ))
    sanitize_session = runs["sanitized"][1].get("session")
    if sanitize_session is None or not sanitize_session.harnesses:
        checks.append(("sanitized-run-attached", False, "no sanitizer attached", 0))
    else:
        checks += [(r.name, r.ok, r.detail, 0) for r in _sanitizer_invariants(sanitize_session)]
    ops = first.ops if first is not None else 1
    report = {
        "ops": ops,
        "failed": W.failed_ops(first, checks, ops),
        "checks": [list(c) for c in checks],
        "error": error,
    }
    traced = runs["traced"][0]
    if first is None or traced is None or any(r[0] is None for r in runs.values()):
        return report

    events = traced.events
    metrics = tracing.layer_metrics(tracer, events_total=events)
    plain_wall = (t1["wall_s"] + runs["plain-restored"][1]["wall_s"]) / 2
    metrics["sim.host_ns_per_event"] = plain_wall * 1e9 / events if events else 0.0
    metrics["traffic.offered_bytes"] = traced.facts.get("offered_bytes", 0)
    metrics["trace.overhead_x"] = runs["traced"][1]["wall_s"] / plain_wall
    metrics["obs.overhead_x"] = runs["observed"][1]["wall_s"] / plain_wall
    metrics["sanitize.overhead_x"] = runs["sanitized"][1]["wall_s"] / plain_wall
    report["metrics"] = metrics
    report["fingerprint"] = first.fingerprint

    if args.spans:
        os.makedirs(os.path.dirname(args.spans), exist_ok=True)
        with open(args.spans, "w", encoding="utf-8") as handle:
            json.dump({
                "workload": name, "seed": seed, "size": size,
                "spans_dropped": tracer.spans_dropped,
                "spans": tracer.span_records(),
            }, handle)
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    parser.add_argument("--seed", type=int, default=W.DEFAULT_SEED)
    parser.add_argument("--size", choices=sorted(W.SIZES), default="full")
    parser.add_argument("--mode", choices=("plain", "trace", "setup"), default="plain")
    parser.add_argument("--workdir", required=True,
                        help="scratch directory for this pass (removed afterwards)")
    parser.add_argument("--spans", help="trace mode: write the span records here")
    args = parser.parse_args(argv)
    if args.mode == "setup":
        report = setup_only(args, args.workdir)
    elif args.mode == "plain":
        report = plain(args, args.workdir)
    else:
        report = trace(args, args.workdir)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
