"""The benchmark's own tests: tiny-size smoke runs of every workload,
the exercise/bypass matrix, the held-out seed, and fail-loud wrapping.

Run from the repository root::

    python3 -m pytest perfbench/tests -q

Every run here uses the ``tiny`` shapes (seconds, not minutes) and goes
through the same driver and worker processes as the full benchmark.
"""

from __future__ import annotations

import io
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = run.WORKLOADS


def _run(workload, trace, seed=1):
    return run.run_workload(
        workload, seed, seconds=0, trace=trace, size="tiny", out=io.StringIO(),
    )


@pytest.fixture(scope="module")
def traced():
    return {name: _run(name, trace=True) for name in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_smoke_reports_every_end_to_end_metric(workload):
    result = _run(workload, trace=False)
    assert result["correct"], result
    assert result["failed"] == 0 and result["attempted"] >= 1
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = {m["name"]: m["unit"] for m in json.load(handle)["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_smoke_reports_every_per_layer_metric(traced):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = {m["name"]: m["unit"] for m in json.load(handle)["per_layer"]}
    for workload, result in traced.items():
        # correct covers traced = plain = restored = observed = sanitized.
        assert result["correct"], (workload, result)
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def _value(traced, workload, metric):
    return traced[workload]["metrics"][metric]["value"]


def test_exercise_bypass_matrix(traced):
    des = [m for m in tracing.PER_LAYER_UNITS if m.startswith("des.")]
    for workload in WORKLOADS:
        for metric in des:
            exercised = _value(traced, workload, metric) != 0
            assert exercised == (workload == "fleet-sharded"), (workload, metric)
        for metric in ("nfsclient.commits", "nfsclient.reads",
                       "traffic.sessions", "traffic.offered_bytes"):
            exercised = _value(traced, workload, metric) != 0
            assert exercised == (workload == "open-loop"), (workload, metric)
        exercised = _value(traced, workload, "cache.hits") != 0
        assert exercised == (workload == "fleet"), workload
    assert _value(traced, "seq-write", "topology.predicate_calls") == 0
    assert _value(traced, "fleet", "topology.predicate_calls") > 0
    assert _value(traced, "open-loop", "topology.predicate_calls") > 0


def test_serial_and_sharded_fleet_count_the_same_work(traced):
    for metric in ("sim.events", "kernel.syscalls", "nfsclient.index.nodes_visited",
                   "rpc.calls", "net.frames", "server.rpcs", "server.ingest_bytes"):
        assert _value(traced, "fleet", metric) == _value(traced, "fleet-sharded", metric), metric


def test_fleet_and_fleet_sharded_fingerprints_match():
    out = {}
    for workload in ("fleet", "fleet-sharded"):
        buffer = io.StringIO()
        run.run_workload(workload, 1, 0, False, size="tiny", out=buffer)
        out[workload] = [line for line in buffer.getvalue().splitlines() if "fingerprint" in line]
    assert out["fleet"] and out["fleet"] == out["fleet-sharded"]


def test_held_out_seed_open_loop_passes_structural_checks():
    result = _run("open-loop", trace=False, seed=workloads.HELD_OUT_SEED)
    assert result["correct"], result
    assert result["failed"] == 0


def test_missing_wrap_target_fails_loudly():
    table = dict(tracing.TARGETS)
    table["repro.kernel.syscalls:SyscallLayer.wirte"] = ("kernel", ())
    with pytest.raises(tracing.WrapTargetError, match="SyscallLayer.wirte"):
        tracing.resolve_targets(table)
    inherited = {"repro.nfsclient.request_list:SortedListIndex.peek_all": ("nfsclient.index", ())}
    with pytest.raises(tracing.WrapTargetError):
        tracing.resolve_targets(inherited)


def test_unwrap_restores_pristine_classes():
    from repro.kernel.syscalls import SyscallLayer
    from repro.sim.core import Simulator

    before = (vars(SyscallLayer)["write"], vars(Simulator)["run_until"])
    tracer = tracing.Tracer(tracing.resolve_targets())
    tracer.wrap()
    try:
        assert vars(SyscallLayer)["write"] is not before[0]
    finally:
        tracer.unwrap()
    assert (vars(SyscallLayer)["write"], vars(Simulator)["run_until"]) == before


def test_step_proxy_forwards_send_throw_and_return():
    tracer = tracing.Tracer([])
    tracer.self_s["t"] = 0.0

    def inner():
        got = yield 1
        try:
            yield got
        except KeyError:
            return "caught"

    def outer():
        return (yield from tracing._StepProxy(inner(), tracer, "t", None))

    gen = outer()
    assert next(gen) == 1
    assert gen.send("x") == "x"
    with pytest.raises(StopIteration) as stop:
        gen.throw(KeyError("k"))
    assert stop.value.value == "caught"
    assert tracer.self_s["t"] > 0 and not tracer.stack


def test_outside_a_checkout_exits_nonzero_without_a_result():
    isolated = os.path.join(ROOT, ".perfbench", f"isolated-{os.getpid()}")
    shutil.rmtree(isolated, ignore_errors=True)
    try:
        shutil.copytree(BENCH, os.path.join(isolated, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), isolated)
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "seq-write",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=isolated, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(isolated, ignore_errors=True)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
