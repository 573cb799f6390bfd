"""Unit tests for SweepExecutor mechanics over one-client fleet points."""

import os
import pickle
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.cache import ResultCache
from repro.errors import ConfigError
from repro.parallel import SweepExecutor, run_job
from repro.topology import FleetJobSpec, FleetPointResult


def point_spec(file_bytes):
    """The paper's single writer as a sweep point: a one-client fleet."""
    return FleetJobSpec.homogeneous(1, target="netapp", file_bytes=file_bytes)


SMALL = point_spec(1_000_000)


def test_jobspec_is_picklable():
    clone = pickle.loads(pickle.dumps(SMALL))
    assert clone == SMALL
    assert clone.fingerprint(version="x") == SMALL.fingerprint(version="x")


def test_jobs_must_be_positive():
    with pytest.raises(ConfigError):
        SweepExecutor(jobs=0)


def test_run_job_produces_a_complete_point():
    point = run_job(SMALL)
    (client,) = point.clients
    assert client["file_bytes"] == SMALL.file_bytes
    assert client["write_elapsed_ns"] > 0
    assert point.client_mbps()[0] > 0
    assert point.events_processed > 0
    # One latency sample per 8 KB write call.
    assert client["calls"] == SMALL.file_bytes // SMALL.chunk_bytes + 1


def test_point_result_payload_round_trip():
    point = run_job(SMALL)
    clone = FleetPointResult.from_payload(point.to_payload())
    assert clone == point
    assert clone.client_mbps() == point.client_mbps()


def test_map_preserves_spec_order():
    specs = [point_spec(n * 1_000_000) for n in (3, 1, 2)]
    results = SweepExecutor(jobs=1).map(specs)
    assert [r.total_bytes for r in results] == [3_000_000, 1_000_000, 2_000_000]


def test_cache_hits_and_misses_interleave(tmp_path):
    cache = ResultCache(str(tmp_path))
    a = SMALL
    b = point_spec(2_000_000)
    first = SweepExecutor(jobs=1, cache=cache).map([a])
    assert cache.stores == 1
    executor = SweepExecutor(jobs=1, cache=cache)
    results = executor.map([b, a, b])
    assert [r.total_bytes for r in results] == [2_000_000, 1_000_000, 2_000_000]
    assert results[1] == first[0]
    # a was served from disk; each b was computed (the second b hits the
    # entry stored moments earlier only on a future map() call).
    assert cache.hits >= 1

    warm = SweepExecutor(jobs=1, cache=cache).map([b, a, b])
    assert warm == results
    assert SweepExecutor(jobs=1, cache=cache).map([a]) == first


def test_parallel_size_sweep_matches_serial_points(tmp_path):
    sizes = [1_000_000, 2_000_000]
    executor = SweepExecutor(jobs=2, cache=ResultCache(str(tmp_path)))
    points = executor.map([point_spec(size) for size in sizes])
    assert [point.total_bytes for point in points] == sizes
    for size, point in zip(sizes, points):
        assert point == run_job(point_spec(size))


def _killed_worker(spec):
    os._exit(3)


def test_killed_worker_breaks_the_sweep_instead_of_hanging(monkeypatch):
    """A pool worker that dies mid-point fails the sweep promptly."""
    from repro.parallel import executor

    monkeypatch.setattr(executor, "run_job", _killed_worker)
    started = time.monotonic()
    with pytest.raises(BrokenProcessPool):
        SweepExecutor(jobs=2).map([point_spec(64 * 1024), point_spec(128 * 1024)])
    assert time.monotonic() - started < 10
