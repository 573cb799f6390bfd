"""Tests for the workload drivers."""

import pytest

from repro.bench import TestBed
from repro.bench.workloads import run_workload, sequential_writers
from repro.errors import ConfigError
from repro.units import MB, PAGE_SIZE


def make_bed(target="netapp", client="enhanced"):
    return TestBed(target=target, client=client)


def test_sequential_writers_conserve_bytes():
    bed = make_bed()
    result = sequential_writers(bed, nwriters=3, bytes_each=1 * MB)
    assert result.bytes_written == 3 * MB
    assert sum(f.size for f in bed.server.files.values()) == 3 * MB
    assert len(result.traces) == 3
    assert all(len(t) == -(-MB // 8192) for t in result.traces)
    assert result.total_mbps > 0


def test_more_writers_do_not_scale_linearly():
    """Shared client: N writers share the lock, CPUs and the wire."""
    single = sequential_writers(make_bed(), 1, 2 * MB)
    quad = sequential_writers(make_bed(), 4, 2 * MB)
    assert quad.total_throughput < 4 * single.total_throughput
    assert quad.total_throughput > 0.5 * single.total_throughput


def test_writers_validation():
    with pytest.raises(ConfigError):
        sequential_writers(make_bed(), 0, MB)


def test_transaction_log_commit_latency():
    def commits(target):
        bed = make_bed(target)
        return bed.topology.run_workload("database-fsync", {"transactions": 50})

    filer, linux = commits("netapp"), commits("linux")
    # Each fsync on the Linux server pays COMMIT + disk.
    assert linux.trace.mean_ns() > filer.trace.mean_ns()
    assert len(filer.trace) == 50


def random_write(bed, **params):
    return bed.topology.run_workload("random-write", params)


def test_random_writer_completes_and_is_deterministic():
    def one():
        bed = make_bed()
        outcome = random_write(bed, file_bytes=4 * MB, writes=100, seed=7)
        return bed.sim.now, outcome.trace.latencies_ns

    a, b = one(), one()
    assert a == b
    assert a[0] > 0


def test_random_writer_rewrites_wait_for_inflight_pages():
    bed = make_bed()
    random_write(bed, file_bytes=64 * PAGE_SIZE, writes=300, seed=3)
    # A small extent guarantees overlapping rewrites of in-flight pages.
    assert bed.nfs.stats.page_waits + bed.nfs.stats.coalesced_updates > 0


def test_run_workload_surfaces_failures():
    bed = make_bed()

    def boom():
        yield bed.sim.timeout(10)
        raise RuntimeError("dead")

    with pytest.raises(RuntimeError):
        run_workload(bed, [("boom", boom())])
