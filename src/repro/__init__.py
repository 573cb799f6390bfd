"""repro — a simulation reproduction of *Linux NFS Client Write
Performance* (Chuck Lever & Peter Honeyman, CITI TR 01-12 / USENIX 2002).

The package models the complete client/network/server system the paper
studies and reproduces its evaluation:

- :mod:`repro.sim` — deterministic discrete-event kernel
- :mod:`repro.nfsclient` — the Linux 2.4.4 NFS client write path and the
  paper's three patches (no threshold flushes, hash-table request index,
  BKL released around ``sock_sendmsg``)
- :mod:`repro.server` — NetApp F85 filer and Linux knfsd models
- :mod:`repro.bench` — the Bonnie-derived sequential write benchmark
- :mod:`repro.experiments` — Figures 1-7 and Table 1

Quickstart::

    from repro import TestBed
    bed = TestBed(target="netapp", client="stock")
    result = bed.run_sequential_write(40 * 1000 * 1000)
    print(result.summary())
    print("spikes:", len(result.trace.spikes()))
"""

from .bench import BenchmarkResult, LatencyTrace, TestBed, latency_histogram
from .config import (
    ClientHwConfig,
    CpuCosts,
    FilerConfig,
    LinuxServerConfig,
    LocalFsConfig,
    MountConfig,
    NetConfig,
    NfsClientConfig,
    scaled,
)
from .cache import ResultCache
from .experiments import ExecutionContext, experiment_ids, get_experiment
from .nfsclient import VARIANTS, variant_config
from .parallel import SweepExecutor
from .topology import ClientSpec, FleetJobSpec, FleetPointResult, ServerSpec

__version__ = "1.0.0"

__all__ = [
    "TestBed",
    "BenchmarkResult",
    "LatencyTrace",
    "latency_histogram",
    "ClientHwConfig",
    "CpuCosts",
    "MountConfig",
    "NetConfig",
    "NfsClientConfig",
    "FilerConfig",
    "LinuxServerConfig",
    "LocalFsConfig",
    "scaled",
    "VARIANTS",
    "variant_config",
    "experiment_ids",
    "get_experiment",
    "ExecutionContext",
    "ClientSpec",
    "ServerSpec",
    "FleetJobSpec",
    "FleetPointResult",
    "SweepExecutor",
    "ResultCache",
    "__version__",
]
