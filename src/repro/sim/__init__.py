"""Deterministic discrete-event simulation kernel.

Public surface::

    from repro.sim import Simulator, Task, Timeout, all_done, Event, Lock,
        MonitoredLock, Semaphore, WaitQueue, CpuSet, SamplingProfiler,
        RngStreams, Tracer
"""

from .core import EventHandle, Simulator
from .cpu import PRIO_INTERRUPT, PRIO_KERNEL, PRIO_USER, CpuSet
from .profiler import SamplingProfiler
from .rng import RngStreams
from .sync import Event, Lock, LockStats, MonitoredLock, Semaphore, WaitQueue
from .task import AllOf, Task, Timeout, Waitable, all_done
from .trace import TraceRecord, Tracer

__all__ = [
    "Simulator",
    "EventHandle",
    "Task",
    "Timeout",
    "Waitable",
    "AllOf",
    "all_done",
    "Event",
    "Lock",
    "LockStats",
    "MonitoredLock",
    "Semaphore",
    "WaitQueue",
    "CpuSet",
    "PRIO_INTERRUPT",
    "PRIO_KERNEL",
    "PRIO_USER",
    "SamplingProfiler",
    "RngStreams",
    "Tracer",
]
