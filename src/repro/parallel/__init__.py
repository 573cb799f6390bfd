"""Parallel sweep execution over independent simulated worlds."""

from .executor import SweepExecutor, default_jobs, run_job

__all__ = ["SweepExecutor", "run_job", "default_jobs"]
