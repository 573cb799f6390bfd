"""The checked-in corpus, as the tests load it."""

import os

from repro.chaos import load_scenario, scenario_names
from repro.chaos.runner import _fleet_faults, _fleet_job
from repro.parallel.des import run_sharded_fleet

CORPUS = os.path.join(os.path.dirname(__file__), "..", "..", "scenarios")


def corpus_spec(name):
    """The spec ``scenarios/<name>.json`` defines, pinned expectations
    included."""
    return load_scenario(os.path.join(CORPUS, f"{name}.json"))


def corpus_names():
    """Every top-level corpus scenario name, sorted."""
    return scenario_names(CORPUS)


def sharded_point(spec, shards=2):
    """Run a fleet scenario through the inline sharded engine, with the
    same job and fresh faults the serial fleet path builds."""
    job = _fleet_job(spec, spec.seed)
    faults, _ = _fleet_faults(spec, spec.seed, job)
    return run_sharded_fleet(job, shards=shards, faults=faults).point
