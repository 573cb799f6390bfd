"""The checked-in corpus, as the tests load it."""

import os

from repro.chaos import load_scenario, scenario_names

CORPUS = os.path.join(os.path.dirname(__file__), "..", "..", "scenarios")


def corpus_spec(name):
    """The spec ``scenarios/<name>.json`` defines, pinned expectations
    included."""
    return load_scenario(os.path.join(CORPUS, f"{name}.json"))


def corpus_names():
    """Every top-level corpus scenario name, sorted."""
    return scenario_names(CORPUS)
