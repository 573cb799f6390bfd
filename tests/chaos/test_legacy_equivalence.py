"""Corpus files survive a JSON round trip unchanged.

Each scenario is defined only by its file under ``scenarios/``, so
serialising the loaded spec and loading it back must give the same
spec — nothing a file declares may be lost or reinterpreted on the way.
"""

import pytest

from repro.chaos import loads_scenario

from .helpers import corpus_names, corpus_spec


@pytest.mark.parametrize("name", corpus_names())
def test_declarative_twin_survives_json_round_trip(name):
    spec = corpus_spec(name)
    assert loads_scenario(spec.to_json()) == spec
