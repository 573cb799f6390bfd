"""End-to-end fault scenarios and the harness around them."""

import io

import pytest

from repro.chaos import run_spec, scenario_path
from repro.errors import ConfigError
from repro.faults import ServerFaultSchedule, SlotStarvation
from repro.experiments.cli import main, run_fault_scenarios
from repro.sim import Simulator
from repro.units import ms

from tests.chaos.helpers import CORPUS, corpus_names, corpus_spec


def test_registry_has_the_full_scenario_suite():
    assert set(corpus_names()) >= {
        "lossy-burst",
        "server-restart",
        "soft-timeout",
        "jukebox",
        "slot-starvation",
        "monotone-loss",
    }
    assert all(corpus_spec(name).description for name in corpus_names())


def test_jukebox_scenario_passes():
    outcome = run_spec(corpus_spec("jukebox"), seed=1, verify_determinism=False)
    assert outcome.passed
    names = {inv.name for inv in outcome.invariants}
    assert "jukebox-injected" in names
    assert "no-duplicate-ingest" in names


def test_soft_timeout_scenario_surfaces_eio():
    outcome = run_spec(
        corpus_spec("soft-timeout"), seed=1, verify_determinism=False
    )
    assert outcome.passed
    by_name = {inv.name: inv for inv in outcome.invariants}
    assert by_name["eio-surfaced"].ok
    assert by_name["syscall-saw-eio"].ok


def test_determinism_invariant_appended_when_verifying():
    outcome = run_spec(
        corpus_spec("slot-starvation"), seed=2, verify_determinism=True
    )
    assert outcome.passed
    by_name = {inv.name: inv for inv in outcome.invariants}
    assert by_name["deterministic"].ok


def test_payload_is_seed_sensitive_and_repeatable():
    spec = corpus_spec("lossy-burst")
    one = run_spec(spec, seed=1, verify_determinism=False)
    again = run_spec(spec, seed=1, verify_determinism=False)
    other = run_spec(spec, seed=9, verify_determinism=False)
    assert one.payload == again.payload
    assert one.fingerprint == again.fingerprint
    assert one.fingerprint != other.fingerprint


def test_unknown_scenario_rejected():
    with pytest.raises(ConfigError, match="unknown scenario"):
        scenario_path("no-such-chaos", CORPUS)
    with pytest.raises(ConfigError, match="unknown scenario"):
        run_fault_scenarios(["no-such-chaos"], seed=1, out=io.StringIO())


def test_cli_runner_prints_verdicts():
    out = io.StringIO()
    ok = run_fault_scenarios(["jukebox"], seed=1, verify=False, out=out)
    assert ok
    text = out.getvalue()
    assert text.startswith("PASS jukebox")
    assert "[ok      ] jukebox-injected" in text


def test_cli_faults_list(capsys):
    assert main(["faults", "--list"]) == 0
    captured = capsys.readouterr().out
    for name in corpus_names():
        assert name in captured
        assert corpus_spec(name).description in captured


def test_cli_rejects_unknown_scenario():
    with pytest.raises(SystemExit):
        main(["faults", "--scenario", "bogus"])


def test_schedule_rejects_empty_windows():
    class _Server:
        sim = Simulator()

        @staticmethod
        def pause():
            raise AssertionError("must not schedule")

    schedule = ServerFaultSchedule(_Server())
    with pytest.raises(ConfigError):
        schedule.pause_between(ms(5), ms(5))
    with pytest.raises(ConfigError):
        schedule.jukebox_between(ms(10), ms(2))


def test_slot_starvation_rejects_bad_config():
    sim = Simulator()
    with pytest.raises(ConfigError):
        SlotStarvation(sim, None, ms(2), ms(1))
    with pytest.raises(ConfigError):
        SlotStarvation(sim, None, ms(1), ms(2), slots=0)
