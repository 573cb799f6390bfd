"""CLI exit-code gating for the chaos surface.

Contract: ``repro-nfs faults``, ``fleet``, ``run <scenario.json>``,
``corpus``, and ``fuzz`` all exit non-zero on any invariant failure or
expectation drift, so CI can gate on them.
"""

import io
import json
import os

import pytest

from repro.chaos import pin_expectations, run_spec, save_scenario
from repro.chaos.checks import CHECKS, Invariant
from repro.chaos.spec import ExpectSpec
from repro.experiments.cli import (
    main,
    run_corpus,
    run_fault_scenarios,
    run_fleet,
    run_scenario_files,
)

from .helpers import corpus_spec

REPO = os.path.join(os.path.dirname(__file__), "..", "..")


def _pinned(name, tmp_path, **replace):
    spec = corpus_spec(name)
    if replace:
        spec = spec.replace(**replace)
    outcome = run_spec(spec, verify_determinism=False)
    return save_scenario(pin_expectations(spec, outcome), str(tmp_path))


def test_run_scenario_file_exits_zero_on_pass(tmp_path, capsys):
    path = _pinned("jukebox", tmp_path)
    assert main(["run", path]) == 0
    out = capsys.readouterr().out
    assert "PASS jukebox" in out


def test_run_scenario_file_exits_one_on_drift(tmp_path, capsys):
    path = _pinned("jukebox", tmp_path)
    doc = json.loads(open(path, encoding="utf-8").read())
    doc["expect"]["fingerprint"] = "0" * 64
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    assert main(["run", path]) == 1
    out = capsys.readouterr().out
    assert "FAIL jukebox" in out
    assert "DRIFT" in out
    assert "fingerprint drift" in out


def test_run_template_reads_placeholders_from_environment(
    monkeypatch, capsys
):
    template = os.path.join(REPO, "scenarios", "templates", "burst-loss.json")
    monkeypatch.setenv("CHAOS_FILE_BYTES", str(2 * 1024 * 1024))
    monkeypatch.setenv("CHAOS_TIMEO_NS", str(25_000_000))
    assert main(["run", template]) == 0
    assert "PASS burst-loss" in capsys.readouterr().out


def test_run_template_without_env_fails_loudly(monkeypatch):
    template = os.path.join(REPO, "scenarios", "templates", "burst-loss.json")
    monkeypatch.delenv("CHAOS_FILE_BYTES", raising=False)
    monkeypatch.delenv("CHAOS_TIMEO_NS", raising=False)
    from repro.errors import ConfigError

    with pytest.raises(ConfigError, match="CHAOS_"):
        main(["run", template])


def test_corpus_command_gates_on_drift(tmp_path):
    _pinned("jukebox", tmp_path)
    out = io.StringIO()
    assert run_corpus(str(tmp_path), verify=False, out=out) is True
    assert "1 scenario(s) replayed" in out.getvalue()

    # Tamper a pinned verdict: the same corpus must now fail.
    spec = corpus_spec("jukebox")
    tampered = spec.replace(
        expect=ExpectSpec(passed=False, failed=("stability",), fingerprint=None)
    )
    save_scenario(tampered, str(tmp_path))
    out = io.StringIO()
    assert run_corpus(str(tmp_path), verify=False, out=out) is False
    assert "FAIL" in out.getvalue()


def test_fuzz_command_writes_json_report(tmp_path, capsys):
    json_path = str(tmp_path / "report.json")
    assert (
        main(
            [
                "fuzz",
                "--seed",
                "7",
                "--draws",
                "2",
                "--no-sanitize",
                "--json",
                json_path,
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "PASS fuzz seed=7" in out
    with open(json_path, encoding="utf-8") as fh:
        report = json.load(fh)
    assert report["seed"] == 7
    assert len(report["scenarios"]) == 2


def test_fuzz_rejects_bad_draws():
    with pytest.raises(SystemExit):
        main(["fuzz", "--draws", "0"])


def _rigged(monkeypatch, kind):
    """Make the registry check ``kind`` fail every run it audits."""
    monkeypatch.setitem(
        CHECKS, kind, lambda ctx, params: [Invariant("rigged", False, "forced")]
    )


def test_faults_exits_nonzero_on_invariant_failure(monkeypatch):
    """A failing check must surface as a False return (exit 1 in main)."""
    _rigged(monkeypatch, "jukebox-injected")
    out = io.StringIO()
    assert (
        run_fault_scenarios(["jukebox"], seed=1, verify=False, out=out) is False
    )
    assert "[VIOLATED] rigged — forced" in out.getvalue()
    assert main(["faults", "--scenario", "jukebox", "--no-verify"]) == 1


def test_fleet_exits_nonzero_on_invariant_failure(monkeypatch):
    _rigged(monkeypatch, "within-ingest-envelope")
    out = io.StringIO()
    assert (
        run_fleet(2, "netapp", file_kib=64, verify=False, out=out) is False
    )
    assert out.getvalue().count("FAIL fleet") == 1
    assert (
        main(["fleet", "--clients", "2", "--file-kib", "64", "--no-verify"])
        == 1
    )


def test_run_mixes_scenarios_and_experiments_gate_together(tmp_path):
    """`run` accepts .json paths alongside experiment ids; a failing
    scenario fails the combined run even if experiments pass."""
    spec = corpus_spec("jukebox").replace(
        expect=ExpectSpec(passed=False, failed=("stability",), fingerprint=None)
    )
    path = save_scenario(spec, str(tmp_path))
    out = io.StringIO()
    assert run_scenario_files([path], out=out) is False
    assert "DRIFT" in out.getvalue()


# -- repro-nfs fleet ----------------------------------------------------------


def _rows(text):
    """The invariant row names a fleet run printed, [host] suffixes kept."""
    return [
        line.split("] ", 1)[1].split(" — ")[0]
        for line in text.splitlines()
        if line.startswith("  [")
    ]


def test_fleet_closed_loop_rows_come_from_the_check_registry():
    out = io.StringIO()
    assert run_fleet(4, "netapp", file_kib=128, out=out) is True
    text = out.getvalue()
    assert "PASS fleet" in text
    rows = _rows(text)
    assert rows[0].startswith("files-complete-durable[")
    assert rows[1].startswith("within-ingest-envelope[")
    assert rows[2:] == ["fair-share", "deterministic"]
    assert "[VIOLATED]" not in text


def test_staggered_fleet_has_no_fair_share_row():
    out = io.StringIO()
    assert (
        run_fleet(3, "linux", file_kib=64, stagger_us=500, verify=False, out=out)
        is True
    )
    rows = _rows(out.getvalue())
    assert "fair-share" not in rows
    assert any(r.startswith("files-complete-durable[") for r in rows)


def test_open_loop_fleet_writes_slo_report(tmp_path):
    slo_path = str(tmp_path / "slo.json")
    out = io.StringIO()
    ok = run_fleet(
        2,
        "netapp",
        arrivals="rate=200 duration_ms=20 bytes=16384",
        verify=False,
        slo_out=slo_path,
        out=out,
    )
    assert ok is True
    rows = _rows(out.getvalue())
    assert rows[0] == "open-loop-complete"
    assert not any(r.startswith("files-complete-durable") for r in rows)
    assert "fair-share" not in rows
    with open(slo_path, encoding="utf-8") as fh:
        assert json.load(fh)["schema"] == "repro-nfs/slo-report@1"


def test_one_client_fleet_runs_on_the_topology_path():
    out = io.StringIO()
    assert run_fleet(1, "linux", file_kib=64, verify=False, out=out) is True
    text = out.getvalue()
    assert text.startswith("1 x stock client(s) -> linux")
    assert _rows(text)[0].startswith("files-complete-durable[")


def test_one_client_fleet_still_gets_its_determinism_replay():
    out = io.StringIO()
    assert run_fleet(1, "linux", file_kib=64, out=out) is True
    assert _rows(out.getvalue())[-1] == "deterministic"


@pytest.mark.parametrize(
    "argv", [["run", "fig1"], ["fuzz"], ["fleet"]], ids=["run", "fuzz", "fleet"]
)
def test_no_command_takes_shards(argv, capsys):
    """Fleets run on the serial event loop only; ``--shards`` is gone."""
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--shards", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --shards" in capsys.readouterr().err
