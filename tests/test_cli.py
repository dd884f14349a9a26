"""Command-line behavior: exit codes, artifacts, summaries, CDF export."""

import csv
import filecmp
import json

import pytest

from tatrack import sim
from tatrack.cli import RunManifest, cmd_cdf, cmd_run, main
from tatrack.geometry import Position

RUN_STAGES = "simulate,probe,extract,localize,track,stats"


def _scenario(ues=None, duration_s=3, seed=5, **kw):
    ues = ues or (sim.UeProfile(model="Huawei P30",
                                waypoints=((0, Position(60.0, 0.0)),),
                                imsi="001010000000001", tmsi=0xA0000001),)
    return sim.Scenario(
        enbs=(sim.Enb(id="enb0", position=Position(0.0, 0.0)),),
        probes=(sim.Probe(id="probe0", position=Position(0.0, 0.0)),),
        ues=tuple(ues),
        duration_ps=duration_s * 1_000 * 10**9, seed=seed, **kw)


def _write_scenario(tmp_path, scenario, name="scene.json"):
    path = tmp_path / name
    path.write_text(json.dumps(sim.scenario_to_dict(scenario)))
    return path


def test_run_writes_artifacts_and_prints_summary(tmp_path, capsys):
    path = _write_scenario(tmp_path, _scenario())
    out = tmp_path / "out"
    rc = main(["run", "--scenario", str(path), "--out", str(out)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "001010000000001" in printed
    assert "p90_m" in printed
    for name in ("events_probe0.jsonl", "positions.csv", "summary.csv"):
        assert (out / name).exists()


def test_run_simulate_only_writes_event_log_only(tmp_path, capsys):
    path = _write_scenario(tmp_path, _scenario())
    out = tmp_path / "out"
    rc = main(["run", "--scenario", str(path), "--out", str(out),
               "--stages", "simulate"])
    assert rc == 0
    assert (out / "events_probe0.jsonl").exists()
    assert not (out / "positions.csv").exists()
    assert "p90_m" not in capsys.readouterr().out


def test_corrupt_scenario_reports_line_and_column(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"enbs": [,]}')
    rc = main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "line 1 column 11" in capsys.readouterr().err


def test_missing_scenario_is_input_error(tmp_path, capsys):
    rc = main(["run", "--scenario", str(tmp_path / "nope.json"),
               "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "not found" in capsys.readouterr().err


def test_bad_stage_lists_are_input_errors(tmp_path, capsys):
    path = _write_scenario(tmp_path, _scenario())
    assert main(["run", "--scenario", str(path),
                 "--out", str(tmp_path / "o"), "--stages", "probe"]) == 2
    assert main(["run", "--scenario", str(path),
                 "--out", str(tmp_path / "o"), "--stages", "bogus"]) == 2
    assert cmd_run(RunManifest(str(path), str(tmp_path / "o"),
                               group_by="bogus")) == 2


def test_second_enodeb_is_refused(tmp_path, capsys):
    scenario = _scenario()
    scenario = sim.Scenario(
        enbs=scenario.enbs + (sim.Enb(id="enb1",
                                      position=Position(1000.0, 300.0)),),
        probes=scenario.probes, ues=scenario.ues,
        duration_ps=scenario.duration_ps, seed=scenario.seed)
    path = _write_scenario(tmp_path, scenario)
    out = tmp_path / "o"
    assert main(["run", "--scenario", str(path), "--out", str(out)]) == 2
    assert "eNodeB" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("mode", ["bogus", "target_list"])
@pytest.mark.parametrize("enabled", [True, False])
def test_unknown_attack_policy_mode_is_refused(tmp_path, capsys, mode,
                                               enabled):
    attack = sim.AttackConfig(enabled=enabled, policy_mode=mode)
    path = _write_scenario(tmp_path, _scenario(attack=attack))
    out = tmp_path / "o"
    assert main(["run", "--scenario", str(path), "--out", str(out)]) == 2
    assert mode in capsys.readouterr().err
    assert not out.exists()


def test_seed_override_changes_the_run(tmp_path):
    path = _write_scenario(tmp_path, _scenario())
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cmd_run(RunManifest(str(path), str(out_a))) == 0
    assert cmd_run(RunManifest(str(path), str(out_b), seed=99)) == 0
    # Ground truth is seed-independent; the seed only drives the noise
    # draws, so the difference shows up in the recorded event times.
    assert ((out_a / "events_probe0.jsonl").read_bytes()
            != (out_b / "events_probe0.jsonl").read_bytes())


def test_repeat_fans_out_with_consecutive_seeds(tmp_path, capsys):
    path = _write_scenario(tmp_path, _scenario())
    out = tmp_path / "out"
    rc = main(["run", "--scenario", str(path), "--out", str(out),
               "--repeat", "2"])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "seed=5" in printed and "seed=6" in printed
    assert ((out / "repeat_000" / "events_probe0.jsonl").read_bytes()
            != (out / "repeat_001" / "events_probe0.jsonl").read_bytes())


def test_rerun_is_byte_identical(tmp_path):
    path = _write_scenario(tmp_path, _scenario())
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    manifest_a = RunManifest(str(path), str(out_a))
    manifest_b = RunManifest(str(path), str(out_b))
    assert cmd_run(manifest_a) == 0
    assert cmd_run(manifest_b) == 0
    names = sorted(p.name for p in out_a.iterdir())
    assert names == sorted(p.name for p in out_b.iterdir())
    same, diff, errors = filecmp.cmpfiles(out_a, out_b, names, shallow=False)
    assert not diff and not errors


def _errors_csv(tmp_path, rows):
    path = tmp_path / "errors.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh,
                                fieldnames=["conn", "imsi", "model",
                                            "error_m"])
        writer.writeheader()
        writer.writerows(rows)
    return path


def test_cdf_single_value(tmp_path, capsys):
    path = _errors_csv(tmp_path, [
        {"conn": "c1", "imsi": "i1", "model": "m1", "error_m": "5.0"}])
    assert cmd_cdf(path) == [{"error_m": 5.0, "cumulative_fraction": 1.0}]
    assert main(["cdf", str(path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "error_m,cumulative_fraction", "5.0,1.0"]


def test_cdf_grouped_by_model(tmp_path):
    path = _errors_csv(tmp_path, [
        {"conn": "c1", "imsi": "i1", "model": "mA", "error_m": "2.0"},
        {"conn": "c2", "imsi": "i1", "model": "mA", "error_m": "1.0"},
        {"conn": "c3", "imsi": "i2", "model": "mB", "error_m": "4.0"}])
    rows = cmd_cdf(path, group_by="model")
    assert rows == [
        {"model": "mA", "error_m": 1.0, "cumulative_fraction": 0.5},
        {"model": "mA", "error_m": 2.0, "cumulative_fraction": 1.0},
        {"model": "mB", "error_m": 4.0, "cumulative_fraction": 1.0}]


def test_cdf_rejects_empty_and_missing_inputs(tmp_path, capsys):
    empty = _errors_csv(tmp_path, [])
    assert main(["cdf", str(empty)]) == 2
    assert main(["cdf", str(tmp_path / "gone.csv")]) == 2
    with pytest.raises(ValueError):
        cmd_cdf(_errors_csv(tmp_path, [
            {"conn": "c", "imsi": "i", "model": "m", "error_m": "1.0"}]),
            group_by="nope")


def test_cdf_quantile_matches_run_summary(tmp_path):
    # Ten noisy connections from one phone: the CDF's 0.9 crossing must
    # bracket the p90 the run summary printed for that identity.
    path = _write_scenario(tmp_path, _scenario(duration_s=21))
    out = tmp_path / "out"
    assert cmd_run(RunManifest(str(path), str(out))) == 0
    with open(out / "summary.csv") as fh:
        summary = list(csv.DictReader(fh))
    assert len(summary) == 1
    p90 = float(summary[0]["p90_m"])
    n = int(summary[0]["n_connections"])
    rows = cmd_cdf(out / "errors.csv")
    at_or_below = [r["cumulative_fraction"] for r in rows
                   if r["error_m"] <= p90]
    assert at_or_below
    assert 0.9 - 1.0 / n - 1e-9 <= max(at_or_below) <= 1.0
