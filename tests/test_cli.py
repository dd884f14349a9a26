"""Command-line behavior: exit codes, artifacts, summaries, CDF export."""

import csv
import filecmp
import gc
import json
import os
import weakref
from pathlib import Path

import pytest

from tatrack import cli, sim
from tatrack.cli import cmd_cdf, cmd_run, main
from tatrack.geometry import Position
from tatrack.pipeline import run_pipeline

SHIPPED_SCENARIO = (Path(__file__).resolve().parent.parent
                    / "scenarios" / "replication.json")
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
    assert main(["run", "--scenario", str(path),
                 "--out", str(tmp_path / "o"), "--stages", ""]) == 2
    assert not (tmp_path / "o").exists()
    assert cmd_run(str(path), str(tmp_path / "o"), group_by="bogus") == 2


def test_stage_list_names_are_stripped_and_blank_ones_dropped(tmp_path,
                                                              capsys):
    path = _write_scenario(tmp_path, _scenario())
    assert main(["run", "--scenario", str(path), "--out",
                 str(tmp_path / "o"), "--stages", "simulate, "]) == 0
    assert (tmp_path / "o" / "events_probe0.jsonl").exists()
    capsys.readouterr()
    assert main(["run", "--scenario", str(path), "--out",
                 str(tmp_path / "p"), "--stages", " "]) == 2
    assert capsys.readouterr().err == "error: no stage given\n"


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


def test_unknown_scenario_key_is_refused(tmp_path, capsys):
    data = sim.scenario_to_dict(_scenario())
    data["noise"] = {"toa_sigma": 0}  # a typo of toa_sigma_ps
    path = tmp_path / "typo.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "o"
    assert main(["run", "--scenario", str(path), "--out", str(out)]) == 2
    assert "toa_sigma in noise" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("ids", [["probe0", "probe0"], ["p/0"]],
                         ids=["duplicate", "slash"])
def test_probe_id_that_collides_or_names_no_file_is_refused(tmp_path, capsys,
                                                            ids):
    data = sim.scenario_to_dict(_scenario())
    data["probes"] = [{"id": probe_id, "position": [10.0 * k, 0.0]}
                      for k, probe_id in enumerate(ids)]
    path = tmp_path / "probes.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "o"
    assert main(["run", "--scenario", str(path), "--out", str(out)]) == 2
    assert repr(ids[0]) in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("field, value, attack", [
    ("reconnect_rate", "fast", False),
    ("n_data_rounds", "12", False),
    ("n_data_rounds", 12.5, False),
    ("ta_interval", "x", False),
    ("tmsi", "abc", False),
    ("tmsi", 2**40, False),
    ("imsi", 12345, False),
    ("answers_identity_after_service_request", "no", False),
    ("n_data_rounds", -3, False),
    ("imsi", "12345", False),
    ("imsi", "12345", True),
], ids=["rate_string", "rounds_string", "rounds_float", "ta_interval_string",
        "tmsi_string", "tmsi_40_bits", "imsi_number", "answers_string",
        "rounds_negative", "imsi_short", "imsi_short_attack_on"])
def test_malformed_ue_field_is_refused(tmp_path, capsys, field, value,
                                       attack):
    data = json.loads(SHIPPED_SCENARIO.read_text(encoding="utf-8"))
    data["ues"][0][field] = value
    data["attack"]["enabled"] = attack
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "o"
    assert main(["run", "--scenario", str(path), "--out", str(out)]) == 2
    assert field in capsys.readouterr().err
    assert not out.exists()


def test_repeat_keeps_one_run_alive_at_a_time(tmp_path, monkeypatch,
                                              capsys):
    runs, alive_at_start = [], []

    def run_pipeline_watched(*args, **kwargs):
        alive_at_start.append([ref() is not None for ref in runs])
        ctx = run_pipeline(*args, **kwargs)
        runs.append(weakref.ref(ctx))
        return ctx

    monkeypatch.setattr(cli, "run_pipeline", run_pipeline_watched)
    path = _write_scenario(tmp_path, _scenario())
    assert main(["run", "--scenario", str(path), "--out",
                 str(tmp_path / "out"), "--repeat", "3"]) == 0
    assert alive_at_start == [[], [False], [False, False]]


def test_seed_override_changes_the_run(tmp_path):
    path = _write_scenario(tmp_path, _scenario())
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cmd_run(str(path), str(out_a)) == 0
    assert cmd_run(str(path), str(out_b), seed=99) == 0
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


def test_repeat_refuses_a_last_seed_out_of_range_before_writing(tmp_path,
                                                                 capsys):
    path = _write_scenario(tmp_path, _scenario())
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(path), "--out", str(out),
                 "--seed", str(2**64 - 1), "--repeat", "2"]) == 2
    assert "seed must be in [0, 2**64)" in capsys.readouterr().err
    assert not out.exists()


def test_rerun_is_byte_identical(tmp_path):
    path = _write_scenario(tmp_path, _scenario())
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cmd_run(str(path), str(out_a)) == 0
    assert cmd_run(str(path), str(out_b)) == 0
    names = sorted(p.name for p in out_a.iterdir())
    assert names == sorted(p.name for p in out_b.iterdir())
    same, diff, errors = filecmp.cmpfiles(out_a, out_b, names, shallow=False)
    assert not diff and not errors


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
def test_run_leaves_the_collector_as_it_found_it(tmp_path, capsys, enabled):
    path = _write_scenario(tmp_path, _scenario())
    in_the_way = tmp_path / "a_file"
    in_the_way.write_text("")
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert main(["run", "--scenario", str(path),
                     "--out", str(tmp_path / "out")]) == 0
        assert gc.isenabled() is enabled
        assert main(["run", "--scenario", str(path),
                     "--out", str(in_the_way)]) == 1
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_failed_event_log_write_exits_1_and_names_the_file(tmp_path,
                                                             capfd):
    # The event logs are written by a forked process; its failure must
    # still fail the run, not leave it at exit 0 with a file missing.
    path = _write_scenario(tmp_path, _scenario())
    out = tmp_path / "out"
    (out / "events_probe0.jsonl").mkdir(parents=True)
    assert main(["run", "--scenario", str(path), "--out", str(out)]) == 1
    assert "events_probe0.jsonl" in capfd.readouterr().err
    _no_child_left()


def test_repeat_leaves_no_child_process(tmp_path, capsys):
    path = _write_scenario(tmp_path, _scenario())
    assert main(["run", "--scenario", str(path), "--out",
                 str(tmp_path / "out"), "--repeat", "3"]) == 0
    for i in range(3):
        assert (tmp_path / "out" / f"repeat_{i:03d}"
                / "ground_truth.csv").stat().st_size > 0
    _no_child_left()


def _cyclic_garbage_of_a_run(tmp_path, n_data_rounds):
    ue = sim.UeProfile(model="Huawei P30",
                       waypoints=((0, Position(60.0, 0.0)),),
                       imsi="001010000000001", tmsi=0xA0000001,
                       n_data_rounds=n_data_rounds)
    path = _write_scenario(tmp_path, _scenario(
        ues=(ue,), attack=sim.AttackConfig(enabled=True)),
        name=f"rounds_{n_data_rounds}.json")
    gc.collect()
    assert main(["run", "--scenario", str(path),
                 "--out", str(tmp_path / f"out_{n_data_rounds}")]) == 0
    return gc.collect()


def test_run_builds_no_cycles_that_grow_with_its_events(tmp_path, capsys):
    # The collector pause in `run` is safe only because reference counting
    # frees a run's records: what cyclic garbage a run leaves must not
    # scale with the number of events.
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        _cyclic_garbage_of_a_run(tmp_path, 12)  # first-call imports
        small = _cyclic_garbage_of_a_run(tmp_path, 12)
        large = _cyclic_garbage_of_a_run(tmp_path, 48)
    finally:
        if was_enabled:
            gc.enable()
    assert small == large


def test_run_artifacts_match_run_pipeline_with_the_collector_on(tmp_path,
                                                                capsys):
    scenario = _scenario(attack=sim.AttackConfig(enabled=True))
    path = _write_scenario(tmp_path, scenario)
    via_cli, via_library = tmp_path / "cli", tmp_path / "library"
    assert main(["run", "--scenario", str(path), "--out", str(via_cli)]) == 0
    assert gc.isenabled()
    run_pipeline(sim.load_scenario(path), out_dir=via_library)
    names = sorted(p.name for p in via_cli.iterdir())
    assert names == sorted(p.name for p in via_library.iterdir())
    same, diff, errors = filecmp.cmpfiles(via_cli, via_library, names,
                                          shallow=False)
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


def test_cdf_out_holds_what_stdout_prints(tmp_path, capsys):
    path = _errors_csv(tmp_path, [
        {"conn": "c1", "imsi": "i1", "model": "mA", "error_m": "2.0"},
        {"conn": "c2", "imsi": "i1", "model": "mB", "error_m": "1.0"}])
    assert main(["cdf", "--group-by", "model", str(path)]) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "cdf.csv"
    assert main(["cdf", "--group-by", "model", str(path),
                 "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == printed.encode("utf-8")


@pytest.mark.parametrize("target", ["a_directory", "missing/cdf.csv"])
def test_cdf_out_that_cannot_be_written_exits_1_with_one_error_line(
        tmp_path, capsys, target):
    path = _errors_csv(tmp_path, [
        {"conn": "c1", "imsi": "i1", "model": "m1", "error_m": "5.0"}])
    (tmp_path / "a_directory").mkdir()
    out = tmp_path / target
    assert main(["cdf", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert str(out) in err[0]


def _scenario_dir(tmp_path):
    (tmp_path / "scene").mkdir()
    return ["run", "--scenario", str(tmp_path / "scene"),
            "--out", str(tmp_path / "o")], str(tmp_path / "scene")


def _latin1_scenario(tmp_path):
    path = tmp_path / "scene.json"
    path.write_bytes(b'{"name": "caf\xe9"}')
    return ["run", "--scenario", str(path),
            "--out", str(tmp_path / "o")], str(path)


def _csv_without_error_m(tmp_path):
    path = tmp_path / "errors.csv"
    path.write_text("conn,imsi\nc1,i1\n")
    return ["cdf", str(path)], "'error_m'"


def _csv_dir(tmp_path):
    (tmp_path / "errors.csv").mkdir()
    return ["cdf", str(tmp_path / "errors.csv")], str(tmp_path / "errors.csv")


def _csv_with_short_row(tmp_path):
    path = tmp_path / "short.csv"
    path.write_text("conn,error_m\nc1\n")
    return ["cdf", str(path)], str(path)


def _csv_with_nan_error(tmp_path):
    path = tmp_path / "nan.csv"
    path.write_text("conn,error_m\nc1,nan\nc2,1\n")
    return ["cdf", str(path)], str(path)


def _csv_with_infinite_error(tmp_path):
    path = tmp_path / "inf.csv"
    path.write_text("conn,model,error_m\nc1,m,1\nc2,m,-inf\n")
    return ["cdf", "--group-by", "model", str(path)], str(path)


@pytest.mark.parametrize("make_args", [
    _scenario_dir, _latin1_scenario, _csv_without_error_m, _csv_dir,
    _csv_with_short_row, _csv_with_nan_error, _csv_with_infinite_error])
def test_unusable_inputs_exit_2_with_one_error_line(tmp_path, capsys,
                                                     make_args):
    argv, named = make_args(tmp_path)
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert named in err[0]


def test_cdf_quantile_matches_run_summary(tmp_path):
    # Ten noisy connections from one phone: the CDF's 0.9 crossing must
    # bracket the p90 the run summary printed for that identity.
    path = _write_scenario(tmp_path, _scenario(duration_s=21))
    out = tmp_path / "out"
    assert cmd_run(str(path), str(out)) == 0
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
