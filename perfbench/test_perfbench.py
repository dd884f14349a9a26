"""The benchmark's own checks, on small noiseless scenarios with known answers.

Each test runs ``tatrack run`` on a scenario of static phones, then either
checks that the independent error join recovers the known positions, or
corrupts one artifact and checks that the matching correctness check
blames exactly the connections it should.
"""

import contextlib
import csv
import io
import json
import math
import shutil

import pytest

from perfbench import checks, workloads
from tatrack import cli, sim
from tatrack.fingerprint import FingerprintDb

ENB = (0.0, 0.0)
TRIANGLE = ((300.0, -100.0), (-100.0, 300.0), (-250.0, -250.0))
#: Attach phones of models with a known bias, so the pipeline corrects
#: them exactly and a noiseless estimate lands on the phone.
PHONES = (("Google Pixel 2", (200.0, 150.0)), ("iPhone X", (-180.0, -60.0)))
TA_STEP_PS = 520_833


def _scenario(probes) -> dict:
    return {
        "enbs": [{"id": "enb0", "position": list(ENB)}],
        "probes": [{"id": f"probe{k}", "position": list(p), "role": "both"}
                   for k, p in enumerate(probes)],
        "ues": [{"model": model, "waypoints": [[0, list(pos)]],
                 "imsi": f"00101000000900{i}", "tmsi": 0xE000_0000 + i}
                for i, (model, pos) in enumerate(PHONES)],
        "duration_ps": 5 * 10**12,
        "seed": 3,
        "noise": {"toa_sigma_ps": 0, "hw_bias": True},
        "attack": {"enabled": True},
    }


def _run(tmp_path, probes):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(_scenario(probes)), encoding="utf-8")
    out = tmp_path / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["run", "--scenario", str(path),
                         "--out", str(out)]) == 0
    truth = checks.truth_of(sim.run(sim.load_scenario(path)))
    return truth, out


@pytest.fixture(scope="module")
def triangle(tmp_path_factory):
    return _run(tmp_path_factory.mktemp("triangle"), TRIANGLE)


@pytest.fixture
def copy_of(triangle, tmp_path):
    truth, out = triangle
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    return truth, copy


def _verify(truth, out):
    outputs = checks.read_outputs(out, truth.exact_sum_probes)
    return checks.verify(truth, outputs)


def _rewrite_csv(path, edit):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        columns, rows = reader.fieldnames, list(reader)
    edit(rows)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def _conn_of_row(truth, row):
    return truth.conn_at(int(row["rnti"]), int(row["start_ps"])).conn_id


def test_error_join_on_hand_built_rows():
    conn = checks.ConnTruth(conn_id="c0-0", rnti=0x41, start_ps=0,
                            end_ps=10**9, imsi="001010000000001", tmsi=1,
                            enb=ENB, first=(100.0, 0.0), r_min_m=100.0,
                            r_max_m=100.0)
    truth = checks.Truth(conns={"c0-0": conn}, sums={}, expected_pairs={},
                         radial_only=False, noiseless=True,
                         uplink_probes=("probe0",))
    assert checks.localization_errors(
        truth, {"c0-0": (103.0, 4.0)}) == {"c0-0": 5.0}
    truth.radial_only = True
    radial = checks.localization_errors(truth, {"c0-0": (0.0, 100.0)})
    assert radial["c0-0"] == pytest.approx(0.0, abs=1e-12)


def test_error_join_recovers_known_positions(triangle):
    truth, out = triangle
    verdict = _verify(truth, out)
    assert not truth.radial_only
    assert verdict.attempted == len(truth.conns) >= 4
    assert verdict.failures == {} and verdict.stray == []
    assert verdict.localized == verdict.attempted
    assert max(verdict.errors_m.values()) < 0.05
    firsts = {conn.first for conn in truth.conns.values()}
    assert firsts == {pos for _, pos in PHONES}


def test_error_join_is_radial_for_a_colocated_sniffer(tmp_path):
    truth, out = _run(tmp_path, (ENB,))
    verdict = _verify(truth, out)
    assert truth.radial_only
    assert verdict.failures == {} and verdict.stray == []
    assert max(verdict.errors_m.values()) < 0.05


def test_position_moved_by_one_ring_fails(copy_of):
    truth, out = copy_of
    moved = {}

    def move(rows):
        row = rows[0]
        x, y = float(row["x_m"]), float(row["y_m"])
        scale = 1.0 + checks.RING_M / math.hypot(x, y)
        row["x_m"], row["y_m"] = repr(x * scale), repr(y * scale)
        moved["conn"] = _conn_of_row(truth, row)

    _rewrite_csv(out / "positions.csv", move)
    verdict = _verify(truth, out)
    assert set(verdict.failures) == {moved["conn"]}
    assert "outside true" in verdict.failures[moved["conn"]]
    assert verdict.errors_m[moved["conn"]] == pytest.approx(checks.RING_M,
                                                            abs=0.05)


def test_missing_and_duplicate_positions_fail(copy_of):
    truth, out = copy_of
    blamed = {}

    def drop_and_repeat(rows):
        blamed["missing"] = _conn_of_row(truth, rows.pop(0))
        blamed["twice"] = _conn_of_row(truth, rows[0])
        rows.append(dict(rows[0]))

    _rewrite_csv(out / "positions.csv", drop_and_repeat)
    verdict = _verify(truth, out)
    assert set(verdict.failures) == {blamed["missing"], blamed["twice"]}


def test_swapped_imsis_fail(copy_of):
    truth, out = copy_of
    path = out / "extracted_pairs.json"
    pairs = json.loads(path.read_text(encoding="utf-8"))
    assert len(pairs) == 2
    a, b = sorted(pairs)
    pairs[a], pairs[b] = pairs[b], pairs[a]
    path.write_text(json.dumps(pairs), encoding="utf-8")
    verdict = _verify(truth, out)
    assert set(verdict.failures) == set(truth.conns)
    assert all("extracted as" in r for r in verdict.failures.values())


def test_link_to_another_phones_imsi_fails(copy_of):
    truth, out = copy_of
    imsis = sorted({conn.imsi for conn in truth.conns.values()})
    path = out / "trackdb.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines()
    for k, line in enumerate(lines):
        entry = json.loads(line)
        if entry["event"] == "connection":
            conn = truth.conn_at(entry["rnti"], entry["start_ps"])
            entry["linked"] = next(i for i in imsis if i != conn.imsi)
            lines[k] = json.dumps(entry, sort_keys=True)
            break
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    verdict = _verify(truth, out)
    assert set(verdict.failures) == {conn.conn_id}
    assert "another phone" in verdict.failures[conn.conn_id]


def test_sum_off_by_one_ta_step_fails(copy_of):
    truth, out = copy_of
    blamed = {}

    def shift(rows):
        row = rows[len(rows) // 2]
        row["sum_ps"] = str(int(row["sum_ps"]) + TA_STEP_PS)
        blamed["conn"] = truth.conn_at(int(row["rnti"]),
                                       int(row["tn_ps"])).conn_id

    _rewrite_csv(out / "measurements_probe1.csv", shift)
    verdict = _verify(truth, out)
    assert set(verdict.failures) == {blamed["conn"]}
    assert f"off by {TA_STEP_PS} ps" in verdict.failures[blamed["conn"]]


@pytest.mark.parametrize("name", ["crowd", "drive"])
def test_workloads_are_valid_and_repeatable(name):
    build = getattr(workloads, name)
    assert build(5) == build(5) != build(6)
    sim.scenario_from_dict(build(5)).validate(FingerprintDb.default())


def test_crowd_phones_stay_outside_the_sniffers():
    # A phone nearer the eNodeB than a sniffer can sit close to their
    # baseline, where its biased sum falls below the focal distance.
    scn = sim.scenario_from_dict(workloads.crowd(7))
    reach = max(math.hypot(p.position.x, p.position.y) for p in scn.probes)
    for ue in scn.ues:
        for _, pos in ue.waypoints:
            assert math.hypot(pos.x, pos.y) > reach + 30.0
