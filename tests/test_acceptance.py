"""Release gate: twelve checks pinned to the accuracy targets of the build.

Each test certifies one headline number end to end, at the tolerance it
was signed off with. The rest of the suite may evolve; these must not
drift. Run with -v to get one pass/fail line per criterion.
"""

import dataclasses
import filecmp
import math
import os
import random

import numpy as np
import pytest

from _oracle import agreement_gaps, random_config
from tatrack import cli, messages, pipeline, sim
from tatrack import timebase as tb
from tatrack.fingerprint import FingerprintDb, estimate_hw_error, hw_error
from tatrack.geometry import Position, annulus_from_ta, intersect
from tatrack.probe import ConnectionTable
from tatrack.tracker import connection_stats
from test_messages import _random_message

SCENARIO_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                             "scenarios", "replication.json")
BENCH_DISTANCES_M = (0.0, 7.5, 15.0, 30.0, 45.0, 60.0)
BENCH_PHONES = ("Huawei P20 Pro", "Huawei P30", "iPhone X", "iPhone 8",
                "Samsung Galaxy s10")
MATRIX_PHONES = (
    "Samsung Galaxy s10", "Samsung Galaxy a8", "Huawei P20 Pro",
    "Huawei P30 Lite", "Huawei P30", "Xiaomi Mi9", "Xiaomi MiX 3",
    "Google Nexus 5X", "Google Pixel 2", "Google Pixel 3a", "HTC U12+",
    "OnePlus 7T", "iPhone 7", "iPhone 8", "iPhone X", "iPhone 11",
    "iPhone 11 Pro",
)
ZERO_NOISE = sim.NoiseModel(toa_sigma_ps=0, hw_bias=False)


def _measurements(result, probe_id="probe0", ack_gating=False):
    table = ConnectionTable(ack_gating=ack_gating)
    out = []
    for event in result.events[probe_id]:
        out.extend(table.ingest(event))
    return out


def _errors_by_subframe(result, measurements):
    truth = {row.t_n_ps: row.sum_true_ps for row in result.ground_truth}
    return {m.t_n // tb.PS_PER_SUBFRAME: m.sum_delay - truth[m.t_n]
            for m in measurements}


def _matrix_scenario(connection_type):
    ues = []
    for i, model in enumerate(MATRIX_PHONES):
        ues.append(sim.UeProfile(
            model=model,
            waypoints=((0, Position(60.0 + 10.0 * i, 0.0)),),
            connection_type=connection_type,
            answers_identity_after_service_request=(model != "iPhone 7"),
            imsi=f"001010000001{i:03d}",
            tmsi=0xC000_0000 + i,
        ))
    return sim.Scenario(
        enbs=(sim.Enb("enb0", Position(0.0, 0.0)),),
        probes=(sim.Probe("probe0", Position(0.0, 0.0)),),
        ues=tuple(ues),
        duration_ps=3 * 10**12,
        seed=8,
        noise=ZERO_NOISE,
        attack=sim.AttackConfig(enabled=True),
    )


def test_criterion_01_annulus_width_fixed_at_one_ta_step():
    for ta in range(1, tb.TA_MAX + 1):
        ring = annulus_from_ta(Position(0.0, 0.0), ta)
        assert abs((ring.r_outer - ring.r_inner) - 78.071) <= 0.001


def test_criterion_02_quantization_error_bounds():
    rng = np.random.default_rng(2)
    delays = rng.integers(0, tb.m_to_ps(5000.0) + 1, size=10**6)
    worst = 0
    for one_way in delays.tolist():
        ta = tb.quantize_ta(2 * one_way)
        eps = tb.epsilon_of(one_way, ta)
        worst = max(worst, abs(eps))
    assert worst <= 130_210          # |epsilon| <= 0.13021 us
    assert 2 * worst <= 260_420      # residual after both halves


def test_criterion_03_timing_advance_cancels_in_sum_delay():
    rng = np.random.default_rng(3)
    ue = rng.integers(0, tb.m_to_ps(5000.0) + 1, size=10**5).tolist()
    probe = rng.integers(0, tb.m_to_ps(5000.0) + 1, size=10**5).tolist()
    frames = rng.integers(0, 10**7, size=10**5).tolist()
    for d_ue, d_probe, n in zip(ue, probe, frames):
        t_n = int(n) * tb.PS_PER_SUBFRAME
        ta = tb.quantize_ta(2 * d_ue)
        toa = tb.uplink_toa(t_n, d_ue, d_probe, ta)
        assert tb.sum_delay(toa, t_n, ta) == d_ue + d_probe


def test_criterion_04_intersection_matches_brute_force_grid():
    rng = np.random.default_rng(4)
    for _ in range(1000):
        annulus, ellipse = random_config(rng)
        arcs = intersect(annulus, ellipse)
        cell_gap, mid_gap = agreement_gaps(annulus, ellipse, arcs)
        assert cell_gap <= 2.0
        assert mid_gap <= 2.0


def test_criterion_05_noiseless_replication_submillimetre():
    scn = sim.load_scenario(SCENARIO_PATH)
    scn = dataclasses.replace(
        scn, noise=sim.NoiseModel(toa_sigma_ps=0, hw_bias=True))
    ctx = pipeline.run_pipeline(scn)
    assert ctx.stats_rows
    seen = set()
    for row in ctx.stats_rows:
        assert abs(row["err_corr_m"]) < 1e-3
        seen.add(round(tb.ps_to_m(row["true_sum_ps"]) / 2, 1))
    assert seen == set(BENCH_DISTANCES_M)


def test_criterion_06_noisy_replication_error_quantiles():
    ctx = pipeline.run_pipeline(sim.load_scenario(SCENARIO_PATH))
    by_model = {}
    for row in ctx.stats_rows:
        by_model.setdefault(row["model"], []).append(abs(row["err_corr_m"]))
    assert set(by_model) == set(BENCH_PHONES)
    for model, errs in by_model.items():
        p90 = float(np.percentile(errs, 90.0))
        assert 4.0 <= p90 <= 8.0, f"{model}: p90 {p90:.3f} m"
    pooled = float(np.median([e for errs in by_model.values()
                              for e in errs]))
    assert 1.0 <= pooled <= 3.0


def test_criterion_07_hardware_bias_recovery():
    rng = np.random.default_rng(7)
    bias = hw_error("Huawei P30", FingerprintDb.default())
    assert -25.0 < bias < -24.0
    true = rng.uniform(50.0, 800.0, size=36)
    estimated = true + bias + rng.normal(0.0, 2.0, size=36)
    recovered = estimate_hw_error(estimated.tolist(), true.tolist())
    assert abs(recovered - bias) <= 1.0
    rms_raw = float(np.sqrt(np.mean((estimated - true) ** 2)))
    corrected = estimated - recovered
    rms_corr = float(np.sqrt(np.mean((corrected - true) ** 2)))
    assert rms_raw - rms_corr >= 20.0


def test_criterion_08_identity_extraction_device_matrix():
    attach = sim.run(_matrix_scenario("attach"))
    expected = {f"001010000001{i:03d}" for i in range(len(MATRIX_PHONES))}
    assert set(attach.attacker_pairs.values()) == expected
    assert len(attach.attacker_pairs) == len(MATRIX_PHONES)

    service = sim.run(_matrix_scenario("service"))
    got = set(service.attacker_pairs.values())
    silent = MATRIX_PHONES.index("iPhone 7")
    assert got == expected - {f"001010000001{silent:03d}"}
    assert len(service.attacker_pairs) == len(MATRIX_PHONES) - 1


def test_criterion_09_ta_resend_artifact_and_gating():
    total_s = 240
    waypoints = tuple((k * 10**12, Position(680.0 if k % 2 else 600.0, 0.0))
                      for k in range(total_s + 1))
    ue = sim.UeProfile(model="Huawei P30", waypoints=waypoints,
                       reconnect_rate=0.25, n_data_rounds=59_000,
                       ta_interval=32)
    scn = sim.Scenario(
        enbs=(sim.Enb("enb0", Position(0.0, 0.0)),),
        probes=(sim.Probe("probe0", Position(0.0, 0.0)),),
        ues=(ue,),
        duration_ps=total_s * 10**12,
        seed=11,
        noise=ZERO_NOISE,
        faults=sim.FaultModel(ta_resend_prob=0.1),
    )
    result = sim.run(scn)
    resends = list(result.connections[0].ta_resend_sfs)
    assert len(resends) >= 10

    # An ungated probe applies both copies of a re-sent command while the
    # phone applies one, so each resend should leave a persistent offset of
    # exactly one timing-advance step (the integer span differs by 1 ps
    # between neighbouring indices, hence the two accepted values).
    errors = _errors_by_subframe(result, _measurements(result))
    step_sizes = {520_833, 520_834}
    hits = 0
    for rx_sf in resends:
        before = [err for sf, err in errors.items()
                  if rx_sf - 88 <= sf <= rx_sf - 9]
        after = [err for sf, err in errors.items()
                 if rx_sf + 9 <= sf <= rx_sf + 89]
        delta = abs(np.median(after) - np.median(before))
        if round(delta) in step_sizes:
            hits += 1
    assert hits >= math.ceil(0.95 * len(resends))

    gated = _errors_by_subframe(result, _measurements(result,
                                                      ack_gating=True))
    assert gated and all(err == 0 for err in gated.values())


def test_criterion_10_outlier_removal_bookkeeping():
    rng = np.random.default_rng(10)
    corrupted = {11, 57, 120, 171}
    removed = 0
    for conn in range(186):
        base = 3_300_000 + 1_000 * conn
        meas = [base + (1_000 if k % 2 else -1_000) for k in range(14)]
        if conn in corrupted:
            meas[int(rng.integers(0, len(meas)))] += 50_000
        stats = connection_stats(meas)
        assert stats is not None
        removed += stats.n_outliers_removed
    assert removed == len(corrupted)


def test_criterion_11_codec_fuzz_and_round_trip():
    rng = np.random.default_rng(11)
    pyrng = random.Random(11)
    pool = [messages.encode(_random_message(pyrng)) for _ in range(2000)]
    n_blobs = 500_000

    # The fuzz inputs are drawn in bulk: blob lengths uniform on [0, 64]
    # and their bytes, then pool picks, 1-3 mutations per pick, and the
    # position (uniform over the picked blob) and new byte of each.
    decoded = 0
    rejected = 0
    ends = np.cumsum(rng.integers(0, 65, n_blobs)).tolist()
    data = rng.bytes(ends[-1])
    start = 0
    for end in ends:
        try:
            messages.decode(data[start:end])
            decoded += 1
        except messages.DecodeError:
            rejected += 1
        start = end
    picks = rng.integers(0, len(pool), n_blobs)
    counts = rng.integers(1, 4, n_blobs)
    sizes = np.array([len(blob) for blob in pool])[picks.repeat(counts)]
    positions = iter(rng.integers(0, sizes).tolist())
    values = iter(rng.integers(0, 256, sizes.size).tolist())
    for pick, count in zip(picks.tolist(), counts.tolist()):
        blob = bytearray(pool[pick])
        for _ in range(count):
            blob[next(positions)] = next(values)
        try:
            messages.decode(bytes(blob))
            decoded += 1
        except messages.DecodeError:
            rejected += 1
    assert decoded + rejected == 10**6

    for _ in range(10**5):
        msg = _random_message(pyrng)
        assert messages.decode(messages.encode(msg)) == msg


def test_criterion_12_rerun_byte_identical(tmp_path):
    first = tmp_path / "first"
    second = tmp_path / "second"
    for out_dir in (first, second):
        assert cli.cmd_run(SCENARIO_PATH, str(out_dir)) == 0
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in second.iterdir())
    match, mismatch, errors = filecmp.cmpfiles(first, second, names,
                                               shallow=False)
    assert sorted(match) == names
    assert not mismatch and not errors
