"""Scenario files for the benchmark workloads, made from a seed.

Each function returns a scenario as the plain dict that ``tatrack run``
reads from JSON; the same seed always gives the same dict. The crowd
layout is fixed, so that every run measures the same geometry, and the
seed only draws walking headings. Drive phones move radially, so the seed
can draw their bearings and start ranges without changing the work.
Repetitions then override the scenario seed, which draws the timing noise
and the injected faults.
"""

import math
import random

#: The 17-phone device matrix of the paper's identity-extraction test.
MATRIX_PHONES = (
    "Samsung Galaxy s10", "Samsung Galaxy a8", "Huawei P20 Pro",
    "Huawei P30 Lite", "Huawei P30", "Xiaomi Mi9", "Xiaomi MiX 3",
    "Google Nexus 5X", "Google Pixel 2", "Google Pixel 3a", "HTC U12+",
    "OnePlus 7T", "iPhone 7", "iPhone 8", "iPhone X", "iPhone 11",
    "iPhone 11 Pro",
)

#: A phone that ignores identity requests after a service request.
SILENT_AFTER_SERVICE = "iPhone 7"

DRIVE_PHONES = ("Huawei P30", "iPhone X", "Google Pixel 2", "Xiaomi Mi9")

PS_PER_S = 10**12

#: Ground distance of one timing-advance ring, c * 8 Ts, in metres.
RING_M = 299_792_458 / 3_840_000

CROWD_DURATION_S = 6.0
CROWD_RECONNECT_PER_MIN = 30.0   # three connections per phone
CROWD_ROUNDS = 160
CROWD_SNIFFER_RANGE_M = 120.0
#: Phones stay outside the sniffers' circle: nearer the eNodeB than a
#: sniffer, a phone can stand close to their baseline, where its biased
#: delay sum falls below the focal distance and the ellipse is dropped.
CROWD_PHONE_RANGE_M = (240.0, 440.0)
WALK_M_PER_S = 1.4

DRIVE_DURATION_S = 23.0
DRIVE_RECONNECT_PER_MIN = 5.0    # two connections per phone
DRIVE_ROUNDS = 2500              # ten seconds of data rounds
DRIVE_LEG_S = 8.0


def _point(r_m: float, angle: float) -> list:
    return [r_m * math.cos(angle), r_m * math.sin(angle)]


def _scenario(probes, ues, duration_s: float, seed: int) -> dict:
    return {
        "enbs": [{"id": "enb0", "position": [0.0, 0.0]}],
        "probes": probes,
        "ues": ues,
        "duration_ps": round(duration_s * PS_PER_S),
        "seed": seed,
    }


def crowd(seed: int) -> dict:
    """17 phones walking around one eNodeB, three sniffers, extractor on.

    The sniffers stand 120 m from the eNodeB, 120 degrees apart. Phones
    stand on evenly spaced bearings at 240-440 m and walk in a seeded
    direction. Every third phone sends service requests and the rest
    attach; one service phone stays silent after the identity request.
    Each connection runs ``CROWD_ROUNDS`` data rounds, so the sniffers'
    connection tables see long event streams over many records.
    """
    rng = random.Random(seed)
    probes = [{"id": f"probe{k}",
               "position": _point(CROWD_SNIFFER_RANGE_M,
                                  math.radians(90 + 120 * k)),
               "role": "both"} for k in range(3)]
    lo, hi = CROWD_PHONE_RANGE_M
    n = len(MATRIX_PHONES)
    ues = []
    for i, model in enumerate(MATRIX_PHONES):
        r = lo + (hi - lo) * ((7 * i) % n) / (n - 1)
        start = _point(r, 2 * math.pi * (i + 0.5) / n)
        heading = rng.uniform(0, 2 * math.pi)
        walk_m = WALK_M_PER_S * CROWD_DURATION_S
        end = [start[0] + walk_m * math.cos(heading),
               start[1] + walk_m * math.sin(heading)]
        ues.append({
            "model": model,
            "waypoints": [[0, start],
                          [round(CROWD_DURATION_S * PS_PER_S), end]],
            "reconnect_rate": CROWD_RECONNECT_PER_MIN,
            "connection_type": "service" if i % 3 == 0 else "attach",
            "answers_identity_after_service_request":
                model != SILENT_AFTER_SERVICE,
            "imsi": f"001010000002{i:03d}",
            "tmsi": 0xC100_0000 + i,
            "n_data_rounds": CROWD_ROUNDS,
        })
    scenario = _scenario(probes, ues, CROWD_DURATION_S, seed)
    scenario["attack"] = {"enabled": True, "policy_mode": "all"}
    return scenario


def drive(seed: int) -> dict:
    """A few phones driving radially on long connections, one sniffer.

    The sniffer shares the eNodeB's site. Each phone drives out and back
    along a seeded bearing at one timing-advance ring per second, so TA
    maintenance (every 32 subframes) sends a command about once a
    second. TA resends and grant losses are on; the time of arrival is
    noiseless, so every delay sum must come out exact.
    """
    rng = random.Random(seed)
    ues = []
    for model in DRIVE_PHONES:
        angle = rng.uniform(0, 2 * math.pi)
        r_lo = rng.uniform(200.0, 400.0)
        r_hi = r_lo + RING_M * DRIVE_LEG_S
        legs = math.ceil(DRIVE_DURATION_S / DRIVE_LEG_S)
        waypoints = [[round(k * DRIVE_LEG_S * PS_PER_S),
                      _point(r_hi if k % 2 else r_lo, angle)]
                     for k in range(legs + 1)]
        ues.append({
            "model": model,
            "waypoints": waypoints,
            "reconnect_rate": DRIVE_RECONNECT_PER_MIN,
            "n_data_rounds": DRIVE_ROUNDS,
            "ta_interval": 32,
        })
    scenario = _scenario([{"id": "probe0", "position": [0.0, 0.0],
                           "role": "both"}], ues, DRIVE_DURATION_S, seed)
    scenario["noise"] = {"toa_sigma_ps": 0, "hw_bias": True}
    scenario["faults"] = {"ta_resend_prob": 0.1, "grant_loss_prob": 0.02}
    return scenario
