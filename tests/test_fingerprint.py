"""Database integrity, classification and hardware bias."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tatrack import fingerprint as fp
from tatrack.messages import CAPABILITY_BYTES, CapabilityVector


#: First bit index of the per-model flip region.
_MODEL_BIT_BASE = 192

#: Bit blocks set by each modem family base pattern.
_FAMILY_BITS = {
    "huawei": range(0, 16),
    "samsung": range(16, 32),
    "qualcomm_old": range(32, 48),
    "qualcomm_recent": range(32, 64),
    "intel": range(80, 144),
}


def family_of(model: str, modem: str) -> str:
    """Modem family for the synthetic capability construction.

    The OnePlus 7T carries a recent Qualcomm modem but its capability
    vector clusters with the older Qualcomm models; it is pinned there
    on purpose.
    """
    if model == "OnePlus 7T":
        return "qualcomm_old"
    if modem.startswith("Kirin"):
        return "huawei"
    if modem.startswith("Exynos"):
        return "samsung"
    if modem.startswith("Intel"):
        return "intel"
    if modem == "Qcom. X24 LTE":
        return "qualcomm_recent"
    return "qualcomm_old"


def synthetic_capability(model: str, modem: str,
                         model_index: int) -> CapabilityVector:
    """The documented capability vector of a database row."""
    bits = bytearray(CAPABILITY_BYTES)

    def flip(i: int) -> None:
        bits[i // 8] ^= 1 << (7 - i % 8)

    for i in _FAMILY_BITS[family_of(model, modem)]:
        flip(i)
    flip(_MODEL_BIT_BASE + model_index)
    return CapabilityVector(bytes(bits))


@pytest.fixture(scope="module")
def db():
    return fp.FingerprintDb.default()


def _xor(a: CapabilityVector, b: CapabilityVector) -> bytes:
    return bytes(x ^ y for x, y in zip(a.bits, b.bits))


# -- database ----------------------------------------------------------------

def test_db_has_22_models(db):
    assert len(db.entries) == 22


def test_frozen_hw_errors(db):
    assert fp.hw_error("Huawei P30", db) == -24.51
    assert fp.hw_error("Xiaomi Mi9", db) == 10.44
    assert fp.hw_error("iPhone 8", db) == -23.65


def test_unmeasured_and_unknown_models_raise(db):
    for model in ("Samsung Galaxy s5", "Nokia 1.3", "Fairphone 3"):
        with pytest.raises(fp.HwErrorUnavailable):
            fp.hw_error(model, db)


def _modem_disagreements(db: fp.FingerprintDb) -> list:
    """Same-modem pairs whose hw_error gap exceeds their summed stds."""
    by_modem: dict = {}
    for e in db.entries.values():
        if e.hw_error_m is not None:
            by_modem.setdefault(e.modem, []).append(e)
    out = []
    for modem, group in by_modem.items():
        for i, a in enumerate(group):
            for b in group[i + 1:]:
                gap = abs(a.hw_error_m - b.hw_error_m)
                if gap > a.hw_error_std_m + b.hw_error_std_m:
                    out.append((modem, a.model, b.model, round(gap, 2)))
    return out


def test_modem_consistency_check(db):
    assert _modem_disagreements(db) == []  # shipped data must pass

    doctored = fp.FingerprintDb([
        fp.PhoneEntry("A", "shared", CapabilityVector(bytes(32)), 0.0, 1.0),
        fp.PhoneEntry("B", "shared",
                      CapabilityVector(b"\x01" + bytes(31)), 10.0, 1.0),
    ])
    assert _modem_disagreements(doctored) == [("shared", "A", "B", 10.0)]


def test_capabilities_match_documented_construction(db):
    for i, entry in enumerate(db.entries.values()):
        expected = synthetic_capability(entry.model, entry.modem, i)
        assert entry.capabilities == expected, entry.model


def test_family_hamming_structure(db):
    entries = list(db.entries.values())
    fams = {e.model: family_of(e.model, e.modem) for e in entries}
    for i in range(len(entries)):
        for j in range(i + 1, len(entries)):
            a, b = entries[i], entries[j]
            d = a.capabilities.hamming(b.capabilities)
            if fams[a.model] == fams[b.model]:
                assert 1 <= d <= 3, (a.model, b.model, d)
            else:
                assert d >= 8, (a.model, b.model, d)
            if "intel" in (fams[a.model], fams[b.model]) \
                    and fams[a.model] != fams[b.model]:
                assert d >= 64  # iPhones sit far from everything else


# -- classification ----------------------------------------------------------

def test_classify_exact_vector(db):
    entry = db.entries["Google Pixel 2"]
    model, distance, tie = fp.classify(entry.capabilities, db)
    assert (model, distance, tie) == ("Google Pixel 2", 0, False)


def test_classify_same_modem_pair_is_close_but_distinct(db):
    mi9 = db.entries["Xiaomi Mi9"].capabilities
    mix3 = db.entries["Xiaomi MiX 3"].capabilities
    assert 0 < mi9.hamming(mix3) <= 3
    assert fp.classify(mi9, db).model == "Xiaomi Mi9"
    assert fp.classify(mix3, db).model == "Xiaomi MiX 3"


def test_classify_tie_flag(db):
    mi9 = db.entries["Xiaomi Mi9"].capabilities
    mix3 = db.entries["Xiaomi MiX 3"].capabilities
    # Union of both model bits: equidistant from the two Xiaomi entries.
    both = CapabilityVector(bytes(x | y for x, y in zip(mi9.bits, mix3.bits)))
    result = fp.classify(both, db)
    assert result.tie
    assert result.model == "Xiaomi Mi9"  # lexicographic winner
    assert result.distance == 1


def test_classify_order_invariant(db):
    entries = list(db.entries.values())
    shuffled = fp.FingerprintDb(entries[::-1])
    probe = db.entries["HTC U12+"].capabilities
    assert fp.classify(probe, db) == fp.classify(probe, shuffled)


def _bytewise_hamming(a: CapabilityVector, b: CapabilityVector) -> int:
    return sum(bin(x).count("1") for x in _xor(a, b))


def _reference_classify(v: CapabilityVector, db) -> tuple:
    """Nearest model by per-byte Hamming sum, ties to the smallest name."""
    distance = {model: _bytewise_hamming(v, entry.capabilities)
                for model, entry in db.entries.items()}
    best = min(distance.values())
    nearest = sorted(m for m, d in distance.items() if d == best)
    return nearest[0], best, len(nearest) > 1


_vectors = st.binary(min_size=CAPABILITY_BYTES, max_size=CAPABILITY_BYTES)


@given(_vectors, _vectors)
def test_hamming_popcount_equals_the_bytewise_sum(a, b):
    a, b = CapabilityVector(a), CapabilityVector(b)
    assert a.hamming(b) == _bytewise_hamming(a, b)


def test_classify_matches_a_bytewise_reference(db):
    rng = random.Random(19)
    for entry in db.entries.values():
        vectors = [entry.capabilities]
        for _ in range(30):
            bits = bytearray(entry.capabilities.bits)
            for i in rng.sample(range(8 * CAPABILITY_BYTES),
                                rng.randint(1, 3)):
                bits[i // 8] ^= 1 << (7 - i % 8)
            vectors.append(CapabilityVector(bytes(bits)))
        for v in vectors:
            assert tuple(fp.classify(v, db)) == _reference_classify(v, db)


# -- bias estimation ---------------------------------------------------------

def test_estimate_hw_error_arithmetic():
    actual = [5.0, 10.0, 20.0]
    assert fp.estimate_hw_error(actual, actual) == 0.0
    shifted = [a + 10.44 for a in actual]
    assert math.isclose(fp.estimate_hw_error(shifted, actual), 10.44)
    with pytest.raises(ValueError):
        fp.estimate_hw_error([1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        fp.estimate_hw_error([], [])


def test_estimate_recovers_p30_bias_under_noise():
    rng = np.random.default_rng(30)
    actual = rng.uniform(0, 60, size=36)
    estimated = actual - 24.51 + rng.normal(0, 2.0, size=36)
    est = fp.estimate_hw_error(list(estimated), list(actual))
    assert abs(est - (-24.51)) < 1.0


def test_correction_reduces_rms_when_bias_dominates(db):
    rng = np.random.default_rng(31)
    bias = fp.hw_error("Huawei P30", db)
    actual = rng.uniform(0, 60, size=100)
    noisy = actual + bias + rng.normal(0, 2.0, size=100)
    rms_before = float(np.sqrt(np.mean((noisy - actual) ** 2)))
    corrected = noisy - bias
    rms_after = float(np.sqrt(np.mean((corrected - actual) ** 2)))
    assert rms_after < rms_before
