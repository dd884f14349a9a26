"""Database integrity, classification and hardware bias."""

import math

import numpy as np
import pytest

from tatrack import fingerprint as fp
from tatrack.messages import CapabilityVector


@pytest.fixture(scope="module")
def db():
    return fp.FingerprintDb.default()


def _xor(a: CapabilityVector, b: CapabilityVector) -> bytes:
    return bytes(x ^ y for x, y in zip(a.bits, b.bits))


# -- database ----------------------------------------------------------------

def test_db_has_22_models(db):
    assert len(db) == 22


def test_frozen_hw_errors(db):
    assert fp.hw_error("Huawei P30", db) == -24.51
    assert fp.hw_error("Xiaomi Mi9", db) == 10.44
    assert fp.hw_error("iPhone 8", db) == -23.65


def test_unmeasured_and_unknown_models_raise(db):
    for model in ("Samsung Galaxy s5", "Nokia 1.3", "Fairphone 3"):
        with pytest.raises(fp.HwErrorUnavailable):
            fp.hw_error(model, db)


def test_modem_consistency_check(db):
    db.check_modem_consistency()  # shipped data must pass

    doctored = fp.FingerprintDb([
        fp.PhoneEntry("A", "shared", CapabilityVector(bytes(32)), 0.0, 1.0),
        fp.PhoneEntry("B", "shared",
                      CapabilityVector(b"\x01" + bytes(31)), 10.0, 1.0),
    ])
    with pytest.raises(ValueError):
        doctored.check_modem_consistency()


def test_capabilities_match_documented_construction(db):
    for i, entry in enumerate(db.entries.values()):
        expected = fp.synthetic_capability(entry.model, entry.modem, i)
        assert entry.capabilities == expected, entry.model


def test_family_hamming_structure(db):
    entries = list(db.entries.values())
    fams = {e.model: fp.family_of(e.model, e.modem) for e in entries}
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
