"""Phone-model classification from capability vectors, with hardware bias.

Real capability information elements are not public, so the shipped
database uses synthetic 256-bit vectors with a documented block layout:
each modem family sets one contiguous block of bits, and every model
additionally flips one private bit in the tail region. Within a family
any two models are therefore Hamming distance 2 apart; across families
at least 16; the Intel family block is four times wider so those phones
sit far from everything else, which is how the real capability data
behaves for iPhones.

Hardware ranging bias per model rides along in the same database: the
simulator adds it to true distances, the corrector subtracts it.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from importlib import resources
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .messages import CAPABILITY_BYTES, CapabilityVector

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
    """Deterministic capability vector for a database row."""
    bits = bytearray(CAPABILITY_BYTES)

    def flip(i: int) -> None:
        bits[i // 8] ^= 1 << (7 - i % 8)

    for i in _FAMILY_BITS[family_of(model, modem)]:
        flip(i)
    flip(_MODEL_BIT_BASE + model_index)
    return CapabilityVector(bytes(bits))


@dataclass(frozen=True)
class PhoneEntry:
    model: str
    modem: str
    capabilities: CapabilityVector
    hw_error_m: Optional[float]
    hw_error_std_m: Optional[float]


class HwErrorUnavailable(LookupError):
    """No usable hardware error: unknown model or an unmeasured table row.

    Callers should fall back to uncorrected distances.
    """


class ClassifyResult(NamedTuple):
    model: str
    distance: int
    tie: bool


class FingerprintDb:
    """Read-only model database; one capability exemplar per model."""

    def __init__(self, entries: Sequence[PhoneEntry]):
        if not entries:
            raise ValueError("empty fingerprint database")
        self.entries: dict[str, PhoneEntry] = {}
        for e in entries:
            if e.model in self.entries:
                raise ValueError(f"duplicate model {e.model!r}")
            self.entries[e.model] = e

    @classmethod
    def load(cls, path) -> "FingerprintDb":
        with open(path, newline="") as fh:
            return cls._from_rows(csv.DictReader(fh))

    @classmethod
    def default(cls) -> "FingerprintDb":
        ref = resources.files("tatrack").joinpath("data/phones.csv")
        with ref.open(newline="") as fh:
            return cls._from_rows(csv.DictReader(fh))

    @classmethod
    def _from_rows(cls, rows) -> "FingerprintDb":
        entries = []
        for row in rows:
            hw = row["hw_error_m"].strip()
            std = row["hw_error_std_m"].strip()
            entries.append(PhoneEntry(
                model=row["model"],
                modem=row["modem"],
                capabilities=CapabilityVector.from_hex(row["capability_hex"]),
                hw_error_m=float(hw) if hw else None,
                hw_error_std_m=float(std) if std else None,
            ))
        return cls(entries)


def classify(v: CapabilityVector, db: FingerprintDb) -> ClassifyResult:
    """Nearest database entry by Hamming distance.

    Ties go to the lexicographically smallest model name, with the tie
    flag set so callers can treat the label as uncertain.
    """
    best: list[str] = []
    best_d = None
    for entry in db.entries.values():
        d = v.hamming(entry.capabilities)
        if best_d is None or d < best_d:
            best, best_d = [entry.model], d
        elif d == best_d:
            best.append(entry.model)
    return ClassifyResult(min(best), best_d, len(best) > 1)


def hw_error(model: str, db: FingerprintDb) -> float:
    """Table bias for a model; raises HwErrorUnavailable to force fallback."""
    entry = db.entries.get(model)
    if entry is None:
        raise HwErrorUnavailable(f"model {model!r} not in database")
    if entry.hw_error_m is None:
        raise HwErrorUnavailable(f"model {model!r} has no measured bias")
    return entry.hw_error_m


def estimate_hw_error(estimated: Sequence[float],
                      actual: Sequence[float]) -> float:
    """Mean difference between estimated and actual distances."""
    if len(estimated) != len(actual) or not estimated:
        raise ValueError("need equal-length nonempty sequences")
    return float(np.mean(np.asarray(estimated) - np.asarray(actual)))
