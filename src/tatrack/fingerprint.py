"""Phone-model classification from capability vectors, with hardware bias.

Real capability information elements are not public, so the shipped
database (``data/phones.csv``, one hex vector per row) uses synthetic
256-bit vectors with a documented block layout: each modem family sets
one contiguous block of bits (Huawei 0-15, Samsung 16-31, older Qualcomm
32-47, recent Qualcomm 32-63, Intel 80-143), and the model in row i
additionally flips bit 192 + i of the tail region. Within a family any
two models are therefore Hamming distance 2 apart; across families at
least 16; the Intel family block is four times wider so those phones
sit far from everything else, which is how the real capability data
behaves for iPhones. The OnePlus 7T carries a recent Qualcomm modem but
is pinned to the older Qualcomm block on purpose.

Hardware ranging bias per model rides along in the same database: the
simulator adds it to true distances, the corrector subtracts it.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from importlib import resources
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .messages import CapabilityVector


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
        #: (model, capability bits as one integer), in entry order.
        self.vectors = tuple((e.model, e.capabilities.as_int())
                             for e in self.entries.values())

    @classmethod
    def default(cls) -> "FingerprintDb":
        """The shipped database, ``data/phones.csv``."""
        entries = []
        ref = resources.files("tatrack").joinpath("data/phones.csv")
        with ref.open(newline="") as fh:
            for row in csv.DictReader(fh):
                hw = row["hw_error_m"].strip()
                std = row["hw_error_std_m"].strip()
                entries.append(PhoneEntry(
                    model=row["model"],
                    modem=row["modem"],
                    capabilities=CapabilityVector.from_hex(
                        row["capability_hex"]),
                    hw_error_m=float(hw) if hw else None,
                    hw_error_std_m=float(std) if std else None,
                ))
        return cls(entries)


def classify(v: CapabilityVector, db: FingerprintDb) -> ClassifyResult:
    """Nearest database entry by Hamming distance.

    Each distance is one popcount of the XOR of two 256-bit integers.
    Ties go to the lexicographically smallest model name, with the tie
    flag set so callers can treat the label as uncertain.
    """
    bits = v.as_int()
    best: list[str] = []
    best_d = None
    for model, entry_bits in db.vectors:
        d = (bits ^ entry_bits).bit_count()
        if best_d is None or d < best_d:
            best, best_d = [model], d
        elif d == best_d:
            best.append(model)
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
    """Mean difference between estimated and actual distances.

    This is the paper's estimator of a model's hardware bias. No stage
    calls it, since runs read the bias from the database; it stays so that
    ``test_estimate_hw_error_arithmetic`` can reproduce the estimator.
    """
    if len(estimated) != len(actual) or not estimated:
        raise ValueError("need equal-length nonempty sequences")
    return float(np.mean(np.asarray(estimated) - np.asarray(actual)))
