"""Common detector interface.

Every detector in this package consumes a stream of prediction bits
(1 = the classifier was correct, 0 = it was wrong) one instance at a
time and answers with a :class:`Verdict`.  Detectors that internally
monitor errors rather than successes take the complement themselves,
so callers never have to remember which convention a method uses.

A detector implements :meth:`DriftDetector.scan` alone; ``step`` is a
scan of one bit, and the read-only ``warning`` says whether the last
bit consumed drew a Warning.

A detector instance is single-stream mutable state: it may be handed
from thread to thread, and many instances can run in parallel on
independent streams, but stepping one instance concurrently is not
supported.
"""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod
from typing import Iterable, Optional

import numpy as np


# The one block size of the scan path: the longest slice drift_points
# hands to one scan, the longest prequential block, and the most windows
# one MDDM block evaluates.
_SCAN_SLICE = 4096


class Verdict(enum.Enum):
    """Outcome of feeding one prediction bit to a detector."""

    NO_CHANGE = "no_change"
    WARNING = "warning"
    DRIFT = "drift"


def bit_list(bits: Iterable) -> Iterable:
    """``bits`` for a per-bit loop; an ndarray's list reads several times faster."""
    return bits.tolist() if isinstance(bits, np.ndarray) else bits


class DriftDetector(ABC):
    """Base class for prediction-bit drift detectors."""

    warning: bool = False

    @abstractmethod
    def reset(self) -> None:
        """Return to the freshly constructed state."""

    @abstractmethod
    def scan(self, bits: Iterable) -> Optional[int]:
        """Feed ``bits`` (truthy = correct) until the first Drift verdict.

        Returns the index (within ``bits``) of the bit that triggered
        the drift, or None if the whole sequence was consumed without
        one.  State advances exactly as far as the bits consumed, so a
        caller can resume with the remaining bits.
        """

    def step(self, bit) -> Verdict:
        """Consume one prediction bit: a scan of one bit."""
        if self.scan((bit,)) == 0:
            return Verdict.DRIFT
        return Verdict.WARNING if self.warning else Verdict.NO_CHANGE

    def drift_points(self, bits: Iterable) -> list[int]:
        """Indices of every Drift verdict over a full bit sequence.

        Each ``scan`` gets at most ``_SCAN_SLICE`` bits, so a per-bit
        loop does not convert the whole remainder once per alarm.
        """
        bits = bits if isinstance(bits, np.ndarray) else list(bits)  # read once
        out = []
        start = 0
        while start < len(bits):
            hit = self.scan(bits[start:start + _SCAN_SLICE])
            if hit is None:
                start += _SCAN_SLICE
            else:
                out.append(start + hit)
                start += hit + 1
        return out
