"""Classic drift detectors used as comparison baselines.

All of them consume the same prediction-bit convention as the rest of
the package (1 = correct prediction) and complement internally where
the underlying method monitors errors.  Except for ADWIN, which sheds
old window content, and RDDM, which rebuilds its statistics from a
stored recent segment, a detector that just signalled Drift is in the
same state as a freshly constructed one.

Method origins: CUSUM and Page-Hinkley go back to Page (1954); DDM is
Gama et al. (2004); EDDM is Baena-Garcia et al. (2006); RDDM is Barros
et al. (2017); ADWIN is Bifet & Gavalda (2007).
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

from .base import DriftDetector, Verdict

try:
    from numba import njit as _njit
except ImportError:  # pragma: no cover - numba is a declared dependency
    _njit = None


class CUSUM(DriftDetector):
    """One-sided cumulative-sum test on the error indicator.

    Follows the standard stream-mining form: the running error mean is
    updated first and g accumulates max(0, g + error - mean - slack), so
    a stable error rate keeps g near zero and only an increase above the
    historical mean builds toward ``threshold``.  Verdicts are held back
    for the first ``min_instances`` observations.  Lower slack detects
    faster at the price of more false alarms.  Never emits WARNING.
    """

    name = "cusum"

    def __init__(self, slack: float = 0.005, threshold: float = 50.0,
                 min_instances: int = 30):
        if threshold <= 0:
            raise ValueError(f"threshold must be positive, got {threshold}")
        self.slack = float(slack)
        self.threshold = float(threshold)
        self.min_instances = int(min_instances)
        self.reset()

    def reset(self) -> None:
        self.count = 0
        self.mean = 0.0
        self.g = 0.0

    def step(self, bit) -> Verdict:
        error = 0.0 if bit else 1.0
        self.count += 1
        self.mean += (error - self.mean) / self.count
        self.g = max(0.0, self.g + (error - self.mean - self.slack))
        if self.count >= self.min_instances and self.g > self.threshold:
            self.reset()
            return Verdict.DRIFT
        return Verdict.NO_CHANGE


class PageHinkley(DriftDetector):
    """Page-Hinkley test on the error indicator.

    Tracks the cumulative difference between observations and their
    running mean (minus a slack), keeps the minimum of that cumulative
    statistic, and alarms when the statistic rises more than
    ``threshold`` above its minimum.  Never emits WARNING.
    """

    name = "page_hinkley"

    def __init__(self, slack: float = 0.005, threshold: float = 50.0):
        if threshold <= 0:
            raise ValueError(f"threshold must be positive, got {threshold}")
        self.slack = float(slack)
        self.threshold = float(threshold)
        self.reset()

    def reset(self) -> None:
        self.count = 0
        self.mean = 0.0
        self.cumulative = 0.0
        self.minimum = math.inf

    def step(self, bit) -> Verdict:
        x = 0.0 if bit else 1.0
        self.count += 1
        self.mean += (x - self.mean) / self.count
        self.cumulative += x - self.mean - self.slack
        if self.cumulative < self.minimum:
            self.minimum = self.cumulative
        if self.cumulative - self.minimum > self.threshold:
            self.reset()
            return Verdict.DRIFT
        return Verdict.NO_CHANGE


# Looked up once: reading a member off an Enum class costs about 150 ns in
# CPython 3.11, a large share of a DDM or RDDM step.
_NO_CHANGE, _WARNING, _DRIFT = Verdict.NO_CHANGE, Verdict.WARNING, Verdict.DRIFT


class DDM(DriftDetector):
    """Error-rate drift detector with warning and drift levels.

    Monitors the running error rate p and its binomial deviation
    s = sqrt(p (1 - p) / t), records the minimum of p + s, and compares
    the current p + s against p_min + k * s_min.  Verdicts are
    suppressed for the first ``min_instances`` observations so the
    early statistics cannot alarm degenerately.
    """

    name = "ddm"

    def __init__(self, warning_level: float = 2.0, drift_level: float = 3.0,
                 min_instances: int = 30):
        if warning_level >= drift_level:
            raise ValueError(
                f"warning level ({warning_level}) must be below drift level "
                f"({drift_level})")
        self.warning_level = float(warning_level)
        self.drift_level = float(drift_level)
        self.min_instances = int(min_instances)
        self.reset()

    def reset(self) -> None:
        self.count = 0
        self.p = 1.0
        self.s = 0.0
        self.p_min = math.inf
        self.s_min = math.inf

    def _update(self, error: float) -> None:
        count = self.count + 1
        p = self.p + (error - self.p) / count
        self.count, self.p, self.s = count, p, math.sqrt(p * (1.0 - p) / count)

    def _level_test(self) -> Verdict:
        """Record a new minimum of p + s and compare p + s to the levels."""
        level = self.p + self.s
        if level < self.p_min + self.s_min:
            self.p_min, self.s_min = self.p, self.s
        p_min, s_min = self.p_min, self.s_min
        # Drift is evaluated before warning so one step never reports both.
        if level > p_min + self.drift_level * s_min:
            return _DRIFT
        if level > p_min + self.warning_level * s_min:
            return _WARNING
        return _NO_CHANGE

    def step(self, bit) -> Verdict:
        self._update(0.0 if bit else 1.0)
        if self.count < self.min_instances:
            return _NO_CHANGE
        verdict = self._level_test()
        if verdict is _DRIFT:
            self.reset()
        return verdict


class EDDM(DriftDetector):
    """Drift detector on the distance between consecutive errors.

    Maintains the running mean p' and population deviation s' of the
    gaps between wrong predictions and compares p' + 2 s' against the
    largest value that statistic has reached.  Shrinking gaps pull the
    ratio below the warning (``alpha``) and drift (``beta``) fractions.
    Verdicts are suppressed until ``min_errors`` errors have been seen.
    """

    name = "eddm"

    def __init__(self, alpha: float = 0.95, beta: float = 0.90,
                 min_errors: int = 30):
        if beta >= alpha:
            raise ValueError(f"beta ({beta}) must be below alpha ({alpha})")
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.min_errors = int(min_errors)
        self.reset()

    def reset(self) -> None:
        self.count = 0
        self.n_errors = 0
        self.last_error_at = 0
        self.dist_mean = 0.0
        self._dist_m2 = 0.0
        self.level_max = 0.0

    def step(self, bit) -> Verdict:
        self.count += 1
        if bit:
            return Verdict.NO_CHANGE
        self.n_errors += 1
        if self.n_errors == 1:
            self.last_error_at = self.count
            return Verdict.NO_CHANGE
        distance = float(self.count - self.last_error_at)
        self.last_error_at = self.count
        m = self.n_errors - 1  # number of gaps observed
        delta = distance - self.dist_mean
        self.dist_mean += delta / m
        self._dist_m2 += delta * (distance - self.dist_mean)
        std = math.sqrt(self._dist_m2 / m)
        level = self.dist_mean + 2.0 * std
        if level > self.level_max:
            self.level_max = level
        if self.n_errors < self.min_errors or self.level_max == 0.0:
            return Verdict.NO_CHANGE
        ratio = level / self.level_max
        if ratio < self.beta:
            self.reset()
            return Verdict.DRIFT
        if ratio < self.alpha:
            return Verdict.WARNING
        return Verdict.NO_CHANGE


class RDDM(DDM):
    """Reactive variant of DDM that rebuilds statistics after a drift.

    Uses DDM's statistics and level test with its own warning/drift
    multipliers, and additionally forces a drift when the current
    concept exceeds ``max_concept`` instances or a warning episode lasts
    more than ``warn_limit`` instances.  On drift the statistics are
    recomputed by replaying the stored error bits from the start of the
    active warning episode (bounded by ``min_stable``), which keeps the
    detector responsive right after large drifts; with no episode
    active only the triggering bit is replayed.
    """

    name = "rddm"

    def __init__(self, warning_level: float = 1.773, drift_level: float = 2.258,
                 max_concept: int = 40000, min_stable: int = 7000,
                 warn_limit: int = 1400, min_instances: int = 129):
        self.max_concept = int(max_concept)
        self.min_stable = int(min_stable)
        self.warn_limit = int(warn_limit)
        super().__init__(warning_level, drift_level, min_instances)

    def reset(self) -> None:
        super().reset()
        self.concept_size = 0
        self.stored: deque[float] = deque(maxlen=self.min_stable)
        self.warn_count = 0
        self._warn_start = -1  # index into self.stored, -1 = no episode

    def _rebuild(self, error: float) -> None:
        if self._warn_start >= 0:
            replay = list(self.stored)[self._warn_start:]
        else:
            replay = [error]
        DDM.reset(self)  # the statistics only
        self.stored = deque(replay, maxlen=self.min_stable)
        for e in replay:
            self._update(e)
        self.concept_size = len(replay)
        self.warn_count = 0
        self._warn_start = -1

    def step(self, bit) -> Verdict:
        error = 0.0 if bit else 1.0
        if len(self.stored) == self.stored.maxlen and self._warn_start > 0:
            self._warn_start -= 1  # ring about to evict the oldest stored bit
        self.stored.append(error)
        self._update(error)
        self.concept_size += 1
        verdict = _NO_CHANGE
        if self.count >= self.min_instances:
            verdict = self._level_test()
            if verdict is _DRIFT:
                self._rebuild(error)
                return verdict
            if verdict is _WARNING:
                if self._warn_start < 0:
                    self._warn_start = len(self.stored) - 1
                self.warn_count += 1
                if self.warn_count > self.warn_limit:
                    self._rebuild(error)
                    return _DRIFT
            else:
                self.warn_count = 0
                self._warn_start = -1
        if self.concept_size > self.max_concept:
            self._rebuild(error)
            return _DRIFT
        return verdict


def _adwin_first_cut_numpy(totals, lo, hi, threshold_scale, inv):
    W = hi - lo
    if W < 2:
        return -1
    base = totals[lo]
    prefix = totals[lo + 1:hi] - base
    total = totals[hi] - base
    inv0 = inv[0:W - 1]
    inv1 = inv[W - 2::-1]
    weight = inv0 + inv1
    diff = prefix * weight - total * inv1
    hits = diff * diff >= threshold_scale * weight
    if not hits.any():
        return -1
    return int(np.argmax(hits)) + 1


if _njit is not None:

    @_njit(cache=True)
    def _adwin_first_cut_numba(totals, lo, hi, threshold_scale, inv):  # pragma: no cover - jitted
        W = hi - lo
        if W < 2:
            return -1
        base = totals[lo]
        total = totals[hi] - base
        for k in range(1, W):
            inv0 = inv[k - 1]
            inv1 = inv[W - k - 1]
            weight = inv0 + inv1
            diff = (totals[lo + k] - base) * weight - total * inv1
            if diff * diff >= threshold_scale * weight:
                return k
        return -1

    _adwin_first_cut = _adwin_first_cut_numba
else:  # pragma: no cover
    _adwin_first_cut = _adwin_first_cut_numpy


class ADWIN(DriftDetector):
    """Adaptive-window detector over the raw prediction bits.

    Keeps a bounded FIFO of recent bits and, after every append, checks
    every split of the window into an older part w0 and a newer part w1.
    A split is significant when

        |mean(w0) - mean(w1)| >= sqrt( ln(4 n / delta) / (2 m) )

    with m the harmonic mean of the two part lengths and n the current
    window length.  While any significant split exists, the oldest
    element is dropped; a step that dropped anything reports Drift.
    The inequality is evaluated in an algebraically equivalent squared
    form so no roots are taken in the inner loop.

    Splits are checked exhaustively at stride 1 with no bucket
    compression, trading the classic histogram's speed for directness:
    a step costs O(window) (numba-compiled scan when available).  When a
    significant split is found, the whole older part up to the split is
    shed before rechecking; shedding one element at a time would leave
    the window parked at the significance boundary, where every
    following step alarms again.  Evictions that merely keep the buffer
    inside ``max_window`` are bookkeeping, not alarms.
    """

    name = "adwin"

    def __init__(self, delta: float = 0.002, max_window: int = 32768):
        if not 0.0 < delta < 1.0:
            raise ValueError(f"delta must lie in (0, 1), got {delta}")
        if max_window < 2:
            raise ValueError(f"max_window must be >= 2, got {max_window}")
        self.delta = float(delta)
        self.max_window = int(max_window)
        self._inv = 1.0 / np.arange(1.0, max_window + 1.0)
        self.reset()

    def reset(self) -> None:
        self._totals = np.zeros(4096)
        self._lo = 0
        self._hi = 0

    def __len__(self) -> int:
        return self._hi - self._lo

    @property
    def window(self) -> np.ndarray:
        """Current window contents, oldest bit first."""
        return np.diff(self._totals[self._lo:self._hi + 1]).astype(np.int64)

    def _append(self, value: float) -> None:
        if self._hi + 1 >= self._totals.size:
            lo, hi = self._lo, self._hi
            if lo > self.max_window:
                # Rebase so the buffer does not grow with stream length.
                kept = self._totals[lo:hi + 1] - self._totals[lo]
                self._totals[:kept.size] = kept
                self._lo, self._hi = 0, kept.size - 1
            else:
                self._totals = np.concatenate(
                    [self._totals, np.zeros(self._totals.size)])
        self._totals[self._hi + 1] = self._totals[self._hi] + value
        self._hi += 1

    def _first_significant_cut(self) -> int:
        W = self._hi - self._lo
        if W < 2:
            return -1
        scale = math.log(4.0 * W / self.delta) * 0.25
        return _adwin_first_cut(
            self._totals, self._lo, self._hi, scale, self._inv)

    def step(self, bit) -> Verdict:
        if self._hi - self._lo == self.max_window:
            self._lo += 1
        self._append(1.0 if bit else 0.0)
        dropped = False
        while True:
            split = self._first_significant_cut()
            if split < 0:
                break
            self._lo += split
            dropped = True
        return Verdict.DRIFT if dropped else Verdict.NO_CHANGE
