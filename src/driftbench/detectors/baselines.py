"""Classic drift detectors used as comparison baselines.

All of them consume the same prediction-bit convention as the rest of
the package (1 = correct prediction) and complement internally where the
underlying method monitors errors.  Each implements only ``scan``
(``step`` is a scan of one bit); DDM, EDDM and RDDM set ``warning``.
Except for ADWIN, which sheds old window content, and RDDM, which
rebuilds its statistics from a stored recent segment, a detector that
just signalled Drift is in the same state as a freshly constructed one.

Method origins: CUSUM and Page-Hinkley go back to Page (1954); DDM is
Gama et al. (2004); EDDM is Baena-Garcia et al. (2006); RDDM is Barros
et al. (2017); ADWIN is Bifet & Gavalda (2007).
"""

from __future__ import annotations

import math
from collections import deque
from typing import Optional

import numpy as np

from ..errors import as_int
from .base import DriftDetector, bit_list


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
        self.min_instances = as_int("min_instances", min_instances, minimum=0)
        self.reset()

    def reset(self) -> None:
        self.count = 0
        self.mean = 0.0
        self.g = 0.0

    def scan(self, bits) -> Optional[int]:
        count, mean, g = self.count, self.mean, self.g
        slack, threshold, min_instances = self.slack, self.threshold, self.min_instances
        for i, bit in enumerate(bit_list(bits)):
            error = 0.0 if bit else 1.0
            count += 1
            mean += (error - mean) / count
            g += error - mean - slack
            if not g > 0.0:  # max(0.0, g) without the call
                g = 0.0
            if count >= min_instances and g > threshold:
                self.reset()
                return i
        self.count, self.mean, self.g = count, mean, g
        return None


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

    def scan(self, bits) -> Optional[int]:
        count, mean, cumulative, minimum = self.count, self.mean, self.cumulative, self.minimum
        slack, threshold = self.slack, self.threshold
        for i, bit in enumerate(bit_list(bits)):
            x = 0.0 if bit else 1.0
            count += 1
            mean += (x - mean) / count
            cumulative += x - mean - slack
            if cumulative < minimum:
                minimum = cumulative
            if cumulative - minimum > threshold:
                self.reset()
                return i
        self.count, self.mean, self.cumulative, self.minimum = count, mean, cumulative, minimum
        return None


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
        self.min_instances = as_int("min_instances", min_instances, minimum=0)
        self.reset()

    def reset(self) -> None:
        self.count = 0
        self.p = 1.0
        self.s = 0.0
        self.p_min = math.inf
        self.s_min = math.inf
        self.warning = False

    def scan(self, bits) -> Optional[int]:
        count, p, s = self.count, self.p, self.s
        p_min, s_min, warning = self.p_min, self.s_min, self.warning
        warning_level, drift_level = self.warning_level, self.drift_level
        min_instances, sqrt = self.min_instances, math.sqrt
        for i, bit in enumerate(bit_list(bits)):
            error = 0.0 if bit else 1.0
            count += 1
            p += (error - p) / count
            s = sqrt(p * (1.0 - p) / count)
            if count < min_instances:
                continue  # too early to test; reset() left warning False
            # Record a new minimum of p + s and compare p + s to the levels;
            # drift is tested before warning so one bit never draws both.
            level = p + s
            if level < p_min + s_min:
                p_min, s_min = p, s
            if level > p_min + drift_level * s_min:
                self.reset()
                return i
            warning = level > p_min + warning_level * s_min
        self.count, self.p, self.s = count, p, s
        self.p_min, self.s_min, self.warning = p_min, s_min, warning
        return None


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
        self.min_errors = as_int("min_errors", min_errors, minimum=0)
        self.reset()

    def reset(self) -> None:
        self.count = 0
        self.n_errors = 0
        self.last_error_at = 0
        self.dist_mean = 0.0
        self._dist_m2 = 0.0
        self.level_max = 0.0
        self.warning = False

    def scan(self, bits) -> Optional[int]:
        count, n_errors, last_error_at = self.count, self.n_errors, self.last_error_at
        dist_mean, dist_m2, level_max = self.dist_mean, self._dist_m2, self.level_max
        warning, alpha, beta = self.warning, self.alpha, self.beta
        min_errors, sqrt = self.min_errors, math.sqrt
        for i, bit in enumerate(bit_list(bits)):
            count += 1
            warning = False
            if bit:
                continue
            n_errors += 1
            distance = float(count - last_error_at)
            last_error_at = count
            if n_errors == 1:
                continue  # the first error only opens the first gap
            m = n_errors - 1  # number of gaps observed
            delta = distance - dist_mean
            dist_mean += delta / m
            dist_m2 += delta * (distance - dist_mean)
            level = dist_mean + 2.0 * sqrt(dist_m2 / m)
            if level > level_max:
                level_max = level
            if n_errors < min_errors or level_max == 0.0:
                continue
            ratio = level / level_max
            if ratio < beta:
                self.reset()
                return i
            warning = ratio < alpha
        self.count, self.n_errors, self.last_error_at = count, n_errors, last_error_at
        self.dist_mean, self._dist_m2, self.level_max = dist_mean, dist_m2, level_max
        self.warning = warning
        return None


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
        self.max_concept = as_int("max_concept", max_concept, minimum=1)
        self.min_stable = as_int("min_stable", min_stable, minimum=0)
        self.warn_limit = as_int("warn_limit", warn_limit)
        super().__init__(warning_level, drift_level, min_instances)

    def reset(self) -> None:
        super().reset()
        self.concept_size = 0
        self.stored: deque[float] = deque(maxlen=self.min_stable)
        self.warn_count = 0
        self._warn_start = -1  # index into self.stored, -1 = no episode

    def _rebuild(self, error: float, warn_start: int) -> None:
        """Recompute the statistics from the bits of the active warning
        episode, which starts at ``stored[warn_start]``, or from ``error``
        alone with no episode active (``warn_start`` < 0)."""
        replay = list(self.stored)[warn_start:] if warn_start >= 0 else [error]
        DDM.reset(self)  # the statistics only
        self.stored = deque(replay, maxlen=self.min_stable)
        count, p = 0, self.p
        for e in replay:  # the p/s update of scan, one bit at a time
            count += 1
            p += (e - p) / count
        self.count, self.p, self.s = count, p, math.sqrt(p * (1.0 - p) / count)
        self.concept_size = count
        self.warn_count = 0
        self._warn_start = -1

    def scan(self, bits) -> Optional[int]:
        count, p, s = self.count, self.p, self.s
        p_min, s_min, warning = self.p_min, self.s_min, self.warning
        concept_size, warn_count, warn_start = self.concept_size, self.warn_count, self._warn_start
        warning_level, drift_level = self.warning_level, self.drift_level
        min_instances, max_concept, warn_limit = self.min_instances, self.max_concept, self.warn_limit
        stored, sqrt = self.stored, math.sqrt
        store, full = stored.append, stored.maxlen
        for i, bit in enumerate(bit_list(bits)):
            error = 0.0 if bit else 1.0
            if warn_start > 0 and len(stored) == full:
                warn_start -= 1  # the ring is about to evict the oldest stored bit
            store(error)
            count += 1
            p += (error - p) / count
            s = sqrt(p * (1.0 - p) / count)
            concept_size += 1
            warning = False
            if count >= min_instances:
                # DDM's level test with RDDM's levels.
                level = p + s
                if level < p_min + s_min:
                    p_min, s_min = p, s
                if level > p_min + drift_level * s_min:
                    break
                if level > p_min + warning_level * s_min:
                    if warn_start < 0:
                        warn_start = len(stored) - 1
                    warn_count += 1
                    if warn_count > warn_limit:
                        break
                    warning = True
                else:
                    warn_count = 0
                    warn_start = -1
            if concept_size > max_concept:
                break
        else:  # no drift in bits; every break above is one at bit i
            self.count, self.p, self.s = count, p, s
            self.p_min, self.s_min, self.warning = p_min, s_min, warning
            self.concept_size, self.warn_count, self._warn_start = (
                concept_size, warn_count, warn_start)
            return None
        self._rebuild(error, warn_start)
        return i


# ADWIN certifies the splits of its whole window once per _EPOCH bits and
# the survivors once per _BATCH bits, and tests at most _GRID (step, split)
# pairs at a time.  The sizes trade passes over the window against the
# size of the temporaries, which _GRID keeps at 64 KB: with temporaries of
# 128 KB and more, the allocator returned and refetched their pages on
# every test, which made a step on a 20k-bit window several times slower.
# None of the sizes changes a verdict.
_EPOCH = 1024
_BATCH = 64
_GRID = 1 << 13


def _significant(prefix, total, inv0, inv1, scale):
    """ADWIN's test of a split into n0 = 1/inv0 older bits holding
    ``prefix`` ones and n1 = 1/inv1 newer bits, out of a window holding
    ``total`` ones.

    The test |mean0 - mean1| >= sqrt(scale * (1/n0 + 1/n1)) is evaluated
    in a squared form that takes no roots.  The arguments broadcast.
    """
    weight = inv0 + inv1
    diff = prefix * weight
    diff -= total * inv1
    diff *= diff
    return diff >= scale * weight


class ADWIN(DriftDetector):
    """Adaptive-window detector over the raw prediction bits.

    Keeps a bounded FIFO of recent bits and, after every append, checks
    every split of the window into an older part w0 and a newer part w1.
    A split is significant when

        |mean(w0) - mean(w1)| >= sqrt( ln(4 n / delta) / (2 m) )

    with m the harmonic mean of the two part lengths and n the current
    window length.  While any significant split exists, the whole older
    part up to the first significant split is shed; a step that shed
    anything reports Drift.  Shedding one element at a time would leave
    the window parked at the significance boundary, where every following
    step alarms again.  Evictions that merely keep the buffer inside
    ``max_window`` are bookkeeping, not alarms.  Splits are checked at
    stride 1 with no bucket compression.

    :meth:`scan` looks ahead at the bits it is given.  A split of the window is certified safe for the
    next S bits when

        |mu0 - mu1| + min((D + S |mu1 - c|) / n1, S / (n1 + S)) [+ S / (n0 - S)]
            < sqrt(scale(n) (1/n0 + 1/(n1 + S))) (1 - margin)

    with scale(n) = ln(4 n / delta) / 4, c the window mean, and
    D = max_s |A_s - s c| over those bits, A_s being the ones among the
    first s of them.  The left side bounds how far the split's mean
    difference can move while the bits are appended (the bracketed term
    covers the bits the window sheds at ``max_window``); the right side
    bounds its threshold from below, because n never shrinks and n0
    never grows before a split fires; the margin covers the rounding of
    the squared test.  The whole window is certified for the next 1024
    bits, the survivors again for each 64 of them, and only the splits
    still left and those the 64 bits add are tested, step by step, with
    the exact squared test.  So the verdicts are those of testing every
    split after every bit, with no significant split left in the window
    after a step, at a fraction of the cost.  While no step of a 64-bit
    batch sheds at ``max_window``, its steps share the window's start, so
    each split's older part is computed once for the batch, not per step.
    scale(n) is read from a table indexed by n that grows with the window
    (never past ``max_window``) and that :meth:`reset` keeps, since it
    depends on ``delta`` alone.
    """

    name = "adwin"

    def __init__(self, delta: float = 0.002, max_window: int = 32768):
        if not 0.0 < delta < 1.0:
            raise ValueError(f"delta must lie in (0, 1), got {delta}")
        self.delta = float(delta)
        self.max_window = as_int("max_window", max_window, minimum=2)
        self._scales = np.array([-math.inf])  # see _scale_table; scale(0) = ln(0) / 4
        self.reset()

    def reset(self) -> None:
        self._totals = np.zeros(4096)
        self._inv = 1.0 / np.arange(1.0, 4097.0)  # 1/k, as long as _totals
        self._lo = 0
        self._hi = 0

    def __len__(self) -> int:
        return self._hi - self._lo

    @property
    def window(self) -> np.ndarray:
        """Current window contents, oldest bit first."""
        return np.diff(self._totals[self._lo:self._hi + 1]).astype(np.int64)

    def _scale_table(self, top: int) -> np.ndarray:
        """The table of scale(n) = ln(4 n / delta) / 4 for windows of n bits,
        index n, grown to cover ``top`` (doubling, up to ``max_window``)."""
        table = self._scales
        if top >= table.size:
            size = min(max(top + 1, 2 * table.size), self.max_window + 1)
            log, delta = math.log, self.delta
            grown = [log(4.0 * n / delta) * 0.25 for n in range(table.size, size)]
            self._scales = table = np.concatenate([table, grown])
        return table

    def _scale(self, n: int) -> float:
        """scale(n) for a window of n bits."""
        return self._scale_table(n)[n]

    def scan(self, bits) -> Optional[int]:
        """Look-ahead :meth:`DriftDetector.scan`; same verdicts as testing
        every split after every bit."""
        bits = np.asarray(bits if isinstance(bits, np.ndarray) else list(bits), dtype=bool)
        done = 0
        while done < bits.size:
            size = min(_EPOCH, bits.size - done)
            self._stage(bits[done:done + size])
            if size == 1:  # the shed loop's test is the step's whole test
                self._advance(1)
                if self._shed():
                    return done
                done += 1
                continue
            doubtful = self._uncertified(np.arange(self._lo + 1, self._hi), size)
            fresh = self._hi  # the first split this epoch adds
            for offset in range(0, size, _BATCH):
                width = min(_BATCH, size - offset)
                lo, hi = self._lo, self._hi
                cuts = np.concatenate([doubtful[doubtful > lo], np.arange(max(fresh, lo + 1), hi)])
                cuts = np.concatenate([self._uncertified(cuts, width),
                                       np.arange(hi, hi + width)])
                fired = self._first_firing_step(cuts, width)
                if fired:
                    self._advance(fired)
                    self._shed()
                    return done + offset + fired - 1
                self._advance(width)
            done += size
        return None

    def _stage(self, batch: np.ndarray) -> None:
        """Write the prefix sums of ``batch`` after the window's."""
        lo, hi = self._lo, self._hi
        if hi + batch.size >= self._totals.size:
            # Rebase so the buffer holds the window, not the stream.
            kept = self._totals[lo:hi + 1] - self._totals[lo]
            if 2 * (kept.size + batch.size) > self._totals.size:
                self._totals = np.zeros(2 * (kept.size + batch.size))
                self._inv = 1.0 / np.arange(1.0, self._totals.size + 1.0)
            self._totals[:kept.size] = kept
            self._lo, self._hi = lo, hi = 0, kept.size - 1
        self._totals[hi + 1:hi + batch.size + 1] = (
            self._totals[hi] + batch.cumsum(dtype=np.float64))

    def _advance(self, steps: int) -> None:
        """Take ``steps`` staged bits into the window."""
        lo, hi = self._lo, self._hi
        self._lo = lo + max(0, hi - lo + steps - self.max_window)
        self._hi = hi + steps

    def _uncertified(self, cuts: np.ndarray, size: int) -> np.ndarray:
        """The splits among ``cuts`` that the class docstring's bound cannot
        certify safe for the next ``size`` staged bits."""
        if cuts.size == 0:
            return cuts
        totals, lo, hi = self._totals, self._lo, self._hi
        n = hi - lo
        total = totals[hi] - totals[lo]
        prefix = totals[cuts] - totals[lo]
        n0 = (cuts - lo).astype(np.float64)
        n1 = n - n0
        mean = total / n
        mu1 = (total - prefix) / n1
        ones = totals[hi + 1:hi + size + 1] - totals[hi]
        wander = np.abs(ones - mean * np.arange(1.0, size + 1.0)).max()
        slack = np.minimum((wander + size * np.abs(mu1 - mean)) / n1,
                           size / (n1 + size))
        if n + size > self.max_window:
            slack += np.where(n0 > size, size / np.maximum(n0 - size, 1.0), np.inf)
        bound = np.sqrt(self._scale(n) * (1.0 / n0 + 1.0 / (n1 + size)))
        # The squared test's cancellation error grows like n * 2**-53.
        bound *= 1.0 - 1e-9 - n * 2.0 ** -48
        return cuts[np.abs(prefix / n0 - mu1) + slack >= bound]

    def _first_firing_step(self, cuts: np.ndarray, size: int) -> int:
        """The first of the next ``size`` steps (1-based) at which one of
        ``cuts`` is a significant split, or 0 if none is."""
        totals, lo, hi = self._totals, self._lo, self._hi
        steps = np.arange(1, size + 1)
        his = hi + steps
        los = lo + np.maximum(0, hi - lo + steps - self.max_window)
        ns = his - los
        scales = self._scale_table(int(ns[-1]))[ns]
        # While no step sheds, every step shares the window's start, so
        # the older parts (base, n0, 1/n0) are one row, not one per step.
        shared = los[-1] == lo
        rows = size  # the steps before the first firing one found so far
        width = max(1, _GRID // size)
        with np.errstate(divide="ignore", invalid="ignore"):
            for start in range(0, cuts.size, width):
                block = cuts[start:start + width]
                row_lo, row_hi = (lo if shared else los[:rows, None]), his[:rows, None]
                n0, n1 = block - row_lo, row_hi - block
                base = totals[row_lo]
                hits = _significant(totals[block] - base, totals[row_hi] - base,
                                    1.0 / n0, 1.0 / n1, scales[:rows, None])
                hits &= (n0 > 0) & (n1 > 0)
                fired = hits.any(axis=1)
                if fired.any():
                    rows = int(fired.argmax())
        return rows + 1 if rows < size else 0

    def _shed(self) -> bool:
        """Drop the older part at the first significant split while one
        exists; True if anything was dropped."""
        dropped = False
        while (cut := self._first_cut()) is not None:
            self._lo = cut
            dropped = True
        return dropped

    def _first_cut(self) -> Optional[int]:
        """The window's first significant split, or None."""
        totals, lo, hi = self._totals, self._lo, self._hi
        n = hi - lo
        if n < 2:
            return None
        scale = self._scale(n)
        base = totals[lo]
        total = totals[hi] - base
        inv = self._inv
        for start in range(lo + 1, hi, _GRID):
            stop = min(start + _GRID, hi)
            k0, k1 = start - lo, stop - lo  # n0 runs over [k0, k1)
            hits = _significant(totals[start:stop] - base, total, inv[k0 - 1:k1 - 1],
                                inv[n - k1:n - k0][::-1], scale)
            if hits.any():
                return start + int(hits.argmax())
        return None
