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
from ..streams import MAX_LENGTH
from .base import DriftDetector, bit_list


class CUSUM(DriftDetector):
    """One-sided cumulative-sum test on the error indicator.

    Follows the standard stream-mining form: the running error mean is
    updated first and g accumulates max(0, g + error - mean - slack), so
    a stable error rate keeps g near zero and only an increase above the
    historical mean builds toward ``threshold``.  Verdicts are held back
    for the first ``min_instances`` observations.  Lower slack detects
    faster at the price of more false alarms.  Never emits WARNING.

    g is m_T - min(0, min m_t) for the sums m_t of the increments, and with
    slack >= 0 the first increment, -slack, is never positive, so that is
    Page-Hinkley's statistic, summed in another order: with threshold >=
    ``min_instances`` (g grows by at most 1 a bit) the two alarm at the
    same bits, up to rounding at a tie.
    """

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

    With slack >= 0 this is CUSUM's test: the first increment, -slack, is
    never positive, so m_T - min m_t equals CUSUM's g, and with
    threshold >= 30 (CUSUM's default ``min_instances``) the two alarm at
    the same bits, up to rounding at a tie.
    """

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
    active only the triggering bit is replayed.  ``min_stable`` sizes that
    ring of stored bits and is at most ``streams.MAX_LENGTH``, the longest
    synthetic stream, which a longer ring could never fill.
    """

    def __init__(self, warning_level: float = 1.773, drift_level: float = 2.258,
                 max_concept: int = 40000, min_stable: int = 7000,
                 warn_limit: int = 1400, min_instances: int = 129):
        self.max_concept = as_int("max_concept", max_concept, minimum=1)
        self.min_stable = as_int("min_stable", min_stable, minimum=0)
        if self.min_stable > MAX_LENGTH:
            raise ValueError(f"min_stable must be <= {MAX_LENGTH}, got {self.min_stable}")
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


# ADWIN certifies its window's splits once per _EPOCH bits and the rest once
# per _BATCH bits, and grids at most _GRID (step, split) cells at a time,
# 64 KB: with temporaries of 128 KB and more, the allocator returned and
# refetched their pages on every test, which made a step on a 20k-bit window
# several times slower.  None of the sizes changes a verdict.
_EPOCH = 1024
_BATCH = 64
_GRID = 1 << 13
_SCALES: dict[float, np.ndarray] = {}  # delta -> ADWIN's table of scale(n), see _scale_table


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
    window length; ``delta`` lies in (0, 1), and 4 ``max_window`` / delta
    must be finite.  ``max_window`` lies in [2, 2**53]: 2**53 is the
    largest count float64 prefix sums hold exactly, which the rounding
    argument below assumes.  While any significant split exists, the
    whole older part up to the first significant split is shed; a step
    that shed anything reports Drift.  Shedding one element at a time
    would leave the window parked at the significance boundary, where
    every following step alarms again.  Evictions that merely keep the
    buffer inside ``max_window`` are bookkeeping, not alarms.  Splits are
    checked at stride 1 with no bucket compression.

    :meth:`scan` looks ahead at the bits it is given.  Multiplied out, the
    split of an n-bit window with mean c after its k oldest bits, which
    hold P ones, is significant iff

        (P - k c)**2 >= thr**2 = scale(n) k (n - k) / n,  scale(n) = ln(4 n / delta) / 4.

    Until a split fires the window only grows or, at ``max_window``, sheds
    its oldest bits, which are staged: r_s shed bits holding E_s ones make
    P - k c into P - k c_s - w_s at look-ahead step s, with c_s the window
    mean and w_s = E_s - r_s c_s.  thr never falls as n grows, so with thr
    at today's n and at the k nearest an end that the steps reach, a split
    is safe while k c_s + w_s stays strictly inside (P - thr, P + thr).
    This certifies the window's splits for the next 1024 bits, and the
    rest and the splits those bits add for each 64.  The splits left, with
    those each 64 bits add, go to a grid of (step, split) cells, where the
    bridge form flags the cells near or past their threshold and only
    those get the exact squared test of every split after every bit, so
    the verdicts are those of the full test.  Rounding: P, k, n and the
    ones counts are exact in float64 and thr is at least 1/2, so near a
    threshold the computed bridge form and the exact test each err by a
    few n 2**-53 relative to thr.  thr is shrunk by the factor
    1 - 1e-9 - n 2**-48, n the epoch's largest window (squared in the
    grid): a certified split never passes the exact test, and a cell that
    passes it is always flagged.
    """

    def __init__(self, delta: float = 0.002, max_window: int = 32768):
        if not 0.0 < delta < 1.0:
            raise ValueError(f"delta must lie in (0, 1), got {delta}")
        self.delta = float(delta)
        self.max_window = as_int("max_window", max_window, minimum=2)
        if self.max_window > 2**53:
            raise ValueError(f"max_window must be <= 2**53, got {self.max_window}")
        if not math.isfinite(4.0 * self.max_window / self.delta):  # in scale(max_window)
            raise ValueError(f"delta {delta} is too small: 4 * max_window / delta overflows")
        self._scales = _SCALES.setdefault(self.delta, np.array([-math.inf]))  # scale(0) = ln(0)/4
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
        """The shared table of scale(n) = ln(4 n / delta) / 4 at index n (an unpickled
        instance's own if there is none), grown to cover ``top`` up to ``max_window``."""
        table = self._scales = _SCALES.setdefault(self.delta, self._scales)
        if top >= table.size:
            size = min(max(top + 1, 2 * table.size), self.max_window + 1)
            grown = [math.log(4.0 * n / self.delta) * 0.25 for n in range(table.size, size)]
            _SCALES[self.delta] = self._scales = table = np.concatenate([table, grown])
        return table

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
            look = self._look_ahead(size)
            doubtful = self._uncertified(np.arange(self._lo + 1, self._hi), look, -1, -1)
            fresh = self._hi  # the first split this epoch adds
            for batch, offset in enumerate(range(0, size, _BATCH)):
                steps = slice(offset, min(offset + _BATCH, size))
                lo, hi = self._lo, self._hi
                cuts = np.concatenate([doubtful[doubtful > lo], np.arange(max(fresh, lo + 1), hi)])
                cuts = np.concatenate([self._uncertified(cuts, look, batch, steps.stop - 1),
                                       np.arange(hi, hi + steps.stop - offset)])
                fired = self._first_firing_step(cuts, look, steps)
                if fired:
                    self._advance(fired)
                    self._shed()
                    return done + offset + fired - 1
                self._advance(steps.stop - offset)
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

    def _look_ahead(self, size: int) -> tuple:
        """Window start, end, mean c_s, scale, n and grid bound at each of the next ``size``
        staged steps were no split to fire; the margin; c_s and w_s spans per batch and all."""
        totals, lo, hi = self._totals, self._lo, self._hi
        his = np.arange(hi + 1, hi + size + 1)
        los = lo + np.maximum(0, his - lo - self.max_window)
        ns = his - los
        means = (totals[his] - totals[los]) / ns
        both = np.stack([means, totals[los] - totals[los[0]] - (los - los[0]) * means])
        starts = np.arange(0, size, _BATCH)
        low, high = np.minimum.reduceat(both, starts, 1), np.maximum.reduceat(both, starts, 1)
        spans = np.concatenate([low, high]).T.tolist()  # [min c, min w, max c, max w]
        spans.append([low[0].min(), low[1].min(), high[0].max(), high[1].max()])
        scales = self._scale_table(int(ns[-1]))[ns]
        keep = 1.0 - 1e-9 - int(ns[-1]) * 2.0 ** -48  # the rounding margin
        return los, his, means, scales, ns.astype(np.float64), scales / ns * keep ** 2, keep, spans

    def _uncertified(self, cuts: np.ndarray, look: tuple, batch: int, last: int) -> np.ndarray:
        """The splits among ``cuts`` that the class docstring's interval cannot
        certify safe for ``look``'s ``batch`` (-1: all steps), up to step ``last``."""
        if cuts.size == 0:
            return cuts
        los, keep, (c0, w0, c1, w1) = look[0], look[6], look[7][batch]
        totals, lo, n = self._totals, self._lo, self._hi - self._lo
        k = cuts - lo
        near = np.minimum(np.maximum(k - (los[last] - lo), 1), n - k)  # the k nearest an end
        thr = np.sqrt(near * (n - near) * (self._scale_table(n)[n] / n * keep ** 2))
        k += lo - los[0]  # P, k and w_s from the look-ahead's first start
        reach = np.abs(totals[cuts] - (totals[los[0]] + (w0 + w1) / 2) - k * ((c0 + c1) / 2))
        reach += k * ((c1 - c0) / 2) + (w1 - w0) / 2  # how far from P k c_s + w_s may get
        return cuts[reach >= thr]

    def _first_firing_step(self, cuts: np.ndarray, look: tuple, steps: slice) -> int:
        """The first of ``look``'s ``steps`` (1-based) at which one of ``cuts``
        is a significant split, or 0 if none is."""
        los, his, means, scales, ns, bounds = (column[steps] for column in look[:6])
        totals, shared = self._totals, los[-1] == los[0]  # shared: P and k are one row
        rows, width = his.size, max(1, _GRID // his.size)  # rows: the steps before a firing one
        for start in range(0, cuts.size, width):
            block = cuts[start:start + width]
            row_lo = los[0] if shared else los[:rows, None]
            k = (block - row_lo).astype(np.float64)
            bridge = totals[block] - totals[row_lo] - k * means[:rows, None]
            bridge *= bridge
            k = k * (ns[:rows, None] - k)  # k (n - k), below 1 off the window
            flagged = (bridge >= bounds[:rows, None] * k) & (k > 0)
            if flagged.any():  # the exact test, on the flagged cells only
                step, col = flagged.nonzero()
                low, high, cut = los[step], his[step], block[col]
                hits = _significant(totals[cut] - totals[low], totals[high] - totals[low],
                                    1.0 / (cut - low), 1.0 / (high - cut), scales[step])
                if hits.any():
                    rows = int(step[hits.argmax()])
        return rows + 1 if rows < his.size else 0

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
        scale = self._scale_table(n)[n]
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
