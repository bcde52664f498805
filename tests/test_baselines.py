"""Baseline detectors: unit behavior against independent simulation oracles."""

import math
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from driftbench import (ADWIN, CUSUM, DDM, EDDM, RDDM, NaiveBayes, PageHinkley, StreamSpec,
                        Verdict, generate_stream, prequential_run)
from driftbench.detectors import baselines
from driftbench.detectors.base import DriftDetector
from driftbench.streams import MAX_LENGTH

ALL_DETECTORS = [
    lambda: CUSUM(),
    lambda: PageHinkley(),
    lambda: DDM(),
    lambda: EDDM(),
    lambda: RDDM(),
    lambda: ADWIN(),
]


def run_bits(det, bits):
    return [det.step(b) for b in bits]


def first_drift(det, bits):
    for i, b in enumerate(bits):
        if det.step(b) is Verdict.DRIFT:
            return i
    return None


# --- independent oracles -------------------------------------------------

def cusum_oracle_first_drift(errors, slack=0.005, threshold=50.0, min_instances=30):
    mean = 0.0
    g = 0.0
    for i, e in enumerate(errors):
        mean += (e - mean) / (i + 1)
        g = max(0.0, g + (e - mean - slack))
        if i + 1 >= min_instances and g > threshold:
            return i
    return None


def page_hinkley_oracle_first_drift(errors, slack=0.005, threshold=50.0):
    mean = 0.0
    m = 0.0
    minimum = math.inf
    for i, e in enumerate(errors):
        mean += (e - mean) / (i + 1)
        m += e - mean - slack
        minimum = min(minimum, m)
        if m - minimum > threshold:
            return i
    return None


def ddm_oracle_first_drift(errors, gate=30):
    p = 1.0
    p_min = s_min = math.inf
    for i, e in enumerate(errors):
        t = i + 1
        p += (e - p) / t
        s = math.sqrt(p * (1.0 - p) / t)
        if t < gate:
            continue
        if p + s < p_min + s_min:
            p_min, s_min = p, s
        if p + s > p_min + 3.0 * s_min:
            return i
    return None


def eddm_oracle_first_drift(errors, beta=0.90, gate=30):
    n_err = 0
    last = 0
    mean = 0.0
    m2 = 0.0
    level_max = 0.0
    for i, e in enumerate(errors):
        t = i + 1
        if not e:
            continue
        n_err += 1
        if n_err == 1:
            last = t
            continue
        dist = float(t - last)
        last = t
        gaps = n_err - 1
        delta = dist - mean
        mean += delta / gaps
        m2 += delta * (dist - mean)
        level = mean + 2.0 * math.sqrt(m2 / gaps)
        level_max = max(level_max, level)
        if n_err >= gate and level_max > 0 and level / level_max < beta:
            return i
    return None


def adwin_oracle_first_drift(bits, delta=0.002):
    """Naive re-check of every split with the textbook bound, shedding the
    older part at the first significant split while any exists."""
    window = []
    for i, b in enumerate(bits):
        window.append(float(b))
        dropped = False
        while True:
            W = len(window)
            if W < 2:
                break
            total = sum(window)
            confidence = math.log(4.0 * W / delta)
            found = 0
            prefix = 0.0
            for k in range(1, W):
                prefix += window[k - 1]
                n0, n1 = k, W - k
                mu0 = prefix / n0
                mu1 = (total - prefix) / n1
                harmonic = 2.0 * n0 * n1 / (n0 + n1)
                eps = math.sqrt(confidence / (2.0 * harmonic))
                if abs(mu0 - mu1) >= eps:
                    found = k
                    break
            if not found:
                break
            window = window[found:]
            dropped = True
        if dropped:
            return i
    return None


class StrideOneAdwin(DriftDetector):
    """Reference ADWIN: after every bit, every split of the window is tested
    at stride 1 with the squared-form expression and a table of
    reciprocals, shedding the older part at the first significant split
    while one exists.  ADWIN must give the same verdicts and windows."""

    def __init__(self, delta=0.002, max_window=32768):
        self.delta = float(delta)
        self.max_window = int(max_window)
        self._inv = 1.0 / np.arange(1.0, max_window + 1.0)
        self.reset()

    def reset(self):
        self._totals = np.zeros(1024)
        self._lo = self._hi = 0

    @property
    def window(self):
        return np.diff(self._totals[self._lo:self._hi + 1]).astype(np.int64)

    def _first_significant_cut(self):
        totals = self._totals[self._lo:self._hi + 1]
        W = self._hi - self._lo
        if W < 2:
            return -1
        threshold_scale = math.log(4.0 * W / self.delta) * 0.25
        base = totals[0]
        prefix = totals[1:W] - base
        total = totals[W] - base
        inv0 = self._inv[0:W - 1]
        inv1 = self._inv[W - 2::-1]
        weight = inv0 + inv1
        diff = prefix * weight - total * inv1
        hits = diff * diff >= threshold_scale * weight
        if not hits.any():
            return -1
        return int(np.argmax(hits)) + 1

    def step(self, bit):
        if self._hi - self._lo == self.max_window:
            self._lo += 1
        if self._hi + 1 == self._totals.size:
            self._totals = np.concatenate([self._totals, np.zeros(self._totals.size)])
        self._totals[self._hi + 1] = self._totals[self._hi] + (1.0 if bit else 0.0)
        self._hi += 1
        dropped = False
        while True:
            split = self._first_significant_cut()
            if split < 0:
                break
            self._lo += split
            dropped = True
        return Verdict.DRIFT if dropped else Verdict.NO_CHANGE

    def scan(self, bits):
        for i, bit in enumerate(bits):
            if self.step(bit) is Verdict.DRIFT:
                return i
        return None


def piecewise_bernoulli(rng, length):
    """Bits in a few segments, each with its own success rate."""
    cuts = np.sort(rng.integers(0, length, size=rng.integers(0, 5)))
    rates = rng.random(cuts.size + 1)
    segment = np.searchsorted(cuts, np.arange(length), side="right")
    return (rng.random(length) < rates[segment]).astype(np.int64)


def tie_deltas(window, max_window):
    """The two adjacent deltas between which the first significant split of
    ``window`` starts to fire, found where ln(4N/delta)/4 meets its
    (P - k c)**2 N / (k (N - k)): (the smallest that fires, the next below)."""
    n = window.size
    prefix = np.concatenate([[0], np.cumsum(window)]).astype(np.int64)
    total = int(prefix[-1])
    stat = max(Fraction((int(prefix[k]) * n - k * total) ** 2, n * k * (n - k))
               for k in range(1, n))
    guess = 4.0 * n * math.exp(-4.0 * float(stat))

    def fires(bits):  # the reference's own test, at the delta with these float bits
        ref = StrideOneAdwin(float(np.int64(bits).view(np.float64)), max_window)
        ref._totals, ref._hi = prefix.astype(np.float64), n
        return ref._first_significant_cut() >= 0

    quiet, fire = (np.float64(guess * f).view(np.int64) for f in (1 - 1e-9, 1 + 1e-9))
    assert not fires(quiet) and fires(fire)
    while fire - quiet > 1:
        mid = (quiet + fire) // 2
        quiet, fire = (quiet, mid) if fires(mid) else (mid, fire)
    return tuple(float(np.int64(b).view(np.float64)) for b in (fire, quiet))


# --- shared properties ----------------------------------------------------

@pytest.mark.parametrize("make", ALL_DETECTORS)
def test_no_alarm_on_all_correct_stream(make):
    det = make()
    assert all(v is Verdict.NO_CHANGE for v in run_bits(det, [1] * 20_000))


@pytest.mark.parametrize("make", ALL_DETECTORS)
def test_deterministic_verdicts(make):
    bits = (np.random.default_rng(5).random(4_000) < 0.8).astype(int).tolist()
    assert run_bits(make(), bits) == run_bits(make(), bits)


@pytest.mark.parametrize("make,bits", [
    (lambda: CUSUM(), [1] * 300 + [0] * 400),
    (lambda: PageHinkley(), [1] * 300 + [0] * 400),
    (lambda: DDM(), [1] * 300 + [0] * 400),
    (lambda: EDDM(), ([1] * 49 + [0]) * 50 + [0] * 200),
])
def test_post_drift_state_equals_fresh(make, bits):
    det = make()
    drift_at = first_drift(det, bits)
    assert drift_at is not None
    assert vars(det) == vars(make())


# --- CUSUM ----------------------------------------------------------------

class TestCusum:
    def test_matches_oracle_on_step_change(self):
        bits = [1] * 1000 + [0] * 400
        errors = [0.0 if b else 1.0 for b in bits]
        expected = cusum_oracle_first_drift(errors)
        assert expected is not None and expected > 1000
        assert first_drift(CUSUM(), bits) == expected

    def test_stable_error_rate_keeps_statistic_low(self):
        rng = np.random.default_rng(0)
        bits = (rng.random(50_000) < 0.85).astype(int)
        det = CUSUM()
        verdicts = run_bits(det, bits)
        assert verdicts.count(Verdict.DRIFT) <= 1

    def test_never_warns(self):
        bits = [1] * 100 + [0] * 200
        assert Verdict.WARNING not in run_bits(CUSUM(), bits)

    def test_threshold_domain(self):
        with pytest.raises(ValueError):
            CUSUM(threshold=0.0)


# --- PageHinkley ------------------------------------------------------------

class TestPageHinkley:
    def test_constant_stream_never_drifts(self):
        for bit in (0, 1):
            det = PageHinkley()
            assert all(v is Verdict.NO_CHANGE for v in run_bits(det, [bit] * 5000))

    def test_matches_oracle_after_error_onset(self):
        bits = [1] * 1000 + [0] * 200
        errors = [0.0 if b else 1.0 for b in bits]
        expected = page_hinkley_oracle_first_drift(errors)
        assert expected is not None and expected > 1000
        assert first_drift(PageHinkley(), bits) == expected

    @pytest.mark.parametrize("slack,threshold", [(0.0, 30.0), (0.005, 50.0), (0.05, 40.0)])
    def test_same_alarms_as_cusum(self, slack, threshold):
        """With slack >= 0 the first increment, -slack, is never positive, so
        m_T - min m_t is CUSUM's g; threshold >= 30 covers CUSUM's gate."""
        rng = np.random.default_rng([int(slack * 1000), int(threshold)])
        bits = piecewise_bernoulli(rng, 30_000)
        want = CUSUM(slack, threshold).drift_points(bits)
        assert want and PageHinkley(slack, threshold).drift_points(bits) == want

    def test_minimum_below_cumulative(self):
        det = PageHinkley()
        rng = np.random.default_rng(1)
        for b in (rng.random(2000) < 0.7).astype(int):
            det.step(b)
            assert det.minimum <= det.cumulative + 1e-12


# --- DDM --------------------------------------------------------------------

class TestDdm:
    def test_improving_classifier_never_drifts(self):
        bits = [0] * 40 + [1] * 20_000
        assert all(v is not Verdict.DRIFT for v in run_bits(DDM(), bits))

    def test_matches_oracle_on_degradation(self):
        rng = np.random.default_rng(7)
        bits = list((rng.random(1000) < 0.5).astype(int)) + [0] * 300
        errors = [0.0 if b else 1.0 for b in bits]
        expected = ddm_oracle_first_drift(errors)
        assert expected is not None and expected > 1000
        assert first_drift(DDM(), bits) == expected

    def test_warning_precedes_drift_threshold(self):
        det = DDM()
        rng = np.random.default_rng(13)
        bits = list((rng.random(500) < 0.8).astype(int)) + [0] * 300
        verdicts = run_bits(det, bits)
        drift_at = verdicts.index(Verdict.DRIFT)
        assert Verdict.WARNING in verdicts[:drift_at]
        assert Verdict.WARNING is verdicts[drift_at - 1]

    def test_no_verdicts_before_gate(self):
        det = DDM(min_instances=30)
        assert all(v is Verdict.NO_CHANGE for v in run_bits(det, [0] * 29))

    def test_level_domain(self):
        with pytest.raises(ValueError):
            DDM(warning_level=3.0, drift_level=2.0)


# --- EDDM -------------------------------------------------------------------

class TestEddm:
    def test_growing_gaps_never_drift(self):
        bits = []
        gap = 2
        for _ in range(60):
            bits.extend([1] * gap + [0])
            gap += 1
        assert all(v is not Verdict.DRIFT for v in run_bits(EDDM(), bits))

    def test_matches_oracle_on_shrinking_gaps(self):
        bits = ([1] * 99 + [0]) * 50 + [1, 0] * 200
        errors = [0.0 if b else 1.0 for b in bits]
        expected = eddm_oracle_first_drift(errors)
        assert expected is not None and expected > 5000
        assert first_drift(EDDM(), bits) == expected

    def test_needs_two_errors_for_statistics(self):
        det = EDDM()
        assert all(v is Verdict.NO_CHANGE for v in run_bits(det, [0] + [1] * 100))
        assert det.n_errors == 1

    def test_domain(self):
        with pytest.raises(ValueError):
            EDDM(alpha=0.9, beta=0.95)


# --- RDDM -------------------------------------------------------------------

class TestRddm:
    def test_forced_drift_when_concept_exceeds_max(self):
        det = RDDM(max_concept=50)
        verdicts = run_bits(det, [1] * 60)
        assert verdicts[50] is Verdict.DRIFT
        assert all(v is Verdict.NO_CHANGE for v in verdicts[:50])

    def test_statistical_drift_and_rebuild_keeps_recent_bits(self):
        det = RDDM(min_instances=30)
        bits = [1] * 300 + [0] * 300
        drift_at = first_drift(det, bits)
        assert drift_at is not None and drift_at >= 300
        # After the rebuild the stored segment seeds non-fresh statistics.
        assert det.count > 0

    def test_warn_limit_forces_drift(self):
        # Error rate drifts up just enough to sit in the warning band.
        rng = np.random.default_rng(3)
        stream = (rng.random(2000) < 0.7).astype(int).tolist()
        stream += (rng.random(50_000) < 0.64).astype(int).tolist()
        det = RDDM(warn_limit=40)
        verdicts = run_bits(det, stream)
        assert Verdict.DRIFT in verdicts

    def test_warning_between_levels(self):
        det = RDDM()
        rng = np.random.default_rng(8)
        bits = list((rng.random(500) < 0.8).astype(int))
        bits += list((rng.random(2000) < 0.70).astype(int))
        verdicts = run_bits(det, bits)
        assert Verdict.WARNING in verdicts
        if Verdict.DRIFT in verdicts:
            assert verdicts.index(Verdict.WARNING) < verdicts.index(Verdict.DRIFT)

    def test_min_stable_above_the_longest_stream_is_refused(self):
        # 1e30 used to reach deque(maxlen=...) and raise OverflowError.
        with pytest.raises(ValueError, match="min_stable must be <= 100000000"):
            RDDM(min_stable=MAX_LENGTH + 1)
        assert RDDM(min_stable=MAX_LENGTH).stored.maxlen == MAX_LENGTH


# --- ADWIN ------------------------------------------------------------------

class TestAdwin:
    def test_constant_bits_never_drift(self):
        for bit in (0, 1):
            det = ADWIN()
            assert all(v is Verdict.NO_CHANGE for v in run_bits(det, [bit] * 3000))

    def test_matches_brute_force_oracle_on_step_change(self):
        bits = [1] * 600 + [0] * 200
        expected = adwin_oracle_first_drift(bits, delta=0.002)
        assert expected is not None and expected > 600
        assert first_drift(ADWIN(delta=0.002), bits) == expected

    def test_matches_brute_force_oracle_on_noisy_change(self):
        rng = np.random.default_rng(11)
        bits = list((rng.random(500) < 0.9).astype(int))
        bits += list((rng.random(300) < 0.4).astype(int))
        expected = adwin_oracle_first_drift(bits, delta=0.01)
        got = first_drift(ADWIN(delta=0.01), bits)
        assert got == expected

    def test_step_change_at_spec_scale(self):
        bits = [1] * 2000 + [0] * 2000
        hit = first_drift(ADWIN(delta=0.002), bits)
        assert hit is not None and 2000 < hit < 2100

    def test_window_shrinks_after_drift(self):
        det = ADWIN(delta=0.002)
        for b in [1] * 2000 + [0] * 100:
            det.step(b)
        assert len(det) < 1000

    def test_no_significant_cut_after_each_step(self):
        rng = np.random.default_rng(2)
        bits = list((rng.random(250) < 0.8).astype(int)) + [0] * 60
        det = ADWIN(delta=0.05)
        for b in bits:
            det.step(b)
            window = det.window.tolist()
            W = len(window)
            total = sum(window)
            if W < 2:
                continue
            confidence = math.log(4.0 * W / det.delta)
            prefix = 0.0
            for k in range(1, W):
                prefix += window[k - 1]
                mu0 = prefix / k
                mu1 = (total - prefix) / (W - k)
                harmonic = 2.0 * k * (W - k) / W
                eps = math.sqrt(confidence / (2.0 * harmonic))
                assert abs(mu0 - mu1) < eps + 1e-9

    def test_bounded_window_eviction_is_not_drift(self):
        det = ADWIN(delta=1e-9, max_window=64)
        verdicts = run_bits(det, [1, 0] * 300)
        assert len(det) == 64
        assert Verdict.DRIFT not in verdicts

    def test_domain(self):
        with pytest.raises(ValueError):
            ADWIN(delta=1.5)
        with pytest.raises(ValueError):
            ADWIN(max_window=1)

    def test_delta_whose_bound_overflows_is_refused(self):
        # scale(n) = ln(4 n / delta) / 4 must be finite up to max_window.
        for delta, max_window in ((1e-310, 32768), (1e-303, 1 << 20)):
            with pytest.raises(ValueError, match="4 \\* max_window / delta overflows"):
                ADWIN(delta=delta, max_window=max_window)
        bits = np.r_[np.ones(5000), np.zeros(5000)].astype(bool)
        for delta in (1e-303, 1e-300):
            assert ADWIN(delta=delta).drift_points(bits)

    def test_max_window_above_exact_counts_is_refused(self):
        # 2**53 + 1 used to build, then overflow in the first scan's look-ahead.
        with pytest.raises(ValueError, match=r"max_window must be <= 2\*\*53"):
            ADWIN(max_window=2**53 + 1)

    def test_max_window_at_its_bound_scans_like_the_default(self):
        bits = np.r_[np.ones(3000), np.zeros(3000)].astype(bool)
        hit = ADWIN().scan(bits)
        assert hit is not None and ADWIN(max_window=2**53).scan(bits) == hit

    @pytest.mark.parametrize("max_window", [2, 3, 17, 64, 500, 32768])
    @pytest.mark.parametrize("delta", [1e-6, 0.002, 0.05, 0.3])
    def test_scan_matches_stride_one_reference(self, delta, max_window):
        rng = np.random.default_rng([int(delta * 1e6), max_window])
        for _ in range(3):
            bits = piecewise_bernoulli(rng, int(rng.integers(200, 2500)))
            det, ref = ADWIN(delta, max_window), StrideOneAdwin(delta, max_window)
            start = 0
            while start < bits.size:
                chunk = bits[start:start + int(rng.choice([1, 2, 64, 65, 299, 1024, 1025]))]
                hit = det.scan(chunk)
                ref_hit = ref.scan(chunk)
                assert hit == ref_hit, start
                start += chunk.size if hit is None else hit + 1
                assert np.array_equal(det.window, ref.window), start

    def test_scan_with_shared_and_per_step_window_starts(self):
        """Scans of 64 bits are single batches.  One that sheds at
        max_window gives each step its own window start, one that does not
        shares one; steps fire in both kinds, as in the reference.  A reset
        instance keeps its scale table and alarms like a fresh one."""
        rng = np.random.default_rng(1)
        cuts = np.sort(rng.integers(0, 600, size=4))
        rates = rng.random(5)[np.searchsorted(cuts, np.arange(600), side="right")]
        bits = (rng.random(600) < rates).astype(np.int64)
        det, ref = ADWIN(0.002, 100), StrideOneAdwin(0.002, 100)
        sheds = []  # per hit, whether its batch reached max_window
        start = 0
        while start < bits.size:
            chunk = bits[start:start + 64]
            reaches = len(det) + chunk.size > det.max_window
            hit = det.scan(chunk)
            assert hit == ref.scan(chunk), start
            assert np.array_equal(det.window, ref.window), start
            if hit is not None:
                sheds.append(reaches)
            start += chunk.size if hit is None else hit + 1
        assert True in sheds and False in sheds
        table = det._scales
        assert table.size > 64
        det.reset()
        assert det._scales is table
        want = StrideOneAdwin(0.002, 100).drift_points(bits)
        assert det.drift_points(bits) == ADWIN(0.002, 100).drift_points(bits) == want

    @pytest.mark.parametrize("max_window,before,after,seed", [
        (32768, 0.85, 0.5, 0), (32768, 0.85, 0.5, 1), (300, 0.8, 0.45, 3), (300, 0.8, 0.45, 8)])
    def test_near_tie_scans_match_stride_one_reference(self, max_window, before, after, seed):
        """The first split to fire sits on its threshold, one float step on
        either side, in the growing and the ``max_window`` regime.  Random
        streams almost never come this close, so these cases pin the grid's
        rounding margin: without it, every one of them fails."""
        rng = np.random.default_rng([max_window, seed])
        bits = np.concatenate([rng.random(1200) < before, rng.random(1300) < after])
        bits = bits.astype(np.int64)
        ref = StrideOneAdwin(0.002, max_window)
        tie = next(i for i, b in enumerate(bits) if ref.step(b) is Verdict.DRIFT)
        assert (tie >= max_window) == (max_window < bits.size)  # the window is pinned there
        fire, quiet = tie_deltas(bits[max(0, tie + 1 - max_window):tie + 1], max_window)
        assert StrideOneAdwin(fire, max_window).scan(bits) == tie
        assert StrideOneAdwin(quiet, max_window).scan(bits) != tie
        for delta in (fire, quiet):
            for chunk in (1, 64, 1024):
                det, ref = ADWIN(delta, max_window), StrideOneAdwin(delta, max_window)
                start = 0
                while start < bits.size:
                    hit = det.scan(bits[start:start + chunk])
                    assert hit == ref.scan(bits[start:start + chunk]), (delta, chunk, start)
                    start += chunk if hit is None else hit + 1
                    assert np.array_equal(det.window, ref.window), (delta, chunk, start)

    def test_long_pinned_window_matches_stride_one_reference(self):
        """12k stationary bits keep a 4096-bit window pinned at max_window
        for about 8k steps."""
        bits = (np.random.default_rng(12).random(12_000) < 0.9).astype(np.int64)
        det, ref = ADWIN(0.002, 4096), StrideOneAdwin(0.002, 4096)
        start = 0
        for chunk in [1024, 1000, 64, 1025, 1, 4096] * 3:
            hit = det.scan(bits[start:start + chunk])
            assert hit == ref.scan(bits[start:start + chunk]), start
            start += chunk if hit is None else hit + 1
            assert np.array_equal(det.window, ref.window), start
        assert start >= bits.size and len(det) == 4096

    def test_unpickled_instance_brings_its_scale_table(self, monkeypatch):
        """Unpickled where no ADWIN with its delta was built, as in a fresh
        process, an instance scans on with the table it brought."""
        bits = piecewise_bernoulli(np.random.default_rng(5), 3000)
        det = ADWIN(0.0123)
        det.scan(bits[:1000])
        blob = pickle.dumps(det)
        monkeypatch.setattr(baselines, "_SCALES", {})
        assert pickle.loads(blob).drift_points(bits[1000:]) == det.drift_points(bits[1000:])

    def test_scan_takes_any_iterable(self):
        bits = [1] * 600 + [0] * 200
        hit = ADWIN().scan(np.array(bits))
        assert hit is not None
        assert ADWIN().scan(b for b in bits) == ADWIN().scan(bits) == hit

    def test_scan_resumes_after_a_hit_like_step(self):
        rng = np.random.default_rng(21)
        bits = piecewise_bernoulli(rng, 6000)
        bits[1000:1400] = 0
        stepped, scanned = ADWIN(0.05), ADWIN(0.05)
        expected = {}
        for i, b in enumerate(bits.tolist()):
            if stepped.step(b) is Verdict.DRIFT:
                expected[i] = stepped.window
        assert len(expected) >= 2
        offset = 0
        while (hit := scanned.scan(bits[offset:])) is not None:
            offset += hit + 1
            assert np.array_equal(scanned.window, expected.pop(offset - 1))
        assert not expected
        assert np.array_equal(scanned.window, stepped.window)

    @pytest.mark.parametrize("family,length", [("circles", 30_000), ("led", 5_000)])
    def test_prequential_reset_runs_match_reference(self, family, length):
        stream = generate_stream(StreamSpec(family, length=length, seed=4))
        got = prequential_run(stream, NaiveBayes(stream.schema), ADWIN())
        want = prequential_run(stream, NaiveBayes(stream.schema), StrideOneAdwin())
        assert got.alarms and got.alarms == want.alarms
        assert got.accuracy == want.accuracy

    def test_memory_does_not_grow_with_the_scan(self):
        """A 100k circles run adds little to the peak RSS after generation:
        ADWIN's temporaries are bounded by the window and _GRID."""
        child = (
            "import resource\n"
            "from driftbench import ADWIN, StreamSpec, generate_stream, prequential_run\n"
            "stream = generate_stream(StreamSpec('circles', seed=1))\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "prequential_run(stream, detector=ADWIN())\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)\n")
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", child], env=env, check=True,
                             capture_output=True, text=True, timeout=300)
        grown_kb = int(out.stdout.split()[-1])
        assert grown_kb < 2048, grown_kb
