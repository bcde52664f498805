"""Weighted-window detector: weights, bound, verdict semantics."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftbench import (
    MDDM,
    Arithmetic,
    Euler,
    Geometric,
    Uniform,
    Verdict,
    build_weights,
    compute_epsilon,
    fhddm,
)


def oracle_epsilon(weights, delta):
    """Straight transcription of the bound: sqrt(sum(v^2)/2 * ln(1/delta))."""
    total = sum(weights)
    ssq = sum((w / total) ** 2 for w in weights)
    return math.sqrt(ssq / 2.0 * math.log(1.0 / delta))


def oracle_verdicts(bits, weights, delta):
    """Independent step-by-step evaluator of the detection rule.

    Keeps the un-normalised mean sum(p*w)/sum(w) and a plain python
    window list; no code shared with the implementation.
    """
    n = len(weights)
    eps = oracle_epsilon(weights, delta)
    wsum = sum(weights)
    window = []
    mu_max = 0.0
    out = []
    for b in bits:
        if len(window) == n:
            window.pop(0)
        window.append(1 if b else 0)
        if len(window) < n:
            out.append(False)
            continue
        mu = sum(p * w for p, w in zip(window, weights)) / wsum
        if mu > mu_max:
            mu_max = mu
        if mu_max - mu >= eps:
            out.append(True)
            window = []
            mu_max = 0.0
        else:
            out.append(False)
    return out


def step_verdicts(det, bits):
    return [det.step(b) is Verdict.DRIFT for b in bits]


class TestBuildWeights:
    def test_uniform(self):
        assert build_weights(Uniform(), 3).tolist() == [1.0, 1.0, 1.0]

    def test_arithmetic(self):
        assert build_weights(Arithmetic(0.01), 3).tolist() == [1.0, 1.01, 1.02]

    def test_geometric(self):
        w = build_weights(Geometric(1.01), 3)
        assert w.tolist() == pytest.approx([1.0, 1.01, 1.0201], rel=1e-12)

    def test_euler_equals_geometric_with_exp_rate(self):
        assert np.array_equal(build_weights(Euler(0.03), 40),
                              build_weights(Geometric(math.exp(0.03)), 40))

    def test_first_weight_is_one_and_strictly_increasing(self):
        for scheme in (Arithmetic(0.5), Geometric(1.2), Euler(0.2)):
            w = build_weights(scheme, 17)
            assert w[0] == 1.0
            assert np.all(np.diff(w) > 0)

    def test_degenerate_parameters_give_uniform(self):
        ones = np.ones(12)
        for scheme in (Arithmetic(0.0), Geometric(1.0), Euler(0.0)):
            assert np.array_equal(build_weights(scheme, 12), ones)

    @pytest.mark.parametrize("scheme", [
        lambda: Arithmetic(-0.1),
        lambda: Geometric(0.99),
        lambda: Euler(-1e-9),
    ])
    def test_parameter_domain_errors(self, scheme):
        with pytest.raises(ValueError):
            scheme()

    def test_bad_window_size(self):
        with pytest.raises(ValueError):
            build_weights(Uniform(), 0)


class TestNonFiniteWeights:
    """Weights or a weight sum that overflow used to give epsilon = NaN
    (a detector that never fires) or a bare OverflowError."""

    @pytest.mark.parametrize("weights", [[1.0, math.nan], [1.0, math.inf], [1e308, 1e308]])
    def test_explicit_weights(self, weights):
        with pytest.raises(ValueError, match="weights"):
            MDDM(n=2, weights=weights)
        with pytest.raises(ValueError, match="weights"):
            compute_epsilon(weights, 1e-6)

    @pytest.mark.parametrize("scheme,n,name", [
        (Geometric(10.0), 400, "geometric weight ratio r=10.0"),
        (Arithmetic(1e306), 400, "arithmetic weight step d=1e+306"),
        (Arithmetic(1e305), 400, "arithmetic weight step d=1e+305"),  # finite weights, sum overflows
        (Euler(1000.0), 25, "euler weight rate 1000.0"),
        (Euler(10.0), 400, "euler weight rate 10.0"),
    ])
    def test_overflowing_scheme_names_its_parameter(self, scheme, n, name):
        with pytest.raises(ValueError, match=f"^{re.escape(name)} overflows"):
            build_weights(scheme, n)
        with pytest.raises(ValueError, match=re.escape(name)):
            MDDM(scheme, n=n)

    def test_large_finite_weights_stay_valid(self):
        # d=1e300 at n=400 has weights up to 4e302 and a sum of 8e304.
        det = MDDM(Arithmetic(1e300), n=400)
        assert math.isfinite(det.epsilon) and det._sure_ones <= det.n


class TestComputeEpsilon:
    def test_single_uniform_weight(self):
        assert compute_epsilon([1.0], math.exp(-2.0)) == pytest.approx(1.0, abs=1e-12)

    def test_uniform_25(self):
        eps = compute_epsilon(np.ones(25), 1e-6)
        assert eps == pytest.approx(0.525652, abs=1e-6)
        assert eps == pytest.approx(oracle_epsilon([1.0] * 25, 1e-6), abs=1e-12)

    def test_arithmetic_25(self):
        w = build_weights(Arithmetic(0.01), 25)
        eps = compute_epsilon(w, 1e-6)
        assert eps == pytest.approx(0.526742, abs=1e-5)
        assert eps == pytest.approx(oracle_epsilon(list(w), 1e-6), abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            compute_epsilon(np.ones(5), 0.0)
        with pytest.raises(ValueError):
            compute_epsilon(np.ones(5), 1.0)
        with pytest.raises(ValueError):
            compute_epsilon([], 0.5)
        with pytest.raises(ValueError):
            compute_epsilon([1.0, -1.0], 0.5)

    def test_monotone_in_window_size(self):
        eps = [compute_epsilon(np.ones(n), 1e-6) for n in (5, 10, 25, 50, 100)]
        assert all(b < a for a, b in zip(eps, eps[1:]))

    def test_monotone_in_confidence(self):
        eps = [compute_epsilon(np.ones(25), d) for d in (1e-2, 1e-4, 1e-6, 1e-8)]
        assert all(b > a for a, b in zip(eps, eps[1:]))

    def test_monotone_in_arithmetic_step(self):
        eps = [compute_epsilon(build_weights(Arithmetic(d), 25), 1e-6)
               for d in (0.0, 0.01, 0.05, 0.2)]
        assert all(b > a for a, b in zip(eps, eps[1:]))

    def test_scale_invariance(self):
        w = build_weights(Geometric(1.01), 50)
        assert compute_epsilon(w, 1e-6) == pytest.approx(
            compute_epsilon(3.7 * w, 1e-6), rel=1e-12)


class TestWeightedMean:
    def test_not_full_returns_none(self):
        det = MDDM(Uniform(), n=4)
        det.step(1)
        assert det.weighted_mean() is None

    def test_all_ones(self):
        det = MDDM(Geometric(1.05), n=8)
        for _ in range(8):
            det.step(1)
        assert det.weighted_mean() == pytest.approx(1.0, abs=1e-12)

    def test_all_zeros(self):
        det = MDDM(Arithmetic(0.3), n=8, delta=1e-12)
        for _ in range(8):
            det.step(0)
        assert det.weighted_mean() == pytest.approx(0.0, abs=1e-15)

    def test_hand_computed_value(self):
        det = MDDM(Arithmetic(0.01), n=3)
        for b in (0, 1, 1):
            det.step(b)
        assert det.weighted_mean() == pytest.approx((1.01 + 1.02) / 3.03, rel=1e-12)
        assert det.weighted_mean() != pytest.approx(2.0 / 3.0, abs=1e-4)


class TestStepResponse:
    """Noiseless step response: all-ones then all-zeros."""

    def drift_zero_index(self, det):
        for _ in range(det.n):
            assert det.step(1) is Verdict.NO_CHANGE
        zeros = 0
        while True:
            zeros += 1
            if det.step(0) is Verdict.DRIFT:
                return zeros

    def test_uniform_25_fires_on_14th_zero(self):
        assert self.drift_zero_index(MDDM(Uniform(), n=25, delta=1e-6)) == 14

    def test_arithmetic_25_fires_on_13th_zero(self):
        assert self.drift_zero_index(MDDM(Arithmetic(0.01), n=25, delta=1e-6)) == 13

    def test_matches_oracle(self):
        for scheme in (Uniform(), Arithmetic(0.01), Geometric(1.01)):
            weights = build_weights(scheme, 25)
            bits = [1] * 25 + [0] * 25
            expected = oracle_verdicts(bits, list(weights), 1e-6)
            det = MDDM(scheme, n=25, delta=1e-6)
            assert step_verdicts(det, bits) == expected

    def test_constant_ones_never_drift(self):
        det = MDDM(Geometric(1.01), n=10, delta=0.4)
        assert all(det.step(1) is not Verdict.DRIFT for _ in range(5000))


class TestResetSemantics:
    def test_partial_window_no_verdict(self):
        det = MDDM(Uniform(), n=25, delta=1e-6)
        det.reset()
        assert all(det.step(0) is Verdict.NO_CHANGE for _ in range(24))

    def test_reset_idempotent(self):
        det = MDDM(Arithmetic(0.01), n=5)
        for b in (1, 0, 1):
            det.step(b)
        det.reset()
        win, mu = det.window, det.mu_max
        det.reset()
        assert det.window == win == ()
        assert det.mu_max == mu == 0.0

    def test_state_after_drift_equals_fresh_reset(self):
        det = MDDM(Uniform(), n=25, delta=1e-6)
        for _ in range(25):
            det.step(1)
        verdicts = [det.step(0) for _ in range(14)]
        assert verdicts[-1] is Verdict.DRIFT
        fresh = MDDM(Uniform(), n=25, delta=1e-6)
        assert det.window == fresh.window
        assert det.mu_max == fresh.mu_max
        assert det.epsilon == fresh.epsilon
        assert np.array_equal(det.weights, fresh.weights)

    def test_weights_and_epsilon_survive_reset(self):
        det = MDDM(Geometric(1.02), n=9, delta=1e-3)
        eps, weights = det.epsilon, det.weights.copy()
        det.reset()
        assert det.epsilon == eps
        assert np.array_equal(det.weights, weights)


def random_bits(seed, n, p=0.5):
    return (np.random.default_rng(seed).random(n) < p).astype(np.int8)


class TestEquivalences:
    def test_geometric_euler_exact(self):
        bits = random_bits(1, 50_000)
        g = MDDM(Geometric(math.exp(0.01)), n=25, delta=1e-6)
        e = MDDM(Euler(0.01), n=25, delta=1e-6)
        assert g.drift_points(bits) == e.drift_points(bits)

    def test_degenerate_schemes_equal_uniform(self):
        bits = random_bits(2, 50_000)
        reference = fhddm(25, 1e-6).drift_points(bits)
        for scheme in (Arithmetic(0.0), Geometric(1.0), Euler(0.0)):
            assert MDDM(scheme, n=25, delta=1e-6).drift_points(bits) == reference
        assert len(reference) > 0

    def test_weight_scale_invariance(self):
        bits = random_bits(3, 20_000)
        for c in (0.5, 3.7):
            for scheme in (Arithmetic(0.01), Geometric(1.01)):
                w = build_weights(scheme, 25)
                base = MDDM(scheme, n=25, delta=1e-6)
                scaled = MDDM(scheme, n=25, delta=1e-6, weights=c * w)
                assert base.epsilon == pytest.approx(scaled.epsilon, rel=1e-12)
                assert base.drift_points(bits) == scaled.drift_points(bits)

    def test_scan_matches_step(self):
        bits = random_bits(4, 30_000)
        for scheme in (Uniform(), Arithmetic(0.01), Geometric(1.01), Euler(0.02)):
            batch = MDDM(scheme, n=25, delta=1e-4).drift_points(bits)
            det = MDDM(scheme, n=25, delta=1e-4)
            stepped = [i for i, b in enumerate(bits) if det.step(b) is Verdict.DRIFT]
            assert batch == stepped

    def test_scan_accepts_any_iterable(self):
        # DriftDetector.scan takes any iterable of bits, generators included.
        bits = random_bits(7, 3_000).tolist()
        for method in ("scan", "drift_points"):
            listed = getattr(MDDM(Arithmetic(0.01), 25, 1e-3), method)(bits)
            generated = getattr(MDDM(Arithmetic(0.01), 25, 1e-3), method)(b for b in bits)
            assert listed not in (None, []) and generated == listed, method
        assert MDDM().scan(iter([1] * 100)) is None

    def test_drift_points_from_dirty_state(self):
        # The one-pass batch path must agree with step() regardless of the
        # detector's entry state and leave identical state behind.
        rng = np.random.default_rng(6)
        for prefix_len in (0, 3, 24, 25, 60):
            for tail_len in (0, 5, 26, 3000):
                prefix = (rng.random(prefix_len) < 0.5).astype(int).tolist()
                bits = (rng.random(tail_len) < 0.45).astype(np.int8)
                batch = MDDM(Arithmetic(0.02), 25, 1e-3)
                ref = MDDM(Arithmetic(0.02), 25, 1e-3)
                for b in prefix:
                    batch.step(b)
                    ref.step(b)
                expected = [i for i, b in enumerate(bits)
                            if ref.step(b) is Verdict.DRIFT]
                assert batch.drift_points(bits) == expected
                assert batch.window == ref.window
                assert batch.mu_max == pytest.approx(ref.mu_max, abs=1e-15)

    def test_scan_resumes_mid_window(self):
        bits = random_bits(5, 5_000)
        det_a = MDDM(Arithmetic(0.01), n=25, delta=1e-4)
        det_b = MDDM(Arithmetic(0.01), n=25, delta=1e-4)
        expected = [i for i, b in enumerate(bits) if det_a.step(b) is Verdict.DRIFT]
        got = []
        pos = 0
        # Feed in ragged pieces so scans start with partially filled windows.
        for size in (7, 13, 100, 4999):
            chunk = bits[pos:pos + size]
            base = pos
            offset = 0
            while True:
                hit = det_b.scan(chunk[offset:])
                if hit is None:
                    break
                got.append(base + offset + hit)
                offset += hit + 1
            pos += len(chunk)
        assert got == expected


class TestOracleEquivalence:
    @pytest.mark.parametrize("scheme,delta", [
        (Uniform(), 0.3),
        (Arithmetic(0.3), 0.3),
        (Geometric(1.5), 0.25),
        (Euler(0.4), 0.25),
    ])
    def test_exhaustive_small_windows(self, scheme, delta):
        for n in (2, 3):
            weights = list(build_weights(scheme, n))
            det = MDDM(scheme, n=n, delta=delta)
            for code in range(2 ** (2 * n)):
                bits = [(code >> k) & 1 for k in range(2 * n)]
                det.reset()
                assert step_verdicts(det, bits) == oracle_verdicts(bits, weights, delta)

    @settings(max_examples=120, deadline=None)
    @given(st.integers(4, 8), st.lists(st.integers(0, 1), min_size=1, max_size=64),
           st.sampled_from([0.2, 0.35, 0.5]))
    def test_sampled_windows_match_oracle(self, n, bits, delta):
        scheme = Arithmetic(0.1)
        det = MDDM(scheme, n=n, delta=delta)
        weights = list(build_weights(scheme, n))
        assert step_verdicts(det, bits) == oracle_verdicts(bits, weights, delta)


class TestWindowCertificate:
    """The two facts the scan's window certificate rests on (see the MDDM
    docstring), on every scheme."""

    SCHEMES = [Uniform(), Arithmetic(0.01), Arithmetic(3.0), Geometric(1.01), Geometric(1e3),
               Euler(0.2)]

    @pytest.mark.parametrize("scheme", SCHEMES, ids=repr)
    @pytest.mark.parametrize("n", [1, 2, 25, 100])
    def test_all_ones_mean_is_top_at_every_offset(self, scheme, n):
        det = MDDM(scheme, n=n)
        ones = np.ones(3_000 + n)
        for offset in range(8):
            assert np.all(np.correlate(ones[offset:], det._v, "valid") == det._top)

    @pytest.mark.parametrize("scheme", SCHEMES, ids=repr)
    @pytest.mark.parametrize("n", [2, 25, 100])
    def test_no_window_mean_exceeds_top(self, scheme, n):
        det = MDDM(scheme, n=n)
        rng = np.random.default_rng(n)
        bits = (rng.random(3_000 + n) < rng.random()).astype(np.float64)
        means = np.correlate(bits, det._v, "valid")
        assert means.max() <= det._top
        # And one window at a time, at random offsets of its own array.
        for _ in range(200):
            offset = int(rng.integers(0, 8))
            window = np.r_[np.zeros(offset), rng.random(n) < 0.9]
            assert np.correlate(window[offset:], det._v)[0] <= det._top

    @pytest.mark.parametrize("n,delta", [(1, 0.3), (2, 0.1), (25, 1e-6), (25, 0.5),
                                         (100, 1e-6), (25, 1 - 1e-12)])
    def test_candidate_runs_cover_every_candidate(self, n, delta):
        from driftbench.detectors.mddm import _MIN_BLOCK
        det = MDDM(Arithmetic(), n=n, delta=delta)
        rng = np.random.default_rng(n)
        for p in (0.0, 0.3, 0.6, 0.9, 0.99, 1.0):
            flags = rng.random(int(rng.integers(n, 3_000))) < p
            m = flags.size - n + 1
            ones = np.convolve(flags.astype(np.int64), np.ones(n, dtype=np.int64), "valid")
            cand = np.flatnonzero(ones < det._sure_ones)
            first, end = det._candidate_runs(flags, m)
            inside = np.zeros(m, dtype=bool)
            for a, b in zip(first.tolist(), end.tolist()):
                assert ones[a] < det._sure_ones and ones[b - 1] < det._sure_ones
                inside[a:b] = True
            assert inside[cand].all()
            assert np.all(first[1:] - end[:-1] >= _MIN_BLOCK)

    def test_quorum_is_the_fewest_ones_that_cannot_fire(self):
        for scheme in self.SCHEMES:
            det = MDDM(scheme, n=25, delta=1e-3)
            k = det._sure_ones
            lowest = np.r_[0.0, np.cumsum(np.sort(det._v))]
            assert det._top - lowest[k] < det.epsilon
            assert k == 0 or det._top - lowest[k - 1] >= det.epsilon - 1e-12


class TestInvariantTracking:
    def test_mu_max_monotone_between_resets_and_gap_nonnegative(self):
        det = MDDM(Arithmetic(0.05), n=10, delta=1e-3)
        rng = np.random.default_rng(9)
        last = 0.0
        for b in (rng.random(5_000) < 0.7).astype(int):
            verdict = det.step(b)
            if verdict is Verdict.DRIFT:
                last = 0.0
                continue
            assert det.mu_max >= last - 1e-15
            mu = det.weighted_mean()
            if mu is not None:
                assert det.mu_max - mu >= -1e-15
            last = det.mu_max

    def test_determinism(self):
        bits = random_bits(11, 10_000, p=0.8)
        a = MDDM(Geometric(1.01), n=25, delta=1e-5).drift_points(bits)
        b = MDDM(Geometric(1.01), n=25, delta=1e-5).drift_points(bits)
        assert a == b

    def test_explicit_weights_shape_checked(self):
        with pytest.raises(ValueError):
            MDDM(Uniform(), n=5, weights=np.ones(4))

    def test_fhddm_equals_uniform_bound(self):
        det = fhddm(25, 1e-6)
        assert det.epsilon == pytest.approx(math.sqrt(math.log(1e6) / 50.0), rel=1e-12)
