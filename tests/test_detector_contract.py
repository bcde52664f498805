"""The detector contract: every detector implements ``scan`` alone, and
``step`` is the base class's scan of one bit.

Each detector is gated here against a per-bit reference that keeps the
detector's rule as a ``step`` method driven once per bit, the way
``StrideOneAdwin`` gates ADWIN in ``test_baselines.py``.  Verdicts
(WARNING included), drift indices from chunked scans and the state left
behind must all be identical.
"""

import math
from collections import deque

import numpy as np
import pytest

from driftbench import (ADWIN, CUSUM, DDM, EDDM, MDDM, RDDM, Arithmetic, Euler, Geometric,
                        NaiveBayes, PageHinkley, StreamSpec, Verdict, fhddm, generate_stream,
                        prequential_run)

_NO_CHANGE, _WARNING, _DRIFT = Verdict.NO_CHANGE, Verdict.WARNING, Verdict.DRIFT


# --- per-bit references ---------------------------------------------------

class PerBit:
    """Reference form: ``scan`` drives ``step`` once per bit."""

    def scan(self, bits):
        for i, b in enumerate(bits.tolist() if hasattr(bits, "tolist") else bits):
            if self.step(b) is _DRIFT:
                return i
        return None


class RefCusum(PerBit):
    def __init__(self, slack=0.005, threshold=50.0, min_instances=30):
        self.slack = float(slack)
        self.threshold = float(threshold)
        self.min_instances = int(min_instances)
        self.reset()

    def reset(self):
        self.count = 0
        self.mean = 0.0
        self.g = 0.0

    def step(self, bit):
        error = 0.0 if bit else 1.0
        self.count += 1
        self.mean += (error - self.mean) / self.count
        self.g = max(0.0, self.g + (error - self.mean - self.slack))
        if self.count >= self.min_instances and self.g > self.threshold:
            self.reset()
            return _DRIFT
        return _NO_CHANGE


class RefPageHinkley(PerBit):
    def __init__(self, slack=0.005, threshold=50.0):
        self.slack = float(slack)
        self.threshold = float(threshold)
        self.reset()

    def reset(self):
        self.count = 0
        self.mean = 0.0
        self.cumulative = 0.0
        self.minimum = math.inf

    def step(self, bit):
        x = 0.0 if bit else 1.0
        self.count += 1
        self.mean += (x - self.mean) / self.count
        self.cumulative += x - self.mean - self.slack
        if self.cumulative < self.minimum:
            self.minimum = self.cumulative
        if self.cumulative - self.minimum > self.threshold:
            self.reset()
            return _DRIFT
        return _NO_CHANGE


class RefDdm(PerBit):
    def __init__(self, warning_level=2.0, drift_level=3.0, min_instances=30):
        self.warning_level = float(warning_level)
        self.drift_level = float(drift_level)
        self.min_instances = int(min_instances)
        self.reset()

    def reset(self):
        self.count = 0
        self.p = 1.0
        self.s = 0.0
        self.p_min = math.inf
        self.s_min = math.inf

    def _update(self, error):
        count = self.count + 1
        p = self.p + (error - self.p) / count
        self.count, self.p, self.s = count, p, math.sqrt(p * (1.0 - p) / count)

    def _level_test(self):
        level = self.p + self.s
        if level < self.p_min + self.s_min:
            self.p_min, self.s_min = self.p, self.s
        p_min, s_min = self.p_min, self.s_min
        if level > p_min + self.drift_level * s_min:
            return _DRIFT
        if level > p_min + self.warning_level * s_min:
            return _WARNING
        return _NO_CHANGE

    def step(self, bit):
        self._update(0.0 if bit else 1.0)
        if self.count < self.min_instances:
            return _NO_CHANGE
        verdict = self._level_test()
        if verdict is _DRIFT:
            self.reset()
        return verdict


class RefEddm(PerBit):
    def __init__(self, alpha=0.95, beta=0.90, min_errors=30):
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.min_errors = int(min_errors)
        self.reset()

    def reset(self):
        self.count = 0
        self.n_errors = 0
        self.last_error_at = 0
        self.dist_mean = 0.0
        self._dist_m2 = 0.0
        self.level_max = 0.0

    def step(self, bit):
        self.count += 1
        if bit:
            return _NO_CHANGE
        self.n_errors += 1
        if self.n_errors == 1:
            self.last_error_at = self.count
            return _NO_CHANGE
        distance = float(self.count - self.last_error_at)
        self.last_error_at = self.count
        m = self.n_errors - 1
        delta = distance - self.dist_mean
        self.dist_mean += delta / m
        self._dist_m2 += delta * (distance - self.dist_mean)
        std = math.sqrt(self._dist_m2 / m)
        level = self.dist_mean + 2.0 * std
        if level > self.level_max:
            self.level_max = level
        if self.n_errors < self.min_errors or self.level_max == 0.0:
            return _NO_CHANGE
        ratio = level / self.level_max
        if ratio < self.beta:
            self.reset()
            return _DRIFT
        if ratio < self.alpha:
            return _WARNING
        return _NO_CHANGE


class RefRddm(RefDdm):
    def __init__(self, warning_level=1.773, drift_level=2.258, max_concept=40000,
                 min_stable=7000, warn_limit=1400, min_instances=129):
        self.max_concept = int(max_concept)
        self.min_stable = int(min_stable)
        self.warn_limit = int(warn_limit)
        super().__init__(warning_level, drift_level, min_instances)

    def reset(self):
        super().reset()
        self.concept_size = 0
        self.stored = deque(maxlen=self.min_stable)
        self.warn_count = 0
        self._warn_start = -1

    def _rebuild(self, error):
        if self._warn_start >= 0:
            replay = list(self.stored)[self._warn_start:]
        else:
            replay = [error]
        RefDdm.reset(self)
        self.stored = deque(replay, maxlen=self.min_stable)
        for e in replay:
            self._update(e)
        self.concept_size = len(replay)
        self.warn_count = 0
        self._warn_start = -1

    def step(self, bit):
        error = 0.0 if bit else 1.0
        if len(self.stored) == self.stored.maxlen and self._warn_start > 0:
            self._warn_start -= 1
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


class RefMddm(PerBit):
    """MDDM's rule one bit at a time, with the weights of ``det``."""

    def __init__(self, det):
        self.n, self.epsilon, self._v = det.n, det.epsilon, det._v
        self.reset()

    def reset(self):
        self._win = []
        self.mu_max = 0.0

    def weighted_mean(self):
        if len(self._win) < self.n:
            return None
        arr = np.array(self._win, dtype=np.float64)
        return float(np.correlate(arr, self._v)[0])

    def step(self, bit):
        win = self._win
        if len(win) == self.n:
            del win[0]
        win.append(1 if bit else 0)
        if len(win) < self.n:
            return _NO_CHANGE
        mu = self.weighted_mean()
        if mu > self.mu_max:
            self.mu_max = mu
        if self.mu_max - mu >= self.epsilon:
            self.reset()
            return _DRIFT
        return _NO_CHANGE


# --- configurations -------------------------------------------------------

RDDM_TIGHT = [dict(max_concept=300, min_stable=stable, warn_limit=limit, min_instances=10)
              for stable in (50, 3) for limit in (20, 5, -1)]

# (id, detector factory, reference factory, stream length)
CASES = [
    ("cusum", CUSUM, RefCusum, 20_000),
    ("cusum-tight", lambda: CUSUM(0.0, 5.0, 5), lambda: RefCusum(0.0, 5.0, 5), 10_000),
    ("page_hinkley", PageHinkley, RefPageHinkley, 20_000),
    ("page_hinkley-tight", lambda: PageHinkley(0.0, 5.0), lambda: RefPageHinkley(0.0, 5.0),
     10_000),
    ("ddm", DDM, RefDdm, 20_000),
    ("ddm-tight", lambda: DDM(0.95, 1.05, 5), lambda: RefDdm(0.95, 1.05, 5), 10_000),
    ("eddm", EDDM, RefEddm, 20_000),
    ("eddm-tight", lambda: EDDM(0.999, 0.99, 5), lambda: RefEddm(0.999, 0.99, 5), 10_000),
    ("rddm", RDDM, RefRddm, 20_000),
] + [
    (f"rddm-{kw['min_stable']}-{kw['warn_limit']}", lambda kw=kw: RDDM(**kw),
     lambda kw=kw: RefRddm(**kw), 10_000)
    for kw in RDDM_TIGHT
] + [
    (f"mddm-{label}", make, lambda make=make: RefMddm(make()), 4_000)
    for label, make in [
        ("a", lambda: MDDM(Arithmetic())),
        ("g", lambda: MDDM(Geometric())),
        ("e", lambda: MDDM(Euler())),
        ("fhddm", lambda: fhddm()),
        ("a-loose", lambda: MDDM(Arithmetic(), n=10, delta=0.2)),
        ("g-loose", lambda: MDDM(Geometric(1.1), n=10, delta=0.2)),
    ]
]

SEEDS = range(3)


def piecewise_bernoulli(rng, length):
    """Bits in a few segments, each with its own success rate."""
    cuts = np.sort(rng.integers(0, length, size=rng.integers(1, 8)))
    rates = rng.random(cuts.size + 1)
    segment = np.searchsorted(cuts, np.arange(length), side="right")
    return (rng.random(length) < rates[segment]).astype(np.int64)


def state(det):
    """What a detector holds between bits, in comparable form."""
    if isinstance(det, (MDDM, RefMddm)):
        return {"_win": list(det._win), "mu_max": det.mu_max}
    out = {k: list(v) if isinstance(v, deque) else v for k, v in vars(det).items()}
    out.pop("warning", None)
    return out


def _case_stream(case_id, seed, length):
    rng = np.random.default_rng([seed, sum(map(ord, case_id))])
    return rng, piecewise_bernoulli(rng, length)


# --- gates ----------------------------------------------------------------

@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("case_id,make,make_ref,length", CASES, ids=[c[0] for c in CASES])
def test_step_verdicts_equal_the_reference(case_id, make, make_ref, length, seed):
    _, bits = _case_stream(case_id, seed, length)
    det, ref = make(), make_ref()
    got, want = [], []
    for b in bits.tolist():
        got.append(det.step(b))
        want.append(ref.step(b))
        assert det.warning is (got[-1] is _WARNING)
    assert got == want
    assert state(det) == state(ref)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("case_id,make,make_ref,length", CASES, ids=[c[0] for c in CASES])
def test_chunked_scan_equals_the_reference(case_id, make, make_ref, length, seed):
    rng, bits = _case_stream(case_id, seed, length)
    assert_chunked_scan_matches(make(), make_ref(), bits, rng)


def assert_chunked_scan_matches(det, ref, bits, rng):
    """Scan ``bits`` in random chunks of 1-5000 and step ``ref`` over the
    bits each scan consumed: drift indices, state and warning agree after
    every chunk."""
    verdicts = []
    got = []
    start = 0
    while start < bits.size:
        chunk = bits[start:start + int(rng.integers(1, 5001))]
        hit = det.scan(chunk)
        # The reference steps over the bits the scan consumed, so a state
        # the scan failed to write back shows at the chunk that left it.
        consumed = chunk.size if hit is None else hit + 1
        verdicts += [ref.step(b) for b in chunk[:consumed].tolist()]
        if hit is not None:
            got.append(start + hit)
        start += consumed
        assert state(det) == state(ref), start
        assert det.warning is (verdicts[-1] is _WARNING), start
    want = [i for i, v in enumerate(verdicts) if v is _DRIFT]
    assert got == want
    assert state(det) == state(ref)
    assert det.warning is (verdicts[-1] is _WARNING)


def test_the_fuzz_draws_alarms_and_warnings():
    """The gates above are only as strong as their streams: every case
    alarms, and every warning detector warns (RDDM with ``warn_limit=-1``
    turns each warning into a drift)."""
    for case_id, _, make_ref, length in CASES:
        verdicts = set()
        for seed in SEEDS:
            _, bits = _case_stream(case_id, seed, length)
            ref = make_ref()
            verdicts.update(ref.step(b) for b in bits.tolist())
        assert _DRIFT in verdicts, case_id
        if case_id.startswith(("ddm", "eddm", "rddm")) and not case_id.endswith("-1"):
            assert _WARNING in verdicts, case_id


# --- MDDM's window certificate ---------------------------------------------
#
# Once the running maximum is the all-ones mean, MDDM computes means only
# for windows with fewer than ``_sure_ones`` ones.  These inputs sit on
# the edges of that rule; each goes through the chunked gate above and
# through drift_points, against the per-bit reference.

def _sparse_errors(det, rng):
    """One error every n + 1 to 2n bits: saturated, and no window is a
    candidate."""
    gaps = rng.integers(det.n + 1, 2 * det.n + 1, size=200)
    bits = np.ones(int(gaps.sum()), dtype=np.int64)
    bits[np.cumsum(gaps) - 1] = 0
    return bits


def _clusters(zeros_below_quorum):
    """All-ones stretches broken by clusters of n + 1 - k zeros, k the
    certificate's quorum, less ``zeros_below_quorum``."""
    def bits(det, rng):
        zeros = det.n + 1 - det._sure_ones - zeros_below_quorum
        parts = []
        for _ in range(40):
            parts += [np.ones(det.n + int(rng.integers(0, 3 * det.n)), dtype=np.int64),
                      np.zeros(zeros, dtype=np.int64)]
        return np.concatenate(parts)
    return bits


def _piecewise(det, rng):
    return piecewise_bernoulli(rng, 6_000)


CERTIFICATE_CASES = [
    ("sparse-a", lambda: MDDM(Arithmetic()), _sparse_errors),
    ("sparse-fhddm", lambda: fhddm(100), _sparse_errors),
    *[(f"cluster-{label}-{below}", make, _clusters(below))
      for label, make in [("a", lambda: MDDM(Arithmetic())), ("g", lambda: MDDM(Geometric())),
                          ("fhddm", lambda: fhddm()), ("a-100", lambda: MDDM(Arithmetic(), 100))]
      for below in (0, 1)],
    # v_0 is below half an ulp of the all-ones mean, so a window whose
    # oldest bit is 0 has that mean too.
    ("g-huge-ratio", lambda: MDDM(Geometric(1e3), n=10, delta=1e-3), _piecewise),
    ("explicit-weights",
     lambda: MDDM(n=20, delta=1e-2, weights=np.random.default_rng(8).random(20) + 0.05),
     _piecewise),
    ("n-1", lambda: MDDM(n=1, delta=0.3), _piecewise),
    ("delta-near-1", lambda: MDDM(Arithmetic(), delta=1 - 1e-12), _piecewise),
]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("case_id,make,make_bits", CERTIFICATE_CASES,
                         ids=[c[0] for c in CERTIFICATE_CASES])
def test_mddm_certificate_edges_equal_the_reference(case_id, make, make_bits, seed):
    rng = np.random.default_rng([seed, sum(map(ord, case_id))])
    bits = make_bits(make(), rng)
    assert_chunked_scan_matches(make(), RefMddm(make()), bits, rng)
    det, ref = make(), RefMddm(make())
    want = [i for i, b in enumerate(bits.tolist()) if ref.step(b) is _DRIFT]
    assert det.drift_points(bits) == want
    assert state(det) == state(ref)


def test_mddm_certificate_edges_across_small_blocks(monkeypatch):
    """Blocks of a few windows put block edges inside candidate runs,
    refill gaps and the switch to the saturated scan."""
    from driftbench.detectors import mddm
    monkeypatch.setattr(mddm, "_SCAN_CHUNK", 3)
    monkeypatch.setattr(mddm, "_MIN_BLOCK", 2)
    for case_id, make, make_bits in CERTIFICATE_CASES:
        rng = np.random.default_rng(sum(map(ord, case_id)))
        bits = make_bits(make(), rng)
        assert_chunked_scan_matches(make(), RefMddm(make()), bits, rng)
        det, ref = make(), RefMddm(make())
        want = [i for i, b in enumerate(bits.tolist()) if ref.step(b) is _DRIFT]
        assert det.drift_points(bits) == want, case_id
        assert state(det) == state(ref), case_id


def test_mddm_small_blocks_equal_default_blocks(monkeypatch):
    """Random weighted windows scanned in blocks of a few windows give what
    the default blocks give.  After a drift a block can start inside
    means the block before it computed; it must then advance by the
    means it got, not by the ones it asked for."""
    from driftbench.detectors import mddm
    rng = np.random.default_rng(5)
    cases = []
    for _ in range(2000):
        params = dict(scheme=Arithmetic(float(rng.choice([0.5, 2.0, 10.0, 100.0]))),
                      n=int(rng.integers(2, 12)), delta=float(rng.choice([0.5, 0.2, 0.05, 1e-3])))
        bits = (rng.random(400) < np.repeat(rng.random(8), 50)).astype(np.int64)
        det = MDDM(**params)
        cases.append((params, bits, det.drift_points(bits), state(det)))
    monkeypatch.setattr(mddm, "_SCAN_CHUNK", 3)
    monkeypatch.setattr(mddm, "_MIN_BLOCK", 2)
    for params, bits, want, want_state in cases:
        det = MDDM(**params)
        assert det.drift_points(bits) == want, params
        assert state(det) == want_state, params


def test_mddm_certificate_cases_reach_their_edges():
    """The certificate cases test what their names say: the maximum
    saturates, a cluster of n + 1 - k zeros fires and one of n - k never
    does, and the special weight vectors have the stated quorum."""
    rng = np.random.default_rng(0)
    for case_id, make, make_bits in CERTIFICATE_CASES:
        det, ref = make(), RefMddm(make())
        bits = make_bits(det, rng)
        alarms = [i for i, b in enumerate(bits.tolist()) if ref.step(b) is _DRIFT]
        if case_id.startswith("sparse"):
            ones = np.convolve(bits, np.ones(det.n, dtype=np.int64), "valid")
            assert ones.min() >= det._sure_ones and not alarms, case_id
            det.drift_points(bits)
            assert det.mu_max == det._top, case_id
        if case_id.startswith("cluster"):
            # Every cluster ends at an alarm, or none does.
            zero_ends = np.flatnonzero(np.diff(np.r_[bits, 1]) == 1).tolist()
            assert alarms == (zero_ends if case_id.endswith("-0") else []), case_id
    huge = MDDM(Geometric(1e3), n=10, delta=1e-3)
    assert np.correlate(np.r_[0.0, np.ones(9)], huge._v)[0] == huge._top
    assert MDDM(n=1, delta=0.3)._sure_ones == 1
    assert MDDM(Arithmetic(), delta=1 - 1e-12)._sure_ones == 25


@pytest.mark.parametrize("make,make_ref", [
    (CUSUM, RefCusum), (PageHinkley, RefPageHinkley), (DDM, RefDdm), (EDDM, RefEddm),
    (RDDM, RefRddm)], ids=["cusum", "page_hinkley", "ddm", "eddm", "rddm"])
def test_prequential_reset_run_equals_the_reference(make, make_ref):
    stream = generate_stream(StreamSpec("circles", length=30_000, seed=4))
    got = prequential_run(stream, NaiveBayes(stream.schema), make(), policy="reset")
    want = prequential_run(stream, NaiveBayes(stream.schema), make_ref(), policy="reset")
    assert got.alarms and got.alarms == want.alarms
    assert got.accuracy == want.accuracy


# --- the contract ---------------------------------------------------------

ALL_TEN = {
    "mddm_a": lambda: MDDM(Arithmetic()), "mddm_g": lambda: MDDM(Geometric()),
    "mddm_e": lambda: MDDM(Euler()), "fhddm": fhddm, "cusum": CUSUM,
    "page_hinkley": PageHinkley, "ddm": DDM, "eddm": EDDM, "rddm": RDDM, "adwin": ADWIN,
}


@pytest.mark.parametrize("name", sorted(ALL_TEN))
def test_drift_points_takes_any_iterable(name):
    make = ALL_TEN[name]
    bits = ([1] * 2000 + [0] * 300) * 2
    want = make().drift_points(np.array(bits))
    assert want
    assert make().drift_points(bits) == want
    assert make().drift_points(iter(bits)) == want
    assert make().drift_points(b for b in bits) == want


@pytest.mark.parametrize("name", sorted(ALL_TEN))
def test_each_detector_implements_only_scan(name):
    det = ALL_TEN[name]()
    assert "step" not in vars(type(det)) and "scan" in vars(type(det))
