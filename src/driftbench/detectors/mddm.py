"""Weighted sliding-window drift detection bounded by McDiarmid's inequality.

The detector keeps a fixed-capacity FIFO window over prediction bits in
which newer entries carry larger weights, tracks the maximum weighted
mean observed since the last reset, and signals a drift as soon as the
gap between that maximum and the current weighted mean reaches a
significance bound derived from McDiarmid's inequality:

    epsilon = sqrt( sum(v_i^2) / 2 * ln(1/delta) ),   v_i = w_i / sum(w)

Three weight growth laws are provided (arithmetic, geometric, and the
exponential law expressed through a rate, which is the geometric law
with ratio e**rate), plus uniform weights.  With uniform weights the
bound reduces to the Hoeffding bound on a sliding window, i.e. the
FHDDM detector, which :func:`fhddm` constructs directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from ..errors import as_int
from .base import _SCAN_SLICE, DriftDetector

DEFAULT_DELTA = 1e-6
DEFAULT_ARITHMETIC_STEP = 0.01
DEFAULT_GEOMETRIC_RATIO = 1.01
DEFAULT_EULER_RATE = 0.01


@dataclass(frozen=True)
class Arithmetic:
    """Linear weight growth: w_i = 1 + (i - 1) * d, oldest entry first."""

    d: float = DEFAULT_ARITHMETIC_STEP

    def __post_init__(self):
        if self.d < 0:
            raise ValueError(f"arithmetic weight step must be >= 0, got {self.d}")


@dataclass(frozen=True)
class Geometric:
    """Exponential weight growth: w_i = r ** (i - 1), ratio r >= 1."""

    r: float = DEFAULT_GEOMETRIC_RATIO

    def __post_init__(self):
        if self.r < 1:
            raise ValueError(f"geometric weight ratio must be >= 1, got {self.r}")


@dataclass(frozen=True)
class Euler:
    """Exponential weight growth through a rate: w_i = e ** (rate * (i - 1)).

    Identical by definition to :class:`Geometric` with r = e ** rate; the
    weights are built through that identity so the two detectors agree
    bit for bit.
    """

    rate: float = DEFAULT_EULER_RATE

    def __post_init__(self):
        if self.rate < 0:
            raise ValueError(f"euler weight rate must be >= 0, got {self.rate}")


@dataclass(frozen=True)
class Uniform:
    """All weights equal; the window mean is the plain mean."""


WeightScheme = Union[Arithmetic, Geometric, Euler, Uniform]


def build_weights(scheme: WeightScheme, n: int) -> np.ndarray:
    """Weight vector of length ``n`` for ``scheme``, index 0 = oldest entry.

    The first weight is 1 for every scheme and weights are strictly
    increasing toward the newest entry whenever the scheme parameter is
    strictly above its lower bound.  A parameter whose weights or weight
    sum overflow float64 over ``n`` entries is a ValueError naming it.
    """
    if n < 1:
        raise ValueError(f"window size must be >= 1, got {n}")
    if isinstance(scheme, Uniform):
        return np.ones(n)
    steps = np.arange(n, dtype=np.float64)
    with np.errstate(over="ignore"):
        if isinstance(scheme, Arithmetic):
            weights, param = 1.0 + scheme.d * steps, f"arithmetic weight step d={scheme.d}"
        elif isinstance(scheme, Geometric):
            weights, param = scheme.r ** steps, f"geometric weight ratio r={scheme.r}"
        elif isinstance(scheme, Euler):
            try:  # Geometric's ratio e ** rate, so that the two agree bit for bit
                ratio = math.exp(scheme.rate)
            except OverflowError:
                ratio = math.inf
            weights, param = ratio ** steps, f"euler weight rate {scheme.rate}"
        else:
            raise TypeError(f"unknown weight scheme: {scheme!r}")
    try:
        _weight_sum(weights)
    except ValueError:
        raise ValueError(f"{param} overflows float64 over a window of {n}") from None
    return weights


def _weight_sum(weights: np.ndarray) -> float:
    """Compensated sum of ``weights``; a ValueError unless it and every
    weight are finite."""
    if not np.all(np.isfinite(weights)):
        raise ValueError("weights must all be finite")
    try:
        total = math.fsum(weights)
    except OverflowError:
        total = math.inf
    if not math.isfinite(total):
        raise ValueError("the sum of the weights overflows float64")
    return total


def compute_epsilon(weights: Sequence[float], delta: float) -> float:
    """Significance bound for a weighted window at confidence ``delta``.

    Weight sums use compensated summation so long geometric windows do
    not lose precision.  The bound depends only on the normalised
    weights, so scaling every weight by a positive constant leaves it
    unchanged.  Weights must be positive and finite, with a finite sum.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    w = np.asarray(weights, dtype=np.float64)
    if w.size == 0:
        raise ValueError("weight vector must not be empty")
    total = _weight_sum(w)
    if np.any(w <= 0):
        raise ValueError("weights must all be positive")
    v = w / total
    return math.sqrt(math.fsum(v * v) / 2.0 * math.log(1.0 / delta))


class MDDM(DriftDetector):
    """Weighted sliding-window detector with a McDiarmid significance bound.

    Args:
        scheme: weight growth law (default arithmetic with step 0.01).
        n: window capacity in prediction bits.
        delta: confidence level of the bound, in (0, 1).
        weights: optional explicit weight vector of length ``n``
            overriding the scheme-built one (weights must be positive;
            any positive rescaling yields identical behaviour).

    Verdicts before the window first fills are NO_CHANGE, and the
    detector never emits WARNING.  On a drift it resets itself (empty
    window, maximum mean zero) before returning.

    ``scan`` skips the means that cannot change a verdict, by a window
    certificate that rests on two facts about the computed means:

    * Each ``np.correlate`` output is one inner product of the same
      ``n`` weights in the same order, whatever the alignment of the
      window in memory (``weighted_mean`` relies on this too).  Its
      products are exactly 0 or v_i, and rounding is monotone for sums
      of nonnegative terms, so no window's computed mean exceeds that of
      the all-ones window, ``top``.  Once the running maximum is ``top``,
      no window can raise it.
    * A window with m ones has a mean of at least the sum S_m of the m
      smallest v_i.  So once the maximum is ``top``, a window with at
      least ``_sure_ones`` ones, the fewest m with
      ``top - S_m + tol < epsilon``, cannot fire.  ``tol`` bounds the
      rounding: an inner product of ``n`` exact products adds n - 1
      roundings of at most 2^-53 ``top`` each, the prefix sums S_m as
      many again, and the final subtraction one more, so
      ``tol = (n + 1) 2^-52 top`` covers them all.
    """

    def __init__(self, scheme: Optional[WeightScheme] = None, n: int = 25,
                 delta: float = DEFAULT_DELTA, weights=None):
        if scheme is None:
            scheme = Arithmetic()
        self.scheme = scheme
        self.n = as_int("n", n)
        self.delta = float(delta)
        if weights is None:
            weights = build_weights(scheme, self.n)
        else:
            weights = np.asarray(weights, dtype=np.float64)
            if weights.shape != (self.n,):
                raise ValueError(f"expected {self.n} weights, got {weights.shape}")
        self.weights = weights
        self.epsilon = compute_epsilon(weights, self.delta)
        self._v = weights / _weight_sum(weights)
        # The window certificate of scan (see the class docstring).
        self._top = float(np.correlate(np.ones(self.n), self._v)[0])
        tol = (self.n + 1) * 2.0 ** -52 * self._top
        lowest = np.concatenate([[0.0], np.cumsum(np.sort(self._v))])
        sure = self._top - lowest + tol < self.epsilon
        self._sure_ones = int(np.argmax(sure)) if sure.any() else self.n + 1
        self._win: list[int] = []
        self.mu_max = 0.0

    @property
    def window(self) -> tuple[int, ...]:
        """Current window contents, oldest bit first."""
        return tuple(self._win)

    def reset(self) -> None:
        self._win = []
        self.mu_max = 0.0

    def weighted_mean(self) -> Optional[float]:
        """Weighted mean of the current window, or None until it fills."""
        if len(self._win) < self.n:
            return None
        arr = np.array(self._win, dtype=np.float64)
        # np.correlate is the same inner product scan() takes, so this is
        # exactly the mean it last tested.
        return float(np.correlate(arr, self._v)[0])

    def scan(self, bits) -> Optional[int]:
        """:meth:`DriftDetector.scan` by the rule of the module docstring.

        The held window is prepended to the new bits, so the windows the
        bits complete are the length-``n`` slices of one sequence, and a
        window's mean is its ``np.correlate`` with the normalised
        weights.  The scan goes slice by slice, ``_SCAN_SLICE`` windows
        each, and stops at the first drift.  A slice's block of means is
        scanned for the running maximum and the first drift, as the rule
        reads.  While the maximum is below the all-ones mean ``top``, the
        block is the whole slice.  Once it is ``top``, only windows with
        fewer than ``_sure_ones`` ones can fire (see the class docstring),
        so the block runs from the slice's first such window to its last,
        and a slice without one is skipped.
        """
        held = len(self._win)
        if not isinstance(bits, np.ndarray):
            bits = np.fromiter(bits, dtype=bool)  # any iterable, read once
        elif bits.dtype != bool:
            bits = bits != 0  # truthy = 1
        flags = np.concatenate([np.asarray(self._win, dtype=bool), bits])
        seq = flags.astype(np.float64)
        n = self.n
        m = seq.size - n + 1  # windows in seq; window j is seq[j:j + n]
        mu_max, top = self.mu_max, self._top
        k = max(held - n + 1, 0)  # first window that ends in the new bits
        ones = None  # ones in each window, once saturated
        while k < m:
            lo = k
            k = end = min(k + _SCAN_SLICE, m)
            if mu_max >= top:
                if ones is None:
                    counts = np.concatenate([[0], np.cumsum(flags)])
                    ones = counts[n:] - counts[:m]
                few = np.flatnonzero(ones[lo:end] < self._sure_ones)
                if few.size == 0:
                    continue  # no window of this slice can fire
                lo, end = lo + int(few[0]), lo + int(few[-1]) + 1
            block = np.correlate(seq[lo:end + n - 1], self._v, "valid")
            running = np.maximum.accumulate(block)
            np.maximum(running, mu_max, out=running)
            hits = running - block >= self.epsilon
            if hits.any():
                self.reset()
                return lo + int(np.argmax(hits)) + n - 1 - held
            mu_max = float(running[-1])
        self._win = flags[max(seq.size - n, 0):].astype(np.int64).tolist()
        self.mu_max = mu_max
        return None


def fhddm(n: int = 25, delta: float = DEFAULT_DELTA) -> MDDM:
    """Sliding-window detector with the plain Hoeffding bound (FHDDM).

    Uniform weights make the McDiarmid bound collapse to
    sqrt(ln(1/delta) / (2n)), so this is the uniform special case of
    :class:`MDDM` and shares its implementation.
    """
    return MDDM(Uniform(), n=n, delta=delta)
