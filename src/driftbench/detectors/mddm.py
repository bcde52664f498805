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
from .base import DriftDetector

DEFAULT_DELTA = 1e-6
DEFAULT_ARITHMETIC_STEP = 0.01
DEFAULT_GEOMETRIC_RATIO = 1.01
DEFAULT_EULER_RATE = 0.01

# Chunk sizes for the vectorised scan; grown geometrically so short
# inter-drift gaps stay cheap while long stable stretches amortise.
_SCAN_CHUNK = 8192
_SCAN_CHUNK_MAX = 262144


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
    strictly above its lower bound.
    """
    if n < 1:
        raise ValueError(f"window size must be >= 1, got {n}")
    if isinstance(scheme, Uniform):
        return np.ones(n)
    if isinstance(scheme, Arithmetic):
        return 1.0 + scheme.d * np.arange(n, dtype=np.float64)
    if isinstance(scheme, Euler):
        scheme = Geometric(math.exp(scheme.rate))
    if isinstance(scheme, Geometric):
        return scheme.r ** np.arange(n, dtype=np.float64)
    raise TypeError(f"unknown weight scheme: {scheme!r}")


def compute_epsilon(weights: Sequence[float], delta: float) -> float:
    """Significance bound for a weighted window at confidence ``delta``.

    Weight sums use compensated summation so long geometric windows do
    not lose precision.  The bound depends only on the normalised
    weights, so scaling every weight by a positive constant leaves it
    unchanged.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    w = np.asarray(weights, dtype=np.float64)
    if w.size == 0:
        raise ValueError("weight vector must not be empty")
    if np.any(w <= 0):
        raise ValueError("weights must all be positive")
    v = w / math.fsum(w)
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
    """

    name = "mddm"

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
        self._v = weights / math.fsum(weights)
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

    def drift_points(self, bits) -> list[int]:
        """One-pass vectorised :meth:`DriftDetector.drift_points`."""
        return self._drifts(bits, first_only=False)

    def scan(self, bits) -> Optional[int]:
        """Vectorised :meth:`DriftDetector.scan`."""
        hits = self._drifts(bits, first_only=True)
        return hits[0] if hits else None

    def _drifts(self, bits, first_only: bool) -> list[int]:
        """Indices of the bits among ``bits`` that draw a Drift verdict by
        the rule of the module docstring.

        The held window is prepended to the new bits, so one correlation
        yields the mean of every full window the bits complete.  The
        running-maximum scan then jumps over the refill gap after each
        internal reset, so the cost stays linear no matter how many
        drifts occur.  With ``first_only`` the scan stops at the first
        drift, leaving the bits after it unconsumed.
        """
        held = len(self._win)
        if not isinstance(bits, np.ndarray):
            bits = np.fromiter(bits, dtype=bool)  # any iterable, read once; truthy = 1
        seq = np.concatenate([np.asarray(self._win, dtype=np.float64),
                              np.asarray(bits, dtype=np.float64)])
        n = self.n
        # np.correlate swaps its inputs when the first is the shorter one.
        means = np.correlate(seq, self._v, "valid") if seq.size >= n else seq[:0]
        out: list[int] = []
        mu_max = self.mu_max
        eps = self.epsilon
        k = max(held - n + 1, 0)  # first window that ends in the new bits
        start = 0  # first bit of seq since the last reset
        chunk = _SCAN_CHUNK
        while k < means.size:
            block = means[k:k + chunk]
            running = np.maximum.accumulate(block)
            np.maximum(running, mu_max, out=running)
            hits = running - block >= eps
            if hits.any():
                start = k + int(np.argmax(hits)) + n
                out.append(start - 1 - held)
                if first_only:
                    self.reset()
                    return out
                mu_max = 0.0
                k = start
                chunk = _SCAN_CHUNK
            else:
                mu_max = float(running[-1])
                k += block.size
                chunk = min(chunk * 2, _SCAN_CHUNK_MAX)
        self._win = seq[max(start, seq.size - n):].astype(np.int64).tolist()
        self.mu_max = mu_max
        return out


def fhddm(n: int = 25, delta: float = DEFAULT_DELTA) -> MDDM:
    """Sliding-window detector with the plain Hoeffding bound (FHDDM).

    Uniform weights make the McDiarmid bound collapse to
    sqrt(ln(1/delta) / (2n)), so this is the uniform special case of
    :class:`MDDM` and shares its implementation.
    """
    det = MDDM(Uniform(), n=n, delta=delta)
    det.name = "fhddm"
    return det
