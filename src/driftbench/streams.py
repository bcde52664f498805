"""Synthetic drifting data streams and CSV stream ingestion.

Four seedable generator families are provided, each emitting labelled
instances whose concept changes at scheduled positions:

* ``sine1``  - two uniform numeric attributes; positive when the point
  lies strictly under the sine curve; the rule flips at every drift.
* ``mixed``  - two boolean and two numeric attributes; positive when at
  least two of three conditions hold; the rule flips at every drift.
* ``circles`` - two numeric attributes; positive inside (boundary
  included) one of four circles of growing radius, one per concept.
* ``led``    - a digit on a seven-segment display among 24 binary
  attributes; drifts relocate the segment attributes.

Concept transitions are stochastic: near a drift position each instance
is drawn from the incoming concept with a sigmoid probability whose
slope is set by the transition length, which makes short transitions
abrupt and long ones gradual.  Class noise flips labels uniformly.

Generation is a pure function of (spec, seed): the single documented
PRNG is NumPy's 64-bit-seeded PCG64, whose output is stable across
platforms, and every random draw happens in a fixed documented order
(attributes, then one concept draw per drift position, then the noise
mask, then noise values).

Each returned array is allocated once and filled in place, and every
other array but led's noise mask (one byte a row) is scratch of
``_PIECE`` rows.  The pieces of a draw take
exactly the words one full-length call would, so a stream does not
depend on the piece size:

* ``rng.random`` turns each 64-bit word into one double, so a draw split
  into pieces takes the same words in the same order, and skipping k
  doubles is ``PCG64.advance(k)``.
* ``rng.integers`` with a range below 2^32 takes one 32-bit half word per
  value (one more after a rare Lemire rejection) from the bit generator,
  which keeps the unused half of a word between calls.  So a split at any
  point, after an odd count or a rejection too, takes the same halves in
  the same order.  ``advance`` drops that kept half, and ``_skip`` puts
  it back.
"""

from __future__ import annotations

import csv
import math
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import DataFormatError, UsageError, open_output

NUMERIC = "numeric"
NOMINAL = "nominal"

DEFAULT_LENGTH = 100_000
# Longest stream a StreamSpec accepts, 1000x the paper's streams.  Every
# instance is a row held in memory, so a longer stream is refused
# as a usage error before anything is built rather than failing to allocate.
# Generation holds only the arrays it returns (X, y, concepts) plus scratch
# of _PIECE rows, so a stream that fits in memory can be generated.
MAX_LENGTH = 100_000_000
# Rows per piece of scratch while a stream is generated.
_PIECE = 4096
# Largest k a CSV "name:nominal:<k>" mark may declare, and most distinct
# values or class names an unmarked CSV column may hold.  Naive Bayes sizes
# its per-class arrays by the class count and keeps a (classes, k) count
# table per nominal attribute, so more is a data error rather than failing
# to allocate.  Every code is below it, so int16 holds all-nominal X.  The
# count tables together hold classes x (sum of nominal cardinalities)
# cells, at most MAX_CARDINALITY ** 2 (128 MB): one attribute at the
# largest cardinality and class count.
MAX_CARDINALITY = 4096
DEFAULT_NOISE = 0.10

# Circle concepts: ((center_x, center_y), radius), one per concept.
CIRCLES = (
    ((0.2, 0.5), 0.15),
    ((0.4, 0.5), 0.20),
    ((0.6, 0.5), 0.25),
    ((0.8, 0.5), 0.30),
)

# Seven-segment encoding of the digits 0-9.
LED_SEGMENTS = np.array([
    [1, 1, 1, 0, 1, 1, 1],  # 0
    [0, 0, 1, 0, 0, 1, 0],  # 1
    [1, 0, 1, 1, 1, 0, 1],  # 2
    [1, 0, 1, 1, 0, 1, 1],  # 3
    [0, 1, 1, 1, 0, 1, 0],  # 4
    [1, 1, 0, 1, 0, 1, 1],  # 5
    [1, 1, 0, 1, 1, 1, 1],  # 6
    [1, 0, 1, 0, 0, 1, 0],  # 7
    [1, 1, 1, 1, 1, 1, 1],  # 8
    [1, 1, 1, 1, 0, 1, 1],  # 9
], dtype=np.int64)

LED_ATTRIBUTES = 24

# Attribute positions holding the seven segment bits, per concept.  The
# default layout starts at positions 0-6 and successive concepts swap
# 3, then 1, then 3 of them with previously irrelevant positions; a
# different reading of the drift magnitudes only needs a different
# layout tuple here.
LED_DEFAULT_LAYOUT = (
    (0, 1, 2, 3, 4, 5, 6),
    (7, 8, 9, 3, 4, 5, 6),
    (10, 8, 9, 3, 4, 5, 6),
    (11, 12, 13, 3, 4, 5, 6),
)


@dataclass(frozen=True)
class ConceptSchedule:
    """Drift positions (0-based instance indices) and transition length."""

    positions: tuple[int, ...]
    transition: int

    def __post_init__(self):
        if self.transition < 1:
            raise UsageError(f"transition length must be >= 1, got {self.transition}")
        if any(b <= a for a, b in zip(self.positions, self.positions[1:])):
            raise UsageError("drift positions must be strictly increasing")

    @property
    def concepts(self) -> int:
        return len(self.positions) + 1


# Drift spacing and transition length of the stock schedules: abrupt
# (sine1/mixed) and gradual (circles/led).
_STOCK_SCHEDULES = {"sine1": (20_000, 50), "mixed": (20_000, 50),
                    "circles": (25_000, 500), "led": (25_000, 500)}
# The synthetic stream families, one stock schedule each.
FAMILIES = tuple(_STOCK_SCHEDULES)


def default_schedule(family: str, length: int, every: Optional[int] = None,
                     transition: Optional[int] = None) -> ConceptSchedule:
    """The stock schedule: abrupt every 20k (sine1/mixed, transition 50),
    gradual every 25k (circles/led, transition 500).  ``every`` and
    ``transition`` replace the family's drift spacing and transition
    length."""
    if family not in _STOCK_SCHEDULES:
        raise UsageError(f"no default schedule for stream family {family!r}")
    stock_every, stock_transition = _STOCK_SCHEDULES[family]
    every = stock_every if every is None else every
    if every < 1:
        raise UsageError(f"drift spacing must be >= 1, got {every}")
    return ConceptSchedule(tuple(range(every, length, every)),
                           stock_transition if transition is None else transition)


@dataclass(frozen=True)
class StreamSpec:
    """Recipe for one synthetic stream."""

    family: str
    length: int = DEFAULT_LENGTH
    noise: float = DEFAULT_NOISE
    schedule: Optional[ConceptSchedule] = None
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "family", self.family.lower())
        if self.family not in FAMILIES:
            raise UsageError(f"unknown stream family {self.family!r}")
        if not 1 <= self.length <= MAX_LENGTH:
            raise UsageError(
                f"stream length must lie in [1, {MAX_LENGTH}], got {self.length}")
        if not 0.0 <= self.noise < 1.0:
            raise UsageError(f"noise rate must lie in [0, 1), got {self.noise}")
        if self.seed < 0:
            raise UsageError(f"seed must be >= 0, got {self.seed}")

    def resolved_schedule(self) -> ConceptSchedule:
        """The schedule, checked against the length and the family's concepts."""
        sched = self.schedule or default_schedule(self.family, self.length)
        if sched.positions and sched.positions[-1] >= self.length:
            raise UsageError(
                f"drift position {sched.positions[-1]} is beyond the stream "
                f"length {self.length}")
        if self.family == "circles" and sched.concepts > len(CIRCLES):
            raise UsageError(
                f"circles supports at most {len(CIRCLES) - 1} drifts, "
                f"schedule has {len(sched.positions)}")
        if self.family == "led" and sched.concepts > len(LED_DEFAULT_LAYOUT):
            raise UsageError(
                f"led layout defines {len(LED_DEFAULT_LAYOUT)} concepts, schedule needs "
                f"{sched.concepts}")
        return sched


@dataclass(frozen=True)
class StreamSchema:
    """Attribute layout of a stream."""

    names: tuple[str, ...]
    kinds: tuple[str, ...]           # NUMERIC or NOMINAL per attribute
    cardinalities: tuple[int, ...]   # nominal value count, 0 for numeric
    n_classes: int


@dataclass
class Stream:
    """A materialised stream: attribute matrix, labels, and ground truth.

    ``X`` holds one column per attribute: int16 codes when every
    attribute is nominal (led and all-nominal CSV files; every code is
    below :data:`MAX_CARDINALITY`), float64 otherwise, where nominal
    attributes hold their integer codes as floats.  ``y`` and ``concepts``
    are int64.  ``drift_positions`` and ``concepts`` are harness ground
    truth; CSV streams have no such truth and leave them empty.
    """

    name: str
    X: np.ndarray
    y: np.ndarray
    schema: StreamSchema
    drift_positions: tuple[int, ...] = ()
    concepts: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return self.y.shape[0]


def _x_dtype(kinds) -> type:
    """The dtype of ``Stream.X`` for attributes of these kinds."""
    return np.int16 if all(kind == NOMINAL for kind in kinds) else np.float64


# Below x = -746 and above x = 40 the logistic 1 / (1 + e^-x) is exactly 0
# and exactly 1 in float64 (see _concept_draws).
_SIGMOID_ZERO = -746.0
_SIGMOID_ONE = 40.0


def drift_probability(t, t0, zeta: int):
    """Probability that instance ``t`` is drawn from the post-drift concept.

    A sigmoid centred on ``t0`` with slope 4/zeta, so the transition
    effectively spans about ``zeta`` instances.  Callers pass the
    transition's midpoint as ``t0``, half a transition after the scheduled
    drift position (see :func:`_concept_draws`).  Accepts scalars or arrays.
    """
    if zeta < 1:
        raise UsageError(f"transition length must be >= 1, got {zeta}")
    x = 4.0 * (np.asarray(t, dtype=np.float64) - t0) / zeta
    with np.errstate(over="ignore"):  # where e^-x overflows to inf, 1 / inf is 0
        out = 1.0 / (1.0 + np.exp(-x))
    return float(out) if out.ndim == 0 else out


def _pieces(start: int, stop: int):
    """Bounds ``(a, b)`` of consecutive pieces of :data:`_PIECE` rows
    covering ``[start, stop)``."""
    return ((a, min(a + _PIECE, stop)) for a in range(start, stop, _PIECE))


def _skip(rng: np.random.Generator, draws: int) -> None:
    """Move ``rng`` past ``draws`` doubles, as ``rng.random(draws)`` would.

    ``PCG64.advance`` also drops the half word the bit generator holds
    for its next 32-bit draw, which ``rng.random`` leaves in place; it is
    put back, so later bounded-integer draws are unchanged.
    """
    bitgen = rng.bit_generator
    held = bitgen.state
    bitgen.advance(draws)
    bitgen.state = {**bitgen.state, "has_uint32": held["has_uint32"],
                    "uinteger": held["uinteger"]}


def _concept_draws(n: int, schedule: ConceptSchedule, rng: np.random.Generator) -> np.ndarray:
    """Active concept index per instance; one Bernoulli draw per drift.

    A scheduled position marks where the transition to the incoming
    concept begins: the sigmoid midpoint sits half a transition length
    after it, so instances before the position are effectively pure old
    concept and the mix is complete about one transition length later.

    The sigmoid is evaluated only on the span where it can be neither
    exactly 0 nor exactly 1.  With x = 4 (t - mid) / zeta, e^-x
    overflows to inf below x = -709.78, so the probability is exactly
    0 and no draw in [0, 1) falls under it; above x = 53 ln 2 = 36.74,
    e^-x is below 2^-53, so 1 + e^-x rounds to 1 and every draw falls
    under it.
    The span x in [-746, 40] keeps a wide margin on both sides and is
    clamped to [0, n).  Every drift still takes its full n draws: those
    on the span one piece at a time, those outside it skipped by
    :func:`_skip`, so the concepts are bit for bit those of a full-length
    evaluation.
    """
    concept = np.zeros(n, dtype=np.int64)
    zeta = schedule.transition
    for pos in schedule.positions:
        mid = pos + 0.5 * zeta
        lo = min(max(math.floor(mid + _SIGMOID_ZERO * zeta / 4.0), 0), n)
        hi = min(max(math.ceil(mid + _SIGMOID_ONE * zeta / 4.0) + 1, lo), n)
        _skip(rng, lo)
        for a, b in _pieces(lo, hi):
            p = drift_probability(np.arange(a, b, dtype=np.float64), mid, zeta)
            concept[a:b] += rng.random(b - a) < p
        concept[hi:] += 1
        _skip(rng, n - hi)
    return concept


def _binary_noise(y: np.ndarray, noise: float, rng: np.random.Generator) -> None:
    """Flip each 0/1 label with probability ``noise``, in place."""
    for a, b in _pieces(0, y.shape[0]):
        y[a:b] ^= rng.random(b - a) < noise


def generate_stream(spec: StreamSpec) -> Stream:
    """Materialise the synthetic stream described by ``spec``.

    Each returned array is allocated once and filled in place; every
    other array is scratch of at most :data:`_PIECE` rows.
    """
    schedule = spec.resolved_schedule()
    rng = np.random.default_rng(spec.seed)
    n = spec.length
    family = spec.family

    if family == "sine1":
        y = np.empty(n, dtype=np.int64)
        X = rng.random((n, 2))
        concept = _concept_draws(n, schedule, rng)
        for a, b in _pieces(0, n):
            xy = X[a:b]
            y[a:b] = (xy[:, 1] < np.sin(xy[:, 0])) ^ (concept[a:b] % 2)
        _binary_noise(y, spec.noise, rng)
        schema = StreamSchema(("x", "y"), (NUMERIC, NUMERIC), (0, 0), 2)

    elif family == "mixed":
        y = np.empty(n, dtype=np.int64)
        X = np.empty((n, 4))
        for a, b in _pieces(0, n):
            X[a:b, :2] = rng.integers(0, 2, size=(b - a, 2))
        for a, b in _pieces(0, n):
            X[a:b, 2:] = rng.random((b - a, 2))
        concept = _concept_draws(n, schedule, rng)
        for a, b in _pieces(0, n):
            vwxy = X[a:b]
            third = vwxy[:, 3] < 0.5 + 0.3 * np.sin(3.0 * np.pi * vwxy[:, 2])
            y[a:b] = ((vwxy[:, 0] + vwxy[:, 1] + third) >= 2) ^ (concept[a:b] % 2)
        _binary_noise(y, spec.noise, rng)
        schema = StreamSchema(("v", "w", "x", "y"),
                              (NOMINAL, NOMINAL, NUMERIC, NUMERIC),
                              (2, 2, 0, 0), 2)

    elif family == "circles":
        y = np.empty(n, dtype=np.int64)
        X = rng.random((n, 2))
        concept = _concept_draws(n, schedule, rng)
        cx, cy, r = np.array([(cx, cy, r) for (cx, cy), r in CIRCLES]).T
        for a, b in _pieces(0, n):
            xy, c = X[a:b], concept[a:b]
            y[a:b] = ((xy[:, 0] - cx[c]) ** 2 + (xy[:, 1] - cy[c]) ** 2) <= r[c] * r[c]
        _binary_noise(y, spec.noise, rng)
        schema = StreamSchema(("x", "y"), (NUMERIC, NUMERIC), (0, 0), 2)

    else:  # led
        schema = StreamSchema(tuple(f"a{j + 1}" for j in range(LED_ATTRIBUTES)),
                              (NOMINAL,) * LED_ATTRIBUTES,
                              (2,) * LED_ATTRIBUTES, 10)
        y = rng.integers(0, 10, size=n)  # the digits; the noise comes last
        X = np.empty((n, LED_ATTRIBUTES), dtype=_x_dtype(schema.kinds))
        for a, b in _pieces(0, n):
            X[a:b] = rng.integers(0, 2, size=(b - a, LED_ATTRIBUTES))
        concept = _concept_draws(n, schedule, rng)
        for a, b in _pieces(0, n):
            attrs, segments, c = X[a:b], LED_SEGMENTS[y[a:b]], concept[a:b]
            for k in range(schedule.concepts):
                rows = np.flatnonzero(c == k)
                cols = LED_DEFAULT_LAYOUT[k]
                if rows.size == c.size:  # most pieces hold one concept
                    attrs[:, cols] = segments
                elif rows.size:
                    attrs[rows[:, None], cols] = segments[rows]
        flips = np.empty(n, dtype=bool)  # all n flip draws come before the n offsets
        for a, b in _pieces(0, n):
            flips[a:b] = rng.random(b - a) < spec.noise
        for a, b in _pieces(0, n):
            flip, digits = flips[a:b], y[a:b]
            digits[flip] = (digits[flip] + rng.integers(1, 10, size=b - a)[flip]) % 10

    return Stream(name=family, X=X, y=y, schema=schema,
                  drift_positions=schedule.positions, concepts=concept)


def load_csv_stream(path) -> Stream:
    """Materialise a CSV stream for the benchmark harness.

    The first row is a header; the last column is the class label.
    Attribute columns are numeric when their first data value parses as
    a float, nominal otherwise.  A numeric value must be finite: ``nan``,
    ``inf`` or an overflowing literal such as ``1e400`` is a
    :class:`DataFormatError`.  Nominal values get integer codes in
    first-seen order; a column with more than :data:`MAX_CARDINALITY`
    distinct values is a :class:`DataFormatError`.  Labels that are
    nonnegative integers are taken verbatim as class codes (so dumped
    streams load back with identical labels); otherwise labels are class
    names, coded in first-seen order.  The first label decides which, and
    a label column mixing the two is a :class:`DataFormatError`.  Classes
    are capped at :data:`MAX_CARDINALITY` like nominal values, and a file
    of r data rows holds at most r classes, so a code above r is a
    :class:`DataFormatError` too (0- and 1-based codes always pass).

    A header field ``name:nominal:<k>`` (as :func:`dump_stream` writes
    for nominal attributes and the label) marks a column of integer codes
    ``0..k-1``: an attribute so marked is nominal with cardinality ``k``
    and the label column has ``k`` classes, even when some codes never
    occur in the file.  Every field holding ``:nominal:`` is a mark.
    Marked values are taken verbatim; anything else in a marked column is
    a :class:`DataFormatError`, and so is a ``k`` outside
    ``1..MAX_CARDINALITY``.  So is a file whose class count times the sum
    of its nominal cardinalities, the cells of the learner's count tables,
    exceeds ``MAX_CARDINALITY ** 2``.

    Blank rows are skipped, a header-only file is an empty stream, and
    an error in a data row names its line; bytes that are not UTF-8 and a
    field over the csv module's size limit are a :class:`DataFormatError`
    too.  ``X`` takes the dtype that :class:`Stream` gives the schema's kinds.
    """
    path = Path(path)
    with open(path, newline="", encoding="utf-8") as handle:
        rows = _csv_rows(path, handle)
        header = next(rows, None)
        if header is None:
            raise DataFormatError(f"{path}: empty file, expected a header row")
        if len(header) < 2:
            raise DataFormatError(
                f"{path}: need at least one attribute column and a label column")
        header, (*marked, label_mark) = zip(*(_header_mark(path, field) for field in header))
        # Kinds, label coding and X's dtype come from the first data row.
        kinds = label_is_code = X = None
        y = array("q")   # int64
        codes = [{} for _ in marked]   # value -> code, per attribute (a memo if marked)
        label_codes: dict[str, int] = {}   # class name -> code, or a memo if marked
        top_code = top_line = -1   # the largest label code and its first line
        for line, row in enumerate(rows, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise DataFormatError(
                    f"{path}: line {line}: expected {len(header)} fields, got {len(row)}")
            if kinds is None:
                kinds = [NOMINAL if card else _inferred_kind(value)
                         for card, value in zip(marked, row)]
                label_is_code = _is_code(row[-1])
                X = array(np.dtype(_x_dtype(kinds)).char)   # 'h' int16 or 'd' float64
            for name, kind, card, values, value in zip(header, kinds, marked, codes, row):
                if card:   # each distinct string is decoded once; a bad one is never stored
                    if (code := values.get(value)) is None:
                        code = values[value] = _marked_code(path, line, name, value, card)
                    X.append(code)
                else:
                    X.append(_finite(path, line, name, value) if kind == NUMERIC
                             else _first_seen(values, value, path, line, name, "nominal values"))
            raw_label = row[-1]
            if label_mark:
                if (code := label_codes.get(raw_label)) is None:
                    code = label_codes[raw_label] = _marked_code(path, line, header[-1],
                                                                 raw_label, label_mark)
                y.append(code)
            elif _is_code(raw_label) != label_is_code:
                # Names are coded from 0, so an integer code in the same
                # column could share a name's code.
                raise DataFormatError(
                    f"{path}: line {line}: label {raw_label!r} mixes integer class "
                    "codes with class names")
            elif label_is_code:
                if (code := _code_below(raw_label, MAX_CARDINALITY)) is None:
                    raise DataFormatError(
                        f"{path}: line {line}: label {raw_label} in column {header[-1]!r} is a "
                        f"class code above the largest supported, {MAX_CARDINALITY - 1}")
                y.append(code)
                if code > top_code:
                    top_code, top_line = code, line
            else:
                y.append(_first_seen(label_codes, raw_label, path, line, header[-1],
                                     "class names"))
    if top_code > len(y):
        # Each class code sizes the learner's per-class arrays.
        raise DataFormatError(
            f"{path}: line {top_line}: label {top_code} is a class code above the "
            f"file's {len(y)} data rows")
    if kinds is None:  # no data rows; numpy versions differ on an empty np.frombuffer
        kinds = [NOMINAL if card else NUMERIC for card in marked]
        X, y = np.empty((0, len(marked)), _x_dtype(kinds)), np.empty(0, np.int64)
    else:  # views of the typed arrays, not copies
        X = np.frombuffer(X, _x_dtype(kinds)).reshape(-1, len(marked))
        y = np.frombuffer(y, np.int64)
    cards = tuple((card or len(values)) if kind == NOMINAL else 0
                  for kind, card, values in zip(kinds, marked, codes))
    n_classes = max(int(y.max(initial=-1)) + 1, label_mark)
    if (counts := n_classes * sum(cards)) > MAX_CARDINALITY ** 2:
        raise DataFormatError(
            f"{path}: {n_classes} classes x {sum(cards)} nominal values need {counts} "
            f"Naive Bayes counts, above the largest supported, {MAX_CARDINALITY ** 2}")
    return Stream(name=path.stem, X=X, y=y,
                  schema=StreamSchema(tuple(header[:-1]), tuple(kinds), cards, n_classes))


def _csv_rows(path: Path, handle):
    """The records of ``path``; non-UTF-8 bytes and csv module errors are data errors."""
    reader = csv.reader(handle)
    try:
        yield from reader
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    except csv.Error as exc:
        raise DataFormatError(f"{path}: line {reader.line_num}: {exc}") from exc


def _header_mark(path: Path, field: str) -> tuple[str, int]:
    """A header field's column name and marked cardinality, 0 if unmarked."""
    if ":nominal:" not in field:
        return field, 0
    name, _, text = field.rpartition(":nominal:")
    if card := _code_below(text, MAX_CARDINALITY + 1):
        return name, card
    raise DataFormatError(f"{path}: line 1: column {name!r}: marked cardinality " + (
        f"{text} is above the largest supported, {MAX_CARDINALITY}"
        if _is_code(text) and text.strip("0") else f"{text!r} is not a positive integer"))


def _first_seen(codes: dict, value: str, path: Path, line: int, column: str, what: str) -> int:
    """The code of ``value`` in first-seen order, below :data:`MAX_CARDINALITY`."""
    code = codes.setdefault(value, len(codes))
    if code == MAX_CARDINALITY:
        raise DataFormatError(
            f"{path}: line {line}: column {column!r}: more than {MAX_CARDINALITY} "
            f"distinct {what}")
    return code


def _inferred_kind(value: str) -> str:
    try:
        float(value)
        return NUMERIC
    except ValueError:
        return NOMINAL


def _finite(path: Path, line: int, column: str, value: str) -> float:
    try:
        number = float(value)
    except ValueError as exc:
        raise DataFormatError(
            f"{path}: line {line}: column {column!r}: {value!r} is not numeric") from exc
    if not math.isfinite(number):
        raise DataFormatError(
            f"{path}: line {line}: column {column!r}: {value!r} is not a finite number")
    return number


def _is_code(value: str) -> bool:
    """Whether ``value`` is an integer code: ASCII digits only, as isdigit()
    alone takes other scripts' digits too."""
    return value.isascii() and value.isdigit()


def _code_below(value: str, bound: int) -> Optional[int]:
    """``value`` as an integer code below ``bound``, or None.  The digits
    are compared first: int() refuses strings over 4300 digits."""
    digits = value.lstrip("0") or "0"
    if _is_code(value) and len(digits) <= len(str(bound)) and int(digits) < bound:
        return int(digits)
    return None


def _marked_code(path: Path, line: int, column: str, value: str, card: int) -> int:
    if (code := _code_below(value, card)) is not None:
        return code
    raise DataFormatError(
        f"{path}: line {line}: column {column!r}: {value!r} is not a code below its "
        f"marked cardinality {card}")


def dump_stream(spec: StreamSpec, path) -> None:
    """Write the synthetic stream of ``spec`` to CSV.

    Numeric attributes use shortest round-trip formatting so a reload
    reproduces them exactly; nominal attributes and labels are written
    as integer codes under a ``name:nominal:<cardinality>`` header, so a
    reload keeps them nominal with the full cardinality and class count
    (Laplace smoothing divides by both, even where a short file misses a
    value).  Identical specs produce byte-identical files.
    """
    spec.resolved_schedule()  # a bad schedule fails before the file is made
    open_output(path, "a").close()  # fail before generating, truncating nothing
    stream = generate_stream(spec)
    schema = stream.schema
    kinds = schema.kinds
    with open_output(path) as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow([name if kind == NUMERIC else f"{name}:nominal:{card}"
                         for name, kind, card in zip(schema.names, kinds, schema.cardinalities)]
                        + [f"label:nominal:{schema.n_classes}"])
        for t in range(len(stream)):
            row = stream.X[t]
            fields = [repr(float(row[j])) if kinds[j] == NUMERIC else str(int(row[j]))
                      for j in range(len(kinds))]
            fields.append(str(int(stream.y[t])))
            writer.writerow(fields)
