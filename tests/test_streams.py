"""Stream generators: label functions, transitions, noise, CSV round trips."""

import math
import tracemalloc

import numpy as np
import pytest

from driftbench import (
    ConceptSchedule,
    DataFormatError,
    NaiveBayes,
    StreamSpec,
    UsageError,
    default_schedule,
    drift_probability,
    dump_stream,
    generate_stream,
    load_csv_stream,
    prequential_run,
)
from driftbench import streams
from driftbench.streams import (
    CIRCLES,
    LED_ATTRIBUTES,
    LED_DEFAULT_LAYOUT,
    LED_SEGMENTS,
    MAX_CARDINALITY,
    MAX_DRIFTS,
    MAX_LENGTH,
    NOMINAL,
    NUMERIC,
    _concept_draws,
    _skip,
)

FAMILIES = ("sine1", "mixed", "circles", "led")


# Scalar references for the label rules that generate_stream vectorises.

def sine1_label(x: float, y: float, concept: int) -> int:
    """1 when (x, y) lies strictly under sin(x); flipped on odd concepts."""
    under = y < math.sin(x)
    return int(under ^ (concept % 2 == 1))


def mixed_label(v: int, w: int, x: float, y: float, concept: int) -> int:
    """1 when at least two of {v, w, y < 0.5 + 0.3 sin(3 pi x)} hold;
    flipped on odd concepts."""
    conditions = int(bool(v)) + int(bool(w)) + int(y < 0.5 + 0.3 * math.sin(3.0 * math.pi * x))
    return int((conditions >= 2) ^ (concept % 2 == 1))


def circles_label(x: float, y: float, concept: int) -> int:
    """1 when (x, y) lies inside concept's circle, boundary included."""
    if not 0 <= concept < len(CIRCLES):
        raise UsageError(f"circles supports concepts 0..3, got {concept}")
    (cx, cy), r = CIRCLES[concept]
    return int((x - cx) ** 2 + (y - cy) ** 2 <= r * r)


SCALAR_RULES = {
    "sine1": lambda row, c: sine1_label(row[0], row[1], c),
    "mixed": lambda row, c: mixed_label(int(row[0]), int(row[1]), row[2], row[3], c),
    "circles": lambda row, c: circles_label(row[0], row[1], c),
}


def full_length_concepts(n, schedule, rng):
    t = np.arange(n, dtype=np.float64)
    concept = np.zeros(n, dtype=np.int64)
    for pos in schedule.positions:
        p = drift_probability(t, pos + 0.5 * schedule.transition, schedule.transition)
        concept += rng.random(n) < p
    return concept


def full_length_stream(spec):
    """X, y and concepts from the documented draws taken as whole arrays,
    with the binary families' labels from the scalar rules; led's X holds
    int16 codes, the other families' X float64."""
    schedule = spec.schedule
    rng = np.random.default_rng(spec.seed)
    n = spec.length
    if spec.family == "led":
        digits = rng.integers(0, 10, size=n)
        X = rng.integers(0, 2, size=(n, LED_ATTRIBUTES))
    elif spec.family == "mixed":
        vw = rng.integers(0, 2, size=(n, 2))
        X = np.hstack([vw, rng.random((n, 2))])
    else:
        X = rng.random((n, 2))
    concepts = full_length_concepts(n, schedule, rng)
    if spec.family == "led":
        for c in range(schedule.concepts):
            rows = np.nonzero(concepts == c)[0]
            X[np.ix_(rows, LED_DEFAULT_LAYOUT[c])] = LED_SEGMENTS[digits[rows]]
        flip = rng.random(n) < spec.noise
        y = np.where(flip, (digits + rng.integers(1, 10, size=n)) % 10, digits)
        return X.astype(np.int16), y, concepts
    rule = SCALAR_RULES[spec.family]
    clean = np.array([rule(row, c) for row, c in zip(X, concepts)], dtype=np.int64)
    flip = rng.random(n) < spec.noise
    return X, np.where(flip, 1 - clean, clean), concepts


class TestDriftProbability:
    def test_half_at_drift_point(self):
        assert drift_probability(20_000, 20_000, 50) == 0.5

    def test_one_transition_later(self):
        assert drift_probability(20_050, 20_000, 50) == pytest.approx(
            1.0 / (1.0 + math.exp(-4.0)), rel=1e-12)

    def test_saturated_well_before(self):
        assert drift_probability(19_500, 20_000, 50) < 1e-17

    def test_vectorised(self):
        out = drift_probability(np.array([0, 100, 200]), 100, 10)
        assert out.shape == (3,)
        assert out[1] == 0.5

    def test_domain(self):
        with pytest.raises(UsageError):
            drift_probability(0, 0, 0)


class TestConceptDraws:
    """The sigmoid is evaluated only where it is neither exactly 0 nor
    exactly 1; the concepts must equal a full-length evaluation."""

    @pytest.mark.parametrize("zeta", [1, 7, 50, 500, 5000])
    @pytest.mark.parametrize("n,positions", [
        (20_000, (0, 3, 600, 10_000, 19_400, 19_990, 19_999)),  # spans clamp at 0 and n
        (1, (0,)),
        (5_000, (2_500,)),
    ])
    def test_equals_a_full_length_evaluation(self, zeta, n, positions):
        schedule = ConceptSchedule(positions, zeta)
        for seed in (0, 1):
            got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = _concept_draws(n, schedule, got_rng)
            want = full_length_concepts(n, schedule, want_rng)
            assert got.dtype == want.dtype and np.array_equal(got, want)
            # Every draw is still taken, so later draws are unchanged.
            assert got_rng.random() == want_rng.random()

    def test_the_skipped_tails_are_exact(self):
        # x = 4 t / zeta is -746 and 40 at the span's ends.
        for zeta in (1, 7, 50, 500, 5000):
            assert drift_probability(-186.5 * zeta, 0.0, zeta) == 0.0
            assert drift_probability(10.0 * zeta, 0.0, zeta) == 1.0
        # The margins, with zeta = 4 so that x = t: e^-x overflows from
        # x = -709.79, and 1 + e^-x rounds to 1 from x = 36.8.
        assert drift_probability(-709.8, 0.0, 4) == 0.0
        assert drift_probability(-709.7, 0.0, 4) > 0.0
        assert drift_probability(36.8, 0.0, 4) == 1.0
        assert drift_probability(36.0, 0.0, 4) < 1.0


class TestLabelFunctions:
    def test_sine1_under_curve_positive(self):
        assert sine1_label(0.3, 0.2, 0) == 1  # sin(0.3) ~ 0.2955 > 0.2

    def test_sine1_reversed_on_odd_concept(self):
        assert sine1_label(0.3, 0.2, 1) == 0

    def test_sine1_boundary_is_negative(self):
        assert sine1_label(0.0, 0.0, 0) == 0  # y < sin(0) is false

    def test_sine1_reversal_is_negation(self):
        rng = np.random.default_rng(0)
        for x, y in rng.random((50, 2)):
            for k in range(3):
                assert sine1_label(x, y, k + 1) == 1 - sine1_label(x, y, k)

    def test_mixed_two_booleans_enough(self):
        assert mixed_label(1, 1, 0.99, 0.99, 0) == 1

    def test_mixed_no_condition_negative(self):
        x = 0.5
        y_above = 0.5 + 0.3 * math.sin(3 * math.pi * x) + 0.05
        assert mixed_label(0, 0, x, y_above, 0) == 0

    def test_mixed_condition_pair(self):
        assert mixed_label(1, 0, 1.0 / 6.0, 0.7, 0) == 1  # threshold 0.8 > 0.7

    def test_mixed_reversal(self):
        assert mixed_label(1, 1, 0.2, 0.2, 1) == 0

    def test_circles_center_positive(self):
        assert circles_label(0.2, 0.5, 0) == 1

    def test_circles_boundary_inclusive(self):
        assert circles_label(0.2 + 0.15, 0.5, 0) == 1

    def test_circles_outside_negative(self):
        assert circles_label(0.9, 0.9, 0) == 0  # squared distance 0.65 > 0.0225

    def test_circles_concept_domain(self):
        with pytest.raises(UsageError):
            circles_label(0.5, 0.5, 4)


class TestLedEmission:
    def test_digit_eight_lights_every_segment(self):
        assert LED_SEGMENTS[8].sum() == 7

    def test_digit_one_lights_two_segments(self):
        assert LED_SEGMENTS[1].sum() == 2

    def test_layout_swap_counts(self):
        # Successive concepts swap 3, 1, 3 attributes: position sets differ
        # in 2*k places.
        sets = [set(p) for p in LED_DEFAULT_LAYOUT]
        diffs = [len(a ^ b) for a, b in zip(sets, sets[1:])]
        assert diffs == [6, 2, 6]


class TestGenerateStream:
    def test_same_seed_identical(self):
        spec = StreamSpec("mixed", length=5_000, seed=7)
        a, b = generate_stream(spec), generate_stream(spec)
        assert np.array_equal(a.X, b.X)
        assert np.array_equal(a.y, b.y)
        assert np.array_equal(a.concepts, b.concepts)

    def test_different_seeds_differ(self):
        a = generate_stream(StreamSpec("sine1", length=2_000, seed=1))
        b = generate_stream(StreamSpec("sine1", length=2_000, seed=2))
        assert not np.array_equal(a.X, b.X)

    @pytest.mark.parametrize("family,label_fn", list(SCALAR_RULES.items()))
    def test_noiseless_labels_match_concept_function(self, family, label_fn):
        # Every instance of a stream over three pieces, with a drift inside
        # the transition of another, so all four concepts occur.
        spec = StreamSpec(family, length=2 * streams._PIECE + 1_001, noise=0.0,
                          schedule=ConceptSchedule((3_000, 3_100, 7_000), 200), seed=11)
        stream = generate_stream(spec)
        assert set(stream.concepts.tolist()) == {0, 1, 2, 3}
        want = [label_fn(row, c) for row, c in zip(stream.X, stream.concepts.tolist())]
        assert stream.y.tolist() == want

    @pytest.mark.parametrize("family", FAMILIES)
    def test_equals_the_whole_array_draws(self, family):
        # Odd lengths on both sides of the piece size, and transitions
        # clamped at both ends of the stream.
        for n, zeta in ((streams._PIECE - 1, 50), (2 * streams._PIECE + 3, 5_000)):
            spec = StreamSpec(family, length=n, noise=0.2, seed=21,
                              schedule=ConceptSchedule((5, n // 2, n - 3), zeta))
            stream = generate_stream(spec)
            X, y, concepts = full_length_stream(spec)
            dtype = np.int16 if family == "led" else np.float64
            assert stream.X.dtype == X.dtype == dtype and np.array_equal(stream.X, X)
            assert stream.y.dtype == np.int64 and np.array_equal(stream.y, y)
            assert np.array_equal(stream.concepts, concepts)

    @pytest.mark.parametrize("piece", [1, 3, 7])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_small_pieces_equal_default_pieces(self, monkeypatch, family, piece):
        cases = [(n, ConceptSchedule(tuple(p for p in sorted({n // 3, n // 2 + 1})
                                            if 0 < p < n), zeta))
                 for n in (1, 2, 5, 1_001) for zeta in (1, 50, 5_000)]
        want = [generate_stream(StreamSpec(family, length=n, schedule=s, seed=n))
                for n, s in cases]
        monkeypatch.setattr(streams, "_PIECE", piece)
        for (n, schedule), expected in zip(cases, want):
            got = generate_stream(StreamSpec(family, length=n, schedule=schedule, seed=n))
            for name in ("X", "y", "concepts"):
                a, b = getattr(got, name), getattr(expected, name)
                assert a.dtype == b.dtype and np.array_equal(a, b), (n, schedule, name)

    def test_skip_keeps_the_half_word_of_integer_draws(self):
        # Three values leave half a word for the next integer draw.
        drawn, skipped = np.random.default_rng(8), np.random.default_rng(8)
        for rng in (drawn, skipped):
            rng.integers(0, 10, size=3)
        drawn.random(1_000)
        _skip(skipped, 1_000)
        assert np.array_equal(drawn.integers(0, 10, size=5), skipped.integers(0, 10, size=5))
        assert drawn.random() == skipped.random()

    def test_noiseless_led_labels_match_segments(self):
        spec = StreamSpec("led", length=8_000, noise=0.0,
                          schedule=ConceptSchedule((4_000,), 500), seed=13)
        stream = generate_stream(spec)
        for t in range(0, len(stream), 11):
            concept = int(stream.concepts[t])
            positions = list(LED_DEFAULT_LAYOUT[concept])
            segs = stream.X[t, positions].astype(int)
            assert np.array_equal(segs, LED_SEGMENTS[stream.y[t]])

    def test_saturated_regions_are_pure_concepts(self):
        spec = StreamSpec("sine1", length=40_000, noise=0.0,
                          schedule=ConceptSchedule((20_000,), 50), seed=3)
        stream = generate_stream(spec)
        # More than 10 transition lengths away from the drift on both sides.
        assert np.all(stream.concepts[:19_400] == 0)
        assert np.all(stream.concepts[21_000:] == 1)

    # The noise draws come last, so the same seed at noise 0 gives the
    # clean labels of the noisy stream.

    def test_noise_flip_fraction(self):
        stream = generate_stream(StreamSpec("sine1", length=100_000, noise=0.10, seed=5))
        clean = generate_stream(StreamSpec("sine1", length=100_000, noise=0.0, seed=5))
        assert np.array_equal(stream.X, clean.X)
        flipped = (stream.y != clean.y).mean()
        assert 0.094 <= flipped <= 0.106

    def test_led_noise_flips_to_different_digit(self):
        stream = generate_stream(StreamSpec("led", length=50_000, noise=0.10, seed=5))
        clean = generate_stream(StreamSpec("led", length=50_000, noise=0.0, seed=5))
        assert np.array_equal(stream.X, clean.X)
        changed = stream.y != clean.y
        assert 0.09 <= changed.mean() <= 0.11
        assert np.all(stream.y[changed] != clean.y[changed])

    def test_led_digit_distribution_uniform(self):
        stream = generate_stream(StreamSpec("led", length=100_000, noise=0.0, seed=9))
        counts = np.bincount(stream.y, minlength=10)
        assert counts.min() > 9_400 and counts.max() < 10_600

    def test_schedule_validation(self):
        with pytest.raises(UsageError):
            generate_stream(StreamSpec("sine1", length=1_000,
                                       schedule=ConceptSchedule((2_000,), 50)))
        with pytest.raises(UsageError):
            ConceptSchedule((100, 100), 50)
        with pytest.raises(UsageError):
            generate_stream(StreamSpec("circles", length=10_000,
                                       schedule=ConceptSchedule((1, 2, 3, 4), 5)))
        with pytest.raises(UsageError, match="led layout"):
            generate_stream(StreamSpec("led", length=10_000,
                                       schedule=ConceptSchedule((1, 2, 3, 4), 5)))

    def test_spec_validation(self):
        with pytest.raises(UsageError):
            StreamSpec("unknown")
        with pytest.raises(UsageError):
            StreamSpec("sine1", noise=1.0)
        with pytest.raises(UsageError):
            StreamSpec("sine1", length=0)

    def test_schedule_is_resolved_and_checked_when_made(self):
        assert StreamSpec("sine1").schedule == default_schedule("sine1", 100_000)
        custom = ConceptSchedule((100, 200), 5)
        assert StreamSpec("led", length=600, schedule=custom).schedule is custom
        most = default_schedule("sine1", MAX_DRIFTS + 1, 1)  # a drift at every instance but 0
        assert len(StreamSpec("sine1", MAX_DRIFTS + 1, schedule=most).schedule.positions) \
            == MAX_DRIFTS
        for family, length, schedule, message in (
                ("circles", 600, ConceptSchedule((100, 200, 300, 400), 5),
                 "circles supports at most 3 drifts, schedule has 4"),
                ("mixed", MAX_DRIFTS + 2, ConceptSchedule(tuple(range(1, MAX_DRIFTS + 2)), 1),
                 f"mixed supports at most {MAX_DRIFTS} drifts, schedule has {MAX_DRIFTS + 1}"),
                ("circles", 200_000, None, "circles supports at most 3 drifts, schedule has 7"),
                ("led", 600, ConceptSchedule((100, 200, 300, 400), 5),
                 "led layout defines 4 concepts, schedule needs 5"),
                ("sine1", 1_000, ConceptSchedule((2_000,), 50),
                 "drift position 2000 is beyond the stream length 1000"),
                # The length is checked before the stock schedule is made.
                ("circles", MAX_LENGTH + 1, None,
                 f"stream length must lie in [1, {MAX_LENGTH}], got {MAX_LENGTH + 1}")):
            with pytest.raises(UsageError) as caught:
                StreamSpec(family, length=length, schedule=schedule)
            assert str(caught.value) == message

    @pytest.mark.parametrize("make,message", [
        (lambda: StreamSpec("sine1", length=2500.5),
         "stream length must be an integer, got 2500.5"),
        (lambda: StreamSpec("sine1", seed=1.5), "seed must be an integer, got 1.5"),
        (lambda: StreamSpec("sine1", seed=-5), "seed must be >= 0, got -5"),
        (lambda: ConceptSchedule((100.5, 200), 5),
         "drift position must be an integer, got 100.5"),
        (lambda: ConceptSchedule((-5, 100), 5), "drift position must be >= 0, got -5"),
        (lambda: ConceptSchedule((100, 200), 5.5),
         "transition length must be an integer, got 5.5"),
        (lambda: ConceptSchedule((100, 200), 0), "transition length must be >= 1, got 0")],
        ids=["length_fraction", "seed_fraction", "seed_negative", "position_fraction",
             "position_negative", "transition_fraction", "transition_0"])
    def test_integer_fields_are_checked_when_made(self, make, message):
        # Fractions used to construct and fail in generate_stream with a TypeError.
        with pytest.raises(UsageError) as caught:
            make()
        assert str(caught.value) == message

    def test_whole_numbers_are_kept_as_ints(self):
        spec = StreamSpec("sine1", length=2500.0, seed=np.int64(3),
                          schedule=ConceptSchedule((1000.0,), 5.0))
        fields = (spec.length, spec.seed, spec.schedule.transition, *spec.schedule.positions)
        assert fields == (2500, 3, 5, 1000) and {type(v) for v in fields} == {int}
        stream = generate_stream(spec)
        assert len(stream) == 2500 and stream.drift_positions == (1000,)

    def test_default_schedules(self):
        sine = generate_stream(StreamSpec("sine1", seed=0, length=100_000))
        assert sine.drift_positions == (20_000, 40_000, 60_000, 80_000)
        led = generate_stream(StreamSpec("led", seed=0, length=100_000))
        assert led.drift_positions == (25_000, 50_000, 75_000)


def traced_peak(build):
    """``build()`` and the peak bytes traced while it ran."""
    tracemalloc.start()
    try:
        result = build()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestFootprint:
    # Scratch beyond the returned arrays: led's piece of attribute draws
    # is 4096 x 24 int64 values, 0.75 MiB.
    ALLOWANCE = 1 << 20

    @pytest.mark.parametrize("family", FAMILIES)
    def test_generation_holds_its_outputs_and_piece_scratch(self, family):
        generate_stream(StreamSpec(family, length=100, seed=4))  # first-call caches
        overheads = []
        for n in (30_001, 300_001):
            spec = StreamSpec(family, length=n, seed=4,
                              schedule=ConceptSchedule((n // 3, 2 * n // 3), 500))
            stream, peak = traced_peak(lambda: generate_stream(spec))
            overheads.append(peak - stream.X.nbytes - stream.y.nbytes - stream.concepts.nbytes)
        assert max(overheads) < self.ALLOWANCE
        # A full-length temporary would grow with n, even a boolean mask
        # (270 kB more at the longer length).
        assert overheads[1] - overheads[0] < 64 << 10

    def test_csv_load_fills_its_outputs_in_one_pass(self, tmp_path):
        small = tmp_path / "small.csv"
        dump_stream(StreamSpec("mixed", length=50, seed=2), small)
        load_csv_stream(small)  # first-call caches
        for n in (10_001, 40_001):
            path = tmp_path / f"mixed{n}.csv"
            dump_stream(StreamSpec("mixed", length=n, seed=2), path)
            stream, peak = traced_peak(lambda: load_csv_stream(path))
            returned = stream.X.nbytes + stream.y.nbytes
            # X and y grow in place, over-allocated by about a sixteenth,
            # and are returned as views.  Converted pieces of X live
            # together with their concatenation would take twice the
            # returned bytes, and rows held as Python lists 5.4 times.
            assert peak < 1.25 * returned + (256 << 10)


class TestCsvRoundTrip:
    def test_dump_then_load_sine1(self, tmp_path):
        path = tmp_path / "sine1.csv"
        spec = StreamSpec("sine1", length=500, seed=7)
        dump_stream(spec, path)
        loaded = load_csv_stream(path)
        original = generate_stream(spec)
        assert np.array_equal(loaded.y, original.y)
        assert np.allclose(loaded.X, original.X, atol=1e-12)
        assert loaded.schema.names == ("x", "y")

    def test_dump_is_byte_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        spec = StreamSpec("led", length=300, seed=21)
        dump_stream(spec, a)
        dump_stream(spec, b)
        assert a.read_bytes() == b.read_bytes()

    def test_led_dump_has_25_columns(self, tmp_path):
        path = tmp_path / "led.csv"
        dump_stream(StreamSpec("led", length=50, seed=1), path)
        header = path.read_text().splitlines()[0]
        assert len(header.split(",")) == 25

    def test_nominal_labels_interned_first_seen(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("x,y,label\n0.5,1.5,Up\n0.25,2.5,Down\n")
        stream = load_csv_stream(path)
        assert stream.y.tolist() == [0, 1]
        assert stream.schema.n_classes == 2
        assert stream.schema.kinds == (NUMERIC, NUMERIC)

    @pytest.mark.parametrize("labels", [("0", "UP", "1", "DOWN"),
                                        ("UP", "0", "DOWN", "1"),
                                        ("0", '"1\n"'), ("0", "\u0661")])
    def test_labels_mixing_codes_and_names_rejected(self, tmp_path, labels):
        # Integer labels are class codes and names are interned from 0, so
        # a column holding both would put two classes on one code.  Codes
        # are ASCII digits alone: "1\n" and an Arabic-Indic one are names.
        path = tmp_path / "mixed.csv"
        path.write_text("x,label\n" + "".join(
            f"0.{i},{label}\n" for i, label in enumerate(labels)))
        with pytest.raises(DataFormatError, match="line 3"):
            load_csv_stream(path)

    def test_code_of_many_digits_is_data_error(self, tmp_path):
        # int() refuses strings over 4300 digits, leading zeros included.
        path = tmp_path / "digits.csv"
        path.write_text(f"x,label\n0.1,0\n0.2,{'9' * 5000}\n")
        with pytest.raises(DataFormatError, match="line 3: label 9+ in column 'label'"):
            load_csv_stream(path)
        path.write_text(f"v:nominal:2,label\n0,0\n{'9' * 5000},1\n")
        with pytest.raises(DataFormatError, match="line 3: column 'v'"):
            load_csv_stream(path)
        one = "0" * 5000 + "1"
        path.write_text(f"v:nominal:2,label\n0,0\n{one},{one}\n")
        stream = load_csv_stream(path)
        assert stream.X.tolist() == [[0], [1]] and stream.y.tolist() == [0, 1]

    def test_label_code_above_row_count_rejected(self, tmp_path):
        path = tmp_path / "huge.csv"
        path.write_text("x,label\n0.1,0\n0.2,7\n0.3,1000000000000000\n0.4,1000000000000000\n")
        with pytest.raises(DataFormatError, match="line 4: label 1000000000000000"):
            load_csv_stream(path)
        # A cardinality of non-ASCII digits is a malformed mark.
        path.write_text("x,label:nominal:1\u0661\n0.1,0\n0.2,10\n")
        with pytest.raises(DataFormatError, match="line 1: column 'label'"):
            load_csv_stream(path)

    @pytest.mark.parametrize("labels,n_classes", [((0, 1, 2), 3), ((1, 2, 3), 4), ((3, 3, 3), 4)])
    def test_label_codes_up_to_row_count_pass(self, tmp_path, labels, n_classes):
        # r rows hold at most r classes, so 0- and 1-based codes load.
        path = tmp_path / "codes.csv"
        path.write_text("x,label\n" + "".join(f"0.{i},{c}\n" for i, c in enumerate(labels)))
        stream = load_csv_stream(path)
        assert stream.y.tolist() == list(labels)
        assert stream.schema.n_classes == n_classes

    def test_nominal_attribute_interning(self, tmp_path):
        path = tmp_path / "nom.csv"
        path.write_text("color,label\nred,A\nblue,B\nred,A\n")
        stream = load_csv_stream(path)
        assert stream.X[:, 0].tolist() == [0.0, 1.0, 0.0]
        assert stream.schema.kinds == (NOMINAL,)
        assert stream.schema.cardinalities == (1 + 1,)

    def test_header_only_file_is_empty_stream(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("x,y,label\n")
        stream = load_csv_stream(path)
        assert len(stream) == 0

    def test_missing_header_is_error(self, tmp_path):
        path = tmp_path / "none.csv"
        path.write_text("")
        with pytest.raises(DataFormatError):
            load_csv_stream(path)

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,label\n0.5,A\noops\n")
        with pytest.raises(DataFormatError, match="line 3"):
            load_csv_stream(path)

    def test_non_numeric_in_numeric_column_names_line(self, tmp_path):
        path = tmp_path / "bad2.csv"
        path.write_text("x,label\n0.5,A\nnope,B\n")
        with pytest.raises(DataFormatError, match="line 3"):
            load_csv_stream(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity", "1e400"])
    def test_non_finite_numeric_value_names_line_and_column(self, tmp_path, value):
        path = tmp_path / "nonfinite.csv"
        path.write_text(f"x,z,label\n0.5,1.0,A\n0.25,{value},B\n")
        with pytest.raises(DataFormatError, match="line 3: column 'z'.*not a finite"):
            load_csv_stream(path)

    @pytest.mark.parametrize("family", ["sine1", "mixed", "circles", "led"])
    def test_round_trip_keeps_schema_and_prequential_bits(self, tmp_path, family):
        path = tmp_path / f"{family}.csv"
        spec = StreamSpec(family, length=300, seed=21)
        dump_stream(spec, path)
        loaded, original = load_csv_stream(path), generate_stream(spec)
        assert loaded.schema == original.schema
        # Only the all-nominal led schema holds int16 codes.
        dtype = np.int16 if family == "led" else np.float64
        assert loaded.X.dtype == original.X.dtype == dtype
        assert np.array_equal(loaded.X, original.X)
        assert np.array_equal(loaded.y, original.y)
        bits = [prequential_run(s, NaiveBayes(s.schema), keep_bits=True).bits
                for s in (loaded, original)]
        assert np.array_equal(*bits)

    def test_marked_values_are_decoded_once_per_column(self, tmp_path, monkeypatch):
        # 2000 rows of 24 marked attributes and a marked label hold 58
        # distinct (column, value) pairs: 0 and 1 per attribute, ten digits.
        path = tmp_path / "led.csv"
        spec = StreamSpec("led", length=2_000, seed=3)
        dump_stream(spec, path)
        calls = []
        decode = streams._marked_code

        def spy(path, line, column, value, card):
            calls.append((column, value))
            return decode(path, line, column, value, card)

        monkeypatch.setattr(streams, "_marked_code", spy)
        stream, original = load_csv_stream(path), generate_stream(spec)
        columns = stream.schema.names + ("label",)
        values = [{str(v) for v in column} for column in (*stream.X.T, stream.y)]
        assert sorted(calls) == sorted((c, v) for c, vs in zip(columns, values) for v in vs)
        assert len(calls) == 58
        assert np.array_equal(stream.X, original.X) and np.array_equal(stream.y, original.y)

    def test_marked_cardinalities_survive_absent_values(self, tmp_path):
        # Value 2 and classes 2-3 never occur, yet they count for smoothing.
        path = tmp_path / "marked.csv"
        path.write_text("v:nominal:3,x,label:nominal:4\n1,0.5,0\n0,0.25,1\n")
        stream = load_csv_stream(path)
        assert stream.schema.names == ("v", "x")
        assert stream.schema.kinds == (NOMINAL, NUMERIC)
        assert stream.schema.cardinalities == (3, 0)
        assert stream.schema.n_classes == 4
        assert stream.X[:, 0].tolist() == [1.0, 0.0]

    def test_header_only_marked_file_keeps_kinds(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("v:nominal:2,x,label\n")
        assert load_csv_stream(path).schema.kinds == (NOMINAL, NUMERIC)

    @pytest.mark.parametrize("row", ["2,0", "red,0", "1,4", "1,UP", '"0\n",1', "\u0661,1"])
    def test_value_outside_a_marked_column_is_data_error(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_text(f"v:nominal:2,label:nominal:4\n0,1\n{row}\n")
        with pytest.raises(DataFormatError, match="line 3.*marked cardinality"):
            load_csv_stream(path)

    @pytest.mark.parametrize("marked", ["v", "label", "unmarked", "names", "codes"])
    def test_marked_cardinality_is_bounded(self, tmp_path, marked):
        # An unmarked nominal column may hold as many distinct values, and
        # an unmarked label column as many classes, as a mark may declare;
        # the first value or class past them fails at its line.
        path = tmp_path / "marked.csv"
        for card in (MAX_CARDINALITY, MAX_CARDINALITY + 1):
            if marked == "unmarked":
                path.write_text("v,label\n" + "".join(f"id{i},{i % 2}\n" for i in range(card)))
                line, column = card + 1, "v"
            elif marked in ("names", "codes"):
                label = "c{}" if marked == "names" else "{}"
                path.write_text("v,label\n" + "".join(
                    f"0.5,{label.format(i)}\n" for i in range(card)))
                line, column = card + 1, "label"
            else:
                header = ",".join(f"{name}:nominal:{card}" if name == marked else name
                                  for name in ("v", "label"))
                path.write_text(f"{header}\n0,0\n1,1\n")
                line, column = 1, marked
            if card == MAX_CARDINALITY:
                schema = load_csv_stream(path).schema
                assert card in (schema.n_classes, *schema.cardinalities)
            elif marked == "codes":
                with pytest.raises(DataFormatError,
                                   match=f"line {line}: label {card - 1} in column 'label'"):
                    load_csv_stream(path)
            else:
                with pytest.raises(DataFormatError, match=f"line {line}: column '{column}'"):
                    load_csv_stream(path)

    def test_all_nominal_file_holds_the_largest_code(self, tmp_path):
        path = tmp_path / "codes.csv"
        top = MAX_CARDINALITY - 1
        path.write_text(f"v:nominal:{MAX_CARDINALITY},w,label\n{top},red,0\n0,blue,1\n")
        stream = load_csv_stream(path)
        assert stream.schema.kinds == (NOMINAL, NOMINAL)
        assert stream.X.dtype == np.int16 and stream.X.tolist() == [[top, 0], [0, 1]]

    def test_unmarked_integer_columns_keep_inference(self, tmp_path):
        path = tmp_path / "plain.csv"
        path.write_text("v,w:nominal,label\n0,1,0\n1,0,1\n")
        stream = load_csv_stream(path)
        assert stream.schema.names == ("v", "w:nominal")
        assert stream.schema.kinds == (NUMERIC, NUMERIC)
        assert stream.schema.cardinalities == (0, 0)
