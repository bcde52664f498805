"""Stream generators: label functions, transitions, noise, CSV round trips."""

import math

import numpy as np
import pytest

from driftbench import (
    ConceptSchedule,
    DataFormatError,
    NaiveBayes,
    StreamSpec,
    UsageError,
    circles_label,
    drift_probability,
    dump_stream,
    generate_stream,
    load_csv_stream,
    mixed_label,
    prequential_run,
    sine1_label,
)
from driftbench.streams import (
    LED_DEFAULT_LAYOUT,
    LED_SEGMENTS,
    MAX_CARDINALITY,
    NOMINAL,
    NUMERIC,
)


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

    @pytest.mark.parametrize("family,label_fn", [
        ("sine1", lambda row, c: sine1_label(row[0], row[1], c)),
        ("mixed", lambda row, c: mixed_label(int(row[0]), int(row[1]), row[2], row[3], c)),
        ("circles", lambda row, c: circles_label(row[0], row[1], c)),
    ])
    def test_noiseless_labels_match_concept_function(self, family, label_fn):
        spec = StreamSpec(family, length=10_000, noise=0.0,
                          schedule=ConceptSchedule((5_000,), 50), seed=11)
        stream = generate_stream(spec)
        for t in range(0, len(stream), 7):
            concept = int(stream.concepts[t])
            assert stream.y[t] == label_fn(stream.X[t], concept)

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

    def test_noise_flip_fraction(self):
        stream = generate_stream(StreamSpec("sine1", length=100_000, noise=0.10, seed=5))
        flipped = (stream.y != stream.y_clean).mean()
        assert 0.094 <= flipped <= 0.106

    def test_led_noise_flips_to_different_digit(self):
        stream = generate_stream(StreamSpec("led", length=50_000, noise=0.10, seed=5))
        changed = stream.y != stream.y_clean
        assert 0.09 <= changed.mean() <= 0.11
        assert np.all(stream.y[changed] != stream.y_clean[changed])

    def test_led_digit_distribution_uniform(self):
        stream = generate_stream(StreamSpec("led", length=100_000, noise=0.0, seed=9))
        counts = np.bincount(stream.y_clean, minlength=10)
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

    def test_default_schedules(self):
        sine = generate_stream(StreamSpec("sine1", seed=0, length=100_000))
        assert sine.drift_positions == (20_000, 40_000, 60_000, 80_000)
        led = generate_stream(StreamSpec("led", seed=0, length=100_000))
        assert led.drift_positions == (25_000, 50_000, 75_000)


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
                                        ("UP", "0", "DOWN", "1")])
    def test_labels_mixing_codes_and_names_rejected(self, tmp_path, labels):
        # Integer labels are class codes and names are interned from 0, so
        # a column holding both would put two classes on one code.
        path = tmp_path / "mixed.csv"
        path.write_text("x,label\n" + "".join(
            f"0.{i},{label}\n" for i, label in enumerate(labels)))
        with pytest.raises(DataFormatError, match="line 3"):
            load_csv_stream(path)

    def test_label_code_above_row_count_rejected(self, tmp_path):
        path = tmp_path / "huge.csv"
        path.write_text("x,label\n0.1,0\n0.2,7\n0.3,1000000000000000\n0.4,1000000000000000\n")
        with pytest.raises(DataFormatError, match="line 4: label 1000000000000000"):
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
        assert np.array_equal(loaded.X, original.X)
        assert np.array_equal(loaded.y, original.y)
        bits = [prequential_run(s, NaiveBayes(s.schema), keep_bits=True).bits
                for s in (loaded, original)]
        assert np.array_equal(*bits)

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

    @pytest.mark.parametrize("row", ["2,0", "red,0", "1,4", "1,UP"])
    def test_value_outside_a_marked_column_is_data_error(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_text(f"v:nominal:2,label:nominal:4\n0,1\n{row}\n")
        with pytest.raises(DataFormatError, match="line 3.*marked cardinality"):
            load_csv_stream(path)

    @pytest.mark.parametrize("marked", ["v", "label"])
    def test_marked_cardinality_is_bounded(self, tmp_path, marked):
        path = tmp_path / "marked.csv"
        for card in (MAX_CARDINALITY, MAX_CARDINALITY + 1):
            header = ",".join(f"{name}:nominal:{card}" if name == marked else name
                              for name in ("v", "label"))
            path.write_text(f"{header}\n0,0\n1,1\n")
            if card == MAX_CARDINALITY:
                schema = load_csv_stream(path).schema
                assert card in (schema.n_classes, *schema.cardinalities)
            else:
                with pytest.raises(DataFormatError, match=f"line 1: column '{marked}'"):
                    load_csv_stream(path)

    def test_unmarked_integer_columns_keep_inference(self, tmp_path):
        path = tmp_path / "plain.csv"
        path.write_text("v,w:nominal,label\n0,1,0\n1,0,1\n")
        stream = load_csv_stream(path)
        assert stream.schema.names == ("v", "w:nominal")
        assert stream.schema.kinds == (NUMERIC, NUMERIC)
        assert stream.schema.cardinalities == (0, 0)
