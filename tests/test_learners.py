"""Incremental Naive Bayes and the prequential loop."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from driftbench import (
    ADWIN,
    MDDM,
    Arithmetic,
    CUSUM,
    DDM,
    EDDM,
    Geometric,
    NaiveBayes,
    StreamSpec,
    UsageError,
    Verdict,
    dump_stream,
    fhddm,
    generate_stream,
    load_csv_stream,
    prequential_run,
    prequential_runs,
)
from driftbench import learners
from driftbench.detectors.base import _SCAN_SLICE
from driftbench.streams import NOMINAL, NUMERIC, ConceptSchedule, Stream, StreamSchema


def make_schema(kinds, cards, n_classes=2):
    names = tuple(f"a{i}" for i in range(len(kinds)))
    return StreamSchema(names, tuple(kinds), tuple(cards), n_classes)


class NotTrainedError(RuntimeError):
    """Raised when predicting before any training instance was seen."""


def class_scores(model, attributes):
    """Unnormalised log-posterior per class of one instance (-inf for
    unseen classes): the per-instance reference for ``_block_bits``."""
    if model.total == 0:
        raise NotTrainedError("model has not seen any training instance")
    cc = model.class_counts
    with np.errstate(divide="ignore", invalid="ignore"):
        scores = np.log(cc / model.total)
        safe = np.where(cc > 0, cc, 1.0)
        for slot, j in enumerate(model._numeric):
            x = float(attributes[j])
            mean = model.num_sums[:, slot] / safe
            var = model.num_sumsqs[:, slot] / safe - mean * mean
            var = np.maximum(var, learners.VARIANCE_FLOOR)
            d = x - mean
            scores += -0.5 * np.log(2.0 * math.pi * var) - d * d / (2.0 * var)
        for slot, (j, card) in enumerate(model._nominal):
            v = int(attributes[j])
            counts = (model.nom_counts[:, model._offsets[slot] + v] if 0 <= v < card
                      else np.zeros_like(cc))
            scores += np.log((counts + 1.0) / (cc + card))
    return np.where(cc > 0, scores, -np.inf)


def predict(model, attributes):
    """Most probable class of one instance, ties to the lowest code."""
    return int(np.argmax(class_scores(model, attributes)))


def smoothed_score(counts, class_count, card):
    return math.log((counts + 1.0) / (class_count + card))


class TestNaiveBayes:
    def test_untrained_prediction_raises(self):
        model = NaiveBayes(make_schema([NUMERIC], [0]))
        with pytest.raises(NotTrainedError):
            predict(model, [0.5])

    def test_single_class_always_predicted(self):
        model = NaiveBayes(make_schema([NUMERIC, NUMERIC], [0, 0], n_classes=3))
        rng = np.random.default_rng(0)
        for _ in range(10):
            model.train(rng.random(2), 2)
        for _ in range(20):
            assert predict(model, rng.random(2)) == 2

    def test_smoothed_nominal_hand_case(self):
        # Class A saw value 1 three times, class B value 0 three times.
        model = NaiveBayes(make_schema([NOMINAL], [2]))
        for _ in range(3):
            model.train([1], 0)
            model.train([0], 1)
        assert predict(model, [1]) == 0
        scores = class_scores(model, [1])
        expected_a = math.log(0.5) + smoothed_score(3.0, 3.0, 2)
        expected_b = math.log(0.5) + smoothed_score(0.0, 3.0, 2)
        assert scores[0] == pytest.approx(expected_a, rel=1e-12)
        assert scores[1] == pytest.approx(expected_b, rel=1e-12)

    def test_count_scaling_preserves_argmax(self):
        schema = make_schema([NOMINAL, NUMERIC], [3, 0])
        rng = np.random.default_rng(4)
        instances = [(([int(rng.integers(3)), float(rng.random())]),
                      int(rng.integers(2))) for _ in range(40)]
        base = NaiveBayes(schema)
        scaled = NaiveBayes(schema)
        for attrs, label in instances:
            base.train(attrs, label)
            for _ in range(10):
                scaled.train(attrs, label)
        for _ in range(200):
            query = [int(rng.integers(3)), float(rng.random())]
            assert predict(base, query) == predict(scaled, query)

    def test_train_then_predict_same_instance(self):
        model = NaiveBayes(make_schema([NUMERIC, NOMINAL], [0, 4]))
        model.train([0.25, 2], 1)
        assert predict(model, [0.25, 2]) == 1

    def test_sufficient_statistics_match_batch(self):
        rng = np.random.default_rng(8)
        xs = rng.random(500)
        model = NaiveBayes(make_schema([NUMERIC], [0], n_classes=1))
        for x in xs:
            model.train([x], 0)
        count = model.class_counts[0]
        mean = model.num_sums[0, 0] / count
        var = model.num_sumsqs[0, 0] / count - mean * mean
        assert mean == pytest.approx(float(xs.mean()), abs=1e-10)
        assert var == pytest.approx(float(xs.var()), abs=1e-10)

    def test_training_order_permutation_invariance(self):
        rng = np.random.default_rng(9)
        instances = [([float(rng.random()), int(rng.integers(2))],
                      int(rng.integers(2))) for _ in range(100)]
        a = NaiveBayes(make_schema([NUMERIC, NOMINAL], [0, 2]))
        b = NaiveBayes(make_schema([NUMERIC, NOMINAL], [0, 2]))
        for attrs, label in instances:
            a.train(attrs, label)
        order = rng.permutation(len(instances))
        for i in order:
            b.train(*instances[i])
        assert np.allclose(a.class_counts, b.class_counts)
        assert np.allclose(a.num_sums, b.num_sums, atol=1e-10)
        assert np.allclose(a.num_sumsqs, b.num_sumsqs, atol=1e-10)
        assert np.array_equal(a.nom_counts, b.nom_counts)

    def test_nominal_counts_are_one_array_in_table_order(self):
        # Nominal attributes of cardinality 3 and 2 around a numeric one:
        # their counts sit side by side, the second attribute from column 3.
        model = NaiveBayes(make_schema([NOMINAL, NUMERIC, NOMINAL], [3, 0, 2], n_classes=3))
        rng = np.random.default_rng(14)
        want = np.zeros((3, 5))
        for _ in range(60):
            attrs = [int(rng.integers(3)), float(rng.random()), int(rng.integers(2))]
            label = int(rng.integers(3))
            model.train(attrs, label)
            want[label, attrs[0]] += 1.0
            want[label, 3 + attrs[2]] += 1.0
        assert model.nom_counts.shape == (3, 5)
        assert np.array_equal(model.nom_counts, want)

    def test_reset_discards_statistics(self):
        model = NaiveBayes(make_schema([NUMERIC], [0]))
        model.train([0.5], 1)
        model.reset()
        assert not model.is_trained
        with pytest.raises(NotTrainedError):
            predict(model, [0.5])

    def test_arity_and_label_validation(self):
        model = NaiveBayes(make_schema([NUMERIC], [0]))
        with pytest.raises(ValueError):
            model.train([0.1, 0.2], 0)
        with pytest.raises(ValueError):
            model.train([0.1], 7)

    @pytest.mark.parametrize("attrs, label", [([0.5, 7], 1), ([0.5, -1], 0),
                                              ([0.5, 1, 2], 0), ([0.5, 1], 2)],
                             ids=["code_above", "code_below", "arity", "label"])
    def test_rejected_instance_changes_nothing(self, attrs, label):
        model = NaiveBayes(make_schema([NUMERIC, NOMINAL], [0, 3]))
        model.train([0.25, 2], 0)
        before = {name: getattr(model, name).copy()
                  for name in ("class_counts", "num_sums", "num_sumsqs", "nom_counts")}
        with pytest.raises(ValueError):
            model.train(attrs, label)
        assert model.total == 1
        for name, array in before.items():
            assert np.array_equal(getattr(model, name), array), name

    def test_variance_floor_on_constant_attribute(self):
        model = NaiveBayes(make_schema([NUMERIC, NUMERIC], [0, 0]))
        for _ in range(5):
            model.train([0.5, 0.1], 0)
            model.train([0.5, 0.9], 1)
        # The constant first attribute must not produce infinities.
        scores = class_scores(model, [0.5, 0.1])
        assert np.all(np.isfinite(scores))
        assert predict(model, [0.5, 0.1]) == 0


class TestPrequentialRun:
    def stream(self, family="sine1", length=4_000, seed=5, **kw):
        return generate_stream(StreamSpec(
            family, length=length, seed=seed,
            schedule=ConceptSchedule((length // 2,), 50), **kw))

    def test_no_detector_has_no_alarms(self):
        record = prequential_run(self.stream(), None, None)
        assert record.alarms == ()
        assert 0.0 < record.accuracy < 1.0

    def test_policy_none_equals_no_adaptation_accuracy(self):
        stream = self.stream()
        plain = prequential_run(stream, None, None)
        logged = prequential_run(stream, None, CUSUM(), policy="none")
        # Alarms are recorded but the model is never reset.
        assert logged.accuracy == plain.accuracy

    def test_blind_policy_alarm_schedule(self):
        stream = self.stream(length=950)
        record = prequential_run(stream, None, None, policy="blind:100")
        assert record.alarms == (100, 200, 300, 400, 500, 600, 700, 800, 900)

    def test_blind_policy_needs_period(self):
        with pytest.raises(UsageError):
            prequential_run(self.stream(length=10), None, None, policy="blind:0")
        with pytest.raises(UsageError):
            prequential_run(self.stream(length=10), None, None, policy="bogus")

    def test_blind_policy_rejects_detector(self):
        with pytest.raises(UsageError):
            prequential_run(self.stream(length=10), None, CUSUM(), policy="blind:5")

    def test_bits_have_stream_length(self):
        stream = self.stream(length=2_500)
        record = prequential_run(stream, None, MDDM(Arithmetic(0.01), 25),
                                 keep_bits=True)
        assert record.bits.shape == (2_500,)
        assert record.n_instances == 2_500
        assert record.accuracy == record.bits.mean()

    def test_full_determinism(self):
        stream = self.stream(seed=42)
        a = prequential_run(stream, None, DDM())
        b = prequential_run(stream, None, DDM())
        assert a.alarms == b.alarms
        assert a.accuracy == b.accuracy

    def test_drift_resets_improve_post_drift_accuracy(self):
        stream = self.stream(length=20_000, seed=2)
        with_det = prequential_run(stream, None, MDDM(Arithmetic(0.01), 25))
        without = prequential_run(stream, None, None)
        assert with_det.accuracy > without.accuracy
        assert any(10_000 < a < 10_200 for a in with_det.alarms)

    def test_matches_per_instance_reference_loop(self):
        # The vectorised engine must reproduce the naive loop bit for bit.
        for family in ("sine1", "mixed", "circles", "led"):
            stream = generate_stream(StreamSpec(
                family, length=1_500, seed=3,
                schedule=ConceptSchedule((700,), 50)))
            for make in (lambda: MDDM(Arithmetic(0.01), 25, 1e-4),
                         lambda: EDDM(), lambda: None):
                detector = make()
                fast = prequential_run(stream, None, detector, keep_bits=True)
                slow_alarms, slow_correct, slow_bits = self.reference_loop(
                    stream, make())
                assert fast.alarms == tuple(slow_alarms), family
                assert fast.accuracy == slow_correct / len(stream)
                assert np.array_equal(fast.bits, np.array(slow_bits, dtype=bool))

    @pytest.mark.parametrize("family", ["led", "mixed", "uneven", "slots"])
    def test_matches_reference_loop_across_block_boundaries(self, family):
        # 12k rows span several full blocks; MDDM at delta 0.1 resets often,
        # so blocks restart small and regrow many times.  "uneven" mixes
        # nominal cardinalities over six classes, one so rare that many
        # blocks hold none of its instances; "slots" has three numeric
        # slots over four classes.
        stream = self.make_stream(family, 12_000, seed=6)
        if family == "uneven":
            assert 0 < np.count_nonzero(stream.y == 5) < 60
        for make, policy in ((lambda: MDDM(Arithmetic(0.01), 25, 0.1), "reset"),
                             (lambda: EDDM(), "reset"),
                             (lambda: MDDM(Arithmetic(0.01), 25, 0.1), "none"),
                             (lambda: None, "blind:1000")):
            fast_model, slow_model = NaiveBayes(stream.schema), NaiveBayes(stream.schema)
            fast = prequential_run(stream, fast_model, make(), policy=policy, keep_bits=True)
            slow_alarms, slow_correct, slow_bits = self.reference_loop(
                stream, make(), policy, slow_model)
            assert fast.alarms == tuple(slow_alarms), policy
            assert fast.accuracy == slow_correct / len(stream)
            assert np.array_equal(fast.bits, np.array(slow_bits, dtype=bool))
            assert fast_model.total == slow_model.total
            for name in ("class_counts", "num_sums", "num_sumsqs", "nom_counts"):
                assert np.array_equal(getattr(fast_model, name), getattr(slow_model, name)), name

    def test_wide_nominal_one_hot_shortens_blocks(self, monkeypatch):
        # 100 values x 5 classes: each block's count table (a row per value,
        # a column per instance and per class) stays within _TABLE_CELLS,
        # and the shorter blocks still match the loop.
        rng = np.random.default_rng(12)
        card, m, n = 100, 5, 3_000
        X = np.column_stack([rng.integers(0, card, n), rng.random(n)]).astype(np.float64)
        stream = Stream("wide", X, rng.integers(0, m, n),
                        make_schema([NOMINAL, NUMERIC], [card, 0], n_classes=m))
        lengths = []
        block_bits = learners._block_bits
        monkeypatch.setattr(learners, "_block_bits",
                            lambda model, X, y: lengths.append(len(y)) or block_bits(model, X, y))
        fast = prequential_run(stream, None, None, keep_bits=True)
        _, slow_correct, slow_bits = self.reference_loop(stream, None)
        assert fast.accuracy == slow_correct / n
        assert np.array_equal(fast.bits, np.array(slow_bits, dtype=bool))
        assert len(lengths) > 1 and (max(lengths) + m) * card <= learners._TABLE_CELLS

    @staticmethod
    def block_lengths(monkeypatch, stream, detector=None):
        """The run's record and the length of each block it computed."""
        lengths = []
        block_bits = learners._block_bits
        monkeypatch.setattr(learners, "_block_bits",
                            lambda model, X, y: lengths.append(len(y)) or block_bits(model, X, y))
        return prequential_run(stream, None, detector, keep_bits=True), lengths

    @pytest.mark.parametrize("family,longest", [
        ("sine1", _SCAN_SLICE), ("mixed", _SCAN_SLICE), ("circles", _SCAN_SLICE),
        ("led", 2_720)])
    def test_longest_block_of_each_family(self, monkeypatch, family, longest):
        # Two classes leave full slices; led's ten classes are held by its
        # 48-row table (131072 // 48 - 10), not by the class count.
        stream = generate_stream(StreamSpec(family, length=12_000, seed=2))
        _, lengths = self.block_lengths(monkeypatch, stream)
        assert max(lengths) == longest

    def test_many_classes_shorten_blocks(self, monkeypatch):
        # 200 classes: the running-sum table, 5 * m rows for two numeric
        # slots, stays within _TABLE_CELLS, and the shorter blocks still
        # match the loop, resets included.
        rng = np.random.default_rng(21)
        m, n = 200, 3_000
        x = rng.random(n)
        y = np.where(rng.random(n) < 0.8, (x * m).astype(np.int64), rng.integers(0, m, n))
        stream = Stream("classes", np.column_stack([x, rng.normal(size=n)]), y,
                        make_schema([NUMERIC, NUMERIC], [0, 0], n_classes=m))
        alarms = []
        for make in (lambda: MDDM(Arithmetic(0.01), 25, 0.1), lambda: None):
            fast, lengths = self.block_lengths(monkeypatch, stream, make())
            slow_alarms, slow_correct, slow_bits = self.reference_loop(stream, make())
            assert fast.alarms == tuple(slow_alarms)
            assert fast.accuracy == slow_correct / n
            assert np.array_equal(fast.bits, np.array(slow_bits, dtype=bool))
            assert max(lengths) == learners._TABLE_CELLS // (5 * m)
            alarms.append(fast.alarms)
        assert alarms[0] and not alarms[1]

    def test_many_classes_stay_small(self):
        # 2000 rows of 2000 distinct classes held 366 MB of (classes, block)
        # arrays with blocks of a full slice.
        n = 2_000
        rng = np.random.default_rng(5)
        stream = Stream("names", rng.random((n, 1)), np.arange(n),
                        make_schema([NUMERIC], [0], n_classes=n))
        tracemalloc.start()
        try:
            prequential_run(stream, None, MDDM(Arithmetic(0.01), 25))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20

    def test_header_only_csv_runs(self, tmp_path):
        # No rows, no classes: the class count caps no block.
        path = tmp_path / "empty.csv"
        path.write_text("x,label\n")
        stream = load_csv_stream(path)
        assert stream.schema.n_classes == 0
        record = prequential_run(stream, None, None)
        assert record.alarms == () and record.accuracy == 0.0

    @pytest.mark.parametrize("bad", [-1, 3, math.nan])
    def test_out_of_range_nominal_code_rejected(self, bad):
        # The block engine rejects what NaiveBayes.train rejects, with the
        # same message, rather than reading another attribute's counts.
        rng = np.random.default_rng(1)
        X = np.column_stack([rng.random(200), rng.integers(0, 3, 200)]).astype(np.float64)
        X[150, 1] = bad
        stream = Stream("bad", X, rng.integers(0, 2, 200),
                        make_schema([NUMERIC, NOMINAL], [0, 3]))
        message = f"attribute 1 value {bad:g} outside its cardinality 3"
        with pytest.raises(ValueError, match=message), np.errstate(invalid="ignore"):
            prequential_run(stream, None, None)
        with pytest.raises(ValueError, match=message if math.isfinite(bad) else "NaN"):
            NaiveBayes(stream.schema).train(X[150], 0)

    @pytest.mark.parametrize("family", ["sine1", "mixed", "circles", "led", "uneven", "slots"])
    def test_block_trains_its_model_in_place(self, family):
        # After 300 rows trained one by one, two blocks give the reference
        # predictor's bits and leave the model trained as the copy that saw
        # each row on its own.
        stream = self.make_stream(family, 1_500, seed=4)
        X, y = stream.X, stream.y
        model, want = NaiveBayes(stream.schema), NaiveBayes(stream.schema)
        for t in range(300):
            model.train(X[t], y[t])
            want.train(X[t], y[t])
        for a, b in ((300, 700), (700, 1_500)):
            bits = learners._block_bits(model, X[a:b], y[a:b])
            expected = []
            for t in range(a, b):
                expected.append(predict(want, X[t]) == y[t])
                want.train(X[t], y[t])
            assert np.array_equal(bits, expected)
            assert model.total == want.total
            for name in ("class_counts", "num_sums", "num_sumsqs", "nom_counts"):
                assert np.array_equal(getattr(model, name), getattr(want, name)), name
        if not model._nominal:
            return
        # A block with an out-of-range code changes nothing.
        bad = X[:200].astype(np.float64)
        bad[150, model._nominal[-1][0]] = model._nominal[-1][1]
        names = ("class_counts", "num_sums", "num_sumsqs", "nom_counts")
        before = [getattr(model, name).copy() for name in names]
        with pytest.raises(ValueError, match="outside its cardinality"):
            learners._block_bits(model, bad, y[:200])
        assert model.total == want.total
        for name, array in zip(names, before):
            assert np.array_equal(getattr(model, name), array), name

    @classmethod
    def make_stream(cls, family, n, seed):
        if family == "uneven":
            return cls.uneven_stream(n, seed)
        if family == "slots":
            return cls.slots_stream(n, seed)
        return generate_stream(StreamSpec(family, length=n, seed=seed))

    @staticmethod
    def slots_stream(n, seed):
        # Three numeric attributes of different scales around class means
        # that move halfway, interleaved with two nominal ones of
        # cardinality 4 and 3, over four classes: every row of a block's
        # running-sum table (class counts, then each slot's sums, then
        # each slot's squared sums) differs from its neighbours.
        rng = np.random.default_rng(seed)
        y = rng.choice(4, size=n, p=[0.4, 0.3, 0.2, 0.1])
        shift = np.where(np.arange(n) >= n // 2, 1.5, 0.0)
        columns = [scale * (y - shift) + rng.normal(0.0, 2.0 * scale, n)
                   for scale in (0.5, 1.0, 3.0)]
        columns.insert(1, np.where(rng.random(n) < 0.3, rng.integers(0, 4, n), y))
        columns.append(np.where(rng.random(n) < 0.5, rng.integers(0, 3, n), y % 3))
        schema = make_schema([NUMERIC, NOMINAL, NUMERIC, NUMERIC, NOMINAL],
                             [0, 4, 0, 0, 3], n_classes=4)
        return Stream("slots", np.column_stack(columns).astype(np.float64), y, schema)

    @staticmethod
    def uneven_stream(n, seed):
        # Four nominal attributes of cardinality 3, 7, 2 and 5 and one
        # numeric one over six classes; class 5 is rare, and the mapping
        # from class to values changes halfway.  Half the values are noise.
        rng = np.random.default_rng(seed)
        cards = (3, 7, 2, 5)
        y = rng.choice(6, size=n, p=[0.3, 0.25, 0.2, 0.15, 0.097, 0.003])
        phase = (np.arange(n) >= n // 2).astype(np.int64)
        columns = [np.where(rng.random(n) < 0.5, rng.integers(0, card, n),
                            y * (k + 1 + phase) % card)
                   for k, card in enumerate(cards)]
        columns.insert(2, y + rng.normal(0.0, 3.0, n))
        schema = make_schema([NOMINAL, NOMINAL, NUMERIC, NOMINAL, NOMINAL],
                             [3, 7, 0, 2, 5], n_classes=6)
        return Stream("uneven", np.column_stack(columns).astype(np.float64), y, schema)

    @staticmethod
    def reference_loop(stream, detector, policy="reset", model=None):
        model = NaiveBayes(stream.schema) if model is None else model
        period = int(policy.split(":")[1]) if policy.startswith("blind:") else 0
        alarms = []
        bits = []
        for t in range(len(stream)):
            if period and t and t % period == 0:
                alarms.append(t)
                model.reset()
            x, label = stream.X[t], int(stream.y[t])
            try:
                bit = 1 if predict(model, x) == label else 0
            except NotTrainedError:
                bit = 0
            bits.append(bit)
            if detector is not None and detector.step(bit) is Verdict.DRIFT:
                alarms.append(t)
                if policy == "reset":
                    model.reset()
            model.train(x, label)
        return alarms, sum(bits), bits


class TestSharedTimelines:
    """``prequential_runs`` shares Naive Bayes work between detectors with
    the same reset history; each record must be the detector's own run."""

    LINEUP = (lambda: None,
              lambda: MDDM(Arithmetic(0.01), 25, 0.1),
              lambda: MDDM(Arithmetic(0.01), 25, 0.1),
              lambda: MDDM(Geometric(1.01), 25, 0.1),
              lambda: fhddm(25, 0.1),
              lambda: EDDM())

    @staticmethod
    def assert_same(shared, alone):
        assert shared.alarms == alone.alarms
        assert shared.accuracy == alone.accuracy
        assert shared.n_instances == alone.n_instances
        assert np.array_equal(shared.bits, alone.bits)

    @staticmethod
    def assert_trained_from(model, stream, start):
        # The model after a run is a fresh one trained on the rows since
        # the last reset, in order.
        want = NaiveBayes(stream.schema)
        for t in range(start, len(stream)):
            want.train(stream.X[t], stream.y[t])
        assert model.total == want.total
        for name in ("class_counts", "num_sums", "num_sumsqs", "nom_counts"):
            assert np.array_equal(getattr(model, name), getattr(want, name)), name

    @pytest.mark.parametrize("family", ["sine1", "mixed", "led"])
    @pytest.mark.parametrize("policy", ["reset", "none"])
    def test_equals_separate_runs(self, family, policy):
        # 12k rows and MDDM at delta 0.1: the timelines fork, re-merge and
        # restart small blocks many times.
        stream = generate_stream(StreamSpec(family, length=12_000, seed=6))
        shared = prequential_runs(stream, [make() for make in self.LINEUP], policy,
                                  keep_bits=True)
        assert len(shared) == len(self.LINEUP)
        for make, record in zip(self.LINEUP, shared):
            model = NaiveBayes(stream.schema)
            alone = prequential_run(stream, model, make(), policy, keep_bits=True)
            self.assert_same(record, alone)
            last = alone.alarms[-1] if policy == "reset" and alone.alarms else 0
            self.assert_trained_from(model, stream, last)
        a, g = shared[1].alarms, shared[3].alarms
        assert len(a) > 20 and a != g and set(a) & set(g)

    @pytest.mark.parametrize("family", ["sine1", "led"])
    @pytest.mark.parametrize("policy", ["reset", "none"])
    def test_no_scan_gets_more_than_one_slice(self, family, policy):
        # A scan of at most _SCAN_SLICE bits is one MDDM block.
        class Recording(MDDM):
            def scan(self, bits):
                sizes.append(len(bits))
                return super().scan(bits)

        sizes = []
        stream = generate_stream(StreamSpec(family, length=30_000, seed=6))
        records = prequential_runs(stream, [Recording(Arithmetic(0.01), 25, 0.1),
                                            Recording(Arithmetic(0.01), 25, 1e-6)], policy)
        assert records[0].alarms and sizes
        assert max(sizes) <= _SCAN_SLICE
        if family == "sine1":  # led's table cap keeps its blocks shorter
            assert max(sizes) == _SCAN_SLICE

    @pytest.mark.parametrize("lineup", [[None], [None, None]])
    def test_blind_policy(self, lineup):
        stream = generate_stream(StreamSpec("mixed", length=5_000, seed=2))
        model = NaiveBayes(stream.schema)
        shared = prequential_runs(stream, lineup, "blind:700", keep_bits=True, model=model)
        alone = prequential_run(stream, None, None, "blind:700", keep_bits=True)
        for record in shared:
            self.assert_same(record, alone)
        assert alone.alarms == tuple(range(700, 5_000, 700))
        self.assert_trained_from(model, stream, 4_900)

    def test_blind_policy_rejects_any_detector(self):
        stream = generate_stream(StreamSpec("sine1", length=10, seed=1))
        with pytest.raises(UsageError):
            prequential_runs(stream, [None, CUSUM()], "blind:5")

    def test_repeated_detector_object_is_refused(self):
        # One object listed twice would be scanned twice per block.
        stream = generate_stream(StreamSpec("circles", length=3_000, seed=3))
        adwin, cusum = ADWIN(), CUSUM()
        with pytest.raises(ValueError, match=r"positions \[2, 4\] repeat"):
            prequential_runs(stream, [adwin, None, adwin, cusum, cusum, None])
        records = prequential_runs(stream, [None, adwin, None])
        assert records[0] == records[2]

    def test_passed_model_is_the_single_runs_model(self):
        stream = generate_stream(StreamSpec("sine1", length=6_000, seed=3))
        runs_model, run_model = NaiveBayes(stream.schema), NaiveBayes(stream.schema)
        record, = prequential_runs(stream, [MDDM(Arithmetic(0.01), 25, 0.1)], model=runs_model)
        prequential_run(stream, run_model, MDDM(Arithmetic(0.01), 25, 0.1))
        assert record.alarms
        self.assert_trained_from(runs_model, stream, record.alarms[-1])
        self.assert_trained_from(run_model, stream, record.alarms[-1])

    @pytest.mark.parametrize("policy", ["reset", "none"])
    def test_identical_detectors_compute_one_detectors_rows(self, monkeypatch, policy):
        stream = generate_stream(StreamSpec("sine1", length=12_000, seed=6))
        rows = []
        block_bits = learners._block_bits
        monkeypatch.setattr(learners, "_block_bits",
                            lambda model, X, y: rows.append(len(y)) or block_bits(model, X, y))
        one, = prequential_runs(stream, [MDDM(Arithmetic(0.01), 25, 0.1)], policy)
        one_rows, rows[:] = sum(rows), []
        many = prequential_runs(stream, [MDDM(Arithmetic(0.01), 25, 0.1) for _ in range(4)],
                                policy)
        assert len(one.alarms) > 20
        assert sum(rows) == one_rows
        assert all(record.alarms == one.alarms for record in many)


class TestAttributeDtype:
    """An all-nominal stream's X holds int16 codes; the runs must be those
    of the same codes held as float64."""

    LINEUP = (lambda: MDDM(Arithmetic(0.01), 100, 1e-2), ADWIN, lambda: None)

    @pytest.mark.parametrize("source", ["generated", "csv"])
    def test_int16_codes_give_the_float64_runs(self, tmp_path, source):
        spec = StreamSpec("led", length=10_000, seed=8,
                          schedule=ConceptSchedule((2_500, 6_000), 500))
        stream = generate_stream(spec)
        if source == "csv":
            dump_stream(spec, tmp_path / "led.csv")
            stream = load_csv_stream(tmp_path / "led.csv")
        assert stream.X.dtype == np.int16
        wide = replace(stream, X=stream.X.astype(np.float64))
        got, want = (prequential_runs(s, [make() for make in self.LINEUP], "reset",
                                      keep_bits=True) for s in (stream, wide))
        for shared, alone in zip(got, want, strict=True):
            TestSharedTimelines.assert_same(shared, alone)
        assert got[0].alarms and got[1].alarms
