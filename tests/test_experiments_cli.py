"""Experiment runner and command-line surface."""

import copy
import csv
import multiprocessing
import os
import subprocess
import sys
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from driftbench import (ADWIN, CUSUM, DDM, EDDM, MDDM, RDDM, Arithmetic, ConceptSchedule,
                        DataFormatError, Euler, ExperimentConfig, Geometric, PageHinkley,
                        StreamSpec, UsageError, dump_stream, fhddm, run_matrix)
from driftbench import (NaiveBayes, aggregate, experiments, generate_stream,
                        load_csv_stream, prequential_run, score_run, streams)
from driftbench.cli import main
from driftbench.experiments import (ACCEPT_DELAY_DEFAULTS, AGG_CSV_FIELDS, DETECTORS,
                                    RUN_CSV_FIELDS, WINDOW_DEFAULTS, RunResult,
                                    write_aggregate_csv, write_run_csv)

FAST = {"length": 2_000}


def run_capped(args):
    """The CLI on ``args`` in a child process whose address space is
    capped at 2 GB, so an unaffordable allocation fails at once."""
    child = ("import resource, sys\n"
             "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
             "from driftbench.cli import main\n"
             "sys.exit(main(sys.argv[1:]))\n")
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", child, *args],
                          env=env, capture_output=True, text=True, timeout=60)


def read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


class TestRunExperiment:
    """One cell, run as a matrix of one stream and one detector."""

    def test_synthetic_cell_scores_against_schedule(self):
        cfg = ExperimentConfig(stream="sine1", detector="mddm_a", runs=3,
                               seed=50, params=dict(FAST, drift_every=1_000))
        result = run_matrix([cfg.stream], [cfg.detector], cfg).cells[0].result
        assert len(result.runs) == 3
        assert result.aggregate.runs == 3
        assert result.aggregate.tp_mean is not None
        for r in result.runs:
            assert r.score.tp + r.score.fn == 1

    def test_deterministic_for_fixed_config(self):
        cfg = ExperimentConfig(stream="mixed", detector="ddm", runs=2,
                               seed=9, params=dict(FAST))
        a, b = (run_matrix([cfg.stream], [cfg.detector], cfg).cells[0].result
                for _ in range(2))
        assert [r.alarms for r in a.runs] == [r.alarms for r in b.runs]
        assert a.aggregate == b.aggregate

    def test_runs_use_consecutive_seeds(self):
        cfg = ExperimentConfig(stream="sine1", detector="none", runs=3,
                               seed=31, params=dict(FAST))
        result = run_matrix([cfg.stream], [cfg.detector], cfg).cells[0].result
        assert [r.seed for r in result.runs] == [31, 32, 33]

    def test_csv_stream_reports_alarms_and_accuracy_only(self, tmp_path):
        path = tmp_path / "data.csv"
        rows = ["x,y,label"] + [f"0.{i % 10},0.{(i * 3) % 10},{i % 2}"
                                for i in range(1, 400)]
        path.write_text("\n".join(rows) + "\n")
        cfg = ExperimentConfig(stream=str(path), detector="none", runs=1)
        result = run_matrix([cfg.stream], [cfg.detector], cfg).cells[0].result
        agg = result.aggregate
        assert agg.delay_mean is None and agg.tp_mean is None
        assert agg.alarms_mean == 0.0
        assert 0.0 <= agg.accuracy_mean <= 1.0
        assert result.runs[0].score is None

    def test_unknown_detector_rejected(self):
        with pytest.raises(UsageError, match="valid names"):
            ExperimentConfig(stream="sine1", detector="nope")

    def test_unknown_param_rejected(self):
        with pytest.raises(UsageError, match="unknown parameter"):
            ExperimentConfig(stream="sine1", detector="mddm_a",
                             params={"typo": 1.0})

    def test_delta_override_via_params(self):
        cfg = ExperimentConfig(stream="sine1", detector="mddm_a", runs=1,
                               seed=4, delta=1e-6,
                               params=dict(FAST, delta=1e-2))
        loose = run_matrix(["sine1"], ["mddm_a"], cfg).cells[0].result
        tight = run_matrix(["sine1"], ["mddm_a"], ExperimentConfig(
            stream="sine1", detector="mddm_a", runs=1, seed=4, delta=1e-6,
            params=dict(FAST))).cells[0].result
        assert loose.aggregate.alarms_mean >= tight.aggregate.alarms_mean

    def test_csv_output_files(self, tmp_path):
        out = tmp_path / "runs.csv"
        cfg = ExperimentConfig(stream="sine1", detector="fhddm", runs=2,
                               seed=1, params=dict(FAST))
        run_matrix([cfg.stream], [cfg.detector], cfg, out=str(out))
        rows = read_csv(out)
        assert rows[0] == list(RUN_CSV_FIELDS)
        assert len(rows) == 3
        agg_rows = read_csv(tmp_path / "runs_aggregate.csv")
        assert agg_rows[0] == list(AGG_CSV_FIELDS)
        assert len(agg_rows) == 2


class TestRunMatrix:
    def base(self, **kw):
        defaults = dict(stream="sine1", detector="none", runs=2, seed=7,
                        params=dict(FAST))
        defaults.update(kw)
        return ExperimentConfig(**defaults)

    def test_two_by_four_matrix_has_eight_rows(self):
        report = run_matrix(["sine1", "mixed"],
                            ["mddm_a", "mddm_g", "mddm_e", "fhddm"],
                            self.base())
        assert len(report.aggregates) == 8
        assert not report.errors

    def test_empty_matrix_is_empty_report(self):
        report = run_matrix([], ["mddm_a"], self.base())
        assert report.cells == []
        assert report.aggregates == []

    def test_invalid_cell_is_isolated(self):
        report = run_matrix(["sine1"], ["mddm_a", "bogus"], self.base())
        assert len(report.aggregates) == 1
        assert len(report.errors) == 1
        assert report.errors[0].detector == "bogus"

    def test_consolidated_csv(self, tmp_path):
        out = tmp_path / "matrix.csv"
        run_matrix(["sine1"], ["mddm_a", "fhddm"], self.base(), out=str(out))
        rows = read_csv(out)
        assert len(rows) == 1 + 4  # header + 2 cells x 2 runs
        agg = read_csv(tmp_path / "matrix_aggregate.csv")
        assert len(agg) == 3


def cell_by_cell(streams, detectors, base, out):
    """The matrix loop before it went stream-major, kept as a reference:
    one cell at a time, each generating its own streams."""
    runs, aggregates = [], []
    for stream in streams:
        for name in detectors:
            try:
                config = replace(base, stream=stream, detector=name)
                detector = experiments._build_detector(config, WINDOW_DEFAULTS[stream])
            except UsageError:
                continue
            cell = []
            for i in range(config.runs):
                seed = config.seed + i
                data = generate_stream(experiments._build_stream_spec(config, seed))
                if detector is not None:
                    detector.reset()
                record = prequential_run(data, NaiveBayes(data.schema), detector,
                                         policy=config.policy)
                score = score_run(record.alarms, data.drift_positions,
                                  ACCEPT_DELAY_DEFAULTS[stream], len(data), record.accuracy)
                cell.append(RunResult(stream, name, seed, i, record.alarms,
                                      record.accuracy, score))
            runs += cell
            aggregates.append(aggregate([r.score for r in cell], stream=stream, detector=name,
                                        alarm_counts=[len(r.alarms) for r in cell]))
    write_run_csv(out, runs)
    write_aggregate_csv(experiments._aggregate_path(out), aggregates)


class TestStreamMajor:
    BASE = ExperimentConfig(stream="sine1", runs=3, seed=40,
                            params=dict(FAST, drift_every=700))

    def spy(self, monkeypatch, name):
        calls = []
        real = getattr(experiments, name)

        def spy(arg):
            calls.append(arg)
            return real(arg)

        monkeypatch.setattr(experiments, name, spy)
        return calls

    def test_each_stream_and_seed_is_generated_once(self, monkeypatch, tmp_path):
        # The seeds may run in forked workers, which inherit the spy but not
        # a list in this process: each call appends a line to a file.
        log = tmp_path / "calls.txt"
        real = experiments.generate_stream

        def spy(spec):
            with open(log, "a") as handle:
                handle.write(f"{spec.family} {spec.seed}\n")
            return real(spec)

        monkeypatch.setattr(experiments, "generate_stream", spy)
        report = run_matrix(["sine1", "circles"], ["mddm_a", "none", "adwin"], self.BASE)
        assert not report.errors
        calls = [(family, int(seed)) for family, seed in map(str.split, log.read_text().splitlines())]
        assert sorted(calls) == sorted(
            (family, seed) for family in ("sine1", "circles") for seed in (40, 41, 42))

    def test_csv_bytes_equal_the_cell_by_cell_loop(self, tmp_path):
        detectors = ["mddm_a", "bogus", "none", "adwin", "cusum"]
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        report = run_matrix(["sine1", "circles"], detectors, self.BASE, out=str(got))
        cell_by_cell(["sine1", "circles"], detectors, self.BASE, want)
        assert [(c.stream, c.detector) for c in report.errors] == [
            ("sine1", "bogus"), ("circles", "bogus")]
        assert got.read_bytes() == want.read_bytes()
        assert ((tmp_path / "got_aggregate.csv").read_bytes()
                == (tmp_path / "want_aggregate.csv").read_bytes())

    def test_csv_stream_is_loaded_once(self, monkeypatch, tmp_path):
        path = tmp_path / "data.csv"
        dump_stream(StreamSpec("mixed", length=1_500, seed=3), path)
        calls = self.spy(monkeypatch, "load_csv_stream")
        report = run_matrix([str(path)], ["none", "mddm_a"], replace(self.BASE, runs=2))
        assert calls == [str(path)]
        assert [row.detector for row in report.aggregates] == ["none", "mddm_a"]

    def test_blind_policy_fails_only_detector_cells(self):
        base = replace(self.BASE, policy="blind:500")
        report = run_matrix(["sine1"], ["mddm_a", "none", "cusum"], base)
        assert [c.detector for c in report.errors] == ["mddm_a", "cusum"]
        none, = [c.result for c in report.cells if c.result is not None]
        assert all(r.alarms == (500, 1000, 1500) for r in none.runs)

    def test_a_stream_that_cannot_be_made_fails_only_its_cells(self, monkeypatch, tmp_path):
        # Five drifts are more than circles' four concepts allow.  The
        # schedule fails while the cells are built, so no circles stream is
        # generated, on one core or on two (a file logs the forked workers'
        # calls).
        log = tmp_path / "families.txt"
        real = experiments.generate_stream

        def spy(spec):
            with open(log, "a") as handle:
                handle.write(spec.family + "\n")
            return real(spec)

        monkeypatch.setattr(experiments, "generate_stream", spy)
        base = replace(self.BASE, params=dict(FAST, drift_every=400))
        for cores in (1, 2):
            monkeypatch.setattr(experiments, "_cores", lambda: cores)
            log.write_text("")
            report = run_matrix(["circles", "sine1"], ["mddm_a", "none"], base)
            assert [(c.stream, c.detector) for c in report.errors] == [
                ("circles", "mddm_a"), ("circles", "none")]
            assert all(isinstance(c.error, UsageError) for c in report.errors)
            assert all("circles supports at most 3 drifts" in str(c.error)
                       for c in report.errors)
            assert [row.stream for row in report.aggregates] == ["sine1", "sine1"]
            assert log.read_text().split() == ["sine1"] * 3

    @staticmethod
    def imports(module):
        """Whether a fresh ``import driftbench.experiments`` imports ``module``."""
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        child = f"import sys, driftbench.experiments; print({module!r} in sys.modules)"
        done = subprocess.run([sys.executable, "-c", child], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.stdout.strip() in ("True", "False"), done.stderr
        return done.stdout.strip() == "True"

    def test_import_leaves_scipy_out(self):
        assert not self.imports("scipy")

    def test_import_leaves_multiprocessing_out(self):
        # A matrix of one task never needs a pool, and a cold import of
        # multiprocessing costs about 20 ms of every interpreter's set-up.
        assert not self.imports("multiprocessing")


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="the pool forks its workers")
class TestSeedParallel:
    """Matrices of several (stream, seed) tasks run them in forked workers;
    two cores are assumed, so the pool runs on any machine."""

    BASE = TestStreamMajor.BASE
    DETECTORS = ["mddm_a", "none", "cusum"]

    @pytest.fixture(autouse=True)
    def two_cores(self, monkeypatch):
        monkeypatch.setattr(experiments, "_cores", lambda: 2)

    def test_other_errors_propagate_and_leave_no_process(self, monkeypatch):
        # A cell fails only while it is built, so any error inside a run,
        # a cell error type too, stops the call.
        real = experiments.generate_stream
        for error in (RuntimeError, DataFormatError):
            def generate(spec, error=error):
                if spec.family == "sine1" and spec.seed == 42:
                    raise error(f"cannot make sine1 seed {spec.seed}")
                return real(spec)

            monkeypatch.setattr(experiments, "generate_stream", generate)
            with pytest.raises(error, match="sine1 seed 42"):
                run_matrix(["sine1", "circles"], self.DETECTORS, self.BASE)
            assert multiprocessing.active_children() == []

    def test_a_dead_worker_fails_the_call(self, monkeypatch):
        real = experiments.generate_stream
        parent = os.getpid()

        def generate(spec):
            if spec.seed == 41 and os.getpid() != parent:
                os._exit(1)
            return real(spec)

        monkeypatch.setattr(experiments, "generate_stream", generate)
        with pytest.raises(BrokenProcessPool):
            run_matrix(["sine1", "circles"], self.DETECTORS, self.BASE)
        assert multiprocessing.active_children() == []

    def test_no_process_outlives_the_call(self):
        report = run_matrix(["sine1", "circles"], self.DETECTORS, self.BASE)
        assert not report.errors
        assert multiprocessing.active_children() == []

    def test_every_task_runs_in_a_worker(self, monkeypatch, tmp_path):
        log = tmp_path / "pids.txt"
        real = experiments.generate_stream

        def generate(spec):
            with open(log, "a") as handle:
                handle.write(f"{os.getpid()}\n")
            return real(spec)

        monkeypatch.setattr(experiments, "generate_stream", generate)
        run_matrix(["sine1", "circles"], self.DETECTORS, self.BASE)
        pids = set(log.read_text().split())
        assert str(os.getpid()) not in pids and 1 <= len(pids) <= 2


class TestCli:
    def test_single_cell(self, tmp_path, capsys):
        out = tmp_path / "o.csv"
        code = main(["--stream", "sine1", "--detector", "mddm_a",
                     "--runs", "2", "--seed", "3", "--set", "length=2000",
                     "--out", str(out)])
        assert code == 0
        assert "mddm_a" in capsys.readouterr().out
        assert out.exists()

    def test_byte_deterministic_output(self, tmp_path):
        args = ["--stream", "mixed", "--detector", "cusum", "--runs", "2",
                "--seed", "5", "--set", "length=2000"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_detector_exit_code(self, capsys):
        assert main(["--stream", "sine1", "--detector", "bogus"]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_malformed_csv_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        for text in ("x,label\n1.0,A\nbroken\n", 'v:nominal:2,label\n0,0\n"0\n",1\n'):
            path.write_text(text)
            assert main(["--stream", str(path), "--detector", "none",
                         "--runs", "1"]) == 3
            assert "line 3" in capsys.readouterr().err

    def test_missing_stream_is_usage_error(self):
        assert main([]) == 2

    def test_dump_and_reload(self, tmp_path):
        path = tmp_path / "dump.csv"
        assert main(["--stream", "led", "--dump", str(path), "--seed", "2",
                     "--set", "length=100"]) == 0
        rows = read_csv(path)
        assert len(rows) == 101
        assert len(rows[0]) == 25

    def test_dump_twice_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for target in (a, b):
            assert main(["--stream", "sine1", "--dump", str(target),
                         "--seed", "9", "--set", "length=50"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_config_file_supplies_flags(self, tmp_path, capsys):
        config = tmp_path / "exp.conf"
        config.write_text(
            "stream=sine1\n"
            "detector=fhddm\n"
            "runs=2\n"
            "seed=11\n"
            "set=length=2000\n"
            "# a comment\n")
        assert main(["--config", str(config)]) == 0
        assert "fhddm" in capsys.readouterr().out

    def test_cli_flag_overrides_config(self, tmp_path, capsys):
        config = tmp_path / "exp.conf"
        config.write_text("stream=sine1\ndetector=fhddm\nruns=2\nseed=1\n"
                          "set=length=2000\n")
        assert main(["--config", str(config), "--detector", "cusum"]) == 0
        out = capsys.readouterr().out
        assert "cusum" in out and "fhddm" not in out

    def test_unknown_config_key_rejected(self, tmp_path):
        config = tmp_path / "exp.conf"
        config.write_text("nonsense=1\n")
        assert main(["--config", str(config)]) == 2

    def test_bad_config_value_is_argparse_usage_error(self, tmp_path, capsys):
        # File values go through the flags' parser, which exits 2 itself.
        config = tmp_path / "exp.conf"
        config.write_text("stream=sine1\nruns=abc\n")
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(config)])
        assert exc.value.code == 2
        assert "--runs: invalid int value: 'abc'" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["window_size", "window-size"])
    def test_config_key_takes_underscores_or_dashes(self, key, tmp_path, capsys):
        config = tmp_path / "exp.conf"
        config.write_text(f"stream=sine1\ndetector=mddm_a\nruns=1\nset=length=2000\n"
                          f"{key}=2001\n")
        assert main(["--config", str(config)]) == 2
        assert "window size 2001 is longer than the stream" in capsys.readouterr().err
        assert main(["--config", str(config), "--window-size", "2000"]) == 0

    def test_config_set_comes_before_set_flags(self, tmp_path):
        config = tmp_path / "exp.conf"
        config.write_text("stream=sine1\nset=length=50\n")
        path = tmp_path / "dump.csv"
        assert main(["--config", str(config), "--dump", str(path)]) == 0
        assert len(read_csv(path)) == 51
        assert main(["--config", str(config), "--dump", str(path),
                     "--set", "length=30"]) == 0
        assert len(read_csv(path)) == 31

    def test_config_line_in_a_config_file_is_not_read(self, tmp_path):
        config, other = tmp_path / "exp.conf", tmp_path / "other.conf"
        other.write_text("nonsense=1\n")
        path = tmp_path / "dump.csv"
        for target in (other, config):
            config.write_text(f"stream=sine1\nset=length=20\nconfig={target}\n")
            assert main(["--config", str(config), "--dump", str(path)]) == 0
            assert len(read_csv(path)) == 21

    @pytest.mark.parametrize("args,message", [
        (["--config", "{conf}"], "line 2: expected key=value"),
        (["--config", "{missing}"], "cannot read config file"),
        (["--set", "k"], "--set expects key=value, got 'k'"),
        (["--set", "k=abc"], "--set k: 'abc' is not a number"),
        (["--set", "k=inf"], "--set k: 'inf' is not a finite number"),
        (["--stream", ","], "--stream ',' names no stream"),
        (["--stream", "sine1,led", "--dump", "{dump}"], "--dump needs exactly one synthetic"),
        (["--set", "drift_every=0"], "drift spacing must be >= 1, got 0"),
        (["--set", "zeta=0"], "transition length must be >= 1, got 0")],
        ids=["config_line", "config_missing", "set_no_value", "set_not_number",
             "set_not_finite", "stream_empty", "dump_two_streams", "drift_every_0",
             "zeta_0"])
    def test_usage_errors_exit_2(self, args, message, tmp_path, capsys):
        conf = tmp_path / "exp.conf"
        conf.write_text("stream=sine1\nno equals sign\n")
        paths = {"conf": conf, "missing": tmp_path / "missing.conf",
                 "dump": tmp_path / "dump.csv"}
        args = [arg.format(**paths) for arg in args]
        if "--stream" not in args:
            args += ["--stream", "sine1"]
        assert main(args + ["--runs", "1", "--set", "length=1000"]) == 2
        err = capsys.readouterr().err
        assert "internal error" not in err and message in err

    @pytest.mark.parametrize("policy", ["bogus", "blind:0", "blind"])
    def test_bad_policy_exits_2_before_any_stream(self, policy, capsys, monkeypatch):
        calls = []
        real = experiments.generate_stream
        for module in (experiments, streams):
            monkeypatch.setattr(module, "generate_stream",
                                lambda spec: calls.append(spec) or real(spec))
        monkeypatch.setattr(experiments, "_cores", lambda: 1)
        code = main(["--stream", "sine1", "--detector", "none", "--runs", "2",
                     "--policy", policy, "--set", "length=10000000"])
        assert code == 2
        err = capsys.readouterr().err
        assert "internal error" not in err and repr(policy) in err
        assert calls == []

    def test_blind_policy_via_cli(self, capsys):
        code = main(["--stream", "sine1", "--detector", "none", "--runs", "1",
                     "--seed", "2", "--policy", "blind:500",
                     "--set", "length=2000"])
        assert code == 0

    def test_matrix_with_one_bad_cell_still_reports(self, capsys):
        code = main(["--stream", "sine1", "--detector", "fhddm,bogus",
                     "--runs", "1", "--seed", "2", "--set", "length=2000"])
        assert code == 0
        captured = capsys.readouterr()
        assert "fhddm" in captured.out
        assert "bogus" in captured.err

    def test_huge_max_window_runs_like_the_default(self, tmp_path):
        args = ["--stream", "sine1", "--detector", "adwin", "--runs", "1",
                "--set", "length=2000"]
        huge, default = tmp_path / "huge.csv", tmp_path / "default.csv"
        assert main(args + ["--set", "max_window=1e12", "--out", str(huge)]) == 0
        assert main(args + ["--out", str(default)]) == 0
        assert huge.read_bytes() == default.read_bytes()


class TestDetectorTable:
    WINDOW = 30

    # Per detector: each --set key, a value inside its domain, and where
    # the built detector keeps it.
    SET_CASES = {
        "mddm_a": {"d": (0.02, lambda det: det.scheme.d),
                   "delta": (1e-3, lambda det: det.delta)},
        "mddm_g": {"r": (1.02, lambda det: det.scheme.r),
                   "delta": (1e-3, lambda det: det.delta)},
        "mddm_e": {"lambda": (0.02, lambda det: det.scheme.rate),
                   "delta": (1e-3, lambda det: det.delta)},
        "fhddm": {"delta": (1e-3, lambda det: det.delta)},
        "cusum": {"delta": (0.01, lambda det: det.slack),
                  "lambda": (40.0, lambda det: det.threshold),
                  "min_instances": (10, lambda det: det.min_instances)},
        "page_hinkley": {"delta": (0.01, lambda det: det.slack),
                         "lambda": (40.0, lambda det: det.threshold)},
        "ddm": {"warning_level": (2.5, lambda det: det.warning_level),
                "drift_level": (3.5, lambda det: det.drift_level),
                "min_instances": (10, lambda det: det.min_instances)},
        "eddm": {"alpha": (0.92, lambda det: det.alpha),
                 "beta": (0.8, lambda det: det.beta),
                 "min_errors": (10, lambda det: det.min_errors)},
        "rddm": {"warning_level": (1.5, lambda det: det.warning_level),
                 "drift_level": (2.0, lambda det: det.drift_level),
                 "max_concept": (30000, lambda det: det.max_concept),
                 "min_stable": (5000, lambda det: det.min_stable),
                 "warn_limit": (1000, lambda det: det.warn_limit),
                 "min_instances": (100, lambda det: det.min_instances)},
        "adwin": {"delta": (0.01, lambda det: det.delta),
                  "max_window": (4096, lambda det: det.max_window)},
    }

    BARE = {
        "mddm_a": lambda n: MDDM(Arithmetic(), n=n),
        "mddm_g": lambda n: MDDM(Geometric(), n=n),
        "mddm_e": lambda n: MDDM(Euler(), n=n),
        "fhddm": lambda n: fhddm(n=n),
        "cusum": lambda n: CUSUM(),
        "page_hinkley": lambda n: PageHinkley(),
        "ddm": lambda n: DDM(),
        "eddm": lambda n: EDDM(),
        "rddm": lambda n: RDDM(),
        "adwin": lambda n: ADWIN(),
    }

    def built(self, monkeypatch, detector, params):
        """The detector run_matrix hands to its one cell's run, before the run."""
        seen = []
        real = experiments.prequential_runs

        def spy(stream, detectors, **kwargs):
            seen.append(copy.deepcopy(detectors)[0])
            return real(stream, detectors, **kwargs)

        monkeypatch.setattr(experiments, "prequential_runs", spy)
        run_matrix(["sine1"], [detector],
                   ExperimentConfig(stream="sine1", detector=detector, runs=1,
                                    window_size=self.WINDOW,
                                    params=dict(FAST, **params)))
        return seen[0]

    def test_cases_cover_the_table(self):
        assert set(self.SET_CASES) == set(DETECTORS) - {"none"}
        assert set(self.BARE) == set(self.SET_CASES)
        for name, cases in self.SET_CASES.items():
            assert set(cases) == set(DETECTORS[name][1]), name

    @pytest.mark.parametrize("name", sorted(SET_CASES))
    def test_each_set_key_reaches_the_detector(self, monkeypatch, name):
        for key, (value, read) in self.SET_CASES[name].items():
            assert read(self.built(monkeypatch, name, {key: value})) == value, key

    @pytest.mark.parametrize("name", sorted(BARE))
    def test_defaults_are_the_constructors(self, monkeypatch, name):
        built = vars(self.built(monkeypatch, name, {}))
        bare = vars(self.BARE[name](self.WINDOW))
        assert built.keys() == bare.keys()
        for key, value in bare.items():
            if isinstance(value, np.ndarray):
                assert np.array_equal(built[key], value), key
            else:
                assert built[key] == value, key

    def test_none_builds_no_detector(self, monkeypatch):
        assert self.built(monkeypatch, "none", {}) is None

    def test_unknown_key_lists_the_table_keys(self):
        with pytest.raises(UsageError, match="unknown parameter") as info:
            ExperimentConfig(stream="sine1", params={"bogus": 1.0})
        for _, keys in DETECTORS.values():
            for key in keys:
                assert repr(key) in str(info.value)


class TestOutOfDomainValues:
    @pytest.mark.parametrize("detector,setting", [
        ("mddm_a", "delta=2"), ("ddm", "warning_level=5"), ("adwin", "max_window=1"),
        ("cusum", "lambda=-1"), ("mddm_a", "d=-1")])
    def test_bad_set_value_is_usage_error(self, detector, setting, capsys):
        code = main(["--stream", "sine1", "--detector", detector, "--runs", "1",
                     "--set", "length=2000", "--set", setting])
        assert code == 2
        err = capsys.readouterr().err
        assert "internal error" not in err and detector in err

    @pytest.mark.parametrize("detector,setting,window,name", [
        ("mddm_g", "r=10", 400, "geometric weight ratio"),
        ("mddm_a", "d=1e306", 400, "arithmetic weight step"),
        ("mddm_e", "lambda=1000", 25, "euler weight rate")])
    def test_overflowing_weights_are_usage_errors(self, detector, setting, window, name,
                                                  capsys):
        # r=10 over 400 entries made epsilon NaN, so the detector never
        # fired and the run exited 0; lambda=1000 was an internal error.
        code = main(["--stream", "sine1", "--detector", detector, "--runs", "1",
                     "--window-size", str(window), "--set", "length=5000",
                     "--set", setting])
        assert code == 2
        err = capsys.readouterr().err
        assert "internal error" not in err and name in err and "overflows" in err

    @pytest.mark.parametrize("detector", sorted(experiments.WINDOWED))
    def test_window_longer_than_the_stream_is_usage_error(self, detector, capsys):
        # The window can never fill; mddm_a at 1e11 used to build its
        # weights first and exit 4 with a MemoryError.
        code = main(["--stream", "sine1", "--detector", detector, "--runs", "1",
                     "--window-size", "100000000000", "--set", "length=2000"])
        assert code == 2
        err = capsys.readouterr().err
        assert "internal error" not in err
        assert "window size 100000000000" in err and "(2000 instances)" in err
        assert main(["--stream", "sine1", "--detector", detector, "--runs", "1",
                     "--window-size", "2000", "--set", "length=2000"]) == 0

    @pytest.mark.parametrize("flag,where", [
        ("--out", "missing-dir"), ("--out", "a-dir"), ("--dump", "missing-dir")])
    def test_unwritable_output_path_is_usage_error(self, flag, where, tmp_path, capsys,
                                                   monkeypatch):
        # Both paths are probed before any work: no stream is generated first.
        calls = []
        real = experiments.generate_stream
        for module in (experiments, streams):
            monkeypatch.setattr(module, "generate_stream",
                                lambda spec: calls.append(spec) or real(spec))
        monkeypatch.setattr(experiments, "_cores", lambda: 1)
        path = tmp_path / "missing" / "x.csv" if where == "missing-dir" else tmp_path
        code = main(["--stream", "sine1", "--detector", "none", "--runs", "1",
                     "--set", "length=300", flag, str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "internal error" not in err and str(path) in err
        assert calls == []

    def test_dump_that_fails_to_generate_keeps_an_existing_file(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("kept\n")
        # Five drifts are more than circles' four concepts allow.
        spec = StreamSpec("circles", length=600, schedule=ConceptSchedule(
            (100, 200, 300, 400, 500), 50))
        with pytest.raises(UsageError, match="at most 3 drifts"):
            dump_stream(spec, path)
        assert path.read_text() == "kept\n"

    def test_window_longer_than_a_csv_stream_fails_its_cell(self, tmp_path):
        path = tmp_path / "short.csv"
        dump_stream(StreamSpec("mixed", length=40, seed=3), path)
        base = ExperimentConfig(stream=str(path), runs=1)
        report = run_matrix([str(path)], ["mddm_a", "cusum", "none"],
                            replace(base, window_size=41))
        assert [c.detector for c in report.errors] == ["mddm_a"]
        assert isinstance(report.errors[0].error, UsageError)
        assert "(40 instances)" in str(report.errors[0].error)
        assert not run_matrix([str(path)], ["mddm_a"], replace(base, window_size=40)).errors

    def test_bad_set_value_fails_only_its_cell(self):
        base = ExperimentConfig(stream="sine1", runs=1, seed=3,
                                params=dict(FAST, **{"lambda": -1.0}))
        report = run_matrix(["sine1"], ["mddm_a", "cusum"], base)
        assert [c.detector for c in report.errors] == ["cusum"]
        assert isinstance(report.errors[0].error, UsageError)
        assert [row.detector for row in report.aggregates] == ["mddm_a"]

    @pytest.mark.parametrize("detector,key,value", [
        ("cusum", "length", 2000.7), ("none", "drift_every", 700.5), ("none", "zeta", 20.5),
        ("cusum", "min_instances", 2.5), ("ddm", "min_instances", 30.5),
        ("eddm", "min_errors", 10.5), ("rddm", "max_concept", 30000.5),
        ("rddm", "min_stable", 5000.5), ("rddm", "warn_limit", 1000.5),
        ("adwin", "max_window", 4096.5)])
    def test_fractional_integer_key_is_usage_error(self, detector, key, value, capsys):
        # Integer keys used to be truncated: length=2000.7 ran 2000 rows.
        code = main(["--stream", "sine1", "--detector", detector, "--runs", "1",
                     "--set", "length=2000", "--set", f"{key}={value}"])
        assert code == 2
        err = capsys.readouterr().err
        assert "internal error" not in err and f"{key} must be an integer" in err
        constructor, keys = DETECTORS[detector]
        if key in keys:
            with pytest.raises(ValueError, match=f"{key} must be an integer"):
                constructor(**{keys[key]: value})

    @pytest.mark.parametrize("detector,key,value", [
        ("cusum", "min_instances", -3), ("ddm", "min_instances", -5),
        ("eddm", "min_errors", -1), ("rddm", "max_concept", -1), ("rddm", "max_concept", 0),
        ("rddm", "min_stable", -1), ("rddm", "min_instances", -1)])
    def test_negative_integer_key_is_usage_error(self, detector, key, value, capsys):
        # max_concept=-1 used to force a drift on every bit, and min_stable=-1
        # failed with deque's message, which names no key.
        code = main(["--stream", "sine1", "--detector", detector, "--runs", "1",
                     "--set", "length=2000", "--set", f"{key}={value}"])
        assert code == 2
        err = capsys.readouterr().err
        assert "internal error" not in err and f"{key} must be >=" in err
        constructor, keys = DETECTORS[detector]
        with pytest.raises(ValueError, match=f"{key} must be >="):
            constructor(**{keys[key]: value})

    @pytest.mark.parametrize("detector,key,value", [
        ("cusum", "min_instances", 0), ("ddm", "min_instances", 0), ("eddm", "min_errors", 0),
        ("rddm", "min_stable", 0), ("rddm", "warn_limit", -1), ("rddm", "max_concept", 1)])
    def test_integer_keys_at_their_bound_are_valid(self, detector, key, value, tmp_path):
        assert main(["--stream", "sine1", "--detector", detector, "--runs", "1",
                     "--set", "length=2000", "--set", f"{key}={value}",
                     "--out", str(tmp_path / "runs.csv")]) == 0

    @pytest.mark.parametrize("flag", ["--window-size", "--accept-delay"])
    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_window_and_accept_delay_below_one_rejected(self, flag, value):
        assert main(["--stream", "sine1", "--detector", "mddm_a", "--runs", "1",
                     "--set", "length=2000", flag, value]) == 2

    def test_unaffordable_length_exits_2_at_once(self):
        # The length is checked before the default schedule enumerates its
        # drift positions; the address-space cap turns a regression into a
        # quick MemoryError instead of a run that eats the machine.
        started = time.monotonic()
        done = run_capped(["--stream", "sine1", "--detector", "none", "--runs", "1",
                           "--set", "length=1e13"])
        assert done.returncode == 2, done.stderr
        assert "stream length" in done.stderr
        assert time.monotonic() - started < 20

    @pytest.mark.parametrize("extra", [["--detector", "mddm_a", "--runs", "1"], ["--dump"]])
    def test_negative_seed_is_usage_error(self, extra, tmp_path, capsys):
        if extra == ["--dump"]:
            extra = ["--dump", str(tmp_path / "dump.csv")]
        assert main(["--stream", "sine1", "--seed", "-1", "--set", "length=2000"] + extra) == 2
        err = capsys.readouterr().err
        assert "internal error" not in err and "seed must be >= 0" in err
        with pytest.raises(UsageError, match="seed"):
            StreamSpec("sine1", seed=-1)

    @pytest.mark.parametrize("field", ["window_size", "accept_delay"])
    def test_config_rejects_zero(self, field):
        with pytest.raises(UsageError, match=field):
            ExperimentConfig(stream="sine1", **{field: 0})

    def test_mixed_csv_labels_are_a_data_error(self, tmp_path, capsys):
        path = tmp_path / "labels.csv"
        path.write_text("x,label\n0.1,0\n0.2,UP\n0.3,1\n0.4,DOWN\n")
        assert main(["--stream", str(path), "--detector", "none", "--runs", "1"]) == 3
        assert "line 3" in capsys.readouterr().err

    def test_huge_csv_label_code_is_a_data_error(self, tmp_path, capsys):
        # The code would size the learner's per-class arrays (MemoryError).
        path = tmp_path / "huge.csv"
        path.write_text("x,label\n0.1,0\n0.2,1000000000000000\n")
        assert main(["--stream", str(path), "--detector", "none", "--runs", "1"]) == 3
        err = capsys.readouterr().err
        assert "internal error" not in err and "line 3" in err

    @pytest.mark.parametrize("label", ["c{}", "{}"])
    def test_too_many_csv_classes_are_a_data_error(self, label, tmp_path, capsys):
        # The 4097th class name, or code 4096, fails at its line.
        path = tmp_path / "classes.csv"
        path.write_text("x,label\n" + "".join(f"0.5,{label.format(i)}\n" for i in range(4097)))
        assert main(["--stream", str(path), "--detector", "none", "--runs", "1"]) == 3
        err = capsys.readouterr().err
        assert "internal error" not in err and "line 4098" in err and "'label'" in err

    @pytest.mark.parametrize("header,column", [
        ("a,label:nominal:1000000000000000", "label"),
        ("a:nominal:1000000000000000,label", "a"),
        ("a,label:nominal:1" + "0" * 5000, "label"),
        ("a:nominal:0,label", "a"),
        ("a:nominal:x,label", "a"),
        ('"a:nominal:2\n",label', "a")])
    def test_huge_marked_cardinality_is_a_data_error(self, header, column, tmp_path, capsys):
        # The mark would size Naive Bayes' arrays (MemoryError).  A mark of
        # no positive cardinality was taken silently as a column name.
        path = tmp_path / "marked.csv"
        path.write_text(f"{header}\n0,0\n1,1\n")
        assert main(["--stream", str(path), "--detector", "none", "--runs", "1"]) == 3
        err = capsys.readouterr().err
        assert "internal error" not in err and f"line 1: column {column!r}" in err

    def test_unaffordable_count_tables_are_a_data_error(self, tmp_path):
        # 4096 classes x 24 attributes of 4096 values: the count tables
        # alone would take 3.2 GB, which used to end in a MemoryError.
        path = tmp_path / "wide.csv"
        header = ",".join(f"a{j}:nominal:4096" for j in range(24)) + ",label:nominal:4096"
        path.write_text(header + "\n" + ",".join(["7"] * 25) + "\n")
        done = run_capped(["--stream", str(path), "--detector", "none", "--runs", "1"])
        assert done.returncode == 3, done.stderr
        assert "internal error" not in done.stderr and str(path) in done.stderr
        assert "402653184 Naive Bayes counts" in done.stderr

    def test_count_tables_at_the_bound_load(self, tmp_path):
        path = tmp_path / "bound.csv"
        path.write_text("a:nominal:4096,label:nominal:4096\n4095,4095\n0,0\n")
        schema = load_csv_stream(path).schema
        assert schema.cardinalities == (4096,) and schema.n_classes == 4096
        path.write_text("a:nominal:4096,b,label:nominal:4096\n4095,x,4095\n")
        with pytest.raises(DataFormatError, match=str(path)):
            load_csv_stream(path)

    def test_non_finite_csv_value_is_a_data_error(self, tmp_path, capsys):
        path = tmp_path / "nan.csv"
        path.write_text("x,label\n0.1,0\nnan,1\n0.3,0\n0.4,1\n")
        assert main(["--stream", str(path), "--detector", "none", "--runs", "1"]) == 3
        assert "line 3" in capsys.readouterr().err

    @pytest.mark.parametrize("data,message", [
        (b"x,label\n0.1,0\n0.2,\xff\n", "not UTF-8 text"),
        (b"x,label\n0.1,0\n" + b"7" * 131_073 + b",1\n",
         "line 3: field larger than field limit")], ids=["not_utf8", "oversized_field"])
    def test_undecodable_or_oversized_csv_is_a_data_error(self, data, message, tmp_path,
                                                          capsys):
        # Each ended in "internal error" (UnicodeDecodeError, csv.Error).
        path = tmp_path / "bad.csv"
        path.write_bytes(data)
        assert main(["--stream", str(path), "--detector", "none", "--runs", "1"]) == 3
        err = capsys.readouterr().err
        assert "internal error" not in err and f"{path}: {message}" in err


class TestDumpSchedule:
    def test_dump_honours_schedule_keys(self, tmp_path):
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        assert main(["--stream", "sine1", "--seed", "3", "--dump", str(got),
                     "--set", "length=3000", "--set", "drift_every=1000",
                     "--set", "zeta=20"]) == 0
        dump_stream(StreamSpec("sine1", length=3000, seed=3,
                               schedule=ConceptSchedule((1000, 2000), 20)), want)
        assert got.read_bytes() == want.read_bytes()

    def test_impossible_schedule_dump_exits_2_and_writes_nothing(self, tmp_path, capsys):
        # Drifts at 100, 200, ..., 500 need six concepts; circles has four.
        path = tmp_path / "dump.csv"
        assert main(["--stream", "circles", "--dump", str(path), "--set", "length=600",
                     "--set", "drift_every=100"]) == 2
        assert "circles supports at most 3 drifts, schedule has 5" in capsys.readouterr().err
        assert not path.exists()
        spec = StreamSpec("circles", length=600, schedule=ConceptSchedule((100, 200, 300, 400), 5))
        with pytest.raises(UsageError, match="at most 3 drifts, schedule has 4"):
            dump_stream(spec, path)
        assert not path.exists()

    def test_dump_rejects_unknown_keys(self, tmp_path):
        path = tmp_path / "dump.csv"
        assert main(["--stream", "sine1", "--dump", str(path),
                     "--set", "length=100", "--set", "bogus=1"]) == 2
        assert not path.exists()
