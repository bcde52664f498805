"""End-to-end and per-layer benchmark of the driftbench experiment pipeline.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload abrupt --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seconds 5 --length 5000

One process runs one workload: a single-threaded closed loop of rounds,
each round one ``experiments.run_matrix`` call per matrix of the
workload with ``out=`` set, repeated while a round of typical length
still fits in ``--seconds``.
``--trace 0`` reports the end-to-end metrics of these untraced rounds.
``--trace 1`` pairs every untraced round with a traced replay of the
same cells (see ``tracing.py``), checks that both write identical CSV
bytes, and reports per-layer metrics together with detector-only and
per-family microbenchmarks.  Every run is checked (see ``checks.py``).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; all metrics,
the machine facts and the spans go to ``perfbench/out/``.
``--workload all`` runs every workload in both modes, each in its own
process, and prints their tables.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from functools import partial
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
BENCHMARK = ROOT / "BENCHMARK.json"
MAX_ROUNDS = 1000
SETUP_REPS = 3   # fresh interpreters before the rounds, and as many after
WARMUP_LENGTH = 2_000

# The child of a set-up measurement: a fresh interpreter that imports the
# package and builds the first cell's configuration.  It prints the
# seconds since the parent started it and the seconds its import took.
_SETUP_CHILD = """\
import json, sys, time
started = float(sys.argv[2])
t0 = time.monotonic()
sys.path.insert(0, sys.argv[1])
from driftbench.experiments import ExperimentConfig, run_matrix
imported = time.monotonic() - t0
ExperimentConfig(sys.argv[3], detector=sys.argv[4])
print(json.dumps([time.monotonic() - started, imported]))
"""


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _median_ms(prepare, budget_s: float = 0.2, max_reps: int = 7):
    """Median milliseconds of ``prepare()()`` over repeats that stop once
    ``budget_s`` seconds were measured; also returns the last result."""
    times = []
    while len(times) < max_reps and sum(times) < budget_s:
        call = prepare()
        start = perf_counter()
        result = call()
        times.append(perf_counter() - start)
    return 1000.0 * statistics.median(times), result


def microbenchmarks(seed: int, length: int) -> dict[str, float]:
    """Each stream family generated and learned alone, and each detector
    alone on the bits of one circles stream, learned without a detector."""
    from driftbench import NaiveBayes, StreamSpec, generate_stream, prequential_run
    from workloads import DETECTORS, FAMILIES, MDDM_DELTA, WORKLOADS

    metrics = {}
    for family in FAMILIES:
        spec = StreamSpec(family, length=length, seed=seed)
        metrics[f"streams.generate_ms.{family}"], stream = _median_ms(
            lambda: partial(generate_stream, spec))
        metrics[f"learners.nb_ms.{family}"], _ = _median_ms(
            lambda: partial(prequential_run, stream, NaiveBayes(stream.schema)))
    circles = generate_stream(StreamSpec("circles", length=length, seed=seed))
    bits = prequential_run(circles, NaiveBayes(circles.schema), None, keep_bits=True).bits
    window = WORKLOADS["gradual"].window
    for name, build in DETECTORS.items():
        ms, alarms = _median_ms(lambda: partial(build(window, MDDM_DELTA).drift_points, bits))
        metrics[f"detectors.{name}.ms_per_100k"] = ms * 100_000 / bits.size
        metrics[f"detectors.{name}.alarms"] = len(alarms)
    return metrics


def measure_setup(workload, totals: list, imports: list) -> None:
    """Append the set-up and import seconds of fresh interpreters."""
    first = workload.matrices[0]
    for _ in range(SETUP_REPS):
        started = time.monotonic()
        done = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, str(SRC), repr(started),
             first.streams[0], first.detectors[0]],
            capture_output=True, text=True, check=True, timeout=120)
        total, imported = json.loads(done.stdout.strip().splitlines()[-1])
        totals.append(total)
        imports.append(imported)


def main(argv=None) -> int:
    bench = json.loads(BENCHMARK.read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--length", type=int, default=None,
                        help="instances per stream (default 100000); a shorter "
                             "stream is a quick mode whose runs are checked by "
                             "invariants only")
    parser.add_argument("--record-reference", action="store_true",
                        help="merge this run's CSV digests into reference.json")
    args = parser.parse_args(argv)
    if args.seconds < 1 or args.seed < 0 or (args.length is not None and args.length < 1):
        parser.error("--seconds and --length must be positive, --seed non-negative")
    if not (SRC / "driftbench" / "__init__.py").is_file():
        print(f"perfbench: no driftbench sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args, names)
    sys.path.insert(0, str(SRC))
    return run_one(args, bench)


def run_all(args, names) -> int:
    """Every workload in both modes, each in a fresh process."""
    status = 0
    for name in names:
        for trace in (0, 1):
            command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                       "--seed", str(args.seed), "--seconds", str(args.seconds),
                       "--trace", str(trace)]
            if args.length is not None:
                command += ["--length", str(args.length)]
            done = subprocess.run(command, capture_output=True, text=True)
            lines = done.stdout.splitlines()
            print(f"== {name} trace={trace}")
            print(done.stdout, end="", flush=True)
            sys.stderr.write(done.stderr)
            if done.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
                status = 1
    return status


def run_one(args, bench) -> int:
    import numpy as np
    import driftbench
    if Path(driftbench.__file__).resolve().parent != (SRC / "driftbench").resolve():
        print(f"perfbench: driftbench was not imported from {SRC}", file=sys.stderr)
        return 2
    from driftbench.experiments import ExperimentConfig, run_matrix

    import checks
    import tracing
    from workloads import LENGTH, WORKLOADS

    workload = WORKLOADS[args.workload]
    length = args.length or LENGTH
    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"

    def untraced_matrix(j, matrix, base, stream_length):
        params = {} if stream_length == LENGTH else {"length": stream_length}
        config = ExperimentConfig(matrix.streams[0], runs=workload.runs, seed=base,
                                  delta=matrix.delta, params=params)
        out = OUT / f"{stem}-m{j}-untraced.csv"
        start = perf_counter()
        report = run_matrix(list(matrix.streams), list(matrix.detectors), config, out=str(out))
        wall = perf_counter() - start
        records = [r for c in report.cells if c.result is not None for r in c.result.runs]
        errors = [(c.stream, c.detector) for c in report.errors]
        agg = out.with_name(out.stem + "_aggregate.csv")
        return wall, checks.MatrixOutput(matrix, base, workload.runs, records, errors,
                                         out.read_text(), agg.read_text())

    # Set-up is measured before and after the rounds, so that its median
    # does not rest on the machine's speed in one moment.
    setup_totals, setup_imports = [], []
    measure_setup(workload, setup_totals, setup_imports)
    for j, matrix in enumerate(workload.matrices):
        untraced_matrix(j, matrix, workload.base_seed(args.seed, 0), WARMUP_LENGTH)

    ref_rows, ref_aggs = checks.load_reference(workload.name) if length == LENGTH else ({}, {})
    tracer = tracing.Tracer()
    failed: set[str] = set()
    attempted = 0
    identical = True
    recorded = []
    samples: dict[str, list[float]] = {}
    instances = workload.cells() * workload.runs * length

    def sample(name, value):
        samples.setdefault(name, []).append(value)

    # The detector-only and per-family microbenchmarks count against the
    # run's seconds, so that a traced run takes no longer than an untraced one.
    deadline = perf_counter() + args.seconds
    micro = microbenchmarks(workload.base_seed(args.seed, 0), length) if args.trace else {}
    loop_start = perf_counter()
    rounds = 0
    while True:
        base = workload.base_seed(args.seed, rounds)
        wall = 0.0
        outputs = []
        for j, matrix in enumerate(workload.matrices):
            matrix_wall, out = untraced_matrix(j, matrix, base, length)
            wall += matrix_wall
            outputs.append(out)
        sample("wall_s", wall)
        for out in outputs:
            attempted += len(out.all_run_keys())
            failed |= checks.invariant_failures(out, length)
            failed |= checks.mismatches(out, ref_rows, ref_aggs)
        if args.record_reference:
            recorded.extend(outputs)
        if args.trace:
            since, counts_before = len(tracer.spans), dict(tracer.counts)
            for j, (matrix, out) in enumerate(zip(workload.matrices, outputs)):
                traced = tracing.traced_matrix(workload, matrix, base, length, tracer,
                                               OUT / f"{stem}-m{j}-traced.csv")
                failed |= checks.invariant_failures(traced, length)
                failed |= checks.mismatches(traced, *checks.digests(out))
                identical &= (traced.run_csv, traced.agg_csv) == (out.run_csv, out.agg_csv)
            layers, traced_wall = tracing.layer_metrics(tracer, since)
            for name, value in layers.items():
                sample(name, value)
            sample("experiments.overhead_s", wall - sum(layers.values()))
            sample("trace.overhead_s", traced_wall - wall)
            for name, value in tracer.counts.items():
                sample(name, value - counts_before.get(name, 0))
        rounds += 1
        # Start no round that would, at the typical round length, end past
        # the deadline: a run then lasts about --seconds on every workload.
        typical = (perf_counter() - loop_start) / rounds
        if perf_counter() + typical > deadline or rounds >= MAX_ROUNDS:
            break

    # Means, not medians, over rounds: a round's cost depends on its stream
    # seeds (on gradual, ADWIN's cost varies by up to 2x from seed to seed),
    # and the mean weighs every seed of the run.
    measure_setup(workload, setup_totals, setup_imports)
    metrics = {name: statistics.fmean(values) for name, values in samples.items()}
    metrics["instances_per_s"] = instances / metrics["wall_s"]
    metrics["fail_ratio"] = len(failed) / attempted
    if args.trace:
        metrics["setup.import_s"] = statistics.median(setup_imports)
        metrics.update(micro)
        tracer.write(OUT / f"{stem}.spans.jsonl")
    else:
        metrics["setup_s"] = statistics.median(setup_totals)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.record_reference:
        checks.record_reference(workload.name, recorded)

    facts = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "stream_length": length, "runs_per_cell": workload.runs, "rounds": rounds,
        "runs": attempted, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "git_commit": _git_commit(),
    }
    correct = not failed and identical
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    units["fail_ratio"] = "ratio"
    table = {k: {"value": v, "unit": units[k]} for k, v in sorted(metrics.items())}
    (OUT / f"{stem}.json").write_text(json.dumps(
        {"facts": facts, "correct": correct, "traced_bytes_identical": identical,
         "metrics": table, "per_round": samples, "setup_s": setup_totals},
        indent=1) + "\n")

    print("facts " + json.dumps(facts))
    for name, entry in table.items():
        print(f"{name:<36} {entry['value']:>16.6g} {entry['unit']}")
    if args.trace:
        print(f"traced CSV bytes identical to untraced: {identical}")
    reported = bench["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failed),
                      "metrics": {m["name"]: table[m["name"]] for m in reported}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
