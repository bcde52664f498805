"""The benchmark's workloads and the detector builders its traced run uses.

A workload is a list of experiment matrices that one *round* runs, each
through ``experiments.run_matrix`` exactly as the command line would.
Round ``k`` of a run with seed ``s`` uses the base seed
``s * SEED_STRIDE + k * runs``, so the rounds of a run cover distinct,
consecutive stream seeds and the same ``--seed`` always gives the same
inputs.  Why each workload was chosen is recorded in ``NOTES.md``.
"""

from __future__ import annotations

from dataclasses import dataclass

from driftbench import (ADWIN, CUSUM, DDM, EDDM, MDDM, RDDM, Arithmetic, Euler, Geometric,
                        PageHinkley, fhddm)

LENGTH = 100_000
SEED_STRIDE = 100_000
MDDM_DELTA = 1e-6

# The ten detectors, built from their public constructors with the
# package defaults; ``n`` is the window, ``delta`` the confidence of the
# windowed detectors.  The traced run builds its detectors here, and the
# byte comparison with the untraced run checks that they match the
# experiment runner's own factories.
DETECTORS = {
    "mddm_a": lambda n, delta: MDDM(Arithmetic(), n=n, delta=delta),
    "mddm_g": lambda n, delta: MDDM(Geometric(), n=n, delta=delta),
    "mddm_e": lambda n, delta: MDDM(Euler(), n=n, delta=delta),
    "fhddm": lambda n, delta: fhddm(n=n, delta=delta),
    "cusum": lambda n, delta: CUSUM(),
    "page_hinkley": lambda n, delta: PageHinkley(),
    "ddm": lambda n, delta: DDM(),
    "eddm": lambda n, delta: EDDM(),
    "rddm": lambda n, delta: RDDM(),
    "adwin": lambda n, delta: ADWIN(),
}

FAMILIES = ("sine1", "mixed", "circles", "led")


@dataclass(frozen=True)
class Matrix:
    """One ``run_matrix`` call: streams x detectors at one confidence."""

    label: str
    streams: tuple[str, ...]
    detectors: tuple[str, ...]
    delta: float = MDDM_DELTA


@dataclass(frozen=True)
class Workload:
    name: str
    matrices: tuple[Matrix, ...]
    runs: int            # runs per cell in one round
    window: int          # the default window of the workload's streams
    accept_delay: int    # the default acceptable delay of its streams

    def cells(self) -> int:
        return sum(len(m.streams) * len(m.detectors) for m in self.matrices)

    def base_seed(self, seed: int, round_index: int) -> int:
        return seed * SEED_STRIDE + round_index * self.runs


WORKLOADS = {w.name: w for w in (
    Workload(
        "abrupt",
        (Matrix("abrupt", ("sine1", "mixed"), ("mddm_a", "mddm_g", "mddm_e", "fhddm")),),
        runs=4, window=25, accept_delay=250),
    Workload(
        "gradual",
        (Matrix("gradual", ("circles",),
                ("mddm_a", "cusum", "page_hinkley", "ddm", "eddm", "rddm", "adwin")),),
        runs=1, window=100, accept_delay=1000),
    Workload(
        "led_sweep",
        tuple(Matrix(f"delta={d!r}", ("led",), ("mddm_a",), d) for d in (1e-6, 1e-2, 1e-1)),
        runs=1, window=100, accept_delay=1000),
)}
