"""Command-line experiment runner.

Comma-separated ``--stream`` / ``--detector`` values form a matrix of
cells; a single value of each runs one cell.  ``--dump PATH`` writes the
synthetic stream to CSV instead of running experiments.  A config file
(``--config``) supplies any flag as ``key=value`` lines (``#`` starts a
comment): each line becomes one ``--key=value`` argument ahead of the
command line's own, and the one parser reads them all, so explicit flags
win over the file and file ``set`` lines come before ``--set`` flags.

Exit codes: 0 success, 2 usage error, 3 data error, 4 internal error.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Optional

from .errors import DataFormatError, UsageError
from .experiments import (
    ACCEPT_DELAY_DEFAULTS,
    DETECTORS,
    WINDOW_DEFAULTS,
    ExperimentConfig,
    _build_stream_spec,
    format_console_table,
    run_matrix,
)
from .streams import dump_stream

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_INTERNAL = 4

# The flags that set ExperimentConfig fields of the same name.
_CONFIG_FLAGS = ("runs", "seed", "window_size", "delta", "accept_delay", "noise", "policy")


def _per_family(defaults: dict) -> str:
    return ", ".join(f"{family} {value}" for family, value in defaults.items())


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="driftbench",
        description="Run drift-detection experiments over synthetic or CSV "
                    "streams and report acceptable-delay scores.")
    parser.add_argument("--stream", help="comma-separated stream names "
                        "(sine1, mixed, circles, led) and/or CSV paths")
    parser.add_argument("--detector", help="comma-separated detector names: "
                        + ", ".join(sorted(DETECTORS)))
    parser.add_argument("--runs", type=int,
                        help=f"runs per cell (default {ExperimentConfig.runs})")
    parser.add_argument("--seed", type=int, help="base seed; run i uses seed+i "
                        f"(default {ExperimentConfig.seed})")
    parser.add_argument("--window-size", type=int, dest="window_size",
                        help="detector window size (default per stream: "
                        f"{_per_family(WINDOW_DEFAULTS)})")
    parser.add_argument("--delta", type=float, help="confidence level of the "
                        f"windowed detectors (default {ExperimentConfig.delta})")
    parser.add_argument("--accept-delay", type=int, dest="accept_delay",
                        help="acceptable delay length (default per stream: "
                        f"{_per_family(ACCEPT_DELAY_DEFAULTS)})")
    parser.add_argument("--noise", type=float, help="class noise rate of "
                        f"synthetic streams (default {ExperimentConfig.noise})")
    parser.add_argument("--policy", help="adaptation policy: reset, none, or "
                        f"blind:<period> (default {ExperimentConfig.policy})")
    parser.add_argument("--out", help="per-run CSV path (aggregate rows go to "
                        "<out stem>_aggregate<ext>)")
    parser.add_argument("--dump", help="write the synthetic stream to this "
                        "CSV path and exit")
    parser.add_argument("--set", action="append", default=None, metavar="K=V",
                        help="detector- or stream-specific parameter override "
                        "(repeatable); stream keys: length, zeta, drift_every")
    parser.add_argument("--config", help="key=value config file supplying any "
                        "flag")
    return parser


def _config_args(path, parser: argparse.ArgumentParser) -> list[str]:
    """Each ``key=value`` line of the config file ``path`` as one
    ``--key=value`` argument of ``parser``; ``key`` may use ``_`` for ``-``."""
    known = {option for action in parser._actions if action.dest != "help"
             for option in action.option_strings}
    args = []
    try:
        with open(path, encoding="utf-8") as handle:
            for line_no, raw in enumerate(handle, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise UsageError(
                        f"{path}: line {line_no}: expected key=value, got {raw!r}")
                key, value = (part.strip() for part in line.split("=", 1))
                flag = "--" + key.replace("_", "-")
                if flag not in known:
                    raise UsageError(f"{path}: line {line_no}: unknown key {key!r}")
                args.append(f"{flag}={value}")
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    return args


def _parse_set_args(pairs) -> dict:
    params = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise UsageError(f"--set expects key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        try:
            number = float(value)
        except ValueError as exc:
            raise UsageError(f"--set {key}: {value!r} is not a number") from exc
        if not math.isfinite(number):
            raise UsageError(f"--set {key}: {value!r} is not a finite number")
        params[key.strip()] = number
    return params


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    try:
        if args.config:
            # The command line's own --config comes last and wins, so a
            # config line in the file is never read.
            args = parser.parse_args(_config_args(args.config, parser) + argv)
        params = _parse_set_args(args.set)

        # Flags left unset take ExperimentConfig's defaults.
        given = {key: getattr(args, key) for key in _CONFIG_FLAGS
                 if getattr(args, key) is not None}

        if args.dump:
            config = ExperimentConfig(stream=args.stream or "", params=params, **given)
            if config.is_csv:  # no stream, a list of streams, or a CSV path
                raise UsageError("--dump needs exactly one synthetic --stream")
            dump_stream(_build_stream_spec(config, config.seed), args.dump)
            return EXIT_OK

        if not args.stream:
            raise UsageError("--stream is required (or supply it via --config)")
        streams = [s.strip() for s in args.stream.split(",") if s.strip()]
        if not streams:
            raise UsageError(f"--stream {args.stream!r} names no stream")
        detector = ExperimentConfig.detector if args.detector is None else args.detector
        detectors = [d.strip() for d in detector.split(",") if d.strip()]
        if not detectors:
            raise UsageError(f"--detector {args.detector!r} names no detector")
        base = ExperimentConfig(stream=streams[0], params=params, **given)
        report = run_matrix(streams, detectors, base, out=args.out)
        table = format_console_table(report.aggregates)
        if table:
            print(table)
        for cell in report.errors:
            print(f"error: {cell.stream} x {cell.detector}: {cell.error}",
                  file=sys.stderr)
        if report.errors and not report.aggregates:
            if any(isinstance(c.error, (DataFormatError, OSError))
                   for c in report.errors):
                return EXIT_DATA
            return EXIT_USAGE
        return EXIT_OK
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataFormatError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # pragma: no cover - invariant violations
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
