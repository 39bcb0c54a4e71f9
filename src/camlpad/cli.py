"""Command-line entry points: camlpad run / synth / evaluate.

Exit codes: 0 success, 1 error, and for ``run`` specifically 2 when an alert
fired, so shell automation can branch on anomaly presence.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path
from typing import Callable

from . import evaluate
from .config import load_config, run_boundary
from .datamodel import DataSourceKind
from .ensemble import DETECTOR_NAMES
from .errors import CamlpadError
from .ingest_store import MalformedLine, utf8_lines
from .pipeline import run_pipeline
from .synth import ANOMALY_STYLES, SynthConfig, generate, write_store

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_ALERT_FIRED = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="camlpad", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute the full anomaly-detection pipeline")
    run.add_argument("--config", required=True, type=Path, help="flat key=value config file")
    run.add_argument("--boundary", default=None, help="current-window start (ISO date or date-time), overrides config")
    run.add_argument("--dry-run", action="store_true", help="validate config and store reachability only")

    synth = sub.add_parser("synth", help="generate a synthetic multi-source store")
    defaults = SynthConfig()
    synth.add_argument("--out", required=True, type=Path, help="store root directory to write")
    synth.add_argument("--seed", type=int, default=defaults.seed)
    synth.add_argument("--contamination", type=float, default=defaults.contamination)
    synth.add_argument(
        "--days", type=int, default=defaults.days_history, help="history days (one current day is added)"
    )
    synth.add_argument(
        "--records", type=int, default=defaults.records_per_source_per_day, help="records per source per day"
    )
    synth.add_argument("--style", choices=ANOMALY_STYLES, default=defaults.anomaly_style)

    ev = sub.add_parser("evaluate", help="score a run's labels against ground truth")
    ev.add_argument("--run", required=True, type=Path, help="pipeline output directory")
    ev.add_argument("--truth", required=True, type=Path, help="directory of per-source truth jsonl files")
    return parser


def _dry_run(config_path: Path, boundary: str | None) -> int:
    """Resolve the boundary, and check or probe with a one-record query every index, that `run` would."""
    config = load_config(config_path)
    run_boundary(config, boundary)  # as run_pipeline resolves it
    config.locator().check(config.index_plan(), config.time_field)
    print(f"config ok: {len(config.sources)} sources, store reachable")
    return EXIT_OK


def _cmd_run(args: argparse.Namespace) -> int:
    if args.dry_run:
        return _dry_run(args.config, args.boundary)
    config = load_config(args.config)
    result = run_pipeline(config, boundary_override=args.boundary)
    print(f"run complete: window {result.window_id}, artifacts in {config.output_dir}")
    for reading in result.gauges:
        print(f"  gauge {reading.scope}: score {reading.score:.6f}, percentile {reading.history_percentile:.1f}")
    if result.alert is not None:
        print(f"  ALERT: {result.alert.message}")
        return EXIT_ALERT_FIRED
    return EXIT_OK


def _cmd_synth(args: argparse.Namespace) -> int:
    config = SynthConfig(
        seed=args.seed,
        days_history=args.days,
        records_per_source_per_day=args.records,
        contamination=args.contamination,
        anomaly_style=args.style,
    )
    result = generate(config)
    write_store(result, args.out)
    total = sum(len(b) for b in result.batches.values())
    print(f"wrote {total} records across {len(result.batches)} sources to {args.out}")
    return EXIT_OK


def _read_rows(path: Path, kind: str, row: Callable[[dict], tuple], collect: Callable) -> list | dict:
    """``collect`` of ``row(doc)`` over the non-blank lines of a JSONL file, which end at a line feed only, as in a
    store; a row it cannot read or collect makes a corrupted ``kind`` file, naming the line of a row it cannot read."""

    def read(line_number: int, line: str) -> tuple:
        try:
            return row(json.loads(line))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"line {line_number}: {exc}") from None

    try:
        lines = utf8_lines(path.read_bytes())
        return collect(read(line_number, line) for line_number, line in enumerate(lines, start=1) if line.strip())
    except (MalformedLine, TypeError, ValueError) as exc:
        raise CamlpadError(f"corrupted {kind} file {path}: {exc}") from None


def _label_row(doc: dict) -> tuple[str, dict[str, int]]:
    return doc["row_id"], {"ensemble": int(doc["label"]), **{name: int(doc["votes"][name]) for name in DETECTOR_NAMES}}


def _bucket_row(doc: dict, flag: str) -> tuple[int, int]:
    return int(doc["bucket_start"]), int(doc[flag])


def _cmd_evaluate(args: argparse.Namespace) -> int:
    labels_dir = args.run / "labels"
    if not labels_dir.is_dir():
        raise CamlpadError(f"no labels directory under {args.run}")
    if not args.truth.is_dir():
        raise CamlpadError(f"truth directory not found: {args.truth}")

    labels = {
        DataSourceKind.from_name(path.stem).value: _read_rows(path, "label", _label_row, list)
        for path in sorted(labels_dir.glob("*.jsonl"))
    }
    if not labels:
        raise CamlpadError(f"no label files found under {labels_dir}")
    report = evaluate.pairwise_ari_report(
        {
            source: {name: [votes[name] for _, votes in rows] for name in DETECTOR_NAMES}
            for source, rows in labels.items()
        }
    )

    for source, rows in labels.items():
        truth_path = args.truth / f"{source}.jsonl"
        if not truth_path.is_file():
            logger.warning("%s: no truth file %s, so no vs_truth", source, truth_path)
            continue
        truth = _read_rows(truth_path, "truth", lambda doc: (doc["record_id"], int(doc["label"])), dict)
        shared = [(truth[row_id], votes) for row_id, votes in rows if row_id in truth]
        if len(shared) < 2:
            logger.warning("%s: %d row ids shared with %s, need >= 2, so no vs_truth", source, len(shared), truth_path)
            continue
        report["per_source"][source]["vs_truth"] = {
            name: evaluate.adjusted_rand_index([votes[name] for _, votes in shared], [label for label, _ in shared])
            for name in ("ensemble",) + DETECTOR_NAMES
        }
    buckets_path = args.truth / "buckets.jsonl"
    if buckets_path.is_file():
        verdicts = _read_rows(args.run / "verdicts.jsonl", "verdict", lambda doc: _bucket_row(doc, "final"), list)
        truth_hours = _read_rows(buckets_path, "truth", lambda doc: _bucket_row(doc, "label"), list)
        report["vs_truth_buckets"] = evaluate.vote_vs_truth_hours(verdicts, truth_hours)
    else:
        logger.warning("no bucket truth file %s, so no vs_truth_buckets", buckets_path)
    report_path = args.run / "report.json"
    report_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"mean pairwise ARI: {report['mean_pairwise_ari']:.4f} (report: {report_path})")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = _build_parser().parse_args(argv)
    handlers = {"run": _cmd_run, "synth": _cmd_synth, "evaluate": _cmd_evaluate}
    try:
        return handlers[args.command](args)
    except (CamlpadError, OSError) as exc:  # an OSError names its path
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
