"""Command-line front end: validate datasets, synthesize fixtures, run
declarative pipeline configs.

Exit codes
----------
validate:  0 ok, 1 I/O failure, 2 violations found
synth:     0 ok, 1 I/O failure, 2 spec error
run:       0 ok, 1 I/O failure, 2 config error, 3 pipeline build error, 4 runtime error
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

from .acquisition import SignalRegistry, load_csv_signal, scan_dataset
from .config import build_pipeline_spec, load_config, load_dataset_spec
from .engine import PipelineSpec, build_pipeline
from .errors import (
    AffectPipeError,
    CatalogError,
    ConfigError,
    EmptyDataset,
    IncompatibleStages,
    IOFailure,
    MisorderedStage,
    MissingStage,
)
from .synth import synth_dataset


def cmd_validate(root: str, out=None) -> int:
    out = out or sys.stdout
    try:
        index = scan_dataset(Path(root), SignalRegistry.default())
    except (IOFailure, FileNotFoundError) as exc:
        print(f"I/O failure: {exc}", file=out)
        return 1
    except EmptyDataset as exc:
        print(f"invalid dataset: {exc}", file=out)
        return 2
    violations = []
    n_files = 0
    for subject, files in sorted(index.subjects.items()):
        for phase, modality, path in files:
            n_files += 1
            try:
                load_csv_signal(path, modality, subject, phase)
            except AffectPipeError as exc:
                violations.append((path, exc))
    for path, exc in violations:
        print(f"VIOLATION {path}: {exc}", file=out)
    for path in index.skipped_files:
        print(f"SKIPPED {path}", file=out)
    print(f"{len(index.subjects)} subjects, {n_files} signal files, "
          f"{len(violations)} violations, {len(index.skipped_files)} skipped",
          file=out)
    return 2 if violations else 0


def cmd_synth(spec_file: str, out_root: str, seed: int | None = None,
              out=None) -> int:
    out = out or sys.stdout
    try:
        spec = load_dataset_spec(spec_file)
    except ConfigError as exc:
        print(f"spec error: {exc}", file=out)
        return 2
    if seed is not None:
        from dataclasses import replace
        spec = replace(spec, seed=seed)
    try:
        result = synth_dataset(spec, out_root)
    except IOFailure as exc:
        print(f"I/O failure: {exc}", file=out)
        return 1
    print(f"wrote {result['n_files']} signal files under {result['root']}",
          file=out)
    return 0


def cmd_run(config_file: str, seed: int | None = None, strict: bool = False,
            out_dir: str | None = None, out=None) -> int:
    out = out or sys.stdout
    try:
        doc = load_config(config_file)
        if seed is not None:
            doc["seed"] = seed
        if strict:
            doc["strict"] = True
        pipeline = build_pipeline(build_pipeline_spec(doc))
    except ConfigError as exc:
        print(f"config error: {exc}", file=out)
        return 2
    except (CatalogError, MissingStage, MisorderedStage, IncompatibleStages) as exc:
        print(f"pipeline build error: {exc}", file=out)
        return 3
    try:
        output = pipeline.run()
    except AffectPipeError as exc:
        print(f"pipeline runtime error: {exc}", file=out)
        output = None
    else:
        print(output.report.format_table(), file=out)
    target = Path(out_dir or ".")
    reports = pipeline.last_reports
    try:
        for key, header in _RECORDS.items():  # a failed run: those its stages made
            if output is not None or key in reports:
                target.mkdir(parents=True, exist_ok=True)
                _write_keys_csv(target / f"{key}.csv", header, reports.get(key, []))
        if output is not None:
            write_report_csv(output.report, target / "report.csv")
            (target / "report.txt").write_text(output.report.format_table() + "\n",
                                               encoding="utf-8")
    except OSError as exc:
        print(f"I/O failure: {exc}", file=out)
        return 4 if output is None else 1
    if output is None:
        return 4
    print(f"reports written to {target}", file=out)
    return 0


#: The run records ``run`` writes, each to ``<key>.csv`` under its header.
_RECORDS = {"dropped_rows": ["subject", "phase", "window_index"],
            "excluded_subjects": ["subject"], "selected_features": ["column"]}


def write_report_csv(report, path):
    """Machine-readable flat report: model,fold,metric,value."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["model", "fold", "metric", "value"])
        for model, fold, metric, value in report.to_records():
            writer.writerow([model, fold, metric, f"{value:.12g}"])


def _write_keys_csv(path, header, rows):
    """One row per key: a tuple, or one name."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(row if isinstance(row, tuple) else (row,) for row in rows)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="affectpipe",
        description="Modular affect-recognition pipelines over physiological "
                    "time series")
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="check a dataset tree against the "
                           "standard layout")
    p_val.add_argument("root")

    p_synth = sub.add_parser("synth", help="generate a synthetic dataset")
    p_synth.add_argument("spec")
    p_synth.add_argument("out")
    p_synth.add_argument("--seed", type=int, default=None)

    p_run = sub.add_parser("run", help="execute a declarative pipeline config")
    p_run.add_argument("config")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--strict", action="store_true")
    p_run.add_argument("--out", default=None)

    args = parser.parse_args(argv)
    if args.command == "validate":
        return cmd_validate(args.root)
    if args.command == "synth":
        return cmd_synth(args.spec, args.out, args.seed)
    if args.command == "run":
        return cmd_run(args.config, args.seed, args.strict, args.out)
    return 2


if __name__ == "__main__":
    sys.exit(main())
