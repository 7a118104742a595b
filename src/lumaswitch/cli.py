"""Command-line entry point.

Subcommands:
  segment  run a switching strategy over images, write masks/overlays
  train    fit the color-space selector network from a labeled manifest
  eval     confusion matrix of a trained selector over a manifest
  stream   process a directory of frames in lexicographic order

Exit codes: 0 success, 1 runtime failure on some input, 2 bad configuration.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import mlp
from .colorspace import feature_vector
from .imaging import ImageBuffer, load_image, save_image, save_mask
from .skinfilter import (
    ColorSpaceId, SkinRangeFilter, default_filter, parse_filter_config, to_space
)
from .switching import (
    SegmentationResult,
    algorithm1_ann_switch,
    algorithm2_max_connected,
    algorithm3_sigma_connect,
)

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2


class ConfigError(Exception):
    """Invalid command-line or file configuration (exit code 2)."""


def _load_filter(args) -> SkinRangeFilter:
    path = args.filter_config
    if not path:
        return default_filter()
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read filter config {path}: {exc}") from exc
    try:
        return parse_filter_config(text)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _segment_one(image: ImageBuffer, args, filt, model) -> SegmentationResult:
    if args.strategy == "ann":
        return algorithm1_ann_switch(image, model, filt)
    if args.strategy == "maxconnected":
        return algorithm2_max_connected(image, filt)
    return algorithm3_sigma_connect(image, filt, vote_threshold=args.vote_threshold)


def _load_model(path: str):
    try:
        return mlp.load_model(path)
    except (OSError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _require_model(args):
    if args.strategy != "ann":
        return None
    if not args.model:
        raise ConfigError("--model is required with --strategy ann")
    return _load_model(args.model)


def _write_artifacts(result: SegmentationResult, stem: str, out_dir: Path) -> None:
    """Write one input's three artifacts.  If a write fails, every artifact
    file of that input is removed before the error propagates, so a
    skipped input leaves none behind."""
    paths = [out_dir / f"{stem}.{kind}" for kind in ("mask.pgm", "raw.pgm", "overlay.ppm")]
    try:
        save_mask(result.mask, paths[0])
        save_mask(result.raw_mask, paths[1])
        save_image(result.overlay, paths[2])
    except OSError:
        for path in paths:
            if path.is_file():
                path.unlink()
        raise


def _report_line(result: SegmentationResult, filt, *, file: str, **extra) -> str:
    rec = {
        "file": file,
        "strategy": result.strategy,
        "chosen": result.chosen,
        "blob_size": result.blob_size,
        "per_space_sizes": result.per_space_sizes,
        **extra,
        "filter": filt.to_dict(),
    }
    return json.dumps(rec)


def _drive(args, entries) -> int:
    """The segment/stream loop over (file, artifact stem, extra report
    fields) entries: load, segment, write artifacts and one report line.
    The report is truncated, once the configuration has loaded, so it
    holds this run's lines only.  An input that fails to load, segment or
    write is skipped with no report line, and makes the exit code 1."""
    filt = _load_filter(args)
    model = _require_model(args)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    report_path = Path(args.report) if args.report else out_dir / "report.jsonl"
    delay_us = getattr(args, "delay_us", 0)
    status = EXIT_OK
    with open(report_path, "w") as report:
        for file, stem, extra in entries:
            try:
                result = _segment_one(load_image(file), args, filt, model)
                _write_artifacts(result, stem, out_dir)
            except (OSError, ValueError) as exc:
                print(f"skipping {file}: {exc}", file=sys.stderr)
                status = EXIT_RUNTIME
                continue
            line = _report_line(result, filt, file=file, **extra)
            report.write(line + "\n")
            print(line)
            if delay_us:
                time.sleep(delay_us / 1_000_000)
    return status


def cmd_segment(args) -> int:
    return _drive(args, [(str(p), Path(p).stem, {}) for p in args.inputs])


def cmd_stream(args) -> int:
    frames = sorted(Path(args.frames).glob("*.ppm"))
    if not frames:
        print(f"no PPM frames in {args.frames}", file=sys.stderr)
        return EXIT_RUNTIME
    return _drive(
        args,
        [(str(p), f"{p.stem}.frame{i:06d}", {"frame": i}) for i, p in enumerate(frames)],
    )


def _read_manifest(path: str) -> list[tuple[str, ColorSpaceId]]:
    entries = []
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read manifest {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            image_path, label = line.rsplit(None, 1)
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: expected '<image> <label>'") from None
        try:
            space = ColorSpaceId.parse(label)
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: unknown label {label!r}") from None
        entries.append((image_path, space))
    if not entries:
        raise ConfigError(f"{path}: empty manifest")
    return entries


def _manifest_features(entries) -> list[tuple]:
    rows = []
    for image_path, space in entries:
        try:
            image = load_image(image_path)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read image {image_path}: {exc}") from exc
        planes = [to_space(image, s) for s in ColorSpaceId]
        rows.append((image_path, feature_vector(planes), space))
    return rows


def cmd_train(args) -> int:
    try:
        cfg = mlp.TrainConfig(args.learning_rate, args.epochs, args.hidden, args.seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    rows = _manifest_features(_read_manifest(args.manifest))
    result = mlp.train([(f, s) for _, f, s in rows], cfg)
    mlp.save_model(result.model, args.model)
    if args.loss_csv:
        with open(args.loss_csv, "w") as fh:
            fh.write("epoch,loss\n")
            for epoch, loss in enumerate(result.losses):
                fh.write(f"{epoch},{loss!r}\n")
    correct = sum(mlp.predict_space(result.model, f) == s for _, f, s in rows)
    accuracy = 100.0 * correct / len(rows)
    print(f"trained on {len(rows)} images, {args.epochs} epochs")
    print(f"final loss {result.losses[-1]:.6f} (initial {result.losses[0]:.6f})")
    print(f"training accuracy {accuracy:.2f}%")
    return EXIT_OK


def cmd_eval(args) -> int:
    model = _load_model(args.model)
    entries = _read_manifest(args.manifest)
    rows = _manifest_features(entries)
    confusion = np.zeros((3, 3), dtype=int)
    records = []
    for image_path, features, true_space in rows:
        predicted = mlp.predict_space(model, features)
        confusion[int(true_space), int(predicted)] += 1
        records.append(
            {
                "file": image_path,
                "features": json.loads(features.to_json()),
                "predicted": predicted.label,
                "true": true_space.label,
            }
        )
    row_totals = confusion.sum(axis=1)
    per_class = [
        (100.0 * confusion[i, i] / row_totals[i]) if row_totals[i] else 0.0
        for i in range(3)
    ]
    total = int(confusion.sum())
    accuracy = 100.0 * int(np.trace(confusion)) / total
    report = {
        "confusion": confusion.tolist(),
        "per_class_percent": per_class,
        "overall_accuracy_percent": accuracy,
        "records": records,
    }
    if args.report:
        Path(args.report).write_text(json.dumps(report, indent=2) + "\n")

    labels = [s.label for s in ColorSpaceId]
    header = "true / pred"
    print(f"{header:>12} " + " ".join(f"{l:>8}" for l in labels) + f" {'correct':>9}")
    for i, label in enumerate(labels):
        cells = " ".join(f"{confusion[i, j]:>8}" for j in range(3))
        print(f"{label:>12} {cells} {per_class[i]:>8.2f}%")
    print(f"overall accuracy {accuracy:.2f}% ({int(np.trace(confusion))}/{total})")
    return EXIT_OK


def _non_negative_int(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lumaswitch",
        description="Skin pixel segmentation with automatic color-space switching.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_strategy_flags(p):
        p.add_argument(
            "--strategy",
            choices=["ann", "maxconnected", "sigmaconnect"],
            default="maxconnected",
        )
        p.add_argument("--model", help="model file (required for --strategy ann)")
        p.add_argument("--filter-config", help="range config file")
        p.add_argument("--vote-threshold", type=int, choices=[1, 2, 3], default=1)
        p.add_argument("--out-dir", default="out")
        p.add_argument("--report", help="JSON-lines report path (default <out-dir>/report.jsonl)")

    p = sub.add_parser("segment", help="segment one or more images")
    add_strategy_flags(p)
    p.add_argument("inputs", nargs="+", metavar="IMAGE")
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser("stream", help="segment a directory of frames in sorted order")
    add_strategy_flags(p)
    p.add_argument("--delay-us", type=_non_negative_int, default=0, help="inter-frame delay (us)")
    p.add_argument("frames", metavar="FRAME_DIR")
    p.set_defaults(func=cmd_stream)

    p = sub.add_parser("train", help="train the color-space selector")
    p.add_argument("manifest", help="lines of '<image path> <RGB|HSV|YCbCr>'")
    p.add_argument("--model", required=True, help="output model file")
    p.add_argument("--loss-csv", help="optional per-epoch loss trace")
    p.add_argument("--epochs", type=int, default=500)
    p.add_argument("--learning-rate", type=float, default=0.01)
    p.add_argument("--hidden", type=int, default=15)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="confusion matrix over a labeled manifest")
    p.add_argument("manifest")
    p.add_argument("--model", required=True)
    p.add_argument("--report", help="JSON report path")
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_CONFIG
    except (OSError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
