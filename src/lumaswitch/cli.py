"""Command-line entry point.

Subcommands:
  segment  run a switching strategy over images, write masks/overlays
           and print one JSON report line per image on stdout
  train    fit the color-space selector network from a labeled manifest
  eval     confusion matrix of a trained selector over a manifest
  stream   process a directory of frames in lexicographic order

Exit codes: 0 success, 1 runtime failure on some input, 2 bad configuration.
A filter config, manifest, listed image or model that cannot be read,
decoded or parsed exits 2 through one helper, ``_config_error``, with a
message that names it.  So does, through ``_check_files``, a file the run
writes that is a directory, in none, cannot be looked up, or is, by
(device, inode), a file it reads or another it writes; and two ``segment``
inputs with one file stem, an out-dir that is a file or cannot be listed,
and a strategy flag that the chosen strategy would not read.
"""

from __future__ import annotations

import argparse
import json
import os
import stat
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import mlp
from .colorspace import FEATURE_KEYS, feature_vector
from .imaging import load_image, save_image, save_mask
from .skinfilter import ColorSpaceId, default_filter, parse_filter_config, to_space
from .switching import (
    algorithm1_ann_switch,
    algorithm2_max_connected,
    algorithm3_sigma_connect,
)

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2
ARTIFACTS = (".mask.pgm", ".raw.pgm", ".overlay.ppm")


class ConfigError(Exception):
    """Invalid command-line or file configuration (exit code 2)."""


@contextmanager
def _config_error(prefix: str = ""):
    """An OSError or ValueError raised in the block, such as a file that
    cannot be read or parsed, is a ConfigError: ``prefix`` and its message."""
    try:
        yield
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{prefix}{exc}") from exc


def _segmenter(args):
    """The run's filter, and the strategy as a per-image call with that
    filter and the model bound.  The strategy flags are checked before any
    file is read: a flag the strategy does not read is a ConfigError."""
    if args.model is not None and args.strategy != "ann":
        raise ConfigError(f"--model is read only by --strategy ann, not {args.strategy}")
    if args.vote_threshold is not None and args.strategy != "sigmaconnect":
        raise ConfigError(
            f"--vote-threshold is read only by --strategy sigmaconnect, not {args.strategy}"
        )
    if args.strategy == "ann" and not args.model:
        raise ConfigError("--model is required with --strategy ann")
    filt = default_filter()
    if args.filter_config:
        with _config_error(f"{args.filter_config}: "):
            filt = parse_filter_config(Path(args.filter_config).read_text(encoding="utf-8"))
    if args.strategy == "maxconnected":
        return filt, lambda image: algorithm2_max_connected(image, filt)
    if args.strategy == "sigmaconnect":
        threshold = args.vote_threshold or 1
        return filt, lambda image: algorithm3_sigma_connect(image, filt, vote_threshold=threshold)
    with _config_error():
        model = mlp.load_model(args.model)
    return filt, lambda image: algorithm1_ann_switch(image, model, filt)


def _check_files(reads, writes) -> None:
    """Each file the run writes must be a file that can be looked up (a
    symlink loop cannot) or not there yet in a directory, and no file it
    reads or another it writes.  ``reads`` and ``writes`` are (description,
    path) pairs, each stat'ed once; two paths are one file by (device,
    inode), through symlinks, or, when not there yet, by resolved name.
    With nothing to write, no file is stat'ed."""
    if not writes:
        return
    written = {}  # file -> the description of the write that names it
    for n, (what, path) in enumerate([*writes, *reads]):
        is_write = n < len(writes)
        try:
            st = os.stat(path)
        except OSError as exc:
            if is_write and not isinstance(exc, (FileNotFoundError, NotADirectoryError)):
                raise ConfigError(f"{what}: {exc.strerror}") from None
            key = os.path.realpath(path)
            if is_write and not os.path.isdir(os.path.dirname(key)):
                raise ConfigError(f"{what}: no directory {Path(path).parent}") from None
        else:
            if is_write and stat.S_ISDIR(st.st_mode):
                raise ConfigError(f"{what} is a directory")
            key = st.st_dev, st.st_ino
        if key in written:
            raise ConfigError(f"{what} is {written[key]}")
        if is_write:
            written[key] = what


def _check_artifacts(args, entries) -> None:
    """Every artifact file must be written by one input only, and no file
    the run reads (an input, the filter config or the model) may be an
    artifact file in the out-dir: the run would overwrite it, or segment
    an earlier run's output as a new image.  The out-dir is listed once."""
    out_dir = Path(args.out_dir)
    writers = {}  # artifact stem -> the input that writes it
    for file, stem, _ in entries:
        if stem in writers:
            raise ConfigError(f"inputs {writers[stem]} and {file} share the artifact stem {stem!r}")
        writers[stem] = file
    try:
        names = [name for name in os.listdir(out_dir) if name.endswith(ARTIFACTS)]
    except FileNotFoundError:
        return  # no out-dir yet
    except NotADirectoryError:
        raise ConfigError(f"--out-dir {out_dir} is not a directory") from None
    except OSError as exc:  # such as a symlink loop
        raise ConfigError(f"--out-dir {out_dir}: {exc.strerror}") from None
    reads = [("--filter-config", args.filter_config), ("--model", args.model)]
    reads = [(f"{flag} {path}", path) for flag, path in reads if path]
    reads += [(f"input {file}", file) for file in writers.values()]
    paths = [out_dir / name for name in names]  # a directory or a loop is no artifact file
    writes = [(f"{path}, an artifact in --out-dir", path) for path in paths if path.is_file()]
    _check_files(reads, writes)


def _drive(args, entries) -> int:
    """The segment/stream loop over (file, artifact stem, extra report
    fields) entries: load, segment, write artifacts and print one JSON
    report line on stdout.  An input that fails to load, segment or write
    is skipped with no report line and none of its artifact files, and
    makes the exit code 1."""
    out_dir = Path(args.out_dir)
    _check_artifacts(args, entries)
    filt, segment = _segmenter(args)
    filter_fields = filt.to_dict()
    out_dir.mkdir(parents=True, exist_ok=True)
    status = EXIT_OK
    for file, stem, extra in entries:
        paths = [out_dir / f"{stem}{kind}" for kind in ARTIFACTS]
        try:
            result = segment(load_image(file))
            save_mask(result.mask, paths[0])
            save_mask(result.raw_mask, paths[1])
            save_image(result.overlay, paths[2])
        except (OSError, ValueError) as exc:
            for path in paths:
                if path.is_file():
                    path.unlink()
            print(f"skipping {file}: {exc}", file=sys.stderr)
            status = EXIT_RUNTIME
            continue
        line = json.dumps(
            {
                "file": file,
                "strategy": args.strategy,
                "chosen": result.chosen,
                "blob_size": result.blob_size,
                "per_space_sizes": result.per_space_sizes,
                **extra,
                "filter": filter_fields,
            }
        )
        print(line)
    return status


def cmd_segment(args) -> int:
    return _drive(args, [(p, Path(p).stem, {}) for p in args.inputs])


def cmd_stream(args) -> int:
    frames = sorted(Path(args.frames).glob("*.ppm"))
    status = _drive(
        args,
        [(str(p), f"{p.stem}.frame{i:06d}", {"frame": i}) for i, p in enumerate(frames)],
    )
    if not frames:
        print(f"no PPM frames in {args.frames}", file=sys.stderr)
        return EXIT_RUNTIME
    return status


def _read_manifest(args, reads, outputs) -> list[tuple[str, ColorSpaceId]]:
    """The manifest's (image, label) entries, parsed (no image decoded)
    before each set (flag, path) of ``outputs`` is checked by ``_check_files``."""
    entries = []
    with _config_error(f"{args.manifest}: "):
        text = Path(args.manifest).read_text(encoding="utf-8")
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                image_path, label = line.rsplit(None, 1)
                entries.append((image_path, ColorSpaceId.parse(label)))
            except ValueError:
                raise ValueError(f"line {lineno}: expected '<image> <label>', got {line!r}") from None
        if not entries:
            raise ValueError("empty manifest")
    images = [(f"image {image} in the manifest", image) for image, _ in entries]
    reads = [*reads, (f"the manifest {args.manifest}", args.manifest), *images]
    _check_files(reads, [(f"{flag} {path}", path) for flag, path in outputs if path])
    return entries


def _manifest_features(entries) -> list[tuple]:
    rows = []
    for image_path, space in entries:
        with _config_error(f"cannot read image {image_path}: "):
            image = load_image(image_path)
        planes = [to_space(image, s) for s in ColorSpaceId]
        rows.append((image_path, feature_vector(planes), space))
    return rows


def cmd_train(args) -> int:
    with _config_error():
        cfg = mlp.TrainConfig(args.learning_rate, args.epochs, args.hidden, args.seed)
    outputs = [("--model", args.model), ("--loss-csv", args.loss_csv)]
    rows = _manifest_features(_read_manifest(args, [], outputs))
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
    reads = [(f"--model {args.model}", args.model)]
    entries = _read_manifest(args, reads, [("--report", args.report)])
    with _config_error():
        model = mlp.load_model(args.model)
    rows = _manifest_features(entries)
    confusion = np.zeros((3, 3), dtype=int)
    records = []
    for image_path, features, true_space in rows:
        predicted = mlp.predict_space(model, features)
        confusion[int(true_space), int(predicted)] += 1
        records.append(
            {
                "file": image_path,
                "features": dict(zip(FEATURE_KEYS, features.tolist())),
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
        p.add_argument("--model", help="model file (required by, and only for, --strategy ann)")
        p.add_argument("--filter-config", help="range config file")
        p.add_argument(
            "--vote-threshold",
            type=int,
            choices=[1, 2, 3],
            help="sigmaconnect only: spaces that must agree on a pixel (default 1, a union)",
        )
        p.add_argument("--out-dir", default="out")

    p = sub.add_parser("segment", help="segment one or more images")
    add_strategy_flags(p)
    p.add_argument("inputs", nargs="+", metavar="IMAGE")
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser("stream", help="segment a directory of frames in sorted order")
    add_strategy_flags(p)
    p.add_argument("frames", metavar="FRAME_DIR")
    p.set_defaults(func=cmd_stream)

    p = sub.add_parser("train", help="train the color-space selector")
    p.add_argument("manifest", help="lines of '<image path> <RGB|HSV|YCbCr>'")
    p.add_argument("--model", required=True, help="output model file")
    p.add_argument("--loss-csv", help="optional per-epoch loss trace")
    p.add_argument("--epochs", type=int, default=mlp.TrainConfig.epochs)
    p.add_argument("--learning-rate", type=float, default=mlp.TrainConfig.learning_rate)
    p.add_argument("--hidden", type=int, default=mlp.TrainConfig.hidden_count)
    p.add_argument("--seed", type=int, default=mlp.TrainConfig.seed)
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
