#!/usr/bin/env python3
"""Seeded end-to-end benchmark of the lumaswitch command line.

Usage (from the repository root):

    python3 perfbench/run.py --workload photo_batch --seed 0 --seconds 55 --trace 0

Each run generates its inputs from --seed, runs one CLI child at a time
(closed loop, one image after another) through the real ``lumaswitch`` CLI,
checks every output, and prints a table followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 runs the workload once
untraced and once under perfbench/traced_cli.py and reports per-layer
metrics.  The exit code is 0 when every check passed, 1 when a check failed
and 2 when the repository's sources are not there.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import scenes
from check import SPACES, RunChecker
from traced_cli import SPANS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
RUN_BUDGET_S = 170.0  # every child is killed once the run has taken this long
SETUP_SAMPLES = 10  # half before the measured child, half after it
DEFAULT_SEED = 0


@dataclass(frozen=True)
class Workload:
    command: str  # "segment" or "stream"
    flags: tuple[str, ...]
    scene: str
    size: tuple[int, int]  # (height, width)
    pool: int  # distinct images; every run processes each at least once
    inputs: int  # length of the child's input list, cycling over the pool


WORKLOADS = {
    # the paper's main strategy: three full pipelines per image, labelling of long runs
    "photo_batch": Workload("segment", ("--strategy", "maxconnected"), "smooth", (480, 640), 3, 600),
    # one space per frame: conversion, features, PPM I/O and the driver loop dominate
    "frame_stream": Workload("stream", ("--strategy", "ann"), "sparse", (240, 320), 24, 4000),
}
ANN_ONLY = {"mlp.load_model", "mlp.predict_space", "colorspace.feature_vector"}
TRAIN_FRAMES = 24
TRAIN_FLAGS = ("--epochs", "3000", "--learning-rate", "0.5", "--seed", "0")


# inputs ------------------------------------------------------------------------------


@dataclass
class Inputs:
    pool: list  # (h, w, 3) uint8 arrays
    pool_paths: list[Path]
    flags: list[str]  # the workload's CLI flags, with the filter config and model
    tiny: Path  # one 8x8 input (a directory of one frame for stream)
    train_ms: float | None = None


def make_pool(rng, wl: Workload) -> list:
    h, w = wl.size
    make = scenes.smooth_scene if wl.scene == "smooth" else scenes.sparse_scene
    return [make(rng, h, w, SPACES[j % 3]) for j in range(wl.pool)]


def generate(name: str, wl: Workload, seed: int, work: Path, traced: bool) -> Inputs:
    index = list(WORKLOADS).index(name)
    pool = make_pool(np.random.default_rng([seed, index, 0]), wl)
    if wl.scene == "smooth":
        winners = {scenes.maxconnected_winner(px) for px in pool}
        if winners != set(SPACES):
            raise SystemExit(f"generator: maxconnected winners {sorted(winners)}, need all three")
    pool_dir = work / "pool"
    pool_dir.mkdir()
    pool_paths = [pool_dir / f"p{j:03d}.ppm" for j in range(wl.pool)]
    for path, px in zip(pool_paths, pool):
        scenes.write_ppm(path, px)
    config = work / "filter.cfg"
    config.write_text(scenes.FILTER_CONFIG)
    flags = [*wl.flags, "--filter-config", str(config)]
    tiny_dir = work / "tiny"
    tiny_dir.mkdir()
    scenes.write_ppm(tiny_dir / "tiny.ppm", np.full((8, 8, 3), (200, 140, 110), np.uint8))
    tiny = tiny_dir if wl.command == "stream" else tiny_dir / "tiny.ppm"
    inputs = Inputs(pool, pool_paths, flags, tiny)
    if "ann" in wl.flags:
        model = work / "model.json"
        inputs.train_ms = train_model(name, wl, seed, work, model, traced)
        flags += ["--model", str(model)]
    return inputs


def train_model(name, wl, seed, work: Path, model: Path, traced: bool) -> float | None:
    """Train the ann selector with `lumaswitch train` on a separate seeded set,
    each frame labelled with its own maxconnected winner."""
    rng = np.random.default_rng([seed, list(WORKLOADS).index(name), 1])
    h, w = wl.size
    train_dir = work / "train"
    train_dir.mkdir()
    lines = []
    for j in range(TRAIN_FRAMES):
        px = scenes.sparse_scene(rng, h, w, SPACES[j % 3])
        path = train_dir / f"t{j:03d}.ppm"
        scenes.write_ppm(path, px)
        lines.append(f"{path} {scenes.maxconnected_winner(px)}\n")
    manifest = work / "train.txt"
    manifest.write_text("".join(lines))
    args = ["train", str(manifest), "--model", str(model), *TRAIN_FLAGS]
    spans = work / "train_spans.json"
    cmd = traced_cmd(spans, args) if traced else cli_cmd(args)
    done = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_BUDGET_S)
    if done.returncode != 0:
        raise SystemExit(f"lumaswitch train failed ({done.returncode}): {done.stderr}")
    if not traced:
        return None
    times = [s[2] - s[1] for s in json.loads(spans.read_text())["spans"] if s[0] == "mlp.train"]
    return sum(times) * 1e3 if times else None


# children ----------------------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def cli_cmd(args) -> list[str]:
    return [sys.executable, "-u", "-m", "lumaswitch.cli", *args]


def traced_cmd(spans: Path, args) -> list[str]:
    return [sys.executable, "-u", str(BENCH / "traced_cli.py"), str(spans), *args]


def setup_samples(wl: Workload, inputs: Inputs, work: Path, tag: str,
                  count: int) -> tuple[list[float], list[str]]:
    """Wall times of `count` fresh CLI processes on one 8x8 input, from spawn to exit."""
    samples, errors = [], []
    for k in range(count):
        out = work / f"setup_{tag}{k}"
        cmd = cli_cmd([wl.command, *inputs.flags, "--out-dir", str(out), str(inputs.tiny)])
        start = time.perf_counter()
        done = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=60)
        samples.append(time.perf_counter() - start)
        if done.returncode != 0 or len(done.stdout.splitlines()) != 1:
            errors.append(f"set-up run {tag}{k}: exit {done.returncode}: {done.stderr.strip()}")
    return samples, errors


def proc_cpu_s(pid: int) -> float:
    """User plus system CPU of a live process, from /proc (the counters rusage reports)."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


@dataclass
class ChildRun:
    stamps: list[float] = field(default_factory=list)
    cpu: list[float] = field(default_factory=list)
    lines: int = 0
    listed: int = 0
    stopped: bool = False
    exit_code: int | None = None
    maxrss_kb: int = 0
    checker: RunChecker | None = None
    errors: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        # an early exit leaves the rest of the input list unprocessed
        return self.lines if self.stopped else self.listed

    @property
    def failed(self) -> int:
        return len(self.checker.failures) + self.attempted - self.lines


def run_child(wl: Workload, inputs: Inputs, work: Path, tag: str, seconds: float,
              deadline: float, spans: Path | None) -> ChildRun:
    """Run the workload's input list through one CLI child until `seconds`
    have passed since its first report line and every pool image is done."""
    out = work / f"out_{tag}"
    out.mkdir()
    links = work / f"in_{tag}"
    links.mkdir()
    p = wl.pool
    names = [links / f"i{i:06d}.ppm" for i in range(wl.inputs)]
    for i, link in enumerate(names):
        link.symlink_to(inputs.pool_paths[i % p])
    if wl.command == "stream":
        args = ["stream", *inputs.flags, "--out-dir", str(out), str(links)]
        stem_of = lambda i: f"i{i:06d}.frame{i:06d}"
    else:
        args = ["segment", *inputs.flags, "--out-dir", str(out), *map(str, names)]
        stem_of = lambda i: f"i{i:06d}"
    strategy = wl.flags[wl.flags.index("--strategy") + 1]
    run = ChildRun(listed=len(names))
    run.checker = RunChecker(strategy, inputs.pool, out, stem_of, lambda i: str(names[i]),
                             wl.command == "stream")
    cmd = traced_cmd(spans, args) if spans else cli_cmd(args)
    with open(work / f"stderr_{tag}.txt", "wb") as err:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=child_env(), cwd=ROOT)
    timed_out = threading.Event()

    def kill():
        timed_out.set()
        proc.kill()

    watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), kill)
    watchdog.start()
    try:
        for raw in proc.stdout:
            now = time.perf_counter()
            if not raw.endswith(b"\n"):
                break  # cut short by the stop signal
            run.stamps.append(now)
            run.cpu.append(proc_cpu_s(proc.pid))
            run.checker.on_line(run.lines, raw.decode())
            run.lines += 1
            # Stop on a whole number of passes, so each pool image weighs the same:
            # at the end of the pass that ends closest to `seconds`.  The plain
            # child stops at once; the traced one finishes its current image,
            # then writes its spans.
            ahead = 1 if spans else 0
            done = run.lines - 1 + ahead
            elapsed = now - run.stamps[0]
            if not run.stopped and done and done % p == 0 and elapsed + elapsed / done * p / 2 >= seconds:
                proc.terminate() if spans else proc.kill()
                run.stopped = True
    except BaseException:
        proc.kill()
        raise
    finally:
        watchdog.cancel()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
    run.exit_code = proc.returncode
    run.maxrss_kb = usage.ru_maxrss
    if timed_out.is_set():
        run.errors.append(f"{tag}: killed at the run's time budget")
    elif not run.stopped and run.exit_code != 0:
        run.errors.append(f"{tag}: CLI exited with {run.exit_code}")
    run.checker.check_first_pass()
    return run


# metrics -----------------------------------------------------------------------------


def end_to_end(run: ChildRun, setup_s: float) -> tuple[dict, list[str]]:
    n = run.lines - 1
    if n < 1:
        return {}, ["fewer than two report lines: no steady-state metrics"]
    gaps = sorted(np.diff(run.stamps) * 1e3)
    median = float(statistics.median(gaps))
    # the highest percentile with at least ten gaps beyond it
    tail, tail_pct = (float(gaps[n - 11]), 100.0 * (n - 10) / n) if n >= 21 else (median, 50.0)
    metrics = {
        "images_per_s": (n / (run.stamps[-1] - run.stamps[0]), "1/s"),
        "latency_ms.p50": (median, "ms"),
        "latency_ms.tail": (tail, "ms"),
        "cpu_ms_per_image": ((run.cpu[-1] - run.cpu[0]) / n * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (run.maxrss_kb / 1024.0, "MB"),
    }
    notes = [f"latency_ms.tail is p{tail_pct:.1f} of {n} gaps between report lines"]
    return metrics, notes


def span_table(spans: list) -> dict[str, dict]:
    """Per span name: calls, total and self seconds, and the sum of counts."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, count in spans:
        if parent >= 0:
            child_time[parent] += end - start
    table: dict[str, dict] = {}
    for i, (name, start, end, parent, count) in enumerate(spans):
        row = table.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0, "count": 0})
        row["calls"] += 1
        row["total"] += end - start
        row["self"] += end - start - child_time[i]
        row["count"] += count or 0
    return table


# per-layer metric -> (span, field, unit); "field" is total, self, calls or count
PER_LAYER = {
    "blobs.label_components.ms": ("blobs.label_components", "total", "ms/image"),
    "blobs.label_components.calls": ("blobs.label_components", "calls", "1/image"),
    "blobs.components": ("blobs.label_components", "count", "1/image"),
    "blobs.largest_component.self_ms": ("blobs.largest_component", "self", "ms/image"),
    "blobs.denoise.ms": ("blobs.denoise", "total", "ms/image"),
    "blobs.denoised_px": ("blobs.denoise", "count", "px/image"),
    "blobs.blob_px": ("blobs.largest_component", "count", "px/image"),
    "colorspace.image_to_hsv.ms": ("colorspace.image_to_hsv", "total", "ms/image"),
    "colorspace.image_to_hsv.calls": ("colorspace.image_to_hsv", "calls", "1/image"),
    "colorspace.image_to_ycbcr.ms": ("colorspace.image_to_ycbcr", "total", "ms/image"),
    "colorspace.image_to_ycbcr.calls": ("colorspace.image_to_ycbcr", "calls", "1/image"),
    "colorspace.feature_vector.self_ms": ("colorspace.feature_vector", "self", "ms/image"),
    "skinfilter.apply_filter.self_ms": ("skinfilter.apply_filter", "self", "ms/image"),
    "skinfilter.apply_filter.calls": ("skinfilter.apply_filter", "calls", "1/image"),
    "skinfilter.raw_px": ("skinfilter.apply_filter", "count", "px/image"),
    "imaging.overlay.ms": ("imaging.overlay", "total", "ms/image"),
    "imaging.overlay.calls": ("imaging.overlay", "calls", "1/image"),
    "imaging.load_image.ms": ("imaging.load_image", "total", "ms/image"),
    "imaging.save.ms": ("imaging.save", "total", "ms/image"),
    "imaging.save.bytes": ("imaging.save", "count", "B/image"),
    "switching.bayesian_routine.calls": ("switching.bayesian_routine", "calls", "1/image"),
    "switching.bayesian_routine.self_ms": ("switching.bayesian_routine", "self", "ms/image"),
    "switching.strategy.self_ms": ("switching.strategy", "self", "ms/image"),
    "cli.driver.self_ms": ("cli.driver", "self", "ms/image"),
    "mlp.predict_space.ms": ("mlp.predict_space", "total", "ms/image"),
    "mlp.load_model.ms": ("mlp.load_model", "total", "ms"),
}


def per_layer(wl: Workload, inputs: Inputs, plain: ChildRun, traced: ChildRun,
              spans_doc: dict) -> tuple[dict, list[str]]:
    """Per-image layer metrics from the traced run's spans.  A span whose
    wrapper site is gone, or that the workload should call and never did, is
    reported as missing and left out, never as 0."""
    table = span_table(spans_doc["spans"])
    gone = set(spans_doc["missing_sites"])
    notes = [f"missing: wrapper site {site} does not exist" for site in sorted(gone)]
    absent = {name for name, (sites, _) in SPANS.items() if gone.intersection(sites)}
    ann = "ann" in wl.flags
    for name in sorted(SPANS):
        expected = name != "mlp.train" and (ann or name not in ANN_ONLY)
        if expected and table.get(name, {}).get("calls", 0) == 0:
            absent.add(name)
            notes.append(f"missing: {name} was never called")
    images = table.get("switching.strategy", {}).get("calls", 0)
    if images == 0:
        return {}, notes + ["missing: no image completed in the traced run"]
    metrics: dict[str, tuple] = {}
    for metric, (span, what, unit) in PER_LAYER.items():
        if span not in absent:
            value = table.get(span, {}).get(what, 0)
            scale = 1e3 if what in ("total", "self") else 1.0
            metrics[metric] = (value * scale / (1 if unit == "ms" else images), unit)
    if "imaging.overlay" not in absent:
        metrics["switching.overlay_used_ratio"] = (images / table["imaging.overlay"]["calls"], "ratio")
    planes = {"colorspace.image_to_hsv", "colorspace.image_to_ycbcr"}
    if not absent & planes:
        metrics["colorspace.plane_bytes"] = (sum(table[s]["count"] for s in planes) / images, "B/image")
    if not ann:
        metrics["mlp.train.ms"] = (0.0, "ms")
    elif inputs.train_ms is not None:
        metrics["mlp.train.ms"] = (inputs.train_ms, "ms")
    else:
        notes.append("missing: mlp.train was never called")
    n_plain, n_traced = plain.lines - 1, traced.lines - 1
    if "cli.driver" not in absent and n_plain > 0 and n_traced > 0:
        cpu_plain = (plain.cpu[-1] - plain.cpu[0]) / n_plain * 1e3
        cpu_traced = (traced.cpu[-1] - traced.cpu[0]) / n_traced * 1e3
        metrics["trace.cpu_ms_per_image"] = (cpu_traced, "ms/image")
        metrics["trace.overhead_cpu_ms"] = (cpu_traced - cpu_plain, "ms/image")
        wall = (traced.stamps[-1] - traced.stamps[0]) / n_traced * 1e3
        metrics["trace.wall_ms"] = (wall, "ms/image")
        metrics["trace.self_sum_ms"] = (table["cli.driver"]["total"] * 1e3 / images, "ms/image")
    return metrics, notes


# main --------------------------------------------------------------------------------


def run_checks(name: str, seed: int, runs: list[ChildRun]) -> list[str]:
    """Run-level checks on top of the per-line ones in RunChecker."""
    problems = []
    digests = json.loads((BENCH / "digests.json").read_text())
    for run in runs:
        problems += run.errors
        problems += [run.checker.failures[i] for i in sorted(run.checker.failures)]
        chosen = run.checker.chosen_spaces()
        if chosen != set(SPACES):
            problems.append(f"chosen spaces {sorted(map(str, chosen))}, expected all three")
        digest = run.checker.digest()
        print(f"digest {digest}")
        if digest is None:
            problems.append("the run did not process every pool image")
        elif seed == DEFAULT_SEED and digest != digests[name]:
            problems.append(f"digest {digest} differs from the recorded {digests[name]}")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not (SRC / "lumaswitch" / "cli.py").is_file():
        print(f"error: no lumaswitch sources under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_BUDGET_S
    wl = WORKLOADS[args.workload]
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        inputs = generate(args.workload, wl, args.seed, work, traced=bool(args.trace))
        if args.trace:
            # the two children share the run's time, so a traced run is no longer than a plain one
            plain = run_child(wl, inputs, work, "plain", args.seconds / 2, deadline, None)
            spans = work / "spans.json"
            traced = run_child(wl, inputs, work, "traced", args.seconds / 2, deadline, spans)
            runs = [plain, traced]
            if spans.exists():
                metrics, notes = per_layer(wl, inputs, plain, traced, json.loads(spans.read_text()))
            else:
                metrics, notes = {}, ["missing: the traced run wrote no spans"]
            problems = []
        else:
            # one unmeasured start fills the bytecode cache; the samples are taken
            # before and after the measured child, so slow phases of the host
            # weigh on set-up as they do on the rest of the run
            _, problems = setup_samples(wl, inputs, work, "warm", 1)
            before, errors = setup_samples(wl, inputs, work, "a", SETUP_SAMPLES // 2)
            runs = [run_child(wl, inputs, work, "plain", args.seconds, deadline, None)]
            after, more = setup_samples(wl, inputs, work, "b", SETUP_SAMPLES - SETUP_SAMPLES // 2)
            problems += errors + more
            metrics, notes = end_to_end(runs[0], statistics.median(before + after))
        problems += run_checks(args.workload, args.seed, runs)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.4f} {unit}")
    print(f"{'failed_frac':40s} {failed / max(attempted, 1):14.4f} ({failed} of {attempted} inputs)")
    for line in notes + problems:
        print(line)
    correct = not problems and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
