"""Run the lumaswitch CLI with timing wrappers around each module's functions.

Usage: python traced_cli.py SPANS_JSON CLI_ARG...

Each wrapper is installed at the module name the program calls the function
through (``lumaswitch.switching.largest_component``, not only
``lumaswitch.blobs.largest_component``).  A wrapper records a span
[name, start, end, parent, count] in memory, where count is taken from the
return value; the spans are written to SPANS_JSON when the CLI returns.

SIGTERM asks the run to stop: the next image load raises StopRun before its
span starts, so the spans cover whole images only.
"""

from __future__ import annotations

import importlib
import json
import os
import signal
import sys
import time

# span name -> (sites "module:attribute", count taken from (result, args))
SPANS = {
    "cli.driver": (["lumaswitch.cli:cmd_segment", "lumaswitch.cli:cmd_stream"], None),
    "imaging.load_image": (["lumaswitch.cli:load_image"], None),
    "imaging.save": (
        ["lumaswitch.cli:save_image", "lumaswitch.cli:save_mask"],
        lambda result, args: os.path.getsize(args[1]),
    ),
    "mlp.load_model": (["lumaswitch.mlp:load_model"], None),
    "mlp.train": (["lumaswitch.mlp:train"], None),
    "mlp.predict_space": (["lumaswitch.switching:predict_space"], None),
    "switching.strategy": (
        [
            "lumaswitch.cli:algorithm1_ann_switch",
            "lumaswitch.cli:algorithm2_max_connected",
            "lumaswitch.cli:algorithm3_sigma_connect",
        ],
        lambda result, args: 1,
    ),
    "switching.bayesian_routine": (["lumaswitch.switching:bayesian_routine"], None),
    "colorspace.feature_vector": (["lumaswitch.switching:feature_vector"], None),
    "colorspace.image_to_hsv": (
        ["lumaswitch.skinfilter:image_to_hsv", "lumaswitch.colorspace:image_to_hsv"],
        lambda result, args: result.nbytes,
    ),
    "colorspace.image_to_ycbcr": (
        ["lumaswitch.skinfilter:image_to_ycbcr", "lumaswitch.colorspace:image_to_ycbcr"],
        lambda result, args: result.nbytes,
    ),
    "skinfilter.apply_filter": (
        ["lumaswitch.switching:apply_filter"],
        lambda result, args: result.count(),
    ),
    "blobs.denoise": (["lumaswitch.switching:denoise"], lambda result, args: result.count()),
    "blobs.largest_component": (
        ["lumaswitch.switching:largest_component"],
        lambda result, args: result[1],
    ),
    "blobs.label_components": (
        ["lumaswitch.blobs:label_components"],
        lambda result, args: result.count,
    ),
    "imaging.overlay": (["lumaswitch.switching:overlay"], None),
}


class StopRun(BaseException):
    """Raised past the CLI's error handlers to end the run between images."""


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.stop_requested = False

    def wrap(self, name, fn, count):
        def traced(*args, **kwargs):
            parent = self.stack[-1] if self.stack else -1
            span = [name, time.perf_counter(), None, parent, None]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            if count is not None:
                span[4] = count(result, args)
            return result

        return traced

    def stop_before(self, fn):
        def guarded(*args, **kwargs):
            if self.stop_requested:
                raise StopRun
            return fn(*args, **kwargs)

        return guarded


def install(tracer: Tracer) -> list[str]:
    """Install every wrapper; return the sites that do not exist."""
    missing = []
    for name, (sites, count) in SPANS.items():
        for site in sites:
            module_name, attr = site.split(":")
            try:
                module = importlib.import_module(module_name)
            except ModuleNotFoundError:
                missing.append(site)
                continue
            fn = getattr(module, attr, None)
            if not callable(fn):
                missing.append(site)
                continue
            traced = tracer.wrap(name, fn, count)
            if name == "imaging.load_image":
                traced = tracer.stop_before(traced)
            setattr(module, attr, traced)
    return missing


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    missing = install(tracer)

    def request_stop(signum, frame):
        tracer.stop_requested = True

    signal.signal(signal.SIGTERM, request_stop)
    from lumaswitch import cli

    try:
        status = cli.main(cli_args)
    except StopRun:
        status = 0
    with open(spans_path, "w") as fh:
        json.dump({"missing_sites": missing, "spans": tracer.spans}, fh)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
