"""The benchmark's per-layer tracer (perfbench/traced_cli.py) wraps
functions by "module:attribute" site.  A site that no longer names a
callable drops that layer's metrics, so every site must resolve; a site
that resolves but that the program no longer calls through is reported as
missing, so every span must also be called where the benchmark expects."""

import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import pytest

from lumaswitch.cli import main
from lumaswitch.imaging import save_image
from lumaswitch.mlp import init_model, save_model

from conftest import make_patch_image

TRACED_CLI = Path(__file__).resolve().parents[1] / "perfbench" / "traced_cli.py"
ANN_ONLY = {"mlp.load_model", "mlp.predict_space", "colorspace.feature_vector"}


def tracer_spans() -> dict:
    if not TRACED_CLI.is_file():
        pytest.skip("perfbench/ is absent")
    spec = importlib.util.spec_from_file_location("perfbench_traced_cli", TRACED_CLI)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPANS


def test_every_tracer_site_is_a_lumaswitch_callable():
    sites = [site for sites, _ in tracer_spans().values() for site in sites]
    assert sites
    unresolved = []
    for site in sites:
        module_name, attr = site.split(":")
        module = importlib.import_module(module_name)
        if not (module_name.startswith("lumaswitch.") and callable(getattr(module, attr, None))):
            unresolved.append(site)
    assert unresolved == []


def count_span_calls(monkeypatch) -> Counter:
    """Wrap every tracer site with a call counter keyed by span name."""
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name, (sites, _) in tracer_spans().items():
        for site in sites:
            module_name, attr = site.split(":")
            module = importlib.import_module(module_name)
            monkeypatch.setattr(module, attr, counted(name, getattr(module, attr)))
    return calls


def test_every_tracer_span_is_called_where_the_benchmark_expects(tmp_path, monkeypatch, fresh_tables):
    # the traced benchmark child is a new process, whose first maxconnected
    # image builds the interval tables through the converters
    calls = count_span_calls(monkeypatch)
    spans = set(tracer_spans())
    frames = tmp_path / "frames"
    frames.mkdir()
    for i in range(2):
        save_image(make_patch_image(), frames / f"f{i}.ppm")
    model_path = tmp_path / "model.json"
    save_model(init_model(3, seed=0), model_path)

    assert main(["segment", "--out-dir", str(tmp_path / "o1"), str(frames / "f0.ppm")]) == 0
    assert set(calls) == spans - ANN_ONLY - {"mlp.train"}

    calls.clear()
    args = ["stream", "--strategy", "ann", "--model", str(model_path), "--out-dir", str(tmp_path / "o2")]
    assert main([*args, str(frames)]) == 0
    assert set(calls) == spans - {"mlp.train"}

    calls.clear()
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(f"{frames / 'f0.ppm'} RGB\n{frames / 'f1.ppm'} HSV\n")
    assert main(["train", str(manifest), "--model", str(tmp_path / "m.json"), "--epochs", "2"]) == 0
    assert calls["mlp.train"] == 1
    assert not set(calls) & {"cli.driver", "switching.strategy", *ANN_ONLY}
