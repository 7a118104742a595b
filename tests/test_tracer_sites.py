"""The benchmark's per-layer tracer (perfbench/traced_cli.py) wraps
functions by "module:attribute" site.  A site that no longer names a
callable drops that layer's metrics, so every site must resolve."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACED_CLI = Path(__file__).resolve().parents[1] / "perfbench" / "traced_cli.py"


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
