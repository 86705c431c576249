"""The benchmark's layer map names functions that dwmix still has.

``perfbench/tracing.py`` wraps each ``(module, attribute)`` of its
``INSTRUMENTED`` table during a traced run and raises when one is gone; this
check makes a renamed layer function fail here as well.
"""

import importlib.util
from pathlib import Path

from dwmix import cli, model

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _layer_map():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.INSTRUMENTED


def test_every_instrumented_layer_exists():
    modules = {"cli": cli, "model": model}
    layers = _layer_map()
    assert layers
    missing = [f"dwmix.{module}.{attr}" for module, attr, _ in layers
               if not callable(getattr(modules[module], attr, None))]
    assert not missing, "layer functions gone: " + ", ".join(missing)
