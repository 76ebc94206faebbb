"""Every function the benchmark's traced layers wrap (qbench/layer_map.json)
is a callable of qutritsim, so deleting or renaming one fails here, not only
in a traced benchmark run."""

import importlib
import json
from pathlib import Path

LAYER_MAP = Path(__file__).resolve().parents[1] / "qbench" / "layer_map.json"


def test_layer_map_names_resolve_to_callables():
    layers = json.loads(LAYER_MAP.read_text())["layers"]
    targets = sorted({t for layer in layers.values() for t in layer["wraps"]})
    assert targets
    missing = []
    for target in targets:
        module, name = target.split(".")
        if not callable(getattr(importlib.import_module(f"qutritsim.{module}"), name, None)):
            missing.append(target)
    assert not missing, missing
