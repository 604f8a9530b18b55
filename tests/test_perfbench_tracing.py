"""The traced benchmark run patches layer callables by name; each must exist.

``perfbench/tracing.py`` wraps every ``LAYER_TARGETS`` entry in place (a
class attribute read from the class's own namespace, or a module global), so
renaming or moving a traced callable breaks ``perfbench/run.py --trace 1``.
This test resolves every target without patching anything.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _layer_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING_PATH)
    assert spec is not None and spec.loader is not None
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.LAYER_TARGETS


@pytest.mark.parametrize(
    "module, owner, attr",
    [(module, owner, attr) for module, owner, attr, _, _ in _layer_targets()],
)
def test_layer_target_resolves(module, owner, attr):
    target = importlib.import_module(module)
    if owner is None:
        assert callable(getattr(target, attr, None)), f"{module}.{attr}"
    else:
        cls = getattr(target, owner)
        # tracing.patch reads the attribute from the class's own namespace.
        assert attr in vars(cls), f"{module}.{owner}.{attr}"
