"""The benchmark tracer's targets still exist in the package.

``perfbench/layers.py`` wraps ergolq functions by module and qualified
name, and reports a metric as missing when its target is gone.  This test
keeps that contract inside the main suite: renaming or deleting a traced
function fails here, not only under ``python3 -m pytest perfbench``.
"""

import importlib
import importlib.util
import os
import sys

import pytest

LAYERS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "layers.py")


def _load_layers():
    # layers.py imports only the standard library, so it loads standalone
    spec = importlib.util.spec_from_file_location("_perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


WRAPPERS = _load_layers().WRAPPERS


def test_the_tracer_wraps_something():
    assert len(WRAPPERS) >= 27


@pytest.mark.parametrize("wrapper", WRAPPERS, ids=lambda w: w.key)
def test_every_traced_function_resolves(wrapper):
    target = importlib.import_module(wrapper.module)
    for part in wrapper.qualname.split("."):
        target = getattr(target, part)
    assert callable(target)
