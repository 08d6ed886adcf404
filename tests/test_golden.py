"""Six small seed-7 CLI commands reproduce tests/golden.json exactly.

``tools/golden.py`` runs them in a fresh interpreter with BLAS on one
thread and lists every moved value as ``old -> new (rel r)``.  A change
that moves a number on purpose re-records the file with

    python3 tools/golden.py --record

and lists every move in CHANGES.md.
"""

import importlib.util
import json
import os
import sys

GOLDEN_PY = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "golden.py")


def _load_golden():
    # golden.py imports only the standard library, so it loads standalone
    spec = importlib.util.spec_from_file_location("_tools_golden", GOLDEN_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_cli_outputs_match_the_golden_fingerprints(tmp_path):
    golden = _load_golden()
    with open(golden.GOLDEN, encoding="utf-8") as fh:
        recorded = json.load(fh)
    found = golden.misses(recorded, golden.run_commands(str(tmp_path)))
    assert not found, "\n".join(found)
