"""Golden fingerprints of six small seed-7 CLI commands.

    python3 tools/golden.py             # compare with tests/golden.json
    python3 tools/golden.py --record    # re-record tests/golden.json

``tests/golden.json`` holds, for each command in ``COMMANDS``, its exit
code, its ``summary.json`` and the SHA-256 of every other output file but
``manifest.json`` (whose ``config.out`` is the output directory), plus the
numpy version it was recorded with.  The commands run one after another in
one fresh interpreter with this checkout's ``src/`` on ``PYTHONPATH`` and
BLAS pinned to one thread, as the benchmark runs them; about 2 s on a
2-core VM.  ``tests/test_golden.py`` runs the same comparison in the test
suite, and a miss lists every moved value as ``old -> new (rel r)``.

Re-record only for a change that moves a number on purpose, and list every
move in CHANGES.md.  A different numpy version is reported as such, not as
a diff.  ``tools/same_outputs.py`` shares this file's child environment and
its diff of two JSON values.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
import tempfile

ROOT = os.path.abspath(os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir))
GOLDEN = os.path.join(ROOT, "tests", "golden.json")
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SEED = 7
COMMANDS = {
    "solve-riccati scalar-random-periodic": [
        "solve-riccati", "--scenario", "scalar-random-periodic", "--paths", "512"
    ],
    "ergodic-cost scalar-random-periodic": [
        "ergodic-cost", "--scenario", "scalar-random-periodic", "--paths", "512"
    ],
    "solve-riccati planar-deterministic-periodic": [
        "solve-riccati", "--scenario", "planar-deterministic-periodic"
    ],
    "scan scalar-constant": ["scan", "--scenario", "scalar-constant", "--paths", "2000"],
    "verify scalar-moment-decay": ["verify", "--scenario", "scalar-moment-decay"],
    "simulate scalar-noisy": ["simulate", "--scenario", "scalar-noisy", "--paths", "200"],
}
# runs each (argv, out) of argv[1] with stdout and stderr discarded; prints
# the exit codes and numpy's version as JSON
_CHILD = """
import contextlib, io, json, sys
import numpy
from ergolq.cli import main
codes = []
for argv, out in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes.append(main([*argv, "--out", out]))
print(json.dumps({"codes": codes, "numpy": numpy.__version__}))
"""


def child_env(checkout: str) -> dict:
    """The environment of a CLI child: ``checkout``'s src/ on PYTHONPATH,
    no bytecode written, BLAS on one thread."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(os.path.abspath(checkout), "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    for key in BLAS_ENV:
        env[key] = "1"
    return env


def moved_values(old, new, key: str = "") -> list:
    """'key: old -> new (rel r)' for every number that differs between two
    JSON values, 'key: old -> new' for any other differing value, where a
    dict key or list index that only one of them holds reads ``missing``;
    key paths read like ``checks.S6.metrics.delta`` and ``k0[0][1]``."""
    if isinstance(old, dict) and isinstance(new, dict):
        pairs = [(f"{key}.{k}" if key else str(k), old.get(k, MISSING), new.get(k, MISSING))
                 for k in {**old, **new}]
    elif isinstance(old, list) and isinstance(new, list):
        pairs = [(f"{key}[{i}]", x, y)
                 for i, (x, y) in enumerate(itertools.zip_longest(old, new, fillvalue=MISSING))]
    else:
        numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (old, new))
        if old == new or (numbers and math.isnan(old) and math.isnan(new)):
            return []
        rel = f" (rel {abs(new - old) / abs(old) if old else math.inf:.2e})" if numbers else ""
        return [f"{key}: {old!r} -> {new!r}{rel}"]
    return [line for path, x, y in pairs for line in moved_values(x, y, path)]


class _Missing:
    def __repr__(self):
        return "missing"


MISSING = _Missing()


def fingerprint(out: str, code: int) -> dict:
    """One command's exit code, summary.json and output file hashes."""
    record, files = {"exit": code}, {}
    for name in sorted(os.listdir(out)) if os.path.isdir(out) else []:
        with open(os.path.join(out, name), "rb") as fh:
            data = fh.read()
        if name == "summary.json":
            record["summary"] = json.loads(data)
        elif name != "manifest.json":
            files[name] = hashlib.sha256(data).hexdigest()
    record["files"] = files
    return record


def run_commands(workdir: str) -> dict:
    """Run ``COMMANDS`` at ``SEED`` in one fresh interpreter on this checkout;
    returns {"numpy": version, "commands": {label: fingerprint}}."""
    jobs = [([*argv, "--seed", str(SEED)], os.path.join(workdir, str(i)))
            for i, argv in enumerate(COMMANDS.values())]
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, json.dumps(jobs)], env=child_env(ROOT),
        cwd=workdir, check=True, stdout=subprocess.PIPE, text=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    commands = {label: fingerprint(out, code)
                for label, (_, out), code in zip(COMMANDS, jobs, result["codes"])}
    return {"numpy": result["numpy"], "commands": commands}


def misses(golden: dict, current: dict) -> list:
    """Every way ``current`` differs from ``golden``: a numpy mismatch alone,
    or each moved value under its command's label."""
    if golden["numpy"] != current["numpy"]:
        return [f"tests/golden.json was recorded with numpy {golden['numpy']}, this run has "
                f"numpy {current['numpy']}; re-record it with `python3 tools/golden.py "
                f"--record` after checking that the moves are round-off"]
    return [line for label in COMMANDS
            for line in moved_values(golden["commands"].get(label, MISSING),
                                     current["commands"][label], label)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", action="store_true", help=f"rewrite {GOLDEN}")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="golden-") as tmp:
        current = run_commands(tmp)
    if args.record:
        with open(GOLDEN, "w", encoding="utf-8") as fh:
            json.dump(current, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"recorded {len(COMMANDS)} commands to {GOLDEN}")
        return 0
    with open(GOLDEN, encoding="utf-8") as fh:
        found = misses(json.load(fh), current)
    for line in found:
        print(line)
    print(f"{'DIFF' if found else 'same'}: {len(found)} moved values")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
