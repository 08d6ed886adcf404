"""Byte-compare the CLI outputs of two checkouts.

    python3 tools/same_outputs.py PARENT CHANGE [--seed 7]

Runs, in both checkouts, the CLI command of each benchmark workload (its
argv is read from this repository's ``perfbench/workloads.py``, which is only
imported), ``simulate``, ``scan --direction v`` and ``ergodic-cost`` on
``scalar-constant``, ``scan`` on ``planar-deterministic-periodic``,
``verify --scenario`` on every catalog scenario and the full ``verify``.
Each command runs in a fresh interpreter with that checkout's
``src/`` on ``PYTHONPATH`` and BLAS pinned to one thread, as the benchmark
runs them.  Every output file is compared byte for byte; the one exception
is ``manifest.json``, whose ``config.out`` field (the output directory) is
dropped before comparing.  Exit codes are compared too, and so is the last
stdout line, with the output directory replaced by ``<out>`` (only the last
line, because verify's per-check lines carry wall times).

Prints one line per command, with each checkout's peak resident set size
(``ru_maxrss`` of the child, read by ``os.wait4``), and exits 1 if any
output differs, else 0.  Under each differing ``summary.json`` it lists
every number that moved, by its key path, as old -> new with the relative
change |new - old| / |old|; under each differing CSV file it lists them the
same way by data row and column, as ``[3].mean_c0``.
A speed change that claims to leave every result alone needs this proof.
Takes about 2.5 minutes on a 2-core VM.
"""

from __future__ import annotations

import argparse
import csv
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS_PY = os.path.join(HERE, os.pardir, "perfbench", "workloads.py")
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CLI = "import sys; from ergolq.cli import main; sys.exit(main(sys.argv[1:]))"


def workload_commands() -> dict:
    """{workload name: CLI argv} from perfbench/workloads.py (stdlib only)."""
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolves the module by name
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return {name: list(w.argv) for name, w in module.WORKLOADS.items()}


def _env(checkout: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(os.path.abspath(checkout), "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    for key in BLAS_ENV:
        env[key] = "1"
    return env


def catalog(checkout: str) -> list:
    code = "from ergolq.coefficients import builtin_scenarios; print(*sorted(builtin_scenarios()))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=_env(checkout), check=True, capture_output=True, text=True
    )
    return out.stdout.split()


def _files(root: str) -> dict:
    found = {}
    for folder, _, names in os.walk(root):
        for name in names:
            path = os.path.join(folder, name)
            found[os.path.relpath(path, root)] = path
    return found


def _content(rel: str, path: str):
    with open(path, "rb") as fh:
        data = fh.read()
    if os.path.basename(rel) != "manifest.json":
        return data
    manifest = json.loads(data)
    manifest.get("config", {}).pop("out", None)
    return manifest


def moved_numbers(old, new, key: str = "") -> list:
    """'key: old -> new (rel r)' for every number that differs between two
    JSON values, found where both hold a dict key or list index; key paths
    read like ``checks.S6.metrics.delta`` and ``k0[0][1]``."""
    if isinstance(old, dict) and isinstance(new, dict):
        pairs = [(f"{key}.{k}" if key else str(k), old[k], new[k]) for k in old if k in new]
    elif isinstance(old, list) and isinstance(new, list):
        pairs = [(f"{key}[{i}]", x, y) for i, (x, y) in enumerate(zip(old, new))]
    else:
        numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (old, new))
        if not numbers or old == new or (math.isnan(old) and math.isnan(new)):
            return []
        rel = abs(new - old) / abs(old) if old else math.inf
        return [f"{key}: {old!r} -> {new!r} (rel {rel:.2e})"]
    return [line for path, x, y in pairs for line in moved_numbers(x, y, path)]


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return cell


def csv_rows(data: bytes) -> list:
    """A CSV file's data rows as {column: cell}, numeric cells as floats."""
    header, *rows = csv.reader(io.StringIO(data.decode("utf-8")))
    return [{col: _number(cell) for col, cell in zip(header, row)} for row in rows]


def differences(left: str, right: str) -> list:
    """Relative paths (with a reason) at which two output trees differ, each
    differing summary.json or CSV file followed by its moved numbers."""
    a, b = _files(left), _files(right)
    problems = [f"{rel}: only in parent" for rel in sorted(set(a) - set(b))]
    problems += [f"{rel}: only in change" for rel in sorted(set(b) - set(a))]
    for rel in sorted(set(a) & set(b)):
        old, new = _content(rel, a[rel]), _content(rel, b[rel])
        if old != new:
            problems.append(f"{rel}: differs")
            if os.path.basename(rel) == "summary.json":
                problems += ["  " + line for line in moved_numbers(json.loads(old), json.loads(new))]
            elif rel.endswith(".csv"):
                problems += ["  " + line for line in moved_numbers(csv_rows(old), csv_rows(new))]
    return problems


def _last_line(path: str, out: str) -> str:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    return lines[-1].replace(out, "<out>") if lines else ""


def run_pair(checkouts: tuple, argv: list, workdir: str) -> tuple:
    """Run argv in both checkouts at once; returns (exit codes, peak RSS in
    MB, out dirs, last stdout lines)."""
    procs, outs = [], []
    for tag, checkout in zip(("parent", "change"), checkouts):
        out = os.path.join(workdir, tag)
        with open(os.path.join(workdir, f"{tag}.stdout"), "wb") as stdout, \
                open(os.path.join(workdir, f"{tag}.stderr"), "wb") as stderr:
            procs.append(subprocess.Popen(
                [sys.executable, "-c", CLI, *argv, "--out", out],
                env=_env(checkout), cwd=workdir, stdout=stdout, stderr=stderr,
            ))
        outs.append(out)
    codes, peaks = [], []
    for proc in procs:
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        codes.append(proc.returncode)
        peaks.append(usage.ru_maxrss / 1024.0)  # KiB on Linux
    lines = tuple(
        _last_line(os.path.join(workdir, f"{tag}.stdout"), out)
        for tag, out in zip(("parent", "change"), outs)
    )
    return tuple(codes), tuple(peaks), outs, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="checkout whose outputs are the reference")
    parser.add_argument("change", help="checkout to compare against it")
    parser.add_argument("--seed", type=int, default=7, help="master seed (default 7)")
    args = parser.parse_args(argv)
    checkouts = (args.parent, args.change)
    commands = workload_commands()
    commands["simulate scalar-constant"] = ["simulate", "--scenario", "scalar-constant"]
    commands["scan scalar-constant v"] = [
        "scan", "--scenario", "scalar-constant", "--direction", "v", "--paths", "2000"
    ]
    # the one scan that streams n = 2 laws, and a path-free eta table of zeros
    commands["scan planar-deterministic-periodic"] = [
        "scan", "--scenario", "planar-deterministic-periodic"
    ]
    commands["ergodic-cost scalar-constant"] = ["ergodic-cost", "--scenario", "scalar-constant"]
    for name in catalog(args.change):
        commands[f"verify {name}"] = ["verify", "--scenario", name]
    commands["verify (battery)"] = ["verify"]

    failed = 0
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as tmp:
        for i, (label, cmd) in enumerate(commands.items()):
            workdir = os.path.join(tmp, str(i))
            os.makedirs(workdir)
            codes, peaks, outs, lines = run_pair(
                checkouts, [*cmd, "--seed", str(args.seed)], workdir
            )
            problems = differences(*outs)
            if lines[0] != lines[1]:
                problems.insert(0, f"last stdout line {lines[0]!r} vs {lines[1]!r}")
            if codes[0] != codes[1]:
                problems.insert(0, f"exit code {codes[0]} vs {codes[1]}")
            n_files = len(_files(outs[1]))
            print(
                f"{'DIFF' if problems else 'same'}  {label} (exit {codes[1]}, {n_files} files; "
                f"peak RSS {peaks[0]:.1f} -> {peaks[1]:.1f} MB)"
            )
            for problem in problems:
                print(f"      {problem}")
            failed += bool(problems)
    print(f"{len(commands) - failed} of {len(commands)} commands give identical outputs")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
