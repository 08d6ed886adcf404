"""ergolq benchmark: four CLI workloads, end-to-end metrics, layer trace.

Run from the repository root (Python 3.10+, numpy and scipy; nothing is
installed, ``src/`` is put on the child's ``PYTHONPATH``):

    python3 perfbench/run.py --workload scan-constant --seed 7 --seconds 50 --trace 0
        one run of one workload; the last stdout line is the JSON result
        ({"correct", "attempted", "failed", "metrics"}); --trace 1 reports
        the per-layer metrics of a traced invocation instead
    python3 perfbench/run.py [--runs N] [--trace 1] [--out results.json]
        all four workloads, N runs each at seeds 7, 8, ...; prints every
        end-to-end metric by name and unit and writes a result set
    python3 perfbench/run.py --compare parent.json change.json
        one row per workload and metric with both medians and quartiles,
        flagged against the bounds in BENCHMARK.json
    python3 perfbench/run.py --record-reference results.json
        store the default-seed fingerprints of a result set in
        perfbench/reference.json (only when outputs change on purpose)

Every workload invocation is a fresh interpreter running one
``ergolq.cli.main(argv)`` call (closed loop, one client).  BLAS is pinned to
one thread in the child's environment only.  Within a run, invocations
repeat while the next one fits in ``--seconds``; at least one always runs.
Set-up is sampled in every invocation and in extra import-only probes.
Metric names, units and bounds come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

import layers
import report
from workloads import DEFAULT_SEED, WORKLOADS, drift, gate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STATE = os.path.join(ROOT, ".perfbench")
SETUP_PROBES = 1
CHILD_TIMEOUT_S = 170.0
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark itself cannot run (no program, no interpreter)."""


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for key in BLAS_ENV:
        env[key] = "1"
    return env


def _spawn(args: list, workdir: str) -> dict:
    """Run child.py in a fresh interpreter; returns its exit status and rusage."""
    os.makedirs(workdir, exist_ok=True)
    with open(os.path.join(workdir, "stdout.txt"), "wb") as out, open(
        os.path.join(workdir, "stderr.txt"), "wb"
    ) as err:
        spawned = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "child.py"), *args],
            cwd=ROOT, env=_child_env(), stdout=out, stderr=err,
        )
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            # interrupted: leave no interpreter behind
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "spawned": spawned,
        "exit": proc.returncode,
        "elapsed_s": time.monotonic() - spawned,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
    }


def _read_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def _tail(path: str, n: int = 5) -> str:
    try:
        with open(path, encoding="utf-8", errors="replace") as fh:
            return "".join(fh.readlines()[-n:])
    except OSError:
        return ""


def probe(workdir: str) -> dict:
    """One import-only interpreter: a set-up sample plus the library facts."""
    out = os.path.join(workdir, "probe.json")
    proc = _spawn(["probe", out], workdir)
    result = _read_json(out)
    if proc["exit"] != 0 or result is None:
        raise BenchError(
            "cannot import ergolq from src/: " + _tail(os.path.join(workdir, "stderr.txt"))
        )
    return {"setup_s": result["ready"] - proc["spawned"], "facts": result["facts"]}


def invoke(w, seed: int, workdir: str, trace_file: str = None, run_id: str = "") -> dict:
    """One fresh-interpreter CLI invocation of a workload."""
    out_dir = os.path.join(workdir, "out")
    result_file = os.path.join(workdir, "result.json")
    args = ["run", result_file]
    if trace_file:
        args += ["--trace", trace_file, "--run-id", run_id]
    argv = [*w.argv, "--seed", str(seed), "--out", out_dir]
    proc = _spawn([*args, "--", *argv], workdir)
    res = _read_json(result_file)
    inv = {"argv": argv, "peak_rss_mb": proc["peak_rss_mb"], "rc": None}
    if res is not None:
        inv.update(
            rc=res["rc"],
            wall_s=res["wall_s"],
            cpu_s=res["cpu_s"],
            setup_s=res["ready"] - proc["spawned"],
        )
    else:
        inv["stderr"] = _tail(os.path.join(workdir, "stderr.txt"))
    inv["summary"] = _read_json(os.path.join(out_dir, "summary.json"))
    inv["bytes_written"] = sum(
        os.path.getsize(os.path.join(out_dir, f)) for f in os.listdir(out_dir)
    ) if os.path.isdir(out_dir) else 0
    inv["elapsed_s"] = proc["elapsed_s"]
    return inv


def compute_reference(w, workdir: str):
    """The workload's independent reference, computed outside any timing."""
    if not w.needs_reference:
        return None
    out = os.path.join(workdir, "reference.json")
    proc = _spawn(["reference", w.name, out], workdir)
    ref = _read_json(out)
    if proc["exit"] != 0 or ref is None:
        raise BenchError("reference failed: " + _tail(os.path.join(workdir, "stderr.txt")))
    return ref


def machine_facts(library: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        **library,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    """One benchmark run: timed invocations, set-up probes, gate, metrics."""
    w = WORKLOADS[name]
    run_id = f"{name}-s{seed}-{os.getpid()}-{int(time.time())}"
    tmp = os.path.join(STATE, "tmp", run_id)
    load_start = os.getloadavg()
    try:
        invocations = []
        start = time.monotonic()
        while True:
            inv = invoke(w, seed, os.path.join(tmp, f"inv{len(invocations)}"))
            invocations.append(inv)
            used = time.monotonic() - start
            if used + inv["elapsed_s"] > seconds:
                break
        traced = None
        if trace:
            os.makedirs(os.path.join(STATE, "traces"), exist_ok=True)
            trace_file = os.path.join(STATE, "traces", f"{run_id}.json")
            traced = invoke(w, seed, os.path.join(tmp, "traced"), trace_file, run_id)
            traced["trace_file"] = trace_file
        probes = [probe(os.path.join(tmp, f"probe{i}")) for i in range(SETUP_PROBES)]
        reference = compute_reference(w, os.path.join(tmp, "reference"))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    load_end = os.getloadavg()

    ref_fp = _reference_fingerprints().get(name, {}).get(str(seed))
    gates, drifts, errs, fingerprints = [], [], [], None
    for inv in invocations + ([traced] if traced else []):
        g = gate(w, inv["rc"], inv["summary"], reference)
        inv["gate"] = {"passed": g.passed, "ref_rel_err": g.ref_rel_err, "problems": list(g.problems)}
        gates.append(g.passed)
        if g.ref_rel_err is not None:
            errs.append(g.ref_rel_err)
        if inv["summary"] is not None and inv["rc"] == 0:
            fingerprints = w.fingerprints(inv["summary"])
            if ref_fp is not None:
                drifts.append(drift(fingerprints, ref_fp))
        inv.pop("summary")

    ok = [inv for inv in invocations if inv["rc"] is not None]
    setup = [p["setup_s"] for p in probes] + [inv["setup_s"] for inv in ok]
    metrics = {"setup_s": statistics.median(setup)}
    if ok:
        metrics.update(
            wall_s=statistics.median(inv["wall_s"] for inv in ok),
            cpu_s=statistics.median(inv["cpu_s"] for inv in ok),
            peak_rss_mb=statistics.median(inv["peak_rss_mb"] for inv in ok),
        )
    record = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "attempted": len(gates),
        "failed": gates.count(False),
        "metrics": metrics,
        "gates": {
            "failed_share": gates.count(False) / len(gates),
            "ref_rel_err": statistics.median(errs) if errs else None,
            "fingerprint_rel_drift": max(drifts) if drifts else None,
        },
        "fingerprints": fingerprints,
        "machine": machine_facts(probes[0]["facts"]),
        "loadavg_start": load_start,
        "loadavg_end": load_end,
        "setup_samples": setup,
        "invocations": invocations,
    }
    if traced is not None:
        record["traced"] = traced
        record["layers"] = _layer_metrics(traced, invocations, spec)
    return record


def _layer_metrics(traced: dict, invocations: list, spec: dict) -> dict:
    data = _read_json(traced["trace_file"])
    if data is None:
        return {m["name"]: None for m in spec["per_layer"]}
    values = layers.layer_metrics(data)
    values["cli.bytes_written"] = traced["bytes_written"]
    untraced = [inv["wall_s"] for inv in invocations if inv["rc"] is not None]
    values["trace.wall_s"] = data["wall_s"]
    values["trace.overhead_s"] = data["wall_s"] - statistics.median(untraced) if untraced else None
    values["trace.spans"] = len(data["spans"])
    values["trace.missing_wrappers"] = len(data["missing"])
    return values


def _reference_fingerprints() -> dict:
    return _read_json(os.path.join(HERE, "reference.json")) or {}


def record_reference(path: str) -> int:
    results = _read_json(path)
    if results is None:
        print(f"error: cannot read {path}", file=sys.stderr)
        return 2
    stored = _reference_fingerprints()
    for r in results["runs"]:
        if r["seed"] == DEFAULT_SEED and r["failed"] == 0 and r["fingerprints"]:
            stored.setdefault(r["workload"], {})[str(DEFAULT_SEED)] = r["fingerprints"]
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(stored, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"reference fingerprints for {sorted(stored)} written")
    return 0


def result_line(record: dict, spec: dict) -> dict:
    """The one-line JSON result: end-to-end metrics, or per-layer ones when traced."""
    if record["trace"]:
        wanted, values = spec["per_layer"], record["layers"]
    else:
        wanted, values = spec["end_to_end"], record["metrics"]
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]} for m in wanted},
    }


def print_record(record: dict, spec: dict) -> None:
    name = record["workload"]
    labelled = [(f"run {i}", inv) for i, inv in enumerate(record["invocations"])]
    if "traced" in record:
        labelled.append(("traced", record["traced"]))
    for label, inv in labelled:
        g = inv["gate"]
        timing = (
            f"wall {inv['wall_s']:.3f} s, cpu {inv['cpu_s']:.3f} s, setup {inv['setup_s']:.3f} s, "
            if inv["rc"] is not None else "no result, "
        )
        verdict = "ok" if g["passed"] else "FAILED: " + "; ".join(g["problems"])
        print(f"{name} seed {record['seed']} {label}: {timing}peak {inv['peak_rss_mb']:.1f} MB, {verdict}")
        if inv.get("stderr"):
            print(inv["stderr"], file=sys.stderr)
    for m in spec["end_to_end"]:
        value = record["metrics"].get(m["name"])
        text = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name} {m['name']} = {text} {m['unit']}")
    for key, value in record["gates"].items():
        text = "n/a (no reference at this seed)" if value is None else f"{value:.6g}"
        print(f"  {name} {key} = {text} share")
    if "layers" in record:
        print(f"  {name} trace written to {record['traced']['trace_file']}")


def run_suite(args, spec: dict) -> dict:
    runs = []
    for r in range(args.runs):
        for name in WORKLOADS:
            runs.append(run_workload(name, args.seed + r, args.seconds, False, spec))
            print_record(runs[-1], spec)
    if args.trace:
        for name in WORKLOADS:
            runs.append(run_workload(name, args.seed, args.seconds, True, spec))
            print_record(runs[-1], spec)
    return result_set(runs)


def result_set(runs: list) -> dict:
    return {
        "schema": "perfbench-results/1",
        "machine": runs[0]["machine"],
        "loadavg_start": runs[0]["loadavg_start"],
        "loadavg_end": runs[-1]["loadavg_end"],
        "runs": runs,
    }


def _fmt(value) -> str:
    if value is None:
        return "missing"
    return str(value) if isinstance(value, int) else f"{value:.6g}"


def print_suite(results: dict, spec: dict) -> None:
    plain = [r for r in results["runs"] if not r["trace"]]
    print("\nmachine: " + json.dumps(results["machine"], sort_keys=True))
    print(f"load average: start {results['loadavg_start']}, end {results['loadavg_end']}")
    rows = []
    for m in spec["end_to_end"]:
        for w, values in report.by_workload(plain, m["name"]).items():
            rows.append((w, m["name"], m["unit"], report.describe(values)))
    for key in ("failed_share", "ref_rel_err", "fingerprint_rel_drift"):
        for w, values in report.by_workload(plain, key, "gates").items():
            rows.append((w, key, "share", report.describe(values)))
    print(report.format_rows(rows, ("workload", "metric", "unit", "per-run values")))
    traced = [r for r in results["runs"] if r["trace"]]
    if traced:
        rows = []
        for m in spec["per_layer"]:
            rows.append((m["name"], m["unit"], *(_fmt(r["layers"].get(m["name"])) for r in traced)))
        print()
        print(report.format_rows(rows, ("layer metric", "unit", *(r["workload"] for r in traced))))


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=1, help="suite mode: runs per workload")
    parser.add_argument("--out", help="write the result set (JSON) here")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    parser.add_argument("--record-reference", metavar="RESULTS")
    args = parser.parse_args(argv)

    if args.record_reference:
        return record_reference(args.record_reference)

    if args.compare:
        a, b = (_read_json(p) for p in args.compare)
        if a is None or b is None:
            print("error: cannot read both result sets", file=sys.stderr)
            return 2
        rows = report.compare(a, b, spec)
        print(report.format_rows(rows, ("workload", "metric", "unit", "parent", "change", "flag")))
        return 0

    if not os.path.isfile(os.path.join(ROOT, "src", "ergolq", "cli.py")):
        print("error: src/ergolq not found; run from a checkout of the repository", file=sys.stderr)
        return 2
    try:
        if args.workload:
            record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), spec)
            results = result_set([record])
            print_record(record, spec)
            print("machine: " + json.dumps(record["machine"], sort_keys=True))
            print(f"load average: start {record['loadavg_start']}, end {record['loadavg_end']}")
        else:
            results = run_suite(args, spec)
            print_suite(results, spec)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out = args.out
    if out is None and not args.workload:
        out = os.path.join(STATE, time.strftime("results-%Y%m%dT%H%M%S.json", time.gmtime()))
    if out:
        os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(results, fh, indent=1, sort_keys=True)
        print(f"result set written to {out}")
    if args.workload:
        print(json.dumps(result_line(results["runs"][0], spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
