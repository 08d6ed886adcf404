"""Fresh-interpreter side of the benchmark.

Each workload invocation runs in its own interpreter started by ``run.py``
with ``src/`` on ``PYTHONPATH`` and BLAS pinned in its environment:

    child.py probe <out.json>
        import ergolq.cli, record the moment it is ready, report the
        numpy/scipy/BLAS facts, and exit (a set-up sample)
    child.py run <out.json> [--trace <spans.json> --run-id <id>] -- <argv>
        as probe, then time ergolq.cli.main(argv); with --trace the layer
        wrappers are installed first and the spans written afterwards
    child.py reference <workload> <out.json>
        compute the independent reference a workload's gate needs

``ready`` is read from the system-wide monotonic clock, so the parent can
subtract the moment it started the process and obtain the set-up time.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def _write(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def _facts() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def _cpu() -> float:
    """User + system time of every thread, plus waited-for child processes."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def probe(out: str) -> int:
    import ergolq.cli  # noqa: F401  (the import is what is measured)

    ready = time.monotonic()
    _write(out, {"ready": ready, "facts": _facts()})
    return 0


def run(out: str, argv: list, trace_out: str = None, run_id: str = "") -> int:
    import ergolq.cli

    tracer = None
    if trace_out:
        import layers

        tracer = layers.Tracer(run_id)
        layers.install(tracer)
    ready = time.monotonic()
    t0, c0 = time.perf_counter(), _cpu()
    rc = ergolq.cli.main(argv)
    t1, c1 = time.perf_counter(), _cpu()
    wall = t1 - t0
    cpu = c1 - c0
    if tracer is not None:
        tracer.dump(trace_out, wall)
    _write(out, {"rc": rc, "ready": ready, "wall_s": wall, "cpu_s": cpu})
    return 0


def reference(workload: str, out: str) -> int:
    if workload != "riccati-planar":
        raise SystemExit(f"no computed reference for {workload}")
    from ergolq import oracle
    from ergolq.coefficients import builtin_scenarios

    scen = builtin_scenarios()["planar-deterministic-periodic"]
    sol = oracle.periodic_riccati_ode(scen)
    _write(out, {"k0": sol.values[0].tolist()})
    return 0


def main(argv: list) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "probe":
        return probe(rest[0])
    if mode == "reference":
        return reference(rest[0], rest[1])
    if mode == "run":
        sep = rest.index("--")
        opts, cli_argv = rest[:sep], rest[sep + 1:]
        out = opts[0]
        trace_out = opts[opts.index("--trace") + 1] if "--trace" in opts else None
        run_id = opts[opts.index("--run-id") + 1] if "--run-id" in opts else ""
        return run(out, cli_argv, trace_out, run_id)
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
