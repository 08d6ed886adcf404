"""Pass rates of the statistical checks across master seeds.

Runs acceptance check A1 and the scenario checks S1-S6 of
``run_scenario_checks`` (CLI defaults: 4096 paths, tol 1e-7) on every
catalog scenario for master seeds 1-20, prints every failure as it happens,
then one line per check and scenario with its pass count.  Gates and seeds
are those of ``ergolq verify``; nothing is tuned here.  A check that a
failed earlier step skipped counts as not run, not as failed.

    PYTHONPATH=src python3 tools/seed_sweep.py

Takes about eight minutes (25 s a seed) on a 2-core x86-64 VM.  Not part
of the test suite.
"""

from __future__ import annotations

import time
from collections import Counter

from ergolq.coefficients import builtin_scenarios
from ergolq.verify import run_acceptance, run_scenario_checks

SEEDS = range(1, 21)


def main() -> None:
    scenarios = builtin_scenarios()
    runs, passes, errors = Counter(), Counter(), Counter()
    t0 = time.time()
    for seed in SEEDS:
        results = [("scalar-moment-decay", out) for out in run_acceptance(seed, only=["A1"])]
        for name, scen in scenarios.items():
            try:
                results += [(name, out) for out in run_scenario_checks(scen, seed=seed)]
            except Exception as exc:  # the checks this scenario did not reach count as not run
                print(f"seed {seed} {name}: error {type(exc).__name__}: {exc}")
                errors[name] += 1
        for name, out in results:
            runs[(out.check_id, name)] += 1
            passes[(out.check_id, name)] += out.passed
            if not out.passed:
                print(f"seed {seed} {name}: {out.line()}")
        print(f"seed {seed} done [{time.time() - t0:.0f}s]", flush=True)

    print(f"\n{'check':<6} {'scenario':<30} {'passed':>6} {'run':>4} {'not run':>7}")
    for check_id, name in sorted(runs):
        n_run = runs[(check_id, name)]
        print(
            f"{check_id:<6} {name:<30} {passes[(check_id, name)]:>6} {n_run:>4} "
            f"{len(SEEDS) - n_run:>7}"
        )
    for name, count in sorted(errors.items()):
        print(f"{name}: {count} run(s) raised")


if __name__ == "__main__":
    main()
