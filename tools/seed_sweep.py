"""Pass rates of the statistical checks across master seeds.

Runs the acceptance battery A1-A10 and the scenario checks S1-S6 of
``run_scenario_checks`` (CLI defaults: 4096 paths, tol 1e-7) on every
catalog scenario for master seeds 1-20, prints every failure as it happens,
then one line per check and scenario with its pass count and a 95%
Clopper-Pearson interval on the failure rate.  Gates and seeds are those
of ``ergolq verify``; nothing is tuned here.  The battery runs through
``run_acceptance`` and ``run_scenario_checks``, so a check that raises a
solver error fails, exactly as ``ergolq verify`` reports it, and any other
error stops the sweep.  A scenario check that did not run because an
earlier one raised counts as not run, not as failed.

    PYTHONPATH=src python3 tools/seed_sweep.py

Takes about 12 minutes (36 s a seed) on a 2-core x86-64 VM.  Not part of
the test suite.
"""

from __future__ import annotations

import time
from collections import Counter

from scipy.stats import beta

from ergolq.coefficients import builtin_scenarios
from ergolq.verify import run_acceptance, run_scenario_checks

SEEDS = range(1, 21)


def failure_interval(failed: int, n: int, level: float = 0.95) -> tuple:
    """Clopper-Pearson interval for a binomial failure rate."""
    alpha = 1.0 - level
    low = 0.0 if failed == 0 else float(beta.ppf(alpha / 2, failed, n - failed + 1))
    high = 1.0 if failed == n else float(beta.ppf(1 - alpha / 2, failed + 1, n - failed))
    return low, high


def main() -> None:
    scenarios = builtin_scenarios()
    runs, passes = Counter(), Counter()
    t0 = time.time()
    for seed in SEEDS:
        results = [("battery", out) for out in run_acceptance(seed)]
        for name, scen in scenarios.items():
            results += [(name, out) for out in run_scenario_checks(scen, seed=seed)]
        for name, out in results:
            runs[(out.check_id, name)] += 1
            passes[(out.check_id, name)] += out.passed
            if not out.passed:
                print(f"seed {seed} {name}: {out.line()}")
        print(f"seed {seed} done [{time.time() - t0:.0f}s]", flush=True)

    print(
        f"\n{'check':<6} {'scenario':<30} {'passed':>6} {'run':>4} {'not run':>7}"
        f"  failure rate 95% CI"
    )
    for check_id, name in sorted(runs, key=lambda key: (key[0][0], int(key[0][1:]), key[1])):
        n_run = runs[(check_id, name)]
        n_pass = passes[(check_id, name)]
        low, high = failure_interval(n_run - n_pass, n_run)
        print(
            f"{check_id:<6} {name:<30} {n_pass:>6} {n_run:>4} {len(SEEDS) - n_run:>7}"
            f"  [{low:.3f}, {high:.3f}]"
        )


if __name__ == "__main__":
    main()
