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

The mean-square certificates (S2, S4, A5 and A9) also print their decay
rate lambda and its delta-method SE for every seed and scenario, and the
summary sets each one's spread over the seeds beside its mean reported SE:
on a path-free loop the SE is 0 and lambda the same on every seed; on
``scalar-random-periodic`` the two should agree if the SE is honest.
S5 prints its relative residual and allowance, and S6 its delta and the
delta's SE, for every seed and scenario; the summary gives each scenario's
tightest S5 margin (allowance minus residual) and smallest S6 delta, with
their seeds.  S6 is exact on the path-free scenarios (SE 0), where its
delta moves over the seeds only with the solved law; on
``scalar-random-periodic`` the seed spread of delta can be set beside its SE.

    PYTHONPATH=src python3 tools/seed_sweep.py

Takes about 6 minutes (17 s a seed) on a 2-core x86-64 VM.  Not part of
the test suite.
"""

from __future__ import annotations

import statistics
import time
from collections import Counter, defaultdict

from scipy.stats import beta

from ergolq.coefficients import builtin_scenarios
from ergolq.verify import run_acceptance, run_scenario_checks

SEEDS = range(1, 21)
RATE_CHECKS = ("S2", "S4", "A5", "A9")
# the forward checks' metrics printed per seed, and the summary's reading:
# check -> (metric names, the per-seed value the summary minimises)
FORWARD_CHECKS = {
    "S5": (("rel_residual", "allow"), lambda m: m["allow"] - m["rel_residual"]),
    "S6": (("delta", "delta_se"), lambda m: m["delta"]),
}


def failure_interval(failed: int, n: int, level: float = 0.95) -> tuple:
    """Clopper-Pearson interval for a binomial failure rate."""
    alpha = 1.0 - level
    low = 0.0 if failed == 0 else float(beta.ppf(alpha / 2, failed, n - failed + 1))
    high = 1.0 if failed == n else float(beta.ppf(1 - alpha / 2, failed + 1, n - failed))
    return low, high


def certificate_rates(name: str, out) -> dict:
    """{scenario: (lambda, SE)} of a certificate check's metrics: a scenario
    check reports "lambda", A5 and A9 one "lambda_<scenario>" per scenario."""
    m = out.metrics
    if "lambda" in m:
        return {name: (m["lambda"], m["lambda_se"])}
    return {
        key[len("lambda_"):]: (val, m[f"lambda_se_{key[len('lambda_'):]}"])
        for key, val in m.items()
        if key.startswith("lambda_") and not key.startswith("lambda_se_")
    }


def main() -> None:
    scenarios = builtin_scenarios()
    runs, passes = Counter(), Counter()
    rates = defaultdict(list)  # (check, scenario) -> [(lambda, SE) per seed]
    tightest = defaultdict(list)  # (check, scenario) -> [(margin or delta, seed)]
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
            if out.check_id in RATE_CHECKS:
                for scen, (lam, se) in certificate_rates(name, out).items():
                    rates[(out.check_id, scen)].append((lam, se))
                    print(f"seed {seed} {out.check_id} {scen}: lambda={lam:.4f} +- {se:.4f}")
            keys, reading = FORWARD_CHECKS.get(out.check_id, ((), None))
            if keys and all(key in out.metrics for key in keys):
                values = " ".join(f"{key}={out.metrics[key]:.4f}" for key in keys)
                print(f"seed {seed} {out.check_id} {name}: {values}")
                tightest[(out.check_id, name)].append((reading(out.metrics), seed))
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

    print(f"\n{'check':<6} {'scenario':<30} {'mean lambda':>11} {'seed sd':>8} {'mean SE':>8}")
    for (check_id, scen), values in sorted(rates.items()):
        lams = [lam for lam, _ in values]
        spread = statistics.stdev(lams) if len(lams) > 1 else 0.0
        print(
            f"{check_id:<6} {scen:<30} {statistics.fmean(lams):>11.4f} {spread:>8.4f}"
            f" {statistics.fmean(se for _, se in values):>8.4f}"
        )

    print(f"\n{'check':<6} {'scenario':<30} {'min S5 margin / S6 delta':>24} {'seed':>5}")
    for (check_id, name), values in sorted(tightest.items()):
        low, seed = min(values)
        print(f"{check_id:<6} {name:<30} {low:>24.4f} {seed:>5}")


if __name__ == "__main__":
    main()
