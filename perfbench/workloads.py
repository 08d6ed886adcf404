"""The four benchmark workloads and their correctness gates.

Each workload is one ``ergolq`` CLI pipeline on a catalog scenario with the
CLI defaults, run closed loop by a single client.  The one exception is the
path count of ``scan-constant``: 2000 instead of 20000, so that an
invocation takes about 6 s rather than 30 s and a run reports the median of
several invocations instead of a single one.

``BENCHMARK.json`` lists two of the four, ``scan-constant`` and
``verify-moment-decay``; the other two run in suite mode only.  On a shared
two-core machine the speed of each core drifts by 20-40 % over minutes, so a
run needs about 50 s and several invocations for a steady median, and every
listed workload is one more set of runs that such a drift can spoil.  The
two listed workloads still reach every layer: the forward closed-loop
kernel, degree-0 sweeps and the ergodic scan on the first; noise,
fundamental, contraction and Gram streams, the representation check, the
Riccati certificates and the verify layer on the second.  Left to suite
mode: degree-3 regressions, burn-in and cost (``ergodic-random``) and the
planar 2x2 case with harmonic coefficients (``riccati-planar``).

After an invocation its ``summary.json`` is gated (exit code, the command's
own verdicts, and the headline number against an independent reference) and
reduced to a set of numeric fingerprints, which are compared against the
ones recorded at the default seed in ``reference.json``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

DEFAULT_SEED = 7
SCALAR_VALUE = math.sqrt(2.0) - 0.5  # closed-form value on "scalar-constant"
# fingerprints smaller than this are compared absolutely (round-off level)
DRIFT_FLOOR = 1e-6


@dataclass(frozen=True)
class Gate:
    """Outcome of one invocation's correctness check."""

    passed: bool
    ref_rel_err: Optional[float]
    problems: tuple = ()


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple
    check: Callable          # (summary, reference) -> (problems, ref_rel_err)
    fingerprints: Callable   # summary -> {name: float}
    needs_reference: bool = False


def _check_riccati_planar(s, ref):
    problems = []
    if not s["stability"]["stable"]:
        problems.append("closed-loop certificate not stable")
    if not (s["residual"]["rel_max_defect"] < 1e-3 and s["residual"]["periodic_gap"] < 1e-3):
        problems.append("Riccati residual above 1e-3")
    k0, k_ode = s["k0"], ref["k0"]
    diff = math.sqrt(sum((a - b) ** 2 for ra, rb in zip(k0, k_ode) for a, b in zip(ra, rb)))
    norm = math.sqrt(sum(b * b for rb in k_ode for b in rb))
    err = diff / norm
    if err > 0.05:  # the matrix-equation tolerance of acceptance check A2
        problems.append(f"K0 differs from the periodic Riccati ODE by {err:.3e} > 0.05")
    return problems, err


def _check_ergodic(s, ref):
    problems = []
    if s["gap_in_se"] > 4.0:
        problems.append(f"predicted value {s['gap_in_se']:.2f} SE from the simulated cost")
    return problems, abs(s["value"] - s["mc_cost"]) / abs(s["mc_cost"])


def _check_scan(s, ref):
    problems = []
    fit = s["quadratic_fit"]
    if not fit["curvature"] > 1.96 * fit["curvature_se"]:
        problems.append("scan curvature not significantly positive")
    gap = abs(s["value"] - SCALAR_VALUE)
    if gap > max(4.0 * s["value_se"], 1e-6 * SCALAR_VALUE):
        problems.append(f"value {s['value']:.9f} vs sqrt(2)-1/2 off by {gap:.2e}")
    return problems, gap / SCALAR_VALUE


def _check_verify(s, ref):
    problems = [f"{c['check_id']} failed" for c in s["checks"] if not c["passed"]]
    if not s["passed"] or s["n_failed"]:
        problems.append("verify verdict is not a pass")
    a1 = next(c["metrics"] for c in s["checks"] if c["check_id"] == "A1")
    return problems, abs(a1["mc_1"] - a1["ref_1"]) / a1["ref_1"]


def _fp_riccati(s):
    out = {f"k0[{i}][{j}]": v for i, row in enumerate(s["k0"]) for j, v in enumerate(row)}
    out["n_policies"] = s["n_policies"]
    return out


def _fp_ergodic(s):
    out = {f"k0[{i}][{j}]": v for i, row in enumerate(s["k0"]) for j, v in enumerate(row)}
    out.update(value=s["value"], mc_cost=s["mc_cost"], burn_in_periods=s["burn_in_periods"])
    return out


def _fp_scan(s):
    return {
        "value": s["value"],
        "eps_star": s["eps_star"],
        "curvature": s["quadratic_fit"]["curvature"],
        "linear": s["quadratic_fit"]["linear"],
        "k_burn": s["k_burn"],
    }


def _fp_verify(s):
    return {f"{c['check_id']}.{k}": v for c in s["checks"] for k, v in c["metrics"].items()}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "riccati-planar",
            ("solve-riccati", "--scenario", "planar-deterministic-periodic"),
            _check_riccati_planar,
            _fp_riccati,
            needs_reference=True,
        ),
        Workload(
            "ergodic-random",
            ("ergodic-cost", "--scenario", "scalar-random-periodic"),
            _check_ergodic,
            _fp_ergodic,
        ),
        Workload(
            "scan-constant",
            ("scan", "--scenario", "scalar-constant", "--eps-grid=-0.2,-0.1,0,0.1,0.2",
             "--paths", "2000"),
            _check_scan,
            _fp_scan,
        ),
        Workload(
            "verify-moment-decay",
            ("verify", "--scenario", "scalar-moment-decay"),
            _check_verify,
            _fp_verify,
        ),
    )
}


def gate(w: Workload, rc: Optional[int], summary: Optional[dict], reference: Optional[dict]):
    """Failed on a nonzero exit, a failed verdict or a missed reference."""
    if rc is None:
        return Gate(False, None, ("no result: the interpreter died",))
    if rc != 0:
        return Gate(False, None, (f"exit code {rc}",))
    if summary is None:
        return Gate(False, None, ("summary.json missing",))
    problems, err = w.check(summary, reference)
    return Gate(not problems, err, tuple(problems))


def drift(fingerprints: dict, reference: dict) -> float:
    """Largest relative deviation from reference fingerprints."""
    if set(fingerprints) != set(reference):
        return math.inf
    return max(
        (abs(v - reference[k]) / max(abs(reference[k]), DRIFT_FLOOR) for k, v in fingerprints.items()),
        default=0.0,
    )
