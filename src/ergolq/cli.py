"""Batch front door: scenario configs in, solver pipelines out.

Subcommands
    simulate      closed-loop trajectories plus a mean-square stability report
    solve-riccati periodic Riccati fixed point plus residual audit
    ergodic-cost  optimal feedback, predicted value and simulated cost
    verify        acceptance battery (full, or one scenario's subset)
    scan          ergodic cost along a feedback perturbation line

Every run resolves its configuration (defaults < config file < flags),
creates the output directory, writes manifest.json first, then the data
files.  Each subcommand returns its exit code, summary body and stdout line,
and one skeleton in main writes summary.json and prints "<line> -> <out>".
Timing never enters the persisted artifacts, so rerunning a manifest
reproduces every output byte for byte.

Exit codes: 0 success, 1 failed verification or diverged solve, 2 bad
configuration.  The default output root is $ERGOLQ_OUT_ROOT (else ./runs).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from typing import Optional

import numpy as np

from . import __version__
from .bsde_engine import export_node_table_csv
from .coefficients import (
    CoefficientError,
    ScenarioFormatError,
    builtin_scenarios,
    check_positivity,
    load_scenario,
    parse_scenario,
    serialize_scenario,
)
from .ergodic import (
    burn_in_state,
    export_scan_csv,
    fit_quadratic_excess,
    optimal_feedback,
    optimality_scan,
    single_period_cost,
    value_function,
)
from .riccati import (
    default_stabilizer,
    riccati_residual,
    solve_stochastic_riccati,
    stabilizer_check,
)
from .sde_engine import (
    PathBundle,
    derive_seed,
    export_moments_csv,
    export_trajectory_csv,
    simulate_closed_loop,
)
from .verify import CHECK_IDS, RUN_ERRORS, run_acceptance, run_scenario_checks, scenario_check_ids

SUMMARY_SCHEMA = "ergolq-summary/1"
MANIFEST_SCHEMA = "ergolq-run/1"

# scan solves its Riccati law on at most this many paths
_SCAN_SOLVE_PATHS = 8192


class ConfigError(ValueError):
    """Anything wrong with flags, config files or scenario resolution."""


@dataclasses.dataclass
class RunConfig:
    """Everything needed to reproduce a run (persisted in the manifest)."""

    command: str
    scenario: Optional[str] = None
    scenario_text: Optional[str] = None
    seed: int = 7
    n_paths: int = 4096
    steps_per_period: int = 64
    n_periods: int = 12
    tol: float = 1e-7
    out: Optional[str] = None
    options: dict = dataclasses.field(default_factory=dict)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _load_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}")
    if isinstance(data, dict) and data.get("schema") == MANIFEST_SCHEMA:
        data = data.get("config", {})
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return data


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    layered = RunConfig(command=args.command, n_paths=_COMMANDS[args.command][2]).to_dict()
    if args.config:
        file_values = _load_config_file(args.config)
        unknown = set(file_values) - set(layered)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        layered.update((k, v) for k, v in file_values.items() if k != "command")
    if args.scenario is not None:
        # a fresh scenario flag invalidates any serialized text from a config file
        layered["scenario_text"] = None
    for key in layered:
        val = getattr(args, key, None)
        if val is not None:
            layered[key] = val
    if not isinstance(layered.get("options"), dict):
        raise ConfigError("config key 'options' must be an object")
    for key in ("eps_grid", "direction", "checks"):
        val = getattr(args, key, None)
        if val is not None:
            layered["options"][key] = val
    cfg = RunConfig(**layered)
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig) -> None:
    for key in ("scenario", "scenario_text", "out"):
        if not isinstance(getattr(cfg, key), (str, type(None))):
            raise ConfigError(f"{key} must be a string")
    for key in ("seed", "n_paths", "steps_per_period", "n_periods"):
        if type(getattr(cfg, key)) is not int:
            raise ConfigError(f"{key} must be an integer")
    if type(cfg.tol) not in (int, float):
        raise ConfigError("tol must be a number")
    if cfg.n_paths < 2:
        raise ConfigError("--paths must be at least 2")
    if cfg.steps_per_period < 2:
        raise ConfigError("--steps-per-period must be at least 2")
    if cfg.n_periods < 1:
        raise ConfigError("--periods must be at least 1")
    if not cfg.tol > 0:
        raise ConfigError("--tol must be positive")
    if not 0 <= cfg.seed < 2**64:
        raise ConfigError("--seed must be in [0, 2**64)")
    antithetic = {"solve-riccati": True, "ergodic-cost": True, "verify": cfg.scenario is not None,
                  "scan": cfg.n_paths < _SCAN_SOLVE_PATHS}
    if cfg.n_paths % 2 and antithetic.get(cfg.command):
        raise ConfigError("--paths must be even: the Riccati solve uses antithetic pairs")
    if cfg.command == "scan":
        eps_text = cfg.options.get("eps_grid", "-0.2,-0.1,0,0.1,0.2")
        try:
            grid = [float(tok) for tok in str(eps_text).split(",") if tok.strip()]
        except ValueError:
            raise ConfigError(f"bad --eps-grid {eps_text!r}")
        if 0.0 not in grid:
            raise ConfigError("--eps-grid must contain 0 (the reference gain)")
        if sum(1 for e in grid if e != 0.0) < 3:
            raise ConfigError(
                "--eps-grid needs at least three nonzero points "
                "for the quadratic fit"
            )
        cfg.options["eps_grid_values"] = grid
        direction = cfg.options.get("direction", "theta")
        if direction not in ("theta", "v"):
            raise ConfigError("--direction must be theta or v")
    if cfg.command == "verify" and cfg.options.get("checks"):
        if cfg.scenario is not None:
            raise ConfigError("--checks applies to the full battery; drop --scenario")
        wanted = [c.strip().upper() for c in str(cfg.options["checks"]).split(",")]
        bad = set(wanted) - set(CHECK_IDS)
        if bad:
            raise ConfigError(f"unknown checks {sorted(bad)}; valid: {CHECK_IDS}")
        cfg.options["checks_list"] = wanted


def _resolve_scenario(cfg: RunConfig):
    """Returns the coefficient set, storing serialized text for file inputs."""
    if cfg.scenario_text is not None:
        return parse_scenario(cfg.scenario_text)
    if cfg.scenario is None:
        return None
    catalog = builtin_scenarios()
    if cfg.scenario in catalog:
        return catalog[cfg.scenario]
    if os.path.exists(cfg.scenario):
        try:
            scen = load_scenario(cfg.scenario)
        except (ScenarioFormatError, CoefficientError) as exc:
            raise ConfigError(f"bad scenario file {cfg.scenario}: {exc}")
        cfg.scenario_text = serialize_scenario(scen)
        return scen
    raise ConfigError(
        f"unknown scenario {cfg.scenario!r}: not a catalog name "
        f"({', '.join(sorted(catalog))}) and not a file"
    )


def _out_dir(cfg: RunConfig) -> str:
    if cfg.out:
        return cfg.out
    root = os.environ.get("ERGOLQ_OUT_ROOT", "runs")
    scen = cfg.scenario or "full"
    scen = os.path.basename(scen).replace(".ini", "")
    return os.path.join(root, f"{cfg.command}-{scen}-s{cfg.seed}")


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_manifest(out_dir: str, cfg: RunConfig) -> None:
    manifest = {
        "schema": MANIFEST_SCHEMA,
        "command": cfg.command,
        "config": cfg.to_dict(),
        "versions": {
            "ergolq": __version__,
            "python": ".".join(map(str, sys.version_info[:3])),
            "numpy": np.__version__,
        },
    }
    _write_json(os.path.join(out_dir, "manifest.json"), manifest)


def _report_dict(report) -> dict:
    # an operator estimate fits no line: r_squared and n_points keep their
    # keys with fixed values (one operator spans the period ends 0 and tau)
    return {
        "lambda_hat": report.lambda_hat,
        "lambda_ci": [report.ci_low, report.ci_high],
        "beta_hat": report.beta_hat,
        "r_squared": 1.0,
        "stable": report.stable,
        "n_points": 2,
    }


# ---------------------------------------------------------------------------
# subcommand bodies (scenario resolved, out_dir exists, manifest written);
# each returns (exit code, summary body, stdout line), or (exit code, None,
# message) when it fails without a summary


def _solve(cfg: RunConfig, scen, seed: int, n_paths: int):
    """Riccati solve on an antithetic one-period bundle."""
    bundle = PathBundle.undrawn(
        seed, n_paths, cfg.steps_per_period, 1, tau=scen.tau, antithetic=True
    )
    return solve_stochastic_riccati(scen, bundle, tol=cfg.tol)


def _cmd_simulate(cfg: RunConfig, scen, out_dir: str) -> tuple:
    law = default_stabilizer(
        scen, seed=derive_seed(cfg.seed, "stabilizer"), steps_per_period=cfg.steps_per_period
    )
    bundle = PathBundle.generate(
        cfg.seed, cfg.n_paths, cfg.steps_per_period, cfg.n_periods, tau=scen.tau
    )
    x0 = np.ones(scen.n)
    traj = simulate_closed_loop(scen, law, x0, bundle)
    # stability is a property of the homogeneous loop; the forced trajectory
    # plateaus at its stationary moment and would report "no decay"
    report = stabilizer_check(
        scen,
        law,
        derive_seed(cfg.seed, "stability"),
        steps_per_period=cfg.steps_per_period,
    )
    export_moments_csv(traj, os.path.join(out_dir, "moments.csv"))
    export_trajectory_csv(
        traj, os.path.join(out_dir, "trajectories.csv"), max_paths=min(cfg.n_paths, 20)
    )
    body = {
        "feedback": law.label,
        "stability": _report_dict(report),
        "overflow_paths": int(traj.overflow.sum()),
        "files": ["moments.csv", "trajectories.csv"],
    }
    return 0, body, f"lambda_hat={report.lambda_hat:.4f} (stable: {report.stable})"


def _cmd_solve_riccati(cfg: RunConfig, scen, out_dir: str) -> tuple:
    ric = _solve(cfg, scen, cfg.seed, cfg.n_paths)
    res = riccati_residual(ric)
    export_node_table_csv(ric.k_solution, os.path.join(out_dir, "riccati_nodes.csv"))
    body = {
        "k0": ric.fixed_point.tolist(),
        "k0_se": ric.fixed_point_se,
        "n_policies": ric.n_policies,
        "policy_gaps": ric.policy_gaps,
        "monotone_gaps": ric.monotone_gaps,
        "residual": {
            "rel_max_defect": res.rel_max_defect,
            "periodic_gap": res.periodic_gap,
            "scale": res.scale,
        },
        "stability": _report_dict(ric.stability),
        "files": ["riccati_nodes.csv"],
    }
    return 0, body, (
        f"K0={np.array2string(ric.fixed_point, precision=6)} "
        f"({ric.n_policies} policies, defect {res.rel_max_defect:.2e})"
    )


def _cmd_ergodic_cost(cfg: RunConfig, scen, out_dir: str) -> tuple:
    ric = _solve(cfg, scen, cfg.seed, cfg.n_paths)
    opt = optimal_feedback(ric)
    val = value_function(opt)
    state = burn_in_state(
        scen,
        opt.feedback,
        derive_seed(cfg.seed, "state"),
        max(cfg.n_paths, 8192),
        steps_per_period=cfg.steps_per_period,
        lambda_hat=ric.stability.lambda_hat,
    )
    cost = single_period_cost(state)
    gap = val.value - cost.value
    export_node_table_csv(opt.eta_solution, os.path.join(out_dir, "eta_nodes.csv"))
    body = {
        "value": val.value,
        "value_se": val.se,
        "value_solver_floor": val.solver_floor,
        "mc_cost": cost.value,
        "mc_cost_se": cost.se,
        "gap": gap,
        "gap_in_se": abs(gap) / max((val.se**2 + cost.se**2) ** 0.5, 1e-300),
        "burn_in_periods": state.k_burn,
        "k0": ric.fixed_point.tolist(),
        "files": ["eta_nodes.csv"],
    }
    return 0, body, (
        f"value={val.value:.6f} (+-{val.se:.2e}), mc={cost.value:.6f} "
        f"(+-{cost.se:.2e}), gap {body['gap_in_se']:.2f} SE"
    )


def _cmd_scan(cfg: RunConfig, scen, out_dir: str) -> tuple:
    direction = cfg.options.get("direction", "theta")
    ric = _solve(cfg, scen, derive_seed(cfg.seed, "solve"), min(cfg.n_paths, _SCAN_SOLVE_PATHS))
    opt = optimal_feedback(ric)
    val = value_function(opt)
    if direction == "theta":
        d_theta, d_v = np.ones((scen.m, scen.n)) / np.sqrt(scen.m * scen.n), None
    else:
        d_theta, d_v = None, np.ones(scen.m) / np.sqrt(scen.m)
    scan = optimality_scan(
        scen,
        opt.feedback,
        d_theta,
        d_v,
        cfg.options["eps_grid_values"],
        seed=cfg.seed,
        n_paths=cfg.n_paths,
        steps_per_period=cfg.steps_per_period,
        lambda_hat=ric.stability.lambda_hat,
    )
    export_scan_csv(scan, os.path.join(out_dir, "scan.csv"))
    try:
        fit = fit_quadratic_excess(scan)
    except ValueError as exc:
        # overflowed points can thin a valid grid below the fit's minimum
        return 1, None, str(exc)
    body = {
        "direction": direction,
        "eps_star": scan.eps_star,
        "k_burn": scan.k_burn,
        "value": val.value,
        "value_se": val.se,
        "quadratic_fit": {
            "linear": fit.linear,
            "linear_se": fit.linear_se,
            "curvature": fit.curvature,
            "curvature_se": fit.curvature_se,
            "chi2_dof": fit.chi2_dof,
        },
        "files": ["scan.csv"],
    }
    return 0, body, f"eps*={scan.eps_star:g}, curvature {fit.curvature:.4f}+-{fit.curvature_se:.4f}"


def _cmd_verify(cfg: RunConfig, scen, out_dir: str) -> tuple:
    if cfg.scenario is None:
        outcomes = run_acceptance(seed=cfg.seed, only=cfg.options.get("checks_list"), echo=print)
    else:
        outcomes = run_scenario_checks(
            scen, seed=cfg.seed, n_paths=cfg.n_paths, tol=cfg.tol, echo=print
        )
        extra = scenario_check_ids(cfg.scenario)
        if extra:
            outcomes.extend(run_acceptance(seed=cfg.seed, only=extra, echo=print))
    ok = all(o.passed for o in outcomes)
    with open(os.path.join(out_dir, "checks.csv"), "w", encoding="utf-8") as fh:
        fh.write("check_id,passed,label,detail\n")
        for o in outcomes:
            detail = o.detail.replace('"', "'")
            fh.write(f'{o.check_id},{int(o.passed)},"{o.label}","{detail}"\n')
    body = {
        "passed": ok,
        "n_checks": len(outcomes),
        "n_failed": sum(not o.passed for o in outcomes),
        "checks": [
            {
                "check_id": o.check_id,
                "label": o.label,
                "passed": o.passed,
                "detail": o.detail,
                "metrics": o.metrics,
            }
            for o in outcomes
        ],
        "files": ["checks.csv"],
    }
    return (0 if ok else 1), body, "ALL CHECKS PASSED" if ok else "CHECKS FAILED"


# name -> (runner, needs a scenario, default path count, help, extra flags)
_COMMANDS = {
    "simulate": (_cmd_simulate, True, 4096, "closed-loop paths + stability report", ()),
    "solve-riccati": (
        _cmd_solve_riccati, True, 4096, "periodic Riccati fixed point + residual", ()
    ),
    "ergodic-cost": (
        _cmd_ergodic_cost, True, 8192, "optimal feedback, value and simulated cost", ()
    ),
    "scan": (_cmd_scan, True, 20000, "ergodic cost along a gain perturbation line", (
        ("--eps-grid", dict(help="comma list containing 0")),
        ("--direction", dict(choices=("theta", "v"), help="perturb gain or offset")),
    )),
    "verify": (_cmd_verify, False, 4096, "acceptance battery (exit 0 iff all pass)", (
        ("--checks", dict(help="comma list like A1,A3 (full battery only)")),
    )),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ergolq",
        description="Ergodic linear-quadratic control with random periodic coefficients",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    # each dest is the RunConfig field the flag sets
    for name, (_, _, _, help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--scenario", help="catalog name or scenario file path")
        p.add_argument("--config", help="JSON config or an emitted manifest.json")
        p.add_argument("--seed", type=int, help="master seed (default 7)")
        p.add_argument(
            "--paths", dest="n_paths", metavar="PATHS", type=int, help="Monte Carlo path count"
        )
        p.add_argument("--steps-per-period", type=int, help="grid nodes per period (default 64)")
        p.add_argument(
            "--periods", dest="n_periods", metavar="PERIODS", type=int,
            help="horizon in periods where applicable",
        )
        p.add_argument("--out", help="output directory (default under $ERGOLQ_OUT_ROOT)")
        p.add_argument("--tol", type=float, help="solver tolerance (default 1e-7)")
        for flag, kwargs in flags:
            p.add_argument(flag, **kwargs)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve_config(args)
        scen = _resolve_scenario(cfg)
        runner, needs_scenario = _COMMANDS[cfg.command][:2]
        if needs_scenario and scen is None:
            raise ConfigError(f"{cfg.command} requires --scenario (or a config with one)")
        if scen is not None:
            pos = check_positivity(scen)
            if not pos.passed:
                raise ConfigError(
                    f"scenario fails the positivity requirement "
                    f"(min eig R {pos.min_eig_R:.3e}, reduced cost {pos.min_eig_cost:.3e})"
                )
    except (ConfigError, CoefficientError, ScenarioFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    out_dir = _out_dir(cfg)
    os.makedirs(out_dir, exist_ok=True)
    _write_manifest(out_dir, cfg)
    try:
        rc, body, line = runner(cfg, scen, out_dir)
    except RUN_ERRORS as exc:
        rc, body, line = 1, None, str(exc)
    if body is None:
        print(f"failed: {line}", file=sys.stderr)
        return rc
    summary = {"schema": SUMMARY_SCHEMA, "command": cfg.command, "scenario": cfg.scenario,
               "seed": cfg.seed, **body}
    _write_json(os.path.join(out_dir, "summary.json"), summary)
    print(f"{line} -> {out_dir}")
    return rc


if __name__ == "__main__":
    sys.exit(main())
