"""Acceptance battery: end-to-end checks of the whole solve-verify chain.

Each check is a pure function of a seeded context, returns a CheckOutcome
with a one-line verdict, and states its tolerance explicitly.  Checks
A1..A10 form the full battery; run_scenario_checks applies the
scenario-independent subset (positivity, stabilizer, Riccati convergence,
contraction, representation) to any single scenario.

Statistical checks use derived seeds so that every random input is pinned
by the master seed; the battery is deterministic end to end.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from . import oracle
from .bsde_engine import (
    ConvergenceError,
    RegressionError,
    representation_check,
    solve_linear_matrix_bsde,
)
from .coefficients import (
    PeriodicCoefficientSet,
    builtin_scenarios,
    check_positivity,
    constant_coeff,
    perturbed_feedback,
)
from .ergodic import (
    BurnInError,
    burn_in_state,
    completion_identity_check,
    finite_horizon_cost,
    fit_quadratic_excess,
    optimal_feedback,
    optimality_scan,
    single_period_cost,
    value_function,
)
from .riccati import (
    _policy_gain,
    _policy_problem,
    default_stabilizer,
    riccati_residual,
    solve_stochastic_riccati,
    stabilizer_check,
)
from .sde_engine import (
    PathBundle,
    SimulationError,
    contraction_check,
    derive_seed,
    estimate_gram_lower_bound,
    fundamental_squared_norms,
    mean_se,
)

SQRT2_M1 = math.sqrt(2.0) - 1.0
GOLDEN_M1 = (math.sqrt(5.0) - 1.0) / 2.0
# stationary value chain for "scalar-constant": K + 2 eta - eta^2 with
# K = sqrt(2) - 1 and eta = 1 - 1/sqrt(2), which collapses to sqrt(2) - 1/2
SCALAR_VALUE = math.sqrt(2.0) - 0.5  # 0.9142135623...
# the typed failures of a solve or simulation: a check that raises one fails
RUN_ERRORS = (ConvergenceError, RegressionError, SimulationError, BurnInError)


@dataclass
class CheckOutcome:
    check_id: str
    label: str
    passed: bool
    detail: str
    elapsed_s: float
    metrics: Dict[str, float] = field(default_factory=dict)

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return f"{self.check_id} {verdict} {self.label}: {self.detail} [{self.elapsed_s:.1f}s]"


class AcceptanceContext:
    """Shared, lazily built artifacts for the battery (one master seed),
    each cached under its builder's name and all of its arguments."""

    def __init__(self, seed: int = 7):
        self.seed = seed
        self.scenarios = builtin_scenarios()
        self._cache: Dict[tuple, object] = {}

    def _get(self, key: tuple, build: Callable):
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def riccati(self, name: str, n_paths: int = 2048, tol: float = 1e-9):
        def build():
            scen = self.scenarios[name]
            bundle = PathBundle.generate(
                derive_seed(self.seed, f"ric-{name}"),
                n_paths,
                64,
                1,
                tau=scen.tau,
                antithetic=True,
            )
            return solve_stochastic_riccati(scen, bundle, tol=tol)

        return self._get(("ric", name, n_paths, tol), build)

    def optimum(self, name: str, n_paths: int = 2048, tol: float = 1e-9):
        def build():
            opt = optimal_feedback(self.riccati(name, n_paths=n_paths, tol=tol), tol=tol)
            return opt, value_function(opt)

        return self._get(("opt", name, n_paths, tol), build)

    def steady_state(self, name: str, n_paths: int = 20000, steps_per_period: int = 64):
        def build():
            opt, _ = self.optimum(name)
            return burn_in_state(
                self.scenarios[name],
                opt.feedback,
                derive_seed(self.seed, f"state-{name}-{steps_per_period}"),
                n_paths,
                steps_per_period=steps_per_period,
                lambda_hat=opt.riccati.stability.lambda_hat,
            )

        return self._get(("state", name, n_paths, steps_per_period), build)


def _outcome(check_id, label, passed, detail, t0, metrics=None) -> CheckOutcome:
    return CheckOutcome(
        check_id=check_id,
        label=label,
        passed=bool(passed),
        detail=detail,
        elapsed_s=time.perf_counter() - t0,
        metrics={k: float(v) for k, v in (metrics or {}).items()},
    )


def check_a1_moment_decay(ctx: AcceptanceContext) -> CheckOutcome:
    """E|Phi_t|^2 against the explicit rate exp((2a+c^2)t), a=-1, c=0.5."""
    t0 = time.perf_counter()
    scen = ctx.scenarios["scalar-moment-decay"]
    bundle = PathBundle.generate(derive_seed(ctx.seed, "a1"), 100_000, 64, 1, tau=scen.tau)
    nodes = {32: 0.5, 64: 1.0}
    sq, _ = fundamental_squared_norms(scen, bundle, nodes)
    parts = []
    ok = True
    metrics = {}
    for node, t_query in nodes.items():
        ref = oracle.explicit_phi_moment_1d(-1.0, 0.5, t_query)
        mc, se = mean_se(sq[node])
        gap = abs(float(mc) - ref)
        allow = max(0.02 * ref, 3.0 * float(se))
        ok &= gap <= allow
        parts.append(f"t={t_query:g}: mc={float(mc):.5f} ref={ref:.5f} gap={gap:.2e}<=+{allow:.2e}")
        metrics[f"mc_{t_query:g}"] = float(mc)
        metrics[f"ref_{t_query:g}"] = ref
        metrics[f"se_{t_query:g}"] = float(se)
    return _outcome("A1", "moment decay vs explicit rate", ok, "; ".join(parts), t0, metrics)


def check_a2_bsde_vs_ode(ctx: AcceptanceContext) -> CheckOutcome:
    """Matrix equation with unit source against the periodic ODE oracle."""
    t0 = time.perf_counter()
    scen = ctx.scenarios["planar-deterministic-periodic"]
    lam = constant_coeff(np.eye(scen.n), scen.tau, symmetrize=True)
    bundle = PathBundle.generate(
        derive_seed(ctx.seed, "a2"), 20_000, 64, 1, tau=scen.tau, antithetic=True
    )
    sol = solve_linear_matrix_bsde(scen.A, scen.C, lam, bundle, tol=1e-8)
    ode = oracle.periodic_lyapunov_ode(scen.A, scen.C, lam, scen.tau)
    ref = ode.on_grid(64)
    worst = 0.0
    for node in range(65):
        mc = sol.values[:, node].mean(axis=0)
        rel = np.linalg.norm(mc - ref[node]) / max(np.linalg.norm(ref[node]), 1e-12)
        worst = max(worst, float(rel))
    ok = worst < 0.05
    return _outcome(
        "A2",
        "matrix equation vs ODE oracle",
        ok,
        f"max node-wise rel Frobenius error {worst:.4f} < 0.05",
        t0,
        {"max_rel_error": worst, "ode_residual": ode.periodic_residual},
    )


def _monotone(ric) -> bool:
    """Policy values decrease up to three solver floors (or 1e-8)."""
    slack = [max(1e-8, 3.0 * f) for f in ric.policy_floors]
    return all(g >= -s for g, s in zip(ric.monotone_gaps, slack))


def _riccati_outcome(ctx, check_id, name, target, rel_tol, t0) -> CheckOutcome:
    ric = ctx.riccati(name)
    k0 = float(ric.fixed_point[0, 0])
    rel = abs(k0 - target) / target
    iter_ok = ric.n_policies <= 10
    mono_ok = _monotone(ric)
    ok = rel < rel_tol and iter_ok and mono_ok
    detail = (
        f"K0={k0:.6f} vs {target:.6f} (rel {rel:.2e} < {rel_tol}); "
        f"{ric.n_policies} policies (<=10: {iter_ok}); monotone: {mono_ok}"
    )
    return _outcome(
        check_id,
        f"Riccati fixed point on {name}",
        ok,
        detail,
        t0,
        {"k0": k0, "target": target, "rel_error": rel, "n_policies": ric.n_policies},
    )


def check_a3_riccati_constant(ctx: AcceptanceContext) -> CheckOutcome:
    t0 = time.perf_counter()
    return _riccati_outcome(ctx, "A3", "scalar-constant", SQRT2_M1, 0.03, t0)


def check_a4_riccati_noisy(ctx: AcceptanceContext) -> CheckOutcome:
    t0 = time.perf_counter()
    return _riccati_outcome(ctx, "A4", "scalar-noisy", GOLDEN_M1, 0.05, t0)


def check_a5_stabilizer_certificate(ctx: AcceptanceContext) -> CheckOutcome:
    """The solved gains must certify mean-square stability on fresh paths."""
    t0 = time.perf_counter()
    parts = []
    ok = True
    metrics = {}
    for name in ("scalar-constant", "scalar-noisy"):
        ric = ctx.riccati(name)
        report = stabilizer_check(
            ctx.scenarios[name],
            ric.gain_feedback(),
            derive_seed(ctx.seed, f"a5-{name}"),
        )
        ok &= report.stable
        parts.append(
            f"{name}: lambda={report.lambda_hat:.3f} (95% low {report.ci_low:.3f})"
        )
        metrics[f"lambda_{name}"] = report.lambda_hat
        metrics[f"ci_low_{name}"] = report.ci_low
    return _outcome("A5", "closed-loop decay certificates", ok, "; ".join(parts), t0, metrics)


def check_a6_ergodic_equivalence(ctx: AcceptanceContext) -> CheckOutcome:
    """Finite-horizon averages approach the stationary one-period average."""
    t0 = time.perf_counter()
    scen = ctx.scenarios["scalar-constant"]
    opt, _ = ctx.optimum("scalar-constant")
    state = ctx.steady_state("scalar-constant")
    stat_cost = single_period_cost(state)

    x0 = np.array([0.9])
    cp10, cp50 = [], []
    se10sq = se50sq = 0.0
    for half in range(2):
        bundle = PathBundle.generate(
            derive_seed(ctx.seed, f"a6-h{half}"), 10_000, 64, 50, tau=scen.tau
        )
        est = finite_horizon_cost(scen, opt.feedback, x0, bundle, checkpoint_periods=[10, 50])
        cp10.append(est.checkpoints[10][0])
        cp50.append(est.checkpoints[50][0])
        se10sq += est.checkpoints[10][1] ** 2
        se50sq += est.checkpoints[50][1] ** 2
    avg10, avg50 = float(np.mean(cp10)), float(np.mean(cp50))
    se10, se50 = math.sqrt(se10sq) / 2.0, math.sqrt(se50sq) / 2.0

    gap50 = abs(avg50 - stat_cost.value)
    gap10 = abs(avg10 - stat_cost.value)
    allow = 3.0 * math.hypot(se50, stat_cost.se)
    ok = gap50 < allow and gap50 < gap10
    detail = (
        f"|avg(50t)-stationary|={gap50:.4f} < {allow:.4f}; "
        f"gap(10t)={gap10:.4f} > gap(50t): {gap50 < gap10}"
    )
    return _outcome(
        "A6",
        "ergodic cost equivalence",
        ok,
        detail,
        t0,
        {
            "avg10": avg10,
            "avg50": avg50,
            "stationary": stat_cost.value,
            "gap50": gap50,
            "gap10": gap10,
            "allow": allow,
            "se10": se10,
        },
    )


def check_a7_value_formula(ctx: AcceptanceContext) -> CheckOutcome:
    """Predicted value against the closed form and against simulation."""
    t0 = time.perf_counter()
    _, val = ctx.optimum("scalar-constant")
    # fine simulation grid: the Euler stationary variance carries an O(dt)
    # bias that 3 SE cannot absorb at 64 steps/period and 2e4 paths
    cost = single_period_cost(ctx.steady_state("scalar-constant", steps_per_period=256))

    gap_ref = abs(val.value - SCALAR_VALUE)
    allow_ref = 3.0 * val.se
    gap_mc = abs(val.value - cost.value)
    allow_mc = 3.0 * math.hypot(val.se, cost.se)
    ok = gap_ref <= allow_ref and gap_mc <= allow_mc
    detail = (
        f"V={val.value:.6f}: |V-closed form|={gap_ref:.2e}<={allow_ref:.2e}; "
        f"|V-MC cost|={gap_mc:.4f}<={allow_mc:.4f}"
    )
    return _outcome(
        "A7",
        "value formula",
        ok,
        detail,
        t0,
        {
            "value": val.value,
            "closed_form": SCALAR_VALUE,
            "mc_cost": cost.value,
            "value_se": val.se,
            "mc_se": cost.se,
        },
    )


def check_a8_optimality_scan(ctx: AcceptanceContext) -> CheckOutcome:
    """Cost along a gain perturbation line: minimum at 0, convex, above V."""
    t0 = time.perf_counter()
    scen = ctx.scenarios["scalar-constant"]
    opt, val = ctx.optimum("scalar-constant")
    scan = optimality_scan(
        scen,
        opt.feedback,
        d_theta=np.array([[1.0]]),
        d_v=None,
        eps_grid=[-0.2, -0.1, 0.0, 0.1, 0.2],
        seed=derive_seed(ctx.seed, "a8"),
        n_paths=20_000,
        lambda_hat=opt.riccati.stability.lambda_hat,
    )
    fit = fit_quadratic_excess(scan)
    above = all(
        scan.cost[j] >= val.value - 3.0 * math.hypot(scan.cost_se[j], val.se)
        for j in range(scan.eps.size)
    )
    argmin_ok = scan.eps_star == 0.0
    curv_ok = fit.curvature > 0 and fit.curvature_t > 1.96
    ok = argmin_ok and curv_ok and above
    detail = (
        f"argmin eps={scan.eps_star:g} (==0: {argmin_ok}); "
        f"curvature {fit.curvature:.3f}+-{fit.curvature_se:.3f} "
        f"(t={fit.curvature_t:.1f}>1.96); all costs >= V-3SE: {above}"
    )
    return _outcome(
        "A8",
        "optimality of the solved gain",
        ok,
        detail,
        t0,
        {
            "eps_star": scan.eps_star,
            "curvature": fit.curvature,
            "curvature_t": fit.curvature_t,
        },
    )


def check_a9_contraction(ctx: AcceptanceContext) -> CheckOutcome:
    """Two-start coupling decays exponentially on every catalog scenario."""
    t0 = time.perf_counter()
    parts = []
    ok = True
    metrics = {}
    for name, scen in ctx.scenarios.items():
        law = default_stabilizer(
            scen, seed=derive_seed(ctx.seed, f"a9-stab-{name}"),
        )
        bundle = PathBundle.generate(
            derive_seed(ctx.seed, f"a9-{name}"), 4000, 64, 10, tau=scen.tau
        )
        report = contraction_check(
            scen, law, np.ones(scen.n), -np.ones(scen.n), bundle
        )
        good = report.lambda_hat > 0 and report.ci_low > 0
        ok &= good
        parts.append(f"{name}: lambda={report.lambda_hat:.2f} low={report.ci_low:.2f}")
        metrics[f"lambda_{name}"] = report.lambda_hat
    return _outcome("A9", "pathwise contraction", ok, "; ".join(parts), t0, metrics)


def check_a10_completion_of_square(ctx: AcceptanceContext) -> CheckOutcome:
    """Cost identity for perturbed laws on the path-dependent scenario.

    The value anchor is the measured ergodic cost of the solved optimum on
    common random numbers (see completion_identity_check); the predicted
    value from the solved pair is reported alongside for reference.
    """
    t0 = time.perf_counter()
    name = "scalar-random-periodic"
    opt, val = ctx.optimum(name, n_paths=16384, tol=1e-6)
    perturbations = [
        {"d_theta": np.array([[0.15]]), "d_v": None},
        {"d_theta": np.array([[-0.1]]), "d_v": None},
        {"d_theta": None, "d_v": np.array([0.2])},
    ]
    parts = []
    ok = True
    metrics = {"value_formula": val.value}
    for idx, pert in enumerate(perturbations):
        law = perturbed_feedback(opt.feedback, pert["d_theta"], pert["d_v"], eps=1.0)
        # 4000 paired paths: sized so the Monte Carlo standard error of the
        # paired differences stays above the solve-replicate noise floor of
        # the fitted gain (which does not shrink with identity paths)
        report = completion_identity_check(
            opt,
            law,
            derive_seed(ctx.seed, f"a10-{idx}"),
            n_paths=4_000,
            lambda_hat=0.7 * opt.riccati.stability.lambda_hat,
            tag=f"a10-{idx}",
        )
        good = report.gap_in_se <= 3.0 and report.min_penalty >= 0.0
        ok &= good
        parts.append(
            f"#{idx}: gap={report.gap:+.5f} ({report.gap_in_se:.2f} SE), "
            f"min penalty {report.min_penalty:.2e}"
        )
        metrics[f"gap_{idx}"] = report.gap
        metrics[f"gap_in_se_{idx}"] = report.gap_in_se
        metrics[f"min_penalty_{idx}"] = report.min_penalty
        metrics[f"anchor_{idx}"] = report.value
    return _outcome("A10", "completion of square", ok, "; ".join(parts), t0, metrics)


ALL_CHECKS = [
    check_a1_moment_decay,
    check_a2_bsde_vs_ode,
    check_a3_riccati_constant,
    check_a4_riccati_noisy,
    check_a5_stabilizer_certificate,
    check_a6_ergodic_equivalence,
    check_a7_value_formula,
    check_a8_optimality_scan,
    check_a9_contraction,
    check_a10_completion_of_square,
]

CHECK_IDS = [f"A{i}" for i in range(1, 11)]


def run_acceptance(
    seed: int = 7,
    only: Optional[List[str]] = None,
    echo: Optional[Callable[[str], None]] = None,
) -> List[CheckOutcome]:
    """Run the battery (or the named subset) and return outcomes in order.

    A check that raises one of RUN_ERRORS fails with the error text as its
    detail, labelled by the error type, and the battery goes on.
    """
    ctx = AcceptanceContext(seed)
    wanted = None if only is None else {c.upper() for c in only}
    outcomes = []
    for cid, fn in zip(CHECK_IDS, ALL_CHECKS):
        if wanted is not None and cid not in wanted:
            continue
        t0 = time.perf_counter()
        try:
            out = fn(ctx)
        except RUN_ERRORS as exc:
            out = _outcome(cid, type(exc).__name__, False, str(exc), t0)
        outcomes.append(out)
        if echo is not None:
            echo(out.line())
    return outcomes


# ---------------------------------------------------------------------------
# single-scenario structural checks (used by verify --scenario)


def run_scenario_checks(
    scen: PeriodicCoefficientSet,
    seed: int = 7,
    n_paths: int = 4096,
    tol: float = 1e-7,
    echo: Optional[Callable[[str], None]] = None,
) -> List[CheckOutcome]:
    """Positivity, stabilizability, Riccati convergence, contraction and
    the occupation-integral representation, on one scenario."""
    outcomes: List[CheckOutcome] = []

    def push(out):
        outcomes.append(out)
        if echo is not None:
            echo(out.line())

    t0 = time.perf_counter()
    pos = check_positivity(scen)
    push(
        _outcome(
            "S1",
            "cost positivity margin",
            pos.passed,
            f"min eig R={pos.min_eig_R:.4f}, min eig reduced cost={pos.min_eig_cost:.4f}",
            t0,
            {"min_eig_R": pos.min_eig_R, "min_eig_cost": pos.min_eig_cost},
        )
    )

    t0 = time.perf_counter()
    try:
        law = default_stabilizer(scen, seed=derive_seed(seed, "s2"))
        report = stabilizer_check(scen, law, derive_seed(seed, "s2-check"))
        push(
            _outcome(
                "S2",
                "stabilizer search",
                report.stable,
                f"{law.label}: lambda={report.lambda_hat:.3f} (95% low {report.ci_low:.3f})",
                t0,
                {"lambda": report.lambda_hat, "ci_low": report.ci_low},
            )
        )
    except RUN_ERRORS as exc:
        push(_outcome("S2", "stabilizer search", False, str(exc), t0))
        return outcomes

    t0 = time.perf_counter()
    try:
        bundle = PathBundle.generate(
            derive_seed(seed, "s3"), n_paths, 64, 1, tau=scen.tau, antithetic=True
        )
        ric = solve_stochastic_riccati(scen, bundle, tol=tol)
        res = riccati_residual(ric)
        mono_ok = _monotone(ric)
        res_ok = res.rel_max_defect < 1e-3 and res.periodic_gap < 1e-3
        push(
            _outcome(
                "S3",
                "Riccati solve",
                mono_ok and res_ok,
                f"{ric.n_policies} policies, K0 norm {np.linalg.norm(ric.fixed_point):.4f}, "
                f"defect {res.rel_max_defect:.2e}, periodic gap {res.periodic_gap:.2e}, "
                f"monotone {mono_ok}",
                t0,
                {
                    "n_policies": ric.n_policies,
                    "rel_max_defect": res.rel_max_defect,
                    "periodic_gap": res.periodic_gap,
                },
            )
        )
    except RUN_ERRORS as exc:
        push(_outcome("S3", "Riccati solve", False, str(exc), t0))
        return outcomes

    t0 = time.perf_counter()
    law = ric.gain_feedback()
    cbundle = PathBundle.generate(derive_seed(seed, "s4"), 4000, 64, 10, tau=scen.tau)
    creport = contraction_check(scen, law, np.ones(scen.n), -np.ones(scen.n), cbundle)
    push(
        _outcome(
            "S4",
            "closed-loop contraction",
            creport.lambda_hat > 0 and creport.ci_low > 0,
            f"lambda={creport.lambda_hat:.3f} (95% low {creport.ci_low:.3f})",
            t0,
            {"lambda": creport.lambda_hat, "ci_low": creport.ci_low},
        )
    )

    t0 = time.perf_counter()
    # closed-loop drift and cost weight of the solved policy on the
    # cross-term-free problem, which has the same closed loop and cost
    a_cl, lam = _policy_problem(ric.reduced, _policy_gain(ric.reduced, ric.k_fn))
    audit = PathBundle.generate(
        derive_seed(seed, "s5"), 4000, 64, 12, tau=scen.tau, antithetic=True
    )
    rep = representation_check(a_cl, scen.C, lam, ric.k_solution, audit)
    allow = max(0.05, 3.0 * rep.se / max(float(np.linalg.norm(rep.reference)), 1e-12))
    push(
        _outcome(
            "S5",
            "occupation-integral representation",
            rep.rel_residual <= allow,
            f"rel residual {rep.rel_residual:.4f} <= {allow:.4f}",
            t0,
            {"rel_residual": rep.rel_residual, "allow": allow},
        )
    )

    t0 = time.perf_counter()
    gram = estimate_gram_lower_bound(scen, cbundle.restrict(4), law)
    delta_raw = gram.diagnostics["delta_raw"]
    push(
        _outcome(
            "S6",
            "conditional Gram lower bound",
            delta_raw > 0.0,
            f"delta={delta_raw:.4f} (+-{gram.delta_se:.4f})",
            t0,
            {"delta": delta_raw, "delta_se": gram.delta_se},
        )
    )
    return outcomes
