"""Periodic stochastic Riccati solver by monotone policy iteration.

Each policy step freezes a feedback gain, solves the resulting linear
matrix equation on one frozen path bundle, and reads the next gain off the
solution.  Starting from a mean-square stabilizing gain the node-0 values
decrease monotonically (in the semidefinite order, up to Monte Carlo
resolution) and converge to the periodic Riccati solution; the optimal
gain is assembled from the converged solution and certified by an
independent closed-loop decay estimate on fresh paths.

A nonzero state-control cross weight is removed exactly up front: the
drift matrix and state weight are shifted so the reduced problem has no
cross term, and the reduction shift is added back to the final gain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .bsde_engine import (
    BsdeGridSolution,
    ConvergenceError,
    _default_basis,
    _lyapunov_drift,
    _min_eig_batch,
    solution_coeff,
    solve_linear_matrix_bsde,
)
from .coefficients import (
    CoefficientFn,
    FeedbackLaw,
    PeriodicCoefficientSet,
    _COEFF_FIELDS,
    check_positivity,
    cf_add,
    cf_matmul,
    cf_rinv_mul,
    cf_scale,
    cf_transpose,
    constant_coeff,
    rinv_apply,
)
from .sde_engine import (
    PathBundle,
    StabilityReport,
    derive_seed,
    estimate_second_moment_decay,
    mean_se,
)


MAX_POLICY_ITER = 30
# the gains -kappa B' tried, in order, by the stabilizer search
STABILIZER_KAPPAS = (0.0, 1.0, 4.0, 16.0)


def reduce_cross_term(coeffs: PeriodicCoefficientSet):
    """Remove the state-control cross weight by an exact change of gain.

    Returns (reduced set, shift) where the reduced set has S = 0,
    drift matrix A - B R^{-1} S and state weight Q - S' R^{-1} S, and
    ``shift`` is the coefficient R^{-1} S to subtract from the reduced
    problem's optimal gain.  A zero cross weight returns the original set
    unchanged with shift None.
    """
    if coeffs.S.is_zero:
        return coeffs, None
    rinv_s = cf_rinv_mul(coeffs.R, coeffs.S)
    a_til = cf_add(coeffs.A, cf_scale(cf_matmul(coeffs.B, rinv_s), -1.0))
    st_rinv_s = cf_matmul(cf_transpose(coeffs.S), rinv_s)
    q_til = cf_add(coeffs.Q, cf_scale(st_rinv_s, -1.0))
    q_til.symmetrize = True
    reduced = PeriodicCoefficientSet(
        tau=coeffs.tau,
        n=coeffs.n,
        m=coeffs.m,
        A=a_til,
        B=coeffs.B,
        C=coeffs.C,
        b=coeffs.b,
        sigma=coeffs.sigma,
        Q=q_til,
        S=constant_coeff(np.zeros((coeffs.m, coeffs.n)), coeffs.tau),
        R=coeffs.R,
        q=coeffs.q,
        rho=coeffs.rho,
        name=(coeffs.name + "-reduced") if coeffs.name else "reduced",
    )
    return reduced, rinv_s


def stabilizer_check(
    coeffs: PeriodicCoefficientSet,
    feedback: FeedbackLaw,
    seed: int,
    n_paths: int = 4000,
    n_periods: int = 12,
    steps_per_period: int = 64,
) -> StabilityReport:
    """Closed-loop mean-square decay estimate on a fresh bundle."""
    bundle = PathBundle.generate(seed, n_paths, steps_per_period, n_periods, tau=coeffs.tau)
    return estimate_second_moment_decay(coeffs, bundle, feedback=feedback)


def default_stabilizer(
    coeffs: PeriodicCoefficientSet,
    seed: int = 0,
    steps_per_period: int = 64,
    n_paths: int = 2000,
    n_periods: int = 12,
) -> FeedbackLaw:
    """First gain -kappa B', kappa in STABILIZER_KAPPAS, that is mean-square stabilizing."""
    v_zero = constant_coeff(np.zeros(coeffs.m), coeffs.tau)
    reports = {}
    for kappa in STABILIZER_KAPPAS:
        theta = cf_scale(cf_transpose(coeffs.B), -float(kappa))
        law = FeedbackLaw(Theta=theta, v=v_zero, label=f"stabilizer-kappa={kappa:g}")
        report = stabilizer_check(
            coeffs,
            law,
            derive_seed(seed, f"stabilizer-{kappa:g}"),
            n_paths=n_paths,
            n_periods=n_periods,
            steps_per_period=steps_per_period,
        )
        reports[kappa] = (report.lambda_hat, report.ci_low)
        if report.stable:
            return law
    raise ConvergenceError(
        "no gain of the form -kappa B' stabilizes the state "
        f"(decay estimates: {reports})"
    )


@dataclass(eq=False)
class RiccatiSolution:
    """Converged periodic Riccati solution with its optimal gain.

    k_solution holds the grid samples of the reduced (cross-term free)
    equation on its solve bundle, which agree with the full equation's
    solution; theta is the optimal gain including any cross-term shift.
    """

    coeffs: PeriodicCoefficientSet
    reduced: PeriodicCoefficientSet
    k_solution: BsdeGridSolution
    k_fn: CoefficientFn
    theta: CoefficientFn
    stability: Optional[StabilityReport]
    policy_gaps: List[float] = field(default_factory=list)
    policy_floors: List[float] = field(default_factory=list)
    monotone_gaps: List[float] = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)

    @property
    def fixed_point(self) -> np.ndarray:
        return self.k_solution.fixed_point

    @property
    def fixed_point_se(self) -> float:
        return self.k_solution.fixed_point_se

    @property
    def n_policies(self) -> int:
        return len(self.policy_gaps) + 1

    def gain_feedback(self, v: Optional[CoefficientFn] = None, label: str = "") -> FeedbackLaw:
        if v is None:
            v = constant_coeff(np.zeros(self.coeffs.m), self.coeffs.tau)
        return FeedbackLaw(Theta=self.theta, v=v, label=label or "riccati-gain")


def _policy_gain(reduced: PeriodicCoefficientSet, k_fn: CoefficientFn) -> CoefficientFn:
    bt_k = cf_matmul(cf_transpose(reduced.B), k_fn)
    return cf_scale(cf_rinv_mul(reduced.R, bt_k), -1.0)


def _policy_problem(reduced: PeriodicCoefficientSet, theta: CoefficientFn):
    a_cl = cf_add(reduced.A, cf_matmul(reduced.B, theta))
    penalty = cf_matmul(cf_transpose(theta), cf_matmul(reduced.R, theta))
    lam = cf_add(reduced.Q, penalty)
    lam.symmetrize = True
    return a_cl, lam


def kleinman_solve(
    reduced: PeriodicCoefficientSet,
    stabilizer: FeedbackLaw,
    bundle: PathBundle,
    tol: float = 1e-6,
) -> tuple:
    """Policy iteration on a frozen bundle; returns the last solution and
    the per-policy gap/floor/monotonicity records."""
    basis = _default_basis(*(reduced.coefficient(f) for f in _COEFF_FIELDS))
    solution = None
    theta = stabilizer.Theta
    gaps: List[float] = []
    floors: List[float] = []
    mono: List[float] = []
    for _ in range(MAX_POLICY_ITER):
        a_cl, lam = _policy_problem(reduced, theta)
        new_solution = solve_linear_matrix_bsde(
            a_cl,
            reduced.C,
            lam,
            bundle,
            basis=basis,
            tol=tol,
            initial_terminal=None if solution is None else solution.fixed_point,
        )
        if solution is not None:
            diff = new_solution.fixed_point - solution.fixed_point
            gap = float(np.linalg.norm(diff))
            floor = math.hypot(new_solution.fixed_point_se, solution.fixed_point_se)
            gaps.append(gap)
            floors.append(floor)
            mono.append(float(_min_eig_batch((-diff)[None])[0]))
            scale = max(1.0, float(np.linalg.norm(new_solution.fixed_point)))
            solution = new_solution
            if gap < max(tol * scale, 0.5 * floor):
                return solution, gaps, floors, mono
        else:
            solution = new_solution
        theta = _policy_gain(reduced, solution_coeff(solution))
    raise ConvergenceError(
        f"policy iteration did not settle in {MAX_POLICY_ITER} rounds "
        f"(last gap {gaps[-1] if gaps else float('nan'):.3e})"
    )


def solve_stochastic_riccati(
    coeffs: PeriodicCoefficientSet,
    bundle: PathBundle,
    tol: float = 1e-6,
    require_stable: bool = True,
) -> RiccatiSolution:
    """Solve the periodic Riccati equation and certify the optimal gain.

    The solve runs on ``bundle`` (one period); the closed-loop decay
    certificate runs on an independent bundle derived from the solve seed.
    Raises ConvergenceError when iteration stalls or, with require_stable,
    when the certificate fails.
    """
    positivity = check_positivity(coeffs)
    if not positivity.passed:
        raise ValueError(
            f"cost weights lack a positivity margin (min eig {positivity.min_eig_cost:.3e})"
        )
    reduced, shift = reduce_cross_term(coeffs)
    stabilizer = default_stabilizer(
        reduced,
        seed=derive_seed(bundle.seed, "stabilizer"),
        steps_per_period=bundle.steps_per_period,
    )
    k_solution, gaps, floors, mono = kleinman_solve(reduced, stabilizer, bundle, tol=tol)

    scale = max(1.0, float(np.linalg.norm(k_solution.fixed_point)))
    fp_low = float(_min_eig_batch(k_solution.fixed_point[None])[0])
    if fp_low < -1e-8 * scale:
        raise ConvergenceError(
            f"Riccati fixed point lost positivity (min eig {fp_low:.3e})"
        )

    k_fn = solution_coeff(k_solution)
    theta = _policy_gain(reduced, k_fn)
    if shift is not None:
        theta = cf_add(theta, cf_scale(shift, -1.0))

    stability = None
    if require_stable:
        law = FeedbackLaw(
            Theta=theta,
            v=constant_coeff(np.zeros(coeffs.m), coeffs.tau),
            label="riccati-gain",
        )
        stability = stabilizer_check(
            coeffs,
            law,
            derive_seed(bundle.seed, "stability"),
            steps_per_period=bundle.steps_per_period,
        )
        if not stability.stable:
            raise ConvergenceError(
                "closed-loop certificate failed: decay rate "
                f"{stability.lambda_hat:.4f} (95% low {stability.ci_low:.4f})"
            )

    return RiccatiSolution(
        coeffs=coeffs,
        reduced=reduced,
        k_solution=k_solution,
        k_fn=k_fn,
        theta=theta,
        stability=stability,
        policy_gaps=gaps,
        policy_floors=floors,
        monotone_gaps=mono,
        diagnostics={
            "positivity_margin": positivity.margin,
            "min_fixed_point_eig": fp_low,
            "inner_stop": k_solution.trace.stop_reason,
        },
    )


@dataclass
class ResidualReport:
    node_defects: np.ndarray
    max_defect: float
    periodic_gap: float
    scale: float

    @property
    def rel_max_defect(self) -> float:
        return self.max_defect / self.scale


def riccati_residual(solution: RiccatiSolution) -> ResidualReport:
    """Discrete defect of the full (quadratic form) equation on the solve grid.

    At node i the stored value is compared against one explicit backward
    step of the full drift, with the quadratic term evaluated at the stored
    next-node samples on the solve bundle.  The ensemble mean of the defect
    is the reported quantity; pathwise defects carry the martingale
    increment and are not expected to vanish.
    """
    ks = solution.k_solution
    bundle = ks.bundle
    coeffs = solution.coeffs
    sp, dt = bundle.steps_per_period, ks.dt
    n = coeffs.n
    defects = np.empty(sp)
    bound = [bundle.bind(coeffs.coefficient(f)) for f in ("A", "C", "Q", "B", "S", "R")]
    for i in range(sp):
        k_next = ks.values[:, i + 1]
        l_est = ks.integrand[:, i]
        a, c, q, bmat, smat, r = (at(i) for at in bound)
        g = np.matmul(np.swapaxes(bmat, -1, -2), k_next) + smat
        quad = np.matmul(np.swapaxes(g, -1, -2), rinv_apply(r, g))
        drift = _lyapunov_drift(k_next, a, c, l_est) + q - quad
        target = k_next + dt * drift
        diff = ks.values[:, i] - target
        mean_diff, _ = mean_se(diff.reshape(diff.shape[0], -1), bundle.antithetic)
        defects[i] = float(np.linalg.norm(mean_diff.reshape(n, n)))
    scale = max(1.0, float(np.linalg.norm(ks.fixed_point)))
    return ResidualReport(
        node_defects=defects,
        max_defect=float(defects.max()),
        periodic_gap=ks.periodic_residual,
        scale=scale,
    )
