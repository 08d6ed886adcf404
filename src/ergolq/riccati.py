"""Periodic stochastic Riccati solver by monotone policy iteration.

Each policy step freezes a feedback gain, solves the resulting linear
matrix equation on one frozen path bundle, and reads the next gain off the
solution.  Starting from a mean-square stabilizing gain the node-0 values
decrease monotonically (in the semidefinite order, up to Monte Carlo
resolution) and converge to the periodic Riccati solution; the optimal
gain is assembled from the converged solution.

Every gain, the stabilizer the search starts from and the solved optimum,
is certified mean-square stabilizing by the spectral radius of its
closed loop's one-period second-moment operator: the scheme's exact
product when the loop reads no path, else a one-period Monte Carlo
estimate on fresh paths that must stay below one with 95% confidence.

A nonzero state-control cross weight is removed exactly up front: the
drift matrix and state weight are shifted so the reduced problem has no
cross term, and the reduction shift is added back to the final gain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List

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
    moment_operator,
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
    steps_per_period: int = 64,
) -> StabilityReport:
    """Mean-square stability certificate of the closed loop: its one-period
    second-moment operator, exact on a path-free loop (no draws), else on
    n_paths fresh one-period paths (see sde_engine.moment_operator)."""
    bundle = PathBundle.undrawn(seed, n_paths, steps_per_period, 1, tau=coeffs.tau)
    return moment_operator(coeffs, bundle, feedback)


def default_stabilizer(
    coeffs: PeriodicCoefficientSet,
    seed: int = 0,
    steps_per_period: int = 64,
    n_paths: int = 2000,
) -> FeedbackLaw:
    """First gain -kappa B', kappa in STABILIZER_KAPPAS, that is mean-square stabilizing."""
    v_zero = constant_coeff(np.zeros(coeffs.m), coeffs.tau)
    reports = {}
    for kappa in STABILIZER_KAPPAS:
        theta = cf_scale(cf_transpose(coeffs.B), -float(kappa))
        law = FeedbackLaw(Theta=theta, v=v_zero, label=f"stabilizer-kappa={kappa:g}")
        seed_k = derive_seed(seed, f"stabilizer-{kappa:g}")
        report = stabilizer_check(coeffs, law, seed_k, n_paths, steps_per_period)
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
    solution; feedback is the optimal gain, including any cross-term
    shift, with a zero offset.  stability is the gain's certificate; its
    decay rate is what every burn-in of the optimum is sized by.
    """

    coeffs: PeriodicCoefficientSet
    reduced: PeriodicCoefficientSet
    k_solution: BsdeGridSolution
    feedback: FeedbackLaw
    stability: StabilityReport
    policy_gaps: List[float] = field(default_factory=list)
    policy_floors: List[float] = field(default_factory=list)
    monotone_gaps: List[float] = field(default_factory=list)

    @property
    def fixed_point(self) -> np.ndarray:
        return self.k_solution.fixed_point

    @property
    def fixed_point_se(self) -> float:
        return self.k_solution.fixed_point_se

    @property
    def n_policies(self) -> int:
        return len(self.policy_gaps) + 1


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
        new_solution = solve_linear_matrix_bsde(a_cl, reduced.C, lam, bundle, basis=basis)
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
) -> RiccatiSolution:
    """Solve the periodic Riccati equation and certify the optimal gain.

    The solve runs on ``bundle`` (one period); the closed-loop certificate
    runs on an independent seed derived from the solve seed.
    Raises ConvergenceError when a policy's period map has rho(M) >= 1,
    when policy iteration stalls or when the certificate fails.
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

    theta = _policy_gain(reduced, solution_coeff(k_solution))
    if shift is not None:
        theta = cf_add(theta, cf_scale(shift, -1.0))
    feedback = FeedbackLaw(
        Theta=theta, v=constant_coeff(np.zeros(coeffs.m), coeffs.tau), label="riccati-gain"
    )

    stability = stabilizer_check(
        coeffs,
        feedback,
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
        feedback=feedback,
        stability=stability,
        policy_gaps=gaps,
        policy_floors=floors,
        monotone_gaps=mono,
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
    next-node samples on the solve bundle.  The mean of the defect over the
    stored rows is the reported quantity; pathwise defects carry the
    martingale increment and are not expected to vanish.
    """
    ks = solution.k_solution
    bundle = ks.bundle
    coeffs = solution.coeffs
    sp, dt = bundle.steps_per_period, ks.dt
    defects = np.empty(sp)
    bound = [bundle.bind(coeffs.coefficient(f)) for f in ("A", "C", "Q", "B", "S", "R")]
    values, integrand = ks.stored
    for i in range(sp):
        k_next = values[:, i + 1]
        a, c, q, bmat, smat, r = (at(i) for at in bound)
        g = np.matmul(np.swapaxes(bmat, -1, -2), k_next) + smat
        quad = np.matmul(np.swapaxes(g, -1, -2), rinv_apply(r, g))
        drift = _lyapunov_drift(k_next, a, c, integrand[:, i]) + q - quad
        target = k_next + dt * drift
        defects[i] = float(np.linalg.norm(ks.path_mean(values[:, i] - target)[0]))
    scale = max(1.0, float(np.linalg.norm(ks.fixed_point)))
    return ResidualReport(
        node_defects=defects,
        max_defect=float(defects.max()),
        periodic_gap=ks.periodic_residual,
        scale=scale,
    )
