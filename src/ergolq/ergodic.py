"""Long-run average cost: burn-in, estimators and optimality checks.

The ergodic cost of a feedback law is estimated as the expected running
cost over one period started from the law's random-periodic steady state.
Burn-in length is derived from the certified mean-square decay rate
(TARGET_EFOLD e-foldings) and the reached state is audited by comparing the
last two period-boundary second moments at paired-path resolution.

The optimal law is assembled from the Riccati gain plus the affine offset
solved from the vector equation on the same bundle.  Its predicted average
cost admits closed-form verification hooks: the value formula integrates
solved quantities only, and the completion-of-square identity expresses
any other law's cost as the optimal value plus a quadratic control
penalty, which is checked pathwise on common noise.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

import numpy as np

from .bsde_engine import BsdeGridSolution, solution_coeff, solve_vector_bsde
from .coefficients import (
    FeedbackLaw,
    PeriodicCoefficientSet,
    cf_add,
    cf_matmul,
    cf_rinv_mul,
    cf_scale,
    cf_transpose,
    perturbed_feedback,
    rinv_apply,
)
from .riccati import RiccatiSolution
from .sde_engine import (
    PathBundle,
    _times,
    derive_seed,
    mean_se,
    stream_closed_loop,
)


class BurnInError(RuntimeError):
    """Raised when a decay rate is not positive or the reached state fails
    the stationarity audit."""


MAX_BURN_PERIODS = 400
# (law, path) rows per block of the scan's stacked stream; the default
# blocks, sized by increments, are too small to amortize its per-node cost
SCAN_BLOCK_ROWS = 2**15
# burn-in discards this many e-foldings of the certified decay rate
TARGET_EFOLD = 10.0


_COST_FIELDS = ("Q", "S", "R", "q", "rho")


def _quadratic_cost(q, s, r, qlin, rho, x, u):
    xc = x[..., None]
    uc = u[..., None]
    qx = _times(q, xc)[..., 0]
    sx = _times(s, xc)[..., 0]
    ru = _times(r, uc)[..., 0]
    out = np.einsum("...i,...i->...", x, qx)
    out += 2.0 * np.einsum("...i,...i->...", u, sx)
    out += np.einsum("...i,...i->...", u, ru)
    out += 2.0 * np.sum(np.broadcast_to(qlin, x.shape) * x, axis=-1)
    out += 2.0 * np.sum(np.broadcast_to(rho, u.shape) * u, axis=-1)
    return out


def _bind_running_cost(coeffs: PeriodicCoefficientSet, bundle: PathBundle):
    """Per-path running cost x'Qx + 2u'Sx + u'Ru + 2q'x + 2rho'u, with the
    weights bound to the bundle grid."""
    weights_at = [bundle.bind(coeffs.coefficient(f)) for f in _COST_FIELDS]

    def cost(k, x, u):
        return _quadratic_cost(*(w(k) for w in weights_at), x, u)

    return cost


@dataclass
class CostEstimate:
    """Normalized (per unit time) cost average with its sampling error."""

    value: float
    se: float
    n_paths: int
    n_overflow: int
    duration: float
    checkpoints: Dict[int, tuple] = field(default_factory=dict)
    per_path: Optional[np.ndarray] = None


@dataclass(eq=False)
class RandomPeriodicState:
    """Path ensemble at a period boundary after closed-loop burn-in.

    coeffs and feedback are the problem and the law the ensemble was
    burned in under, so a cost read off the state runs the same closed loop.
    """

    samples: np.ndarray
    coeffs: PeriodicCoefficientSet
    feedback: FeedbackLaw
    steps_per_period: int
    k_burn: int
    seed: int
    moment: float
    diagnostics: dict = field(default_factory=dict)

    @property
    def n_paths(self) -> int:
        return self.samples.shape[0]


def _burn_in_periods(lambda_hat: float, tau: float) -> int:
    """TARGET_EFOLD / (lambda_hat tau) periods, clipped to 2..MAX_BURN_PERIODS;
    a rate that is not positive (or NaN) raises BurnInError."""
    if not lambda_hat > 0:
        raise BurnInError(f"decay rate {lambda_hat!r} is not positive; no steady state to reach")
    return int(np.clip(math.ceil(TARGET_EFOLD / (lambda_hat * tau)), 2, MAX_BURN_PERIODS))


def burn_in_state(
    coeffs: PeriodicCoefficientSet,
    feedback: FeedbackLaw,
    seed: int,
    n_paths: int,
    lambda_hat: float,
    steps_per_period: int = 64,
) -> RandomPeriodicState:
    """Run the closed loop from zero to its random-periodic steady state.

    The number of discarded periods is TARGET_EFOLD / (lambda_hat tau),
    with lambda_hat the law's certified mean-square decay rate.
    The last two period boundaries must agree in second moment within
    three paired standard errors (plus a small absolute slack); otherwise
    BurnInError is raised.
    """
    k_burn = _burn_in_periods(lambda_hat, coeffs.tau)

    bundle = PathBundle.generate(seed, n_paths, steps_per_period, k_burn, tau=coeffs.tau)
    sp = steps_per_period
    n_steps = bundle.n_steps
    boundary_sq = np.full((n_paths, k_burn + 1), np.nan)
    final = np.empty((n_paths, coeffs.n))

    def visit(k, x, u):
        if k % sp == 0:
            boundary_sq[:, k // sp] = np.einsum("pi,pi->p", x, x)
        if k == n_steps:
            final[:] = x

    overflow = stream_closed_loop(coeffs, feedback, np.zeros(coeffs.n), bundle, visit)
    if overflow.any():
        raise BurnInError(
            f"{int(overflow.sum())} of {n_paths} paths overflowed during burn-in; "
            "the law does not look stabilizing"
        )

    diff = boundary_sq[:, k_burn] - boundary_sq[:, k_burn - 1]
    d_mean, d_se = mean_se(diff)
    m_mean, _ = mean_se(boundary_sq[:, k_burn])
    slack = 3.0 * float(d_se) + 1e-3 * max(1.0, float(m_mean))
    if abs(float(d_mean)) > slack:
        raise BurnInError(
            f"second moment still drifting after {k_burn} periods "
            f"(change {float(d_mean):.4e} vs allowance {slack:.4e})"
        )
    return RandomPeriodicState(
        samples=final,
        coeffs=coeffs,
        feedback=feedback,
        steps_per_period=steps_per_period,
        k_burn=k_burn,
        seed=seed,
        moment=float(m_mean),
        diagnostics={
            "lambda_hat": float(lambda_hat),
            "moment_change": float(d_mean),
            "moment_change_se": float(d_se),
        },
    )


def _accumulate_cost(coeffs, feedback, x0, bundle, start_node=0, extra_integrand=None):
    """Stream the closed loop and trapezoid-integrate the running cost.

    Returns (cost integrals from start_node to every period boundary, shape
    (n_periods + 1, n_paths), zero up to start_node; extra integrals from
    start_node to the end when an extra integrand is given; overflow mask).
    The extra integrand is called as extra(k, x, u) at node k.  A list of
    laws streams as one, with a law axis after the totals' period axis.
    """
    n_steps = bundle.n_steps
    sp, dt = bundle.steps_per_period, bundle.dt
    acc = totals = extra_acc = None  # shaped as the state's rows at start_node
    running_cost = _bind_running_cost(coeffs, bundle)

    def visit(k, x, u):
        nonlocal acc, totals, extra_acc
        if k < start_node:
            return
        weight = 0.5 * dt if k in (start_node, n_steps) else dt
        with np.errstate(invalid="ignore"):
            f = running_cost(k, x, u)
            if k == start_node:
                acc, totals = np.zeros(f.shape), np.zeros((bundle.n_periods + 1,) + f.shape)
                extra_acc = None if extra_integrand is None else np.zeros(f.shape)
            if k > start_node and k % sp == 0:
                np.add(acc, 0.5 * dt * f, out=totals[k // sp])
            np.add(acc, weight * f, out=acc)
            if extra_acc is not None:
                np.add(extra_acc, weight * extra_integrand(k, x, u), out=extra_acc)

    overflow = stream_closed_loop(coeffs, feedback, x0, bundle, visit)
    return totals, extra_acc, overflow


def single_period_cost(state: RandomPeriodicState) -> CostEstimate:
    """Ergodic cost estimate: one period of running cost from steady state,
    under the problem and the law the state was burned in under.

    Fresh increments are drawn for the cost period (independent of the
    burn-in noise), which is exactly the one-step transition of the
    period-to-period chain started from its steady state.
    """
    bundle = PathBundle.generate(
        derive_seed(state.seed, "cost-period"),
        state.n_paths,
        state.steps_per_period,
        1,
        tau=state.coeffs.tau,
    )
    return finite_horizon_cost(state.coeffs, state.feedback, state.samples, bundle)


def finite_horizon_cost(
    coeffs: PeriodicCoefficientSet,
    feedback: FeedbackLaw,
    x0,
    bundle: PathBundle,
    checkpoint_periods: Optional[Sequence[int]] = None,
) -> CostEstimate:
    """Average cost over the bundle horizon from a fixed start.

    checkpoint_periods asks for intermediate normalized averages after the
    given period counts; all checkpoints come from the same paths, so their
    differences are paired.
    """
    checkpoints = sorted(set(checkpoint_periods or []) | {bundle.n_periods})
    for kper in checkpoints:
        if not 1 <= kper <= bundle.n_periods:
            raise ValueError(f"checkpoint {kper} outside 1..{bundle.n_periods}")
    totals, _, overflow = _accumulate_cost(coeffs, feedback, x0, bundle)
    cp_stats = {}
    for kper in checkpoints:
        vals = totals[kper] / (kper * bundle.tau)
        m, s = mean_se(vals[np.isfinite(vals)])
        cp_stats[kper] = (float(m), float(s))
    # an overflowed path's total is NaN from its first NaN state on
    value, se = cp_stats[bundle.n_periods]
    return CostEstimate(
        value=value,
        se=se,
        n_paths=bundle.n_paths,
        n_overflow=int(overflow.sum()),
        duration=bundle.duration,
        checkpoints=cp_stats,
        per_path=totals[-1] / bundle.duration,
    )


# ---------------------------------------------------------------------------
# optimal control assembly


@dataclass(eq=False)
class OptimalControl:
    """The Riccati gain with its affine offset and the backing solutions."""

    riccati: RiccatiSolution
    eta_solution: BsdeGridSolution
    feedback: FeedbackLaw


def optimal_feedback(riccati: RiccatiSolution) -> OptimalControl:
    """Solve the affine offset on the Riccati solve bundle and assemble u*.

    The vector equation runs under the optimal closed-loop drift with
    inhomogeneity q + Theta' rho; the offset is v = -R^{-1}(B' eta + rho).
    """
    coeffs = riccati.coeffs
    theta = riccati.feedback.Theta
    a_cl = cf_add(coeffs.A, cf_matmul(coeffs.B, theta))
    lam = cf_add(coeffs.q, cf_matmul(cf_transpose(theta), coeffs.rho))
    eta_solution = solve_vector_bsde(
        a_cl, coeffs.C, riccati.k_solution, coeffs.b, coeffs.sigma, lam
    )
    eta_fn = solution_coeff(eta_solution)
    bt_eta = cf_matmul(cf_transpose(coeffs.B), eta_fn)
    v_fn = cf_scale(cf_rinv_mul(coeffs.R, cf_add(bt_eta, coeffs.rho)), -1.0)
    feedback = FeedbackLaw(Theta=theta, v=v_fn, label="optimal")
    return OptimalControl(
        riccati=riccati,
        eta_solution=eta_solution,
        feedback=feedback,
    )


@dataclass
class ValueEstimate:
    """Predicted long-run average cost from solved quantities only."""

    value: float
    se: float
    solver_floor: float


def value_function(opt: OptimalControl) -> ValueEstimate:
    """Average the closed-form rate over one period of solution samples on
    the solve bundle.

    The rate at each node is -(B'eta+rho)' R^{-1} (B'eta+rho)
    + sigma'K sigma + 2 eta'b + 2 zeta'sigma, integrated by trapezoid and
    divided by the period.  The reported se combines the path average's
    sampling error (0 on a path-free solution) with the two solver floors.
    """
    coeffs = opt.riccati.coeffs
    ks = opt.riccati.k_solution
    es = opt.eta_solution
    bundle = es.bundle
    sp, dt = bundle.steps_per_period, es.dt
    (k_rows, _), (eta_rows, zeta_rows) = ks.stored, es.stored
    acc = np.zeros(len(eta_rows))
    bound = [bundle.bind(f) for f in (coeffs.R, coeffs.B, coeffs.rho, coeffs.b, coeffs.sigma)]
    for i in range(sp + 1):
        k_i = k_rows[:, i]
        eta_i = eta_rows[:, i]
        zeta_i = zeta_rows[:, i % sp]
        r, bmat, rho, bd, sg = (at(i) for at in bound)
        g = np.matmul(np.swapaxes(bmat, -1, -2), eta_i[..., None])[..., 0]
        g = g + np.broadcast_to(rho, g.shape)
        rinv_g = rinv_apply(r, g[..., None])[..., 0]
        sg_b = np.broadcast_to(sg, eta_i.shape)
        k_sg = np.matmul(k_i, sg_b[..., None])[..., 0]
        rate = (
            -np.einsum("pi,pi->p", g, rinv_g)
            + np.einsum("pi,pi->p", sg_b, k_sg)
            + 2.0 * np.sum(np.broadcast_to(bd, eta_i.shape) * eta_i, axis=-1)
            + 2.0 * np.sum(sg_b * zeta_i, axis=-1)
        )
        weight = 0.5 * dt if i in (0, sp) else dt
        acc += weight * rate
    per_path = acc / coeffs.tau
    mean, mc_se = es.path_mean(per_path)
    floor = math.hypot(ks.fixed_point_se, es.fixed_point_se)
    return ValueEstimate(
        value=float(mean),
        se=float(math.hypot(mc_se, floor)),
        solver_floor=float(floor),
    )


@dataclass
class CompletionReport:
    """Pathwise check of cost(law) - penalty(law) = optimal value."""

    value: float
    value_se: float
    gap: float
    combined_se: float
    n_overflow: int
    min_penalty: float = 0.0
    mean_penalty: float = 0.0

    @property
    def gap_in_se(self) -> float:
        return abs(self.gap) / max(self.combined_se, 1e-300)


def _bind_penalty(opt: OptimalControl, bundle: PathBundle):
    """Quadratic control penalty (u - u*)' R (u - u*) against the optimal law."""
    u_star_at = bundle.bind_law([opt.feedback])
    r_at = bundle.bind(opt.riccati.coeffs.R)

    def penalty(k, x, u):
        du = u - u_star_at(k, x[None])[0]
        r_du = _times(r_at(k), du[..., None])[..., 0]
        return np.einsum("pi,pi->p", du, r_du)

    return penalty


def completion_identity_check(
    opt: OptimalControl,
    feedback: FeedbackLaw,
    seed: int,
    n_paths: int,
    lambda_hat: float,
    steps_per_period: int = 64,
    tag: str = "completion",
) -> CompletionReport:
    """Paired form of the quadratic penalty identity.

    cost(law) - penalty(law) is compared with the measured ergodic cost of
    the solved optimum itself, on common random numbers: both laws burn in
    from the same seed (hence identical increments) and integrate their
    costs over the same fresh period, so the gap is a mean of per-path
    differences and its standard error reflects the pairing.  Anchoring at
    the optimum's own measured cost keeps the check first-order insensitive
    to error in the solved gain: a gain error d shifts the anchor and the
    penalty together, leaving only O(d * (law - optimum)) in the gap.
    Both burn-ins are sized by lambda_hat, which must hold for both laws.
    """
    coeffs = opt.riccati.coeffs
    state_u = burn_in_state(
        coeffs, feedback, seed, n_paths, steps_per_period=steps_per_period, lambda_hat=lambda_hat
    )
    state_opt = burn_in_state(
        coeffs, opt.feedback, seed, n_paths, steps_per_period=steps_per_period, lambda_hat=lambda_hat
    )
    bundle = PathBundle.generate(
        derive_seed(seed, tag), n_paths, steps_per_period, 1, tau=coeffs.tau
    )

    totals_u, pen, over_u = _accumulate_cost(
        coeffs, feedback, state_u.samples, bundle, extra_integrand=_bind_penalty(opt, bundle)
    )
    totals_opt, _, over_opt = _accumulate_cost(
        coeffs, opt.feedback, state_opt.samples, bundle
    )
    good = ~(over_u | over_opt)
    lhs = (totals_u[-1][good] - pen[good]) / coeffs.tau
    anchor = totals_opt[-1][good] / coeffs.tau
    anchor_mean, anchor_se = mean_se(anchor)
    gap_mean, gap_se = mean_se(lhs - anchor)
    return CompletionReport(
        value=float(anchor_mean),
        value_se=float(anchor_se),
        gap=float(gap_mean),
        combined_se=float(gap_se),
        n_overflow=int((~good).sum()),
        min_penalty=float(pen[good].min()) if good.any() else math.nan,
        mean_penalty=float(pen[good].mean() / coeffs.tau) if good.any() else math.nan,
    )


# ---------------------------------------------------------------------------
# perturbation scan


@dataclass
class ScanResult:
    """Ergodic cost along a feedback perturbation line on common noise."""

    eps: np.ndarray
    cost: np.ndarray
    cost_se: np.ndarray
    diff: np.ndarray
    diff_se: np.ndarray
    n_overflow: np.ndarray
    k_burn: int
    seed: int
    n_paths: int

    @property
    def argmin_index(self) -> int:
        masked = np.where(self.n_overflow > 0, np.inf, self.cost)
        return int(np.argmin(masked))

    @property
    def eps_star(self) -> float:
        """Grid point of least cost among those without overflow."""
        return float(self.eps[self.argmin_index])


def optimality_scan(
    coeffs: PeriodicCoefficientSet,
    base: FeedbackLaw,
    d_theta,
    d_v,
    eps_grid: Sequence[float],
    seed: int,
    n_paths: int,
    lambda_hat: float,
    steps_per_period: int = 64,
) -> ScanResult:
    """Estimate the ergodic cost of base + eps (d_theta, d_v) over a grid.

    All candidates run on one common increment bundle: burn-in periods are
    discarded, the final period is cost-averaged, and differences against
    eps = 0 are paired per path, which is what makes neighbor contrasts on
    the grid sharp enough to locate the minimizer.  The grid must contain 0
    and every candidate starts from zero; lambda_hat, the base law's decay
    rate, sizes the burn-in.
    """
    eps_grid = np.asarray(list(eps_grid), dtype=float)
    zero_pos = int(np.argmin(np.abs(eps_grid)))
    if abs(eps_grid[zero_pos]) > 0:
        raise ValueError("the scan grid must contain eps = 0")

    k_burn = _burn_in_periods(lambda_hat, coeffs.tau)

    bundle = PathBundle.undrawn(
        derive_seed(seed, "scan"), n_paths, steps_per_period, k_burn + 1, tau=coeffs.tau
    )
    start_node = k_burn * steps_per_period
    x_start = np.zeros(coeffs.n)

    laws = [perturbed_feedback(base, d_theta, d_v, eps=float(e)) if e else base for e in eps_grid]
    per_path, n_over = np.empty((len(laws), n_paths)), np.zeros(len(laws), dtype=int)
    # the laws stream together over each row block, drawn when it is reached
    for rows, block in bundle.blocks(SCAN_BLOCK_ROWS // len(laws)):
        totals, _, overflow = _accumulate_cost(coeffs, laws, x_start, block, start_node=start_node)
        per_path[:, rows] = np.where(overflow, np.nan, totals[-1] / coeffs.tau)
        n_over += overflow.sum(axis=1)
        del block

    cost, cost_se, diff, diff_se = np.empty((4, len(eps_grid)))
    base_vals = per_path[zero_pos]
    for j, vals in enumerate(per_path):
        finite = np.isfinite(vals)
        cost[j], cost_se[j] = mean_se(vals[finite])
        both = finite & np.isfinite(base_vals)
        diff[j], diff_se[j] = mean_se(vals[both] - base_vals[both])

    return ScanResult(
        eps=eps_grid, cost=cost, cost_se=cost_se, diff=diff, diff_se=diff_se,
        n_overflow=n_over, k_burn=k_burn, seed=seed, n_paths=n_paths,
    )


@dataclass
class QuadraticFit:
    linear: float
    linear_se: float
    curvature: float
    curvature_se: float
    chi2_dof: float

    @property
    def curvature_t(self) -> float:
        return self.curvature / max(self.curvature_se, 1e-300)


def fit_quadratic_excess(scan: ScanResult) -> QuadraticFit:
    """Weighted fit of the paired excess cost to b eps + c eps^2."""
    mask = (scan.eps != 0.0) & (scan.n_overflow == 0)
    eps = scan.eps[mask]
    y = scan.diff[mask]
    se = np.maximum(scan.diff_se[mask], 1e-12)
    if eps.size < 3:
        raise ValueError("need at least three off-center scan points to fit")
    design = np.stack([eps, eps**2], axis=1)
    w = 1.0 / se**2
    gram = design.T @ (design * w[:, None])
    rhs = design.T @ (y * w)
    cov = np.linalg.inv(gram)
    beta = cov @ rhs
    resid = y - design @ beta
    chi2 = float(np.sum((resid / se) ** 2))
    dof = max(eps.size - 2, 1)
    return QuadraticFit(
        linear=float(beta[0]),
        linear_se=float(math.sqrt(cov[0, 0])),
        curvature=float(beta[1]),
        curvature_se=float(math.sqrt(cov[1, 1])),
        chi2_dof=chi2 / dof,
    )


def export_scan_csv(scan: ScanResult, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["eps", "cost", "cost_se", "excess", "excess_se", "n_overflow"])
        for j in range(scan.eps.size):
            writer.writerow(
                [
                    repr(float(scan.eps[j])),
                    repr(float(scan.cost[j])),
                    repr(float(scan.cost_se[j])),
                    repr(float(scan.diff[j])),
                    repr(float(scan.diff_se[j])),
                    int(scan.n_overflow[j]),
                ]
            )
