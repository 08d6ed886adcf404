"""Backward equations over one period by regression Monte Carlo.

The matrix equation (the second-moment / Riccati family) and the vector
equation (the first-order correction) are both solved by the same scheme:

* one backward sweep discretizes the equation on the period grid; at node i
  the martingale integrand is estimated as the regression of
  ``K_{i+1} dW_i / dt`` on polynomial features of the within-period
  increment partial sum, and the node value as the regression of
  ``K_{i+1} + drift(i, K_{i+1}, L_i) dt``;
* the periodic solution is the fixed point of the period map sending a
  terminal value to the resulting time-0 value.

All sweeps of one solve run on a single frozen path bundle with fixed
regression plans, where the period map is affine in the terminal: the ridge
solve is linear in its target, both drifts are linear in (value, integrand)
plus a source, and symmetrisation is linear.  The images of 0 and of each
basis terminal (d = n(n+1)/2 for a symmetric matrix, n for a vector) give
its linear part M, the fixed point solves (I - M) t = F(0), and one last
sweep at t gives the stored samples (a combination of the probes' would
differ from a sweep in its last bits).  The spectral radius rho(M) is the
bundle's certificate of the paper's random periodic mean-square stability:
a solve with rho(M) >= 1 has no periodic solution to report.

A sweep runs a stack of terminals at once, so the zero and probe terminals
take one sweep and every solve two.  A path sweep reads each node's ridged
normal matrix and condition number, kept on the bundle per basis degree
(``ridge_plan``, shared with the Gram estimate); designs are rebuilt per
node, since a period of cubic designs costs more memory than time.  A
degree-0 (path-free) solution is deterministic with L = 0: its sweep is the
scheme's explicit recursion on one row, which every reader takes as exact
with SE 0.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable, List, Optional

import numpy as np

from .coefficients import CoefficientFn, cf_transpose
from .sde_engine import (
    RIDGE,
    PathBundle,
    RegressionError,
    _period_continuation,
    feature_degree,
    mean_se,
    poly_design,
    ridge_plan,
    ridge_solve,
)


class ConvergenceError(RuntimeError):
    """Raised when a periodic solve has no certified fixed point: the period
    map's linear part has rho(M) >= 1 (or NaN), policy iteration does not
    settle, or the solved law fails its closed-loop certificate."""


@dataclass
class RegressionBasis:
    """Polynomial basis in the within-period increment partial sum."""

    degree: int

    def __post_init__(self):
        if not 0 <= self.degree <= 6:
            raise RegressionError("basis degree must lie in 0..6")

    def design(self, bundle: PathBundle, node: int) -> np.ndarray:
        """Features at a grid node (a path sweep's; a path-free one builds none)."""
        return poly_design(bundle.partial_sum(node), bundle.phase(node), self.degree)


@dataclass
class SweepResult:
    values: np.ndarray          # (T, R, sp+1) + vshape: T terminals on R rows
    integrand: np.ndarray       # (T, R, sp) + vshape
    value_coeffs: List[np.ndarray]
    node0_target: np.ndarray    # (T, R, prod(vshape)) regression target at node 0
    max_cond: float


def backward_sweep(
    drift: Callable,
    terminal: np.ndarray,
    bundle: PathBundle,
    basis: RegressionBasis,
    plans: Optional[list],
) -> SweepResult:
    """One explicit backward pass over a single period on the node plans.

    ``terminal`` is (terminals,) + value shape, swept at once on the basis's
    rows: the bundle's paths, or on a degree-0 basis one row, where the
    sweep is the explicit recursion (a constant fit of one row is that row,
    and L = 0): no design, plan or draw, and a node's coefficients are its
    value target.  Results are (terminals, rows, ...) stacks.
    drift(node, value_next, integrand_est) gets the swept stack and must
    return an array broadcastable to it.  Matrix-valued sweeps keep every
    stored node value exactly symmetric.
    """
    if bundle.n_periods != 1:
        raise ValueError("backward sweeps operate on single-period bundles")
    terminal = np.asarray(terminal, dtype=float)
    vshape = terminal.shape[1:]
    sp, dt = bundle.steps_per_period, bundle.dt
    symmetric = len(vshape) == 2 and vshape[0] > 1  # a 1x1 value is symmetric
    path_free = basis.degree == 0
    stack = (len(terminal), 1 if path_free else bundle.n_paths)
    values, integrand = np.empty(stack + (sp + 1,) + vshape), np.empty(stack + (sp,) + vshape)
    values[:, :, sp] = terminal[:, None]
    value_coeffs: List[Optional[np.ndarray]] = [None] * sp
    l_est = np.zeros(stack + vshape)  # the integrand of a path-free sweep

    for i in range(sp - 1, -1, -1):
        v_next = values[:, :, i + 1]
        if not path_free:
            design = basis.design(bundle, i)
            dw = bundle.draw()[i] / dt
            beta_l = ridge_solve(design, v_next.reshape(stack + (-1,)) * dw[:, None], plans[i])
            l_est = (design @ beta_l).reshape(stack + vshape)
            if symmetric:
                l_est = 0.5 * (l_est + np.swapaxes(l_est, -1, -2))

        target = (v_next + dt * drift(i, v_next, l_est)).reshape(stack + (-1,))
        beta_v = target if path_free else ridge_solve(design, target, plans[i])
        fitted = (beta_v if path_free else design @ beta_v).reshape(stack + vshape)
        if symmetric:
            fitted = 0.5 * (fitted + np.swapaxes(fitted, -1, -2))
        values[:, :, i] = fitted
        integrand[:, :, i] = l_est
        value_coeffs[i] = beta_v

    return SweepResult(
        values=values,
        integrand=integrand,
        value_coeffs=value_coeffs,
        node0_target=target,
        # a constant design's normal matrix is exactly [[1.0]]
        max_cond=1.0 if path_free else max(cond for _, cond in plans),
    )


@dataclass
class IterationTrace:
    n_iterations: int                # sweeps run: the probe stack's and the final one
    stop_reason: str = "direct"
    diagnostics: dict = field(default_factory=dict)


@dataclass(eq=False)
class BsdeGridSolution:
    """Periodic solution samples on the solve bundle plus node surrogates.

    bundle is the single-period bundle the solution was computed on, so
    its grid and its paths are the solution's.  stored = (values, integrand)
    holds the node samples at nodes 0..sp (deterministic at phase 0) and the
    martingale coefficient estimates at nodes 0..sp-1 as swept: n_paths rows,
    or one exact row on a path-free solve.  Readers reduce per-row
    quantities with ``path_mean``.  value_coeffs are the per-node regression
    weights that define the out-of-sample value surrogate.
    """

    kind: str                 # "matrix" or "vector"
    bundle: PathBundle
    stored: tuple             # (values, integrand) as swept: 1 or n_paths rows
    value_coeffs: List[np.ndarray]
    terminal: np.ndarray
    fixed_point: np.ndarray
    fixed_point_se: float
    trace: IterationTrace
    basis: RegressionBasis

    @property
    def dt(self) -> float:
        return self.bundle.dt

    @property
    def periodic_residual(self) -> float:
        return float(np.linalg.norm(self.fixed_point - self.terminal))

    def path_mean(self, samples: np.ndarray):
        """(mean, se) over the first axis of samples, one per stored row: a
        path-free solution's one row is exact with SE 0, else ``mean_se``
        over the rows, antithetic pairs first."""
        if self.basis.degree == 0:
            return samples[0], np.zeros_like(samples[0])
        return mean_se(samples, self.bundle.antithetic)

    def value_at(self, phase: float, partial_sum: np.ndarray) -> np.ndarray:
        """Surrogate value at the node nearest to phase, on fresh (n_paths,)
        within-period partial sums; the anchors at nodes 0 and sp are the
        path-free fixed point and terminal themselves."""
        sp = self.bundle.steps_per_period
        node = min(max(int(round(phase / self.dt)), 0), sp)
        if node == sp or node == 0:
            return self.terminal if node == sp else self.fixed_point
        beta = self.value_coeffs[node]
        design = poly_design(partial_sum, node * self.dt, self.basis.degree)
        out = (design @ beta).reshape((partial_sum.shape[0],) + self.fixed_point.shape)
        if self.kind == "matrix":
            out = 0.5 * (out + np.swapaxes(out, -1, -2))
        return out


def _default_basis(*fns: CoefficientFn) -> RegressionBasis:
    """Constant basis when no input carries path dependence, else cubic
    (see ``sde_engine.feature_degree``)."""
    return RegressionBasis(degree=feature_degree(*fns))


def solution_coeff(solution: BsdeGridSolution) -> CoefficientFn:
    """Wrap a grid solution as a coefficient for composition and reuse.

    On the solve bundle's own partial sums the wrapper reproduces the stored
    node samples bit for bit (same design, same weights); on fresh paths it
    acts as the out-of-sample regression surrogate.
    """
    shape = tuple(solution.fixed_point.shape)
    kind = "deterministic-periodic" if solution.basis.degree == 0 else "path-functional"
    return CoefficientFn(kind, shape, solution.value_at, solution.bundle.tau)


def _min_eig_batch(mats: np.ndarray) -> np.ndarray:
    n = mats.shape[-1]
    if n == 1:
        return mats[..., 0, 0]
    if n == 2:
        tr = mats[..., 0, 0] + mats[..., 1, 1]
        det_gap = np.sqrt(
            np.maximum((mats[..., 0, 0] - mats[..., 1, 1]) ** 2, 0.0)
            + 4.0 * mats[..., 0, 1] ** 2
        )
        return 0.5 * (tr - det_gap)
    return np.linalg.eigvalsh(mats)[..., 0]


def _sweep_plans(bundle: PathBundle, basis: RegressionBasis) -> list:
    """The node plans of a path sweep, kept on ``bundle``."""
    plans = bundle._memo.get(("plans", basis.degree))
    if plans is None:
        # last node first, so a singular one raises as a sweep would
        sp = bundle.steps_per_period
        plans = [ridge_plan(basis.design(bundle, i), RIDGE) for i in range(sp - 1, -1, -1)][::-1]
        bundle._memo["plans", basis.degree] = plans
    return plans


def _outer_fixed_point(
    drift: Callable, shape: tuple, bundle: PathBundle, basis: RegressionBasis
) -> BsdeGridSolution:
    # terminals: 0, then the basis e_i for a vector, E_ii and E_ij + E_ji
    # (i <= j) for a symmetric matrix; coordinates are the entries at idx, and
    # images[k] holds those of the period map of terminal k
    idx = np.triu_indices(shape[0]) if len(shape) == 2 else (np.arange(shape[0]),)
    d = len(idx[0])
    terminals = np.zeros((d + 1,) + shape)
    terminals[(np.arange(1, d + 1),) + idx] = terminals[(np.arange(1, d + 1),) + idx[::-1]] = 1.0

    plans = _sweep_plans(bundle, basis) if basis.degree else None
    node0 = (slice(None), 0, 0) + idx  # each terminal's coordinates at node 0, row 0
    images = backward_sweep(drift, terminals, bundle, basis, plans).values[node0]
    f0, m = images[0], (images[1:] - images[0]).T
    rho = float(np.abs(np.linalg.eigvals(m)).max()) if np.isfinite(m).all() else math.nan
    if not rho < 1.0:
        raise ConvergenceError(f"period map not contracting on this bundle: rho(M) = {rho:.4g}")
    terminal = np.tensordot(np.linalg.solve(np.eye(d) - m, f0), terminals[1:], 1)
    final = backward_sweep(drift, terminal[None], bundle, basis, plans)
    # a path-free sweep's node-0 target has no spread
    fp_se = mean_se(final.node0_target[0], bundle.antithetic)[1] if basis.degree else 0.0
    diagnostics = {"max_cond": final.max_cond, "rho": rho}
    return BsdeGridSolution(
        kind="matrix" if len(shape) == 2 else "vector",
        bundle=bundle,
        stored=(final.values[0], final.integrand[0]),
        value_coeffs=[beta[0] for beta in final.value_coeffs],
        terminal=terminal,
        fixed_point=final.values[0, 0, 0].copy(),
        fixed_point_se=float(np.linalg.norm(fp_se)),
        trace=IterationTrace(2, diagnostics=diagnostics),
        basis=basis,
    )


def _lyapunov_drift(k, a, c, l):
    """K A + A'K + C'K C + L C + C'L, added left to right."""
    ka = np.matmul(k, a)
    ckc = np.matmul(np.swapaxes(c, -1, -2), np.matmul(k, c))
    lc = np.matmul(l, c)
    return ka + np.swapaxes(ka, -1, -2) + ckc + lc + np.swapaxes(lc, -1, -2)


def solve_linear_matrix_bsde(
    a_fn: CoefficientFn,
    c_fn: CoefficientFn,
    lam_fn: CoefficientFn,
    bundle: PathBundle,
    basis: Optional[RegressionBasis] = None,
) -> BsdeGridSolution:
    """Periodic matrix equation with drift K A + A'K + C'K C + L C + C'L + Lam.

    Solves the frozen-bundle period map directly.  The source Lam
    must be positive semidefinite (every caller's is), so the solution is
    too: returned samples are cleaned to min eigenvalue >= -1e-8 relative,
    and deeper violations are recorded in the trace diagnostics instead of
    silently clipped.
    """
    basis = basis or _default_basis(a_fn, c_fn, lam_fn)
    n = a_fn.shape[0]
    a_at, c_at, lam_at = (bundle.bind(f) for f in (a_fn, c_fn, lam_fn))

    def drift(i, k_next, l_est):
        return _lyapunov_drift(k_next, a_at(i), c_at(i), l_est) + lam_at(i)

    solution = _outer_fixed_point(drift, (n, n), bundle, basis)

    eps = 1e-8 * max(1.0, float(np.linalg.norm(solution.fixed_point)))
    values = solution.stored[0]
    lows = _min_eig_batch(values)
    worst = float(lows.min())
    solution.trace.diagnostics["min_sample_eig"] = worst
    if worst < -eps:
        solution.trace.diagnostics["positivity_violation"] = worst
    shift = np.clip(-lows, 0.0, eps)
    if np.any(shift > 0.0):
        values += shift[..., None, None] * np.eye(n)
    return solution


def solve_vector_bsde(
    a_fn: CoefficientFn,
    c_fn: CoefficientFn,
    kl_solution: BsdeGridSolution,
    b_fn: CoefficientFn,
    sigma_fn: CoefficientFn,
    lam_fn: CoefficientFn,
) -> BsdeGridSolution:
    """Periodic vector equation with drift A'eta + C'zeta + K b + C'K sigma
    + L sigma + lam, where (K, L) are the matrix solution's stored rows: it
    is swept on the matrix solution's bundle and basis, so the rows align.
    """
    bundle = kl_solution.bundle
    n = a_fn.shape[0]
    at_at, ct_at, b_at, sigma_at, lam_at = (
        bundle.bind(f) for f in (cf_transpose(a_fn), cf_transpose(c_fn), b_fn, sigma_fn, lam_fn)
    )

    def drift(i, eta_next, zeta_est):
        k_i, l_i = (rows[:, i] for rows in kl_solution.stored)
        at, ct, bd, sg = at_at(i), ct_at(i), b_at(i)[..., None], sigma_at(i)[..., None]
        at_eta = np.matmul(at, eta_next[..., None])[..., 0]
        ct_zeta = np.matmul(ct, zeta_est[..., None])[..., 0]
        kb = np.matmul(k_i, bd)[..., 0]
        ksig = np.matmul(k_i, sg)[..., 0]
        ct_ksig = np.matmul(ct, ksig[..., None])[..., 0]
        lsig = np.matmul(l_i, sg)[..., 0]
        return at_eta + ct_zeta + kb + ct_ksig + lsig + lam_at(i)

    return _outer_fixed_point(drift, (n,), bundle, kl_solution.basis)


@dataclass
class RepresentationReport:
    se: float
    reference: np.ndarray
    residual: float
    rel_residual: float


def representation_check(
    a_fn: CoefficientFn,
    c_fn: CoefficientFn,
    lam_fn: CoefficientFn,
    solution: BsdeGridSolution,
    bundle: PathBundle,
) -> RepresentationReport:
    """Compare the fixed point against the forward occupation integral.

    K = E int_0^inf Phi' Lam Phi dt of the loop (A, C) is (I - T*)^-1 O from
    the one forward period pass (``sde_engine._period_continuation``): its
    one exact row, drawn from no path, when A, C and Lam read none, else one
    row per path of the bundle's first period, with the SE of the per-path
    influence.  The fixed point should match it within that SE and the
    scheme's bias.
    """
    # a namespace, not a class: a class is a reference cycle that pins its operands
    dynamics = SimpleNamespace(A=a_fn, C=c_fn, n=a_fn.shape[0])
    kbar, se, _, _ = _period_continuation(dynamics, bundle, lam_fn)
    residual = float(np.linalg.norm(kbar - solution.fixed_point))
    ref_norm = float(np.linalg.norm(solution.fixed_point))
    return RepresentationReport(
        se=float(np.linalg.norm(se)),
        reference=solution.fixed_point,
        residual=residual,
        rel_residual=residual / max(ref_norm, 1e-12),
    )


def export_node_table_csv(solution: BsdeGridSolution, path) -> None:
    """Write (node, t, mean entries.., se entries..) over the period grid,
    each SE that of the mean beside it (``BsdeGridSolution.path_mean``)."""
    sp = solution.bundle.steps_per_period
    values = solution.stored[0]
    flat = values.reshape(values.shape[:2] + (-1,))
    n_comp = flat.shape[2]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["node", "t"]
            + [f"mean_c{i}" for i in range(n_comp)]
            + [f"se_c{i}" for i in range(n_comp)]
        )
        for k in range(sp + 1):
            mean, se = solution.path_mean(flat[:, k])
            writer.writerow(
                [k, repr(float(k * solution.dt))]
                + [repr(float(v)) for v in mean]
                + [repr(float(v)) for v in np.atleast_1d(se)]
            )
