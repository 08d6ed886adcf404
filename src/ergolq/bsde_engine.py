"""Backward equations over one period by regression Monte Carlo.

The matrix equation (the second-moment / Riccati family) and the vector
equation (the first-order correction) are both solved by the same scheme:

* one backward sweep discretizes the equation on the period grid; at node i
  the martingale integrand is estimated as the regression of
  ``K_{i+1} dW_i / dt`` on polynomial features of the within-period
  increment partial sum, and the node value as the regression of
  ``K_{i+1} + drift(i, K_{i+1}, L_i) dt``;
* the periodic solution is the fixed point of the map sending a terminal
  value to the resulting time-0 value.  Under mean-square stability the map
  contracts at a rate comparable to E|Phi_tau|^2 < 1, so plain iteration
  from zero converges geometrically.

All sweeps of one solve run on a single frozen path bundle, which makes the
iteration a deterministic map with an honest fixed point; the statistical
error is then controlled by the stopping rule, which refuses to iterate
below the Monte Carlo resolution of the update.

A solve builds each node's ridged normal matrix and condition number once
(``ridge_plan``, defined in ``sde_engine`` and shared with the Gram
estimate) for all its sweeps; designs are rebuilt per node, since a period
of cubic designs costs more memory than time.  A degree-0 solution is
deterministic: the fitted integrand, drift and fitted value are computed
on one row and broadcast, while every reduction over paths (regression
right-hand sides, node-0 target, stopping rule) reads full per-path rows.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable, List, Optional

import numpy as np

from .coefficients import CoefficientFn
from .sde_engine import (
    RIDGE,
    PathBundle,
    RegressionError,
    mean_se,
    poly_design,
    ridge_plan,
    ridge_solve,
    stream_fundamental,
)


class ConvergenceError(RuntimeError):
    """Raised when the outer fixed-point iteration fails to contract."""


@dataclass
class RegressionBasis:
    """Polynomial basis in the within-period increment partial sum."""

    degree: int

    def __post_init__(self):
        if not 0 <= self.degree <= 6:
            raise RegressionError("basis degree must lie in 0..6")

    def design(self, bundle: PathBundle, node: int) -> np.ndarray:
        """Features at a grid node; degree 0 never reads the partial sums."""
        if self.degree == 0:
            return np.ones((bundle.n_paths, 1))
        return poly_design(bundle.partial_sum(node), bundle.phase(node), self.degree)


@dataclass
class SweepResult:
    values: np.ndarray          # (P, sp+1) + vshape
    integrand: np.ndarray       # (P, sp) + vshape
    value_coeffs: List[np.ndarray]
    node0_target: np.ndarray    # (P, prod(vshape)) regression target at node 0
    max_cond: float


def backward_sweep(
    drift: Callable,
    terminal: np.ndarray,
    bundle: PathBundle,
    basis: RegressionBasis,
    plans: list,
) -> SweepResult:
    """One explicit backward pass over a single period on the node plans.

    drift(node, value_next, integrand_est) gets ``rows`` rows (1 for a
    degree-0 basis, else n_paths) and must return an array broadcastable to
    (rows,) + value shape.  Matrix-valued sweeps keep every stored node
    value exactly symmetric.
    """
    if bundle.n_periods != 1:
        raise ValueError("backward sweeps operate on single-period bundles")
    terminal = np.asarray(terminal, dtype=float)
    vshape = terminal.shape
    is_matrix = len(vshape) == 2
    flat_dim = int(np.prod(vshape))
    sp, dt = bundle.steps_per_period, bundle.dt
    n_paths = bundle.n_paths
    rows = 1 if basis.degree == 0 else n_paths

    values = np.empty((n_paths, sp + 1) + vshape)
    integrand = np.empty((n_paths, sp) + vshape)
    values[:, sp] = terminal
    value_coeffs: List[Optional[np.ndarray]] = [None] * sp
    node0_target = None

    for i in range(sp - 1, -1, -1):
        design = basis.design(bundle, i)
        v_next = values[:, i + 1]
        flat_next = v_next.reshape(n_paths, flat_dim)

        dw = bundle.increments[:, i] / dt
        beta_l = ridge_solve(design, flat_next * dw[:, None], plans[i])
        l_est = (design[:rows] @ beta_l).reshape((rows,) + vshape)
        if is_matrix:
            l_est = 0.5 * (l_est + np.swapaxes(l_est, -1, -2))

        d = np.asarray(drift(i, v_next[:rows], l_est), dtype=float)
        if d.ndim == len(vshape):
            d = d[None]
        target = flat_next + dt * d.reshape(d.shape[0], flat_dim)
        beta_v = ridge_solve(design, target, plans[i])
        fitted = (design[:rows] @ beta_v).reshape((rows,) + vshape)
        if is_matrix:
            fitted = 0.5 * (fitted + np.swapaxes(fitted, -1, -2))
        values[:, i] = fitted
        integrand[:, i] = l_est
        value_coeffs[i] = beta_v
        if i == 0:
            node0_target = np.broadcast_to(target, (n_paths, flat_dim)).copy()

    return SweepResult(
        values=values,
        integrand=integrand,
        value_coeffs=value_coeffs,
        node0_target=node0_target,
        max_cond=max(cond for _, cond in plans),
    )


@dataclass
class IterationTrace:
    updates: List[float] = field(default_factory=list)
    stop_reason: str = ""
    diagnostics: dict = field(default_factory=dict)

    @property
    def n_iterations(self) -> int:
        return len(self.updates)

    @property
    def contraction_ratio(self) -> Optional[float]:
        usable = [
            self.updates[i + 1] / self.updates[i]
            for i in range(len(self.updates) - 1)
            if self.updates[i] > 0.0
        ]
        if not usable:
            return None
        tail = usable[-3:]
        return float(np.median(tail))


@dataclass(eq=False)
class BsdeGridSolution:
    """Periodic solution samples on the solve bundle plus node surrogates.

    bundle is the single-period bundle the solution was computed on, so
    its grid and its paths are the solution's: values holds the per-path
    node samples on those paths (deterministic at phase 0) and integrand
    the martingale coefficient estimates at nodes 0..sp-1.  value_coeffs
    are the per-node regression weights that define the out-of-sample
    value surrogate.
    """

    kind: str                 # "matrix" or "vector"
    bundle: PathBundle
    values: np.ndarray
    integrand: np.ndarray
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

    def value_at(self, phase: float, partial_sum: np.ndarray) -> np.ndarray:
        """Surrogate value at the node nearest to phase, on fresh (n_paths,)
        within-period partial sums."""
        sp = self.bundle.steps_per_period
        node = min(max(int(round(phase / self.dt)), 0), sp)
        n_paths = partial_sum.shape[0]
        if node == sp or node == 0:
            anchor = self.terminal if node == sp else self.fixed_point
            return np.tile(anchor, (n_paths,) + (1,) * anchor.ndim)
        beta = self.value_coeffs[node]
        design = poly_design(partial_sum, node * self.dt, self.basis.degree)
        out = (design @ beta).reshape((n_paths,) + self.fixed_point.shape)
        if self.kind == "matrix":
            out = 0.5 * (out + np.swapaxes(out, -1, -2))
        return out


def _default_basis(*fns: CoefficientFn) -> RegressionBasis:
    """Constant basis when no input carries path dependence, else cubic.

    A deterministic problem has a deterministic solution; fitting it on
    path features would only launder martingale noise into spurious slope
    coefficients, so the basis collapses to the constant column.  For
    path-functional problems the cubic captures the leading odd component
    of smooth link functions of the partial sum; stopping at the quadratic
    leaves a deterministic projection bias in the solved feedback that
    paired cost tests resolve at several standard errors.
    """
    degree = 0 if all(fn.kind != "path-functional" for fn in fns) else 3
    return RegressionBasis(degree=degree)


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


def _outer_fixed_point(
    drift: Callable,
    shape: tuple,
    bundle: PathBundle,
    basis: RegressionBasis,
    tol: float,
    max_iter: int,
    initial_terminal: Optional[np.ndarray] = None,
) -> BsdeGridSolution:
    if initial_terminal is None:
        terminal = np.zeros(shape)
    else:
        terminal = np.array(initial_terminal, dtype=float)
        if terminal.shape != shape:
            raise ValueError(f"warm start shape {terminal.shape}, expected {shape}")
    # built from the last node down, so a singular node raises as a sweep would
    sp = bundle.steps_per_period
    plans = [ridge_plan(basis.design(bundle, i), RIDGE) for i in range(sp - 1, -1, -1)][::-1]
    trace = IterationTrace(diagnostics={"max_cond": max(cond for _, cond in plans)})
    prev_target = None
    for _ in range(max_iter):
        sweep = backward_sweep(drift, terminal, bundle, basis, plans)
        fixed = sweep.values[0, 0].copy()
        update = float(np.linalg.norm(fixed - terminal))
        if prev_target is None:
            se_norm = 0.0
        else:
            _, se = mean_se(sweep.node0_target - prev_target, bundle.antithetic)
            se_norm = float(np.linalg.norm(se))
        prev_target = sweep.node0_target
        trace.updates.append(update)
        scale = max(1.0, float(np.linalg.norm(fixed)))
        stopped = update < max(tol * scale, 0.5 * se_norm)
        old_terminal = terminal
        terminal = fixed
        if stopped:
            trace.stop_reason = (
                "tolerance" if update < tol * scale else "statistical floor"
            )
            _, fp_se = mean_se(sweep.node0_target, bundle.antithetic)
            fp_se_norm = float(np.linalg.norm(fp_se))
            return BsdeGridSolution(
                kind="matrix" if len(shape) == 2 else "vector",
                bundle=bundle,
                values=sweep.values,
                integrand=sweep.integrand,
                value_coeffs=sweep.value_coeffs,
                terminal=old_terminal,
                fixed_point=fixed,
                fixed_point_se=math.hypot(update, fp_se_norm),
                trace=trace,
                basis=basis,
            )
    ratio = trace.contraction_ratio
    raise ConvergenceError(
        f"no fixed point in {max_iter} outer iterations "
        f"(last update {trace.updates[-1]:.3e}, ratio estimate {ratio})"
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
    tol: float = 1e-6,
    max_iter: int = 200,
    initial_terminal: Optional[np.ndarray] = None,
) -> BsdeGridSolution:
    """Periodic matrix equation with drift K A + A'K + C'K C + L C + C'L + Lam.

    Iterates the terminal map from zero on a frozen bundle.  The source Lam
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

    solution = _outer_fixed_point(drift, (n, n), bundle, basis, tol, max_iter, initial_terminal)

    eps = 1e-8 * max(1.0, float(np.linalg.norm(solution.fixed_point)))
    lows = _min_eig_batch(solution.values)
    worst = float(lows.min())
    solution.trace.diagnostics["min_sample_eig"] = worst
    if worst < -eps:
        solution.trace.diagnostics["positivity_violation"] = worst
    shift = np.clip(-lows, 0.0, eps)
    if np.any(shift > 0.0):
        solution.values += shift[..., None, None] * np.eye(n)
    return solution


def solve_vector_bsde(
    a_fn: CoefficientFn,
    c_fn: CoefficientFn,
    kl_solution: BsdeGridSolution,
    b_fn: CoefficientFn,
    sigma_fn: CoefficientFn,
    lam_fn: CoefficientFn,
    tol: float = 1e-6,
    max_iter: int = 200,
) -> BsdeGridSolution:
    """Periodic vector equation with drift A'eta + C'zeta + K b + C'K sigma
    + L sigma + lam, where (K, L) are the matrix solution's samples; it is
    solved on the matrix solution's bundle and regressed on its basis.
    """
    bundle = kl_solution.bundle
    n = a_fn.shape[0]
    a_at, c_at, b_at, sigma_at, lam_at = (
        bundle.bind(f) for f in (a_fn, c_fn, b_fn, sigma_fn, lam_fn)
    )

    def drift(i, eta_next, zeta_est):
        k_i = kl_solution.values[: len(eta_next), i]
        l_i = kl_solution.integrand[: len(eta_next), i]
        a, c, bd, sg, lam = a_at(i), c_at(i), b_at(i), sigma_at(i), lam_at(i)
        at_eta = np.matmul(np.swapaxes(a, -1, -2), eta_next[..., None])[..., 0]
        ct_zeta = np.matmul(np.swapaxes(c, -1, -2), zeta_est[..., None])[..., 0]
        kb = np.matmul(k_i, np.broadcast_to(bd, eta_next.shape)[..., None])[..., 0]
        ksig = np.matmul(k_i, np.broadcast_to(sg, eta_next.shape)[..., None])[..., 0]
        ct_ksig = np.matmul(np.swapaxes(c, -1, -2), ksig[..., None])[..., 0]
        lsig = np.matmul(l_i, np.broadcast_to(sg, eta_next.shape)[..., None])[..., 0]
        return at_eta + ct_zeta + kb + ct_ksig + lsig + lam

    return _outer_fixed_point(drift, (n,), bundle, kl_solution.basis, tol, max_iter)


@dataclass
class RepresentationReport:
    estimate: np.ndarray
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
    """Compare the fixed point against a truncated occupation integral.

    Streams the fundamental solution over the (long) audit bundle and
    accumulates the pathwise trapezoid of Phi' Lam Phi; the fixed point
    should match the ensemble mean within combined uncertainty.
    """
    n = a_fn.shape[0]
    n_paths = bundle.n_paths
    acc = np.zeros((n_paths, n, n))
    n_steps = bundle.n_steps
    dt = bundle.dt
    lam_at = bundle.bind(lam_fn)

    def visit(k, phi):
        lam = lam_at(k)
        integ = np.matmul(np.swapaxes(phi, -1, -2), np.matmul(lam, phi))
        weight = 0.5 * dt if (k == 0 or k == n_steps) else dt
        np.add(acc, weight * integ, out=acc)

    # a namespace, not a class: a class is a reference cycle that pins its operands
    overflow = stream_fundamental(SimpleNamespace(A=a_fn, C=c_fn, n=n), bundle, visit)
    good = ~overflow
    paired = bundle.antithetic and bool(good.all())
    mean, se = mean_se(acc[good].reshape(int(good.sum()), -1), paired)
    estimate = mean.reshape(n, n)
    se_norm = float(np.linalg.norm(se))
    residual = float(np.linalg.norm(estimate - solution.fixed_point))
    ref_norm = float(np.linalg.norm(solution.fixed_point))
    return RepresentationReport(
        estimate=estimate,
        se=se_norm,
        reference=solution.fixed_point,
        residual=residual,
        rel_residual=residual / max(ref_norm, 1e-12),
    )


def export_node_table_csv(solution: BsdeGridSolution, path) -> None:
    """Write (node, t, mean entries.., se entries..) over the period grid."""
    sp = solution.bundle.steps_per_period
    flat = solution.values.reshape(solution.values.shape[:2] + (-1,))
    n_comp = flat.shape[2]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["node", "t"]
            + [f"mean_c{i}" for i in range(n_comp)]
            + [f"se_c{i}" for i in range(n_comp)]
        )
        for k in range(sp + 1):
            mean, se = mean_se(flat[:, k])
            writer.writerow(
                [k, repr(float(k * solution.dt))]
                + [repr(float(v)) for v in mean]
                + [repr(float(v)) for v in np.atleast_1d(se)]
            )
