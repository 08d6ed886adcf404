"""Forward simulation of the state dynamics and stability estimators.

The engine discretizes one or more periods on a uniform grid with an
explicit Euler-Maruyama step, coefficients evaluated at the left node.
Paths are driven by counter-based random streams: the increments of path i
depend only on (seed, i), never on how many paths are drawn or in which
order, so ensembles are reproducible and trivially parallel.

Memory rule: a stream holds the bundle's increments plus O(n_paths x state)
working state; estimators reduce inside their visitors, the partial-sum
table (one row per node, the size of the increments) is built on the first
read of a within-period partial sum, and only ``simulate_closed_loop``
stores a whole trajectory.

Stability diagnostics follow the moment characterization of the dynamics:
a feedback is accepted as stabilizing when the fitted exponential decay
rate of the second moment of the fundamental solution is positive with a
confidence interval excluding zero, and the conditional Gram integral has
a positive estimated lower bound.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .coefficients import (
    CoefficientFn,
    FeedbackLaw,
    PeriodicCoefficientSet,
    cf_add,
    cf_matmul,
)

OVERFLOW_LIMIT = 1e12
# ridge added to the non-constant columns of every regression normal matrix
RIDGE = 1e-8
# the Gram estimate's feature degree and its allowed truncation tail
GRAM_DEGREE = 2
GRAM_TAIL_TOL = 1e-3


class SimulationError(RuntimeError):
    """Raised for malformed grids or exhausted path ensembles."""


class RegressionError(RuntimeError):
    """Raised when a least-squares node problem is numerically singular."""


def derive_seed(seed: int, tag: str) -> int:
    """Stable child seed for auxiliary ensembles (stabilizer checks, scans)."""
    digest = hashlib.blake2b(f"{seed}:{tag}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") >> 1


def mean_se(values: np.ndarray, antithetic: bool = False):
    """Sample mean and standard error over the first axis, aggregating
    antithetic pairs first.  An empty sample gives (nan, inf)."""
    vals = np.asarray(values, dtype=float)
    if antithetic:
        if vals.shape[0] % 2:
            raise SimulationError("antithetic ensemble must have even path count")
        vals = 0.5 * (vals[0::2] + vals[1::2])
    n = vals.shape[0]
    if n == 0:
        return math.nan, math.inf
    mean = vals.mean(axis=0)
    if n < 2:
        return mean, np.full_like(np.asarray(mean, dtype=float), np.inf)
    se = vals.std(axis=0, ddof=1) / math.sqrt(n)
    return mean, se


@dataclass(eq=False)
class PathBundle:
    """Grid metadata plus the per-path Brownian increments driving a run.

    Coefficients read the path only through ``partial_sum(node)``, the
    increments summed since the last period boundary, so a bundle that
    starts at a boundary of another sees the same sums there: the period
    shift is exact.
    """

    tau: float
    steps_per_period: int
    n_periods: int
    seed: int
    increments: np.ndarray  # (n_paths, n_steps), N(0, dt) entries
    antithetic: bool = False
    _cumsum: Optional[np.ndarray] = field(default=None, repr=False)

    @classmethod
    def generate(
        cls,
        seed: int,
        n_paths: int,
        steps_per_period: int,
        n_periods: int,
        tau: float = 1.0,
        antithetic: bool = False,
    ) -> "PathBundle":
        if n_paths < 1 or steps_per_period < 1 or n_periods < 1:
            raise SimulationError("path count, steps and periods must be positive")
        if antithetic and n_paths % 2:
            raise SimulationError("antithetic bundles need an even path count")
        n_steps = steps_per_period * n_periods
        out = np.empty((n_paths, n_steps))
        # one generator re-keyed per path (or antithetic pair): the draws of
        # row i depend only on (seed, i), exactly as for Philox(key=[seed, i])
        bitgen = np.random.Philox(key=[seed, 0])
        gen = np.random.Generator(bitgen)
        fresh = bitgen.state
        drawn = out[0::2] if antithetic else out
        for i, row in enumerate(drawn):
            fresh["state"]["key"][1] = i
            bitgen.state = fresh
            gen.standard_normal(n_steps, out=row)
        drawn *= math.sqrt(tau / steps_per_period)
        if antithetic:
            np.negative(drawn, out=out[1::2])
        return cls(
            tau=tau,
            steps_per_period=steps_per_period,
            n_periods=n_periods,
            seed=seed,
            increments=out,
            antithetic=antithetic,
        )

    @property
    def n_paths(self) -> int:
        return self.increments.shape[0]

    @property
    def n_steps(self) -> int:
        return self.increments.shape[1]

    @property
    def dt(self) -> float:
        return self.tau / self.steps_per_period

    @property
    def duration(self) -> float:
        return self.tau * self.n_periods

    def _sums(self) -> np.ndarray:
        # node-major (n_steps + 1, n_paths): running sums restarted at each
        # period start, one contiguous row per node, zero at every boundary
        if self._cumsum is None:
            sp, n_periods = self.steps_per_period, self.n_periods
            self._cumsum = np.zeros((self.n_steps + 1, self.n_paths))
            blocks = self._cumsum[:-1].reshape(n_periods, sp, self.n_paths)
            incs = self.increments.reshape(self.n_paths, n_periods, sp).transpose(1, 2, 0)
            np.cumsum(incs[:, :-1], axis=1, out=blocks[:, 1:])
        return self._cumsum

    def phase(self, node: int) -> float:
        return (node % self.steps_per_period) * self.dt

    def partial_sum(self, node: int) -> np.ndarray:
        """(n_paths,) increment sums since the last period boundary at a grid
        node (zero at boundaries); a row of the table built on first call."""
        if not 0 <= node <= self.n_steps:
            raise SimulationError(f"node {node} outside grid 0..{self.n_steps}")
        return self._sums()[node]

    def bind(self, fn: CoefficientFn) -> Callable:
        """Bind a coefficient to this grid once; returns at(node).

        A constant becomes one array and a deterministic-periodic
        coefficient (composed trees included) a (steps_per_period, *shape)
        table built from one evaluation per phase on a zero partial sum, so
        neither grows with the path count.  A path-functional composition
        binds each recorded operand the same way and combines their node
        values, so its path-free subtrees are tables built once and each
        path-functional leaf is evaluated once per node per bound tree, on
        that node's partial sums.
        """
        if fn.kind == "path-functional":
            if fn.parts is None:
                return lambda node: fn.eval_batch(self.phase(node), self.partial_sum(node))
            combine, operands = fn.parts
            operands_at = [self.bind(f) for f in operands]
            return lambda node: fn.finish(combine(*(at(node) for at in operands_at)))
        zero = np.zeros(1)
        n_phases = 1 if fn.kind == "constant" else self.steps_per_period
        table = np.stack(
            [fn.eval_batch(self.phase(i), zero).reshape(fn.shape) for i in range(n_phases)]
        )
        return lambda node: table[node % n_phases]

    def bind_law(self, law: FeedbackLaw) -> Callable:
        """Bind a feedback law; returns u(node, x) = Theta x + v for vector
        states x of shape (n_paths, n)."""
        theta_at, v_at = self.bind(law.Theta), self.bind(law.v)

        def control(node, x):
            return np.matmul(theta_at(node), x[..., None])[..., 0] + v_at(node)

        return control

    def restrict(self, n_periods: int) -> "PathBundle":
        """View of the first n_periods periods (shares increment storage)."""
        if n_periods > self.n_periods:
            raise SimulationError("cannot extend a bundle by restriction")
        return PathBundle(
            tau=self.tau,
            steps_per_period=self.steps_per_period,
            n_periods=n_periods,
            seed=self.seed,
            increments=self.increments[:, : n_periods * self.steps_per_period],
            antithetic=self.antithetic,
        )


@dataclass(eq=False)
class StateTrajectory:
    """Node values of a simulated ensemble plus its grid metadata.

    values has shape (n_paths, n_nodes, n) for vector states and
    (n_paths, n_nodes, n, n) for fundamental (matrix) solutions.  Paths that
    exceeded the overflow guard hold NaN from the violating node onward.
    """

    values: np.ndarray
    tau: float
    steps_per_period: int
    overflow: np.ndarray

    @property
    def n_paths(self) -> int:
        return self.values.shape[0]

    @property
    def n_nodes(self) -> int:
        return self.values.shape[1]

    @property
    def dt(self) -> float:
        return self.tau / self.steps_per_period

    @property
    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.n_nodes)


def path_squared_norms(x: np.ndarray) -> np.ndarray:
    """Per-path squared Frobenius norm of a (n_paths, ...) batch."""
    flat = x.reshape(x.shape[0], -1)
    return np.einsum("pc,pc->p", flat, flat)


# ---------------------------------------------------------------------------
# streaming drivers


def _euler_stream(bundle: PathBundle, state: np.ndarray, visit: Callable, a_fn, c_fn, affine=None):
    """The one Euler-Maruyama kernel behind every stream.

    ``state`` is the start value, (n_paths, n) for a vector or
    (n_paths, n, n) for the fundamental matrix; it is stepped as columns X by
    X + (A X) dt + (C X) dW with coefficients at the left node.
    ``affine = (coeffs, law)`` adds B u + b to the drift and sigma to the
    diffusion, with u = Theta x + v; the visitor then receives u as a third
    argument.  Homogeneous streams fold any feedback into ``a_fn`` instead.
    Every coefficient is bound to the grid before the first step.

    One overflow rule: a path whose state is not finite or exceeds
    OVERFLOW_LIMIT in magnitude holds NaN from that node on and is flagged
    in the returned mask.
    """
    vector = state.ndim == 2
    x = state[..., None] if vector else state
    a_at, c_at = bundle.bind(a_fn), bundle.bind(c_fn)
    if affine is not None:
        coeffs, law = affine
        control = bundle.bind_law(law)
        b_at, drift_at, sigma_at = (bundle.bind(f) for f in (coeffs.B, coeffs.b, coeffs.sigma))
    dt = bundle.dt
    overflow = np.zeros(bundle.n_paths, dtype=bool)
    for k in range(bundle.n_steps + 1):
        view = x[..., 0] if vector else x
        if affine is None:
            visit(k, view)
        else:
            u = control(k, view)
            visit(k, view, u)
        if k == bundle.n_steps:
            break
        drift = np.matmul(a_at(k), x)
        diffusion = np.matmul(c_at(k), x)
        if affine is not None:
            drift = drift + np.matmul(b_at(k), u[..., None]) + drift_at(k)[..., None]
            diffusion = diffusion + sigma_at(k)[..., None]
        x = x + dt * drift + bundle.increments[:, k][:, None, None] * diffusion
        with np.errstate(invalid="ignore"):
            bad = ~(np.abs(x).max(axis=(1, 2)) <= OVERFLOW_LIMIT)
        fresh = bad & ~overflow
        if fresh.any():
            x[fresh] = np.nan
            overflow |= bad
    return overflow


def fundamental_squared_norms(
    coeffs: PeriodicCoefficientSet, bundle: PathBundle, nodes, feedback: Optional[FeedbackLaw] = None
):
    """Stream the fundamental solution keeping only its per-path squared
    norms at ``nodes``; returns ({node: (n_paths,) array}, overflow mask)."""
    kept = {}

    def visit(k, phi):
        if k in nodes:
            kept[k] = path_squared_norms(phi)

    return kept, stream_fundamental(coeffs, bundle, visit, feedback=feedback)


def _homogeneous_drift(coeffs, feedback: Optional[FeedbackLaw]) -> CoefficientFn:
    """A, or the closed-loop drift matrix A + B Theta under a feedback."""
    if feedback is None:
        return coeffs.A
    return cf_add(coeffs.A, cf_matmul(coeffs.B, feedback.Theta))


def stream_fundamental(
    coeffs: PeriodicCoefficientSet,
    bundle: PathBundle,
    visit: Callable,
    feedback: Optional[FeedbackLaw] = None,
):
    """Drive the fundamental (matrix) solution from the identity through the grid.

    visit(k, Phi) is called at every node including both ends;
    Phi must not be mutated by the visitor.  Returns the overflow mask.
    """
    shape = (bundle.n_paths, coeffs.n, coeffs.n)
    phi = np.broadcast_to(np.eye(coeffs.n), shape)
    return _euler_stream(bundle, phi, visit, _homogeneous_drift(coeffs, feedback), coeffs.C)


def stream_closed_loop(
    coeffs: PeriodicCoefficientSet,
    feedback: FeedbackLaw,
    x0,
    bundle: PathBundle,
    visit: Callable,
):
    """Drive the controlled state X through the grid.

    visit(k, x, u) sees the state and the control applied at every node;
    neither may be mutated.  Returns the overflow mask.
    """
    x = np.asarray(x0, dtype=float)
    if x.ndim == 1:
        x = np.broadcast_to(x, (bundle.n_paths, coeffs.n))
    if x.shape != (bundle.n_paths, coeffs.n):
        raise SimulationError(
            f"x0 shape {x.shape} incompatible with ({bundle.n_paths}, {coeffs.n})"
        )
    return _euler_stream(bundle, x, visit, coeffs.A, coeffs.C, affine=(coeffs, feedback))


def _difference_step_stream(coeffs, feedback, delta0, bundle, visit):
    # the difference of two closed-loop solutions on the same increments
    # satisfies the homogeneous recursion exactly, so it is simulated
    # directly; b, sigma and v cannot enter by construction
    d = np.broadcast_to(np.asarray(delta0, dtype=float), (bundle.n_paths, coeffs.n))
    return _euler_stream(bundle, d, visit, _homogeneous_drift(coeffs, feedback), coeffs.C)


def simulate_closed_loop(
    coeffs: PeriodicCoefficientSet, feedback: FeedbackLaw, x0, bundle: PathBundle
) -> StateTrajectory:
    """Controlled state under u = Theta x + v from x0 (vector or per-path),
    kept at every node."""
    values = np.empty((bundle.n_paths, bundle.n_steps + 1, coeffs.n))

    def visit(k, x, u):
        values[:, k] = x

    overflow = stream_closed_loop(coeffs, feedback, x0, bundle, visit)
    return StateTrajectory(values, bundle.tau, bundle.steps_per_period, overflow)


# ---------------------------------------------------------------------------
# stability estimators


@dataclass
class StabilityReport:
    """Exponential moment fit E|X_t|^2 ~ beta * exp(-lambda t) at period ends."""

    lambda_hat: float
    beta_hat: float
    lambda_se: float
    ci_low: float
    ci_high: float
    r_squared: float
    n_points: int
    overflow_paths: int = 0
    delta_hat: Optional[float] = None
    delta_se: Optional[float] = None
    diagnostics: dict = field(default_factory=dict)

    @property
    def stable(self) -> bool:
        return self.lambda_hat > 0.0 and self.ci_low > 0.0


def _loglinear_fit(times: np.ndarray, moments: np.ndarray):
    y = np.log(moments)
    x = np.asarray(times, dtype=float)
    xm = x - x.mean()
    sxx = float(np.dot(xm, xm))
    slope = float(np.dot(xm, y) / sxx)
    intercept = float(y.mean() - slope * x.mean())
    resid = y - (intercept + slope * x)
    dof = len(x) - 2
    s2 = float(np.dot(resid, resid)) / max(dof, 1)
    slope_se = math.sqrt(s2 / sxx)
    tss = float(np.dot(y - y.mean(), y - y.mean()))
    r2 = 1.0 if tss == 0.0 else 1.0 - float(np.dot(resid, resid)) / tss
    return slope, intercept, slope_se, r2


def _decay_report(tau: float, moments: np.ndarray, **fields) -> StabilityReport:
    """Fit log moments against time at period ends (one per period, from 0).

    lambda_hat is the negated slope; the 95% interval uses the OLS standard
    error of the slope.  ``fields`` fills the remaining report fields.
    """
    times = tau * np.arange(len(moments))
    slope, intercept, slope_se, r2 = _loglinear_fit(times, moments)
    lam = -slope
    return StabilityReport(
        lambda_hat=lam,
        beta_hat=math.exp(intercept),
        lambda_se=slope_se,
        ci_low=lam - 1.96 * slope_se,
        ci_high=lam + 1.96 * slope_se,
        r_squared=r2,
        n_points=len(moments),
        **fields,
    )


def estimate_second_moment_decay(
    coeffs: PeriodicCoefficientSet, bundle: PathBundle, feedback: Optional[FeedbackLaw] = None
) -> StabilityReport:
    """Fit log E|Phi|^2 of the fundamental solution at period boundaries.

    Only per-path squared norms at period ends are kept while streaming;
    overflowed paths are excluded.  Requires at least 3 periods.
    """
    if bundle.n_periods < 3:
        raise SimulationError("decay fit needs a trajectory spanning >= 3 periods")
    ends = range(0, bundle.n_steps + 1, bundle.steps_per_period)
    columns, overflow = fundamental_squared_norms(coeffs, bundle, ends, feedback)
    if overflow.all():
        raise SimulationError("all paths overflowed")
    # each period end's surviving paths reduced as one contiguous row: the
    # same pairwise sums numpy takes over a stored trajectory's columns
    moments = np.stack([columns[k][~overflow] for k in ends]).mean(axis=1)
    if np.any(moments <= 0.0):
        raise SimulationError("nonpositive moment at a period boundary")
    return _decay_report(
        bundle.tau,
        moments,
        overflow_paths=int(overflow.sum()),
        diagnostics={"period_end_moments": moments},
    )


def poly_design(partial_sum: np.ndarray, phase: float, degree: int) -> np.ndarray:
    """Polynomial features of the (n_paths,) within-period partial sums,
    variance scaled.

    At phase 0 the information set is trivial and the design is a constant
    column.  The scaled sum z is a standard normal under the Wiener measure,
    so monomials up to moderate degree stay well conditioned.
    """
    n_paths = partial_sum.shape[0]
    if phase <= 0.0 or degree == 0:
        return np.ones((n_paths, 1))
    z = partial_sum / math.sqrt(phase)
    cols = [np.ones(n_paths), z]
    for p in range(2, degree + 1):
        cols.append(cols[-1] * z)
    return np.stack(cols, axis=1)


def ridge_plan(design: np.ndarray, ridge: float):
    """(gram, cond): the normal matrix, ridged on the non-constant columns."""
    n_paths, n_feat = design.shape
    gram = design.T @ design / n_paths
    if n_feat > 1:
        idx = np.arange(1, n_feat)
        gram[idx, idx] += ridge
    cond = float(np.linalg.cond(gram))
    if not math.isfinite(cond) or cond > 1e12:
        raise RegressionError(f"singular regression at condition number {cond:.3e}")
    return gram, cond


def ridge_solve(design: np.ndarray, targets: np.ndarray, plan) -> np.ndarray:
    """Ridge least-squares coefficients (n_features, n_targets) on a plan."""
    return np.linalg.solve(plan[0], design.T @ targets / design.shape[0])


def estimate_gram_lower_bound(
    coeffs: PeriodicCoefficientSet,
    bundle: PathBundle,
    feedback: Optional[FeedbackLaw] = None,
) -> StabilityReport:
    """Regression proxy for the conditional Gram lower bound.

    For each anchor node r in {0, sp/4, sp/2, 3sp/4} of the first period
    (sp steps per period, floored), the pathwise integral
    int_r^T (Phi_s Phi_r^{-1})' (Phi_s Phi_r^{-1}) ds is accumulated while
    streaming, then regressed on polynomial features of the increments seen
    up to r.  delta_hat is the smallest eigenvalue of the fitted conditional
    expectations over all anchors and paths (clipped at zero; the raw value
    is kept in diagnostics).
    """
    n, sp = coeffs.n, bundle.steps_per_period
    if bundle.n_periods < 3:
        raise SimulationError("Gram estimate needs >= 3 periods for the tail fit")
    r_nodes = sorted({0, sp // 4, sp // 2, (3 * sp) // 4})
    dt = bundle.dt
    n_paths = bundle.n_paths
    inv_at = {}
    grams = {r: np.zeros((n_paths, n, n)) for r in r_nodes}
    n_steps = bundle.n_steps
    boundary_moments = []

    def visit(k, phi):
        if k % sp == 0:
            boundary_moments.append(path_squared_norms(phi).mean())
        if k in grams and k not in inv_at:
            inv_at[k] = np.linalg.inv(phi)
        for r, inv in inv_at.items():
            if k < r:
                continue
            psi = np.matmul(phi, inv)
            weight = 0.5 * dt if (k == r or k == n_steps) else dt
            grams[r] += weight * np.matmul(np.swapaxes(psi, -1, -2), psi)

    overflow = stream_fundamental(coeffs, bundle, visit, feedback=feedback)
    if overflow.any():
        raise SimulationError(f"{int(overflow.sum())} paths overflowed in Gram estimate")

    worst = math.inf
    worst_se = math.nan
    for r in r_nodes:
        design = poly_design(bundle.partial_sum(r), bundle.phase(r), GRAM_DEGREE)
        plan = ridge_plan(design, RIDGE)
        target = grams[r].reshape(n_paths, -1)
        beta = ridge_solve(design, target, plan)
        fitted = (design @ beta).reshape(n_paths, n, n)
        fitted = 0.5 * (fitted + np.swapaxes(fitted, -1, -2))
        eigs = np.linalg.eigvalsh(fitted)
        idx = int(np.argmin(eigs[:, 0]))
        low = float(eigs[idx, 0])
        if low < worst:
            worst = low
            resid = target - design @ beta
            sig2 = (resid**2).mean(axis=0)
            lever = float(design[idx] @ np.linalg.solve(plan[0], design[idx]) / n_paths)
            vecs = np.linalg.eigh(fitted[idx])[1][:, 0]
            wmat = np.outer(vecs, vecs).reshape(-1) ** 2
            worst_se = math.sqrt(max(lever * float(wmat @ sig2), 0.0))

    report = _decay_report(
        bundle.tau,
        np.array(boundary_moments),
        delta_hat=max(worst, 0.0),
        delta_se=worst_se,
        diagnostics={"delta_raw": worst, "r_nodes": r_nodes},
    )
    lam = report.lambda_hat
    horizon = bundle.duration - bundle.phase(max(r_nodes))
    tail = report.beta_hat * math.exp(-lam * horizon) / max(lam, 1e-12) if lam > 0 else math.inf
    report.diagnostics["tail_bound"] = tail
    if tail > GRAM_TAIL_TOL:
        report.diagnostics["tail_warning"] = (
            f"truncation tail estimate {tail:.2e} exceeds {GRAM_TAIL_TOL:.1e}; extend the horizon"
        )
    return report


def contraction_check(
    coeffs: PeriodicCoefficientSet,
    feedback: FeedbackLaw,
    x1,
    x2,
    bundle: PathBundle,
) -> StabilityReport:
    """Decay fit of E|X^1 - X^2|^2 for two starts on identical increments.

    The difference solves the homogeneous closed-loop recursion exactly, so
    it is simulated directly; drift, noise level and open-loop offset cannot
    influence the result even at round-off level.
    """
    delta0 = np.asarray(x1, dtype=float) - np.asarray(x2, dtype=float)
    sp = bundle.steps_per_period
    moments = []

    def visit(k, d):
        if k % sp == 0:
            moments.append(float(path_squared_norms(d).mean()))

    overflow = _difference_step_stream(coeffs, feedback, delta0, bundle, visit)
    moments_arr = np.array(moments)
    if np.all(moments_arr == 0.0):
        return StabilityReport(
            lambda_hat=math.inf, beta_hat=0.0, lambda_se=0.0,
            ci_low=math.inf, ci_high=math.inf, r_squared=1.0,
            n_points=len(moments), overflow_paths=int(overflow.sum()),
            diagnostics={"identically_zero": True, "period_end_moments": moments_arr},
        )
    if bundle.n_periods < 3:
        raise SimulationError("contraction fit needs >= 3 periods")
    return _decay_report(
        bundle.tau,
        moments_arr,
        overflow_paths=int(overflow.sum()),
        diagnostics={"identically_zero": False, "period_end_moments": moments_arr},
    )


# ---------------------------------------------------------------------------
# exports


def export_trajectory_csv(traj: StateTrajectory, path, max_paths: Optional[int] = None) -> None:
    """Write (path_id, node_index, t, c0..cK) rows; components row-major."""
    n_paths = traj.n_paths if max_paths is None else min(max_paths, traj.n_paths)
    flat = traj.values.reshape(traj.values.shape[:2] + (-1,))
    n_comp = flat.shape[2]
    times = traj.times
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["path_id", "node_index", "t"] + [f"c{i}" for i in range(n_comp)])
        for p in range(n_paths):
            for k in range(traj.n_nodes):
                writer.writerow(
                    [p, k, repr(float(times[k]))] + [repr(float(v)) for v in flat[p, k]]
                )


def export_moments_csv(traj: StateTrajectory, path) -> None:
    """Write (t, mean_c0.., second_moment, stderr) rows over all nodes."""
    good = ~traj.overflow
    n_good = int(good.sum())
    flat = traj.values[good].reshape((n_good,) + traj.values.shape[1:2] + (-1,))
    n_comp = flat.shape[2]
    sq = np.einsum("pkc,pkc->pk", flat, flat)
    means = flat.mean(axis=0)
    second = sq.mean(axis=0)
    if n_good > 1:
        stderr = sq.std(axis=0, ddof=1) / math.sqrt(n_good)
    else:
        stderr = np.full(sq.shape[1], np.nan)
    times = traj.times
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["t"] + [f"mean_c{i}" for i in range(n_comp)] + ["second_moment", "stderr"]
        )
        for k in range(traj.n_nodes):
            writer.writerow(
                [repr(float(times[k]))]
                + [repr(float(v)) for v in means[k]]
                + [repr(float(second[k])), repr(float(stderr[k]))]
            )
