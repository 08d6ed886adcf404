"""Forward simulation of the state dynamics and stability estimators.

The engine discretizes one or more periods on a uniform grid with an
explicit Euler-Maruyama step, coefficients evaluated at the left node.
Paths are driven by counter-based random streams: path i draws from
Philox(key=[seed, i]), one generator re-keyed per path, so its increments
never depend on how many paths are drawn or in which order.

Layout and memory rule: increments are node-major, one contiguous
(n_paths,) row per step.  The forward-only estimators (the fundamental
solution's squared norms, and the one period pass behind the second-moment
operator, the period continuation and the Gram bound) stream an ``undrawn``
bundle in row blocks of at most BLOCK_ELEMENTS increments, each drawn just
before it is streamed and dropped after it.  Their visitors write per-path
results into rows of ensemble-wide arrays, and every reduction across paths
runs after the last block on one contiguous (n_paths,) row, so no result
depends on the block size.  Backward sweeps and closed-loop streams read a
whole table, drawn on first read.  A stream also holds O(n_paths x state)
working state (generation: NOISE_BLOCK drawn rows); the partial-sum table
(the size of its increments) is built on the first read of a partial sum,
and only ``simulate_closed_loop`` stores a whole trajectory.

Stability diagnostics follow the moment characterization of the dynamics:
a feedback is accepted as mean-square stabilizing when the spectral radius
rho of the one-period second-moment operator E[Phi(tau) (x) Phi(tau)] is
below one with 95% confidence, i.e. lambda = -ln(rho) / tau > 0.  One
forward pass over the first period (``_period_continuation``) gives it, and
every infinite occupation integral of the loop: K = E int_0^inf Phi' Lam
Phi dt solves K = O + T*(K), O its first period's part.  The pass fills one
per-node accumulator with one row per streamed path, or with the one exact
row of the scheme's moments when the loop and weight read no path (no
draws, SE 0); every reader takes those rows the same way.  The conditional
Gram integral must have a positive estimated lower bound; it is that
continuation started at anchor nodes of the same period.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from . import oracle
from .coefficients import (
    CoefficientFn,
    FeedbackLaw,
    PeriodicCoefficientSet,
    cf_add,
    cf_matmul,
    cf_stack,
    constant_coeff,
)

OVERFLOW_LIMIT = 1e12
# paths drawn as rows per block, then copied into the node-major increments
NOISE_BLOCK = 128
# increments per row block of a forward-only estimator's stream (8 MB)
BLOCK_ELEMENTS = 2**20
# ridge added to the non-constant columns of every regression normal matrix
RIDGE = 1e-8


class SimulationError(RuntimeError):
    """Raised for malformed grids, exhausted path ensembles or rho(T) >= 1."""


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


def _rekey_template(bitgen: np.random.Philox) -> dict:
    """``bitgen.state`` with its arrays as lists of plain ints: set
    ``["state"]["key"][1] = i`` and assign it back for Philox(key=[key[0], i])."""
    state = bitgen.state
    state["state"] = {name: arr.tolist() for name, arr in state["state"].items()}
    return {**state, "buffer": state["buffer"].tolist()}


def _times(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Fresh (n_paths, r, c) m x for m of shape (r, l) or (n_paths, r, l) and
    columns x (n_paths, l, c): one exact broadcast product when l = 1, else
    numpy's per-path matmul, whose BLAS rounding no whole-ensemble product matches."""
    if m.shape[-1] == 1:
        return m * x
    return np.matmul(m, x)


@dataclass(eq=False)
class PathBundle:
    """Grid metadata plus the per-path Brownian increments driving a run.

    Coefficients read the path only through ``partial_sum(node)``, the
    increments summed since the last period boundary, so a bundle that
    starts at a boundary of another sees the same sums there: the period
    shift is exact.

    An ``undrawn`` bundle holds no increments: forward-only estimators
    stream it in ``blocks`` of paths, each drawn just before it is streamed,
    and the whole table is drawn only when something reads all of it.
    """

    tau: float
    steps_per_period: int
    n_periods: int
    seed: int
    increments: Optional[np.ndarray]  # (n_steps, n_paths), N(0, dt); row k drives step k
    antithetic: bool = False
    _n_paths: int = field(default=0, repr=False)  # the path count while undrawn
    _cumsum: Optional[np.ndarray] = field(default=None, repr=False)
    _memo: dict = field(default_factory=dict, repr=False)  # regression plans
    # path-free coefficient tables, shared by the row blocks of one stream
    _tables: Optional[dict] = field(default=None, repr=False)

    @staticmethod
    def _check(n_paths, steps_per_period, n_periods, antithetic, first_path=0):
        if n_paths < 1 or steps_per_period < 1 or n_periods < 1:
            raise SimulationError("path count, steps and periods must be positive")
        if antithetic and (n_paths % 2 or first_path % 2):
            raise SimulationError("antithetic bundles need an even path count and offset")

    @classmethod
    def generate(
        cls,
        seed: int,
        n_paths: int,
        steps_per_period: int,
        n_periods: int,
        tau: float = 1.0,
        antithetic: bool = False,
        first_path: int = 0,
    ) -> "PathBundle":
        """Draw paths first_path .. first_path + n_paths - 1 of the ensemble."""
        cls._check(n_paths, steps_per_period, n_periods, antithetic, first_path)
        n_steps = steps_per_period * n_periods
        out = np.empty((n_steps, n_paths))
        # path (or antithetic pair) i re-keys the one generator to [seed, i]; a
        # plain-int template and fresh rows (no out= checks) are the cheapest calls
        bitgen = np.random.Philox(key=[seed, 0])
        gen = np.random.Generator(bitgen)
        fresh = _rekey_template(bitgen)
        key = fresh["state"]["key"]
        drawn = out[:, 0::2] if antithetic else out
        first = first_path // 2 if antithetic else first_path
        block = np.empty((min(NOISE_BLOCK, drawn.shape[1]), n_steps))
        for start in range(0, drawn.shape[1], NOISE_BLOCK):
            rows = block[: drawn.shape[1] - start]
            for i in range(len(rows)):
                key[1] = first + start + i
                bitgen.state = fresh
                rows[i] = gen.standard_normal(n_steps)
            rows *= math.sqrt(tau / steps_per_period)
            drawn[:, start : start + len(rows)] = rows.T
        if antithetic:
            np.negative(drawn, out=out[:, 1::2])
        return cls(tau, steps_per_period, n_periods, seed, out, antithetic)

    @classmethod
    def undrawn(
        cls,
        seed: int,
        n_paths: int,
        steps_per_period: int,
        n_periods: int,
        tau: float = 1.0,
        antithetic: bool = False,
    ) -> "PathBundle":
        """The bundle ``generate`` would draw, with no increments drawn yet."""
        cls._check(n_paths, steps_per_period, n_periods, antithetic)
        return cls(tau, steps_per_period, n_periods, seed, None, antithetic, n_paths)

    def draw(self) -> np.ndarray:
        """The whole increment table, drawn (and kept) on the first call."""
        if self.increments is None:
            self.increments = self._rows(slice(0, self._n_paths))
        return self.increments

    def _rows(self, rows: slice) -> np.ndarray:
        """The increments of paths ``rows``: a view of a drawn table, else drawn."""
        if self.increments is not None:
            return self.increments[:, rows]
        return type(self).generate(
            self.seed, rows.stop - rows.start, self.steps_per_period, self.n_periods,
            self.tau, self.antithetic, first_path=rows.start,
        ).increments

    def blocks(self):
        """Yield (rows, block): the bundle as the fewest row blocks of at most
        BLOCK_ELEMENTS increments (or one path), sized evenly, antithetic
        pairs whole.

        A drawn table is sliced; an undrawn one draws each block when it is
        reached, so the caller must drop a block before asking for the next.
        Either way a block holds exactly the bits of the table's rows.
        """
        unit = 2 if self.antithetic else 1
        units = self.n_paths // unit
        n_blocks = -(-units // max(BLOCK_ELEMENTS // (unit * self.n_steps), 1))
        size = unit * -(-units // n_blocks)
        tables = {}
        for start in range(0, self.n_paths, size):
            rows = slice(start, min(start + size, self.n_paths))
            yield rows, replace(
                self, increments=self._rows(rows), _cumsum=None, _memo={}, _tables=tables
            )

    @property
    def n_paths(self) -> int:
        return self._n_paths if self.increments is None else self.increments.shape[1]

    @property
    def n_steps(self) -> int:
        return self.steps_per_period * self.n_periods

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
            shape = (self.n_periods, self.steps_per_period, self.n_paths)
            self._cumsum = np.zeros((self.n_steps + 1, self.n_paths))
            blocks = self._cumsum[:-1].reshape(shape)
            np.cumsum(self.draw().reshape(shape)[:, :-1], axis=1, out=blocks[:, 1:])
        return self._cumsum

    def phase(self, node: int) -> float:
        return (node % self.steps_per_period) * self.dt

    def partial_sum(self, node: int) -> np.ndarray:
        """(n_paths,) increment sums since the last period boundary at a grid
        node (zero at boundaries); a row of the table built on first call."""
        if not 0 <= node <= self.n_steps:
            raise SimulationError(f"node {node} outside grid 0..{self.n_steps}")
        return self._sums()[node]

    def _table(self, fn: CoefficientFn, tables: dict) -> np.ndarray:
        """A path-free coefficient's value (constant) or (steps_per_period, *shape)
        table: leaves evaluated once per phase on a zero partial sum, compositions
        combined and finished once over their operands' tables; each operand
        is tabulated once per ``tables`` memo, however often it occurs."""
        if fn in tables:
            return tables[fn]
        if fn.parts is not None:
            combine, operands = fn.parts
            table = fn.finish(combine(*(self._table(f, tables) for f in operands)))
        else:
            zero = np.zeros(1)
            phases = [0] if fn.kind == "constant" else range(self.steps_per_period)
            table = np.stack([fn.eval_batch(self.phase(i), zero).reshape(fn.shape) for i in phases])
            table = table[0] if fn.kind == "constant" else table
        tables[fn] = table
        return table

    def bind(self, fn: CoefficientFn, tables: Optional[dict] = None) -> Callable:
        """Bind a coefficient to this grid once; returns at(node).

        A path-free coefficient, composed trees included, becomes the array
        or per-phase table of ``_table``, so it does not grow with the path
        count.  A path-functional composition binds each recorded operand the
        same way and combines their node values, so each path-functional leaf
        is evaluated once per node per bound tree, on that node's partial sums.
        Tables are memoized per operand within one call, or across the row
        blocks of one stream.
        """
        if tables is None:
            tables = {} if self._tables is None else self._tables
        if fn.kind == "path-functional":
            if fn.parts is None:
                return lambda node: fn.eval_batch(self.phase(node), self.partial_sum(node))
            combine, operands = fn.parts
            operands_at = [self.bind(f, tables) for f in operands]
            return lambda node: fn.finish(combine(*(at(node) for at in operands_at)))
        table = self._table(fn, tables)
        if fn.kind == "constant":
            return lambda node: table
        return lambda node: table[node % self.steps_per_period]

    def bind_law(self, laws: list) -> Callable:
        """Bind L feedback laws, their Theta and v each as one ``cf_stack``;
        returns u(node, x) = Theta x + v for x (L, n_paths, n), law l on row l."""

        def stack(fns):
            # (L, 1, *shape), or (L, n_paths, *shape) at a node where one reads the path
            at, rows = self.bind(cf_stack(fns)), (-1, len(fns)) + fns[0].shape
            return lambda node: at(node).reshape(rows).swapaxes(0, 1)

        theta_at, v_at = stack([f.Theta for f in laws]), stack([f.v for f in laws])
        return lambda node, x: _times(theta_at(node), x[..., None])[..., 0] + v_at(node)

    def restrict(self, n_periods: int) -> "PathBundle":
        """The first n_periods periods: a view of a drawn table (shared
        storage), else an undrawn bundle whose paths are the same prefixes."""
        if n_periods > self.n_periods:
            raise SimulationError("cannot extend a bundle by restriction")
        head = self.increments
        if head is not None:
            head = head[: n_periods * self.steps_per_period]
        return replace(self, n_periods=n_periods, increments=head, _cumsum=None, _memo={})


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
    X + (A X) dt + (C X) dW, with coefficients bound to the grid once and
    read at the left node, and dW that node's row of increments.
    ``affine = (coeffs, law)`` adds B u + b to the drift and sigma to the
    diffusion, with u = Theta x + v passed to the visitor as a third
    argument; ``law`` is a list of L laws, stepped as one state (L, n_paths,
    n) on the same increments.  Homogeneous streams fold feedback into a_fn.

    One overflow rule: a path whose state is not finite or exceeds
    OVERFLOW_LIMIT in magnitude holds NaN from that node on and is flagged
    in the returned mask, which has the state's leading axes.  Only rows not
    yet flagged are tested, so a flagged row costs no further check.
    """
    vector = affine is not None or state.ndim == 2
    x = state[..., None] if vector else state
    a_at, c_at = bundle.bind(a_fn), bundle.bind(c_fn)
    if affine is not None:
        coeffs, law = affine
        control = bundle.bind_law(law)
        b_at, drift_at, sigma_at = (bundle.bind(f) for f in (coeffs.B, coeffs.b, coeffs.sigma))
    dws = bundle.draw()[:, :, None, None]
    dt, n_steps = bundle.dt, bundle.n_steps
    overflow, live = np.zeros(x.shape[:-2], dtype=bool), None  # None: every row
    for k in range(n_steps + 1):
        view = x[..., 0] if vector else x
        if affine is None:
            visit(k, view)
        else:
            u = control(k, view)
            visit(k, view, u)
        if k == n_steps:
            break
        drift = _times(a_at(k), x)
        diffusion = _times(c_at(k), x)
        if affine is not None:
            drift += _times(b_at(k), u[..., None])
            drift += drift_at(k)[..., None]
            diffusion += sigma_at(k)[..., None]
        # x + dt drift + dW diffusion, formed in the fresh product buffers
        drift *= dt
        drift += x
        diffusion *= dws[k]
        x = np.add(drift, diffusion, out=drift)
        probe = np.abs(x if live is None else x[live])
        if not np.maximum.reduce(probe, axis=None, initial=0.0) <= OVERFLOW_LIMIT:
            live = _flag_overflow(x, overflow)
    return overflow


def _flag_overflow(x: np.ndarray, overflow: np.ndarray) -> np.ndarray:
    """Hold NaN in and flag the rows of x not finite or past OVERFLOW_LIMIT; returns the live."""
    bad = ~(np.abs(x).max(axis=(-2, -1)) <= OVERFLOW_LIMIT)
    x[bad] = np.nan
    overflow |= bad
    return ~overflow


def stream_blocks(bundle: PathBundle, run: Callable) -> np.ndarray:
    """A forward-only stream over the bundle's row blocks; returns the
    ensemble's overflow mask.

    run(rows, block) streams one block and returns its overflow mask.  Its
    visitor writes per-path results into ``rows`` of ensemble-wide arrays;
    reductions across paths wait until every block has run, then read one
    contiguous (n_paths,) row each, so they take the sums one stream would.
    """
    overflow = np.empty(bundle.n_paths, dtype=bool)
    for rows, block in bundle.blocks():
        overflow[rows] = run(rows, block)
        del block  # an undrawn bundle draws the next block on the next step
    return overflow


def fundamental_squared_norms(
    coeffs: PeriodicCoefficientSet, bundle: PathBundle, nodes, feedback: Optional[FeedbackLaw] = None
):
    """Stream the fundamental solution in row blocks keeping only its
    per-path squared norms at ``nodes``; returns ({node: (n_paths,) array},
    overflow mask)."""
    kept = {k: np.empty(bundle.n_paths) for k in nodes if 0 <= k <= bundle.n_steps}

    def run(rows, block):
        def visit(k, phi):
            if k in kept:
                kept[k][rows] = path_squared_norms(phi)

        return stream_fundamental(coeffs, block, visit, feedback=feedback)

    return kept, stream_blocks(bundle, run)


def _homogeneous_drift(coeffs, feedback: Optional[FeedbackLaw]) -> CoefficientFn:
    """A, or the closed-loop drift matrix A + B Theta under a feedback."""
    if feedback is None:
        return coeffs.A
    return cf_add(coeffs.A, cf_matmul(coeffs.B, feedback.Theta))


def stream_fundamental(
    coeffs: PeriodicCoefficientSet, bundle: PathBundle, visit: Callable,
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
    coeffs: PeriodicCoefficientSet, feedback: FeedbackLaw, x0, bundle: PathBundle, visit: Callable
):
    """Drive the controlled state X through the grid.

    visit(k, x, u) sees the state and the control applied at every node;
    neither may be mutated.  Returns the overflow mask.  A list of laws
    runs as one stream from x0, with a leading law axis on x, u and the mask;
    a single law runs as a list of one, its law axis dropped.
    """
    x = np.asarray(x0, dtype=float)
    if x.ndim == 1:
        x = np.broadcast_to(x, (bundle.n_paths, coeffs.n))
    if x.shape != (bundle.n_paths, coeffs.n):
        raise SimulationError(
            f"x0 shape {x.shape} incompatible with ({bundle.n_paths}, {coeffs.n})"
        )
    stacked = isinstance(feedback, list)
    laws = feedback if stacked else [feedback]
    step = visit if stacked else (lambda k, x, u: visit(k, x[0], u[0]))
    x = np.broadcast_to(x, (len(laws),) + x.shape)
    overflow = _euler_stream(bundle, x, step, coeffs.A, coeffs.C, affine=(coeffs, laws))
    return overflow if stacked else overflow[0]


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
    """Mean-square decay of a homogeneous loop by its one-period
    second-moment operator T(K) = E[Phi(tau)' K Phi(tau)].

    The period maps of the loop are i.i.d. under the coefficient contract,
    so E|Phi(k tau)|^2 decays like rho^k with rho = rho(T), and the loop is
    mean-square exponentially stable iff rho < 1; lambda = -ln(rho) / tau.
    The 95% interval is rho -+ 1.96 rho_se mapped through -ln(.) / tau, so
    ``stable`` holds iff rho + 1.96 rho_se < 1 (rho_se = 0 if T is exact).
    beta_hat = n = |Phi(0)|^2 anchors E|Phi_t|^2 ~ beta exp(-lambda t).
    """

    lambda_hat: float
    beta_hat: float
    lambda_se: float
    ci_low: float
    ci_high: float
    rho: float
    rho_se: float
    overflow_paths: int = 0

    @property
    def stable(self) -> bool:
        return self.lambda_hat > 0.0 and self.ci_low > 0.0


def feature_degree(*fns: CoefficientFn) -> int:
    """Regression degree for inputs fns: 0 when none reads the path, else 3.

    A deterministic problem has a deterministic solution; fitting it on
    path features would only launder martingale noise into spurious slope
    coefficients, so the basis collapses to the constant column.  For
    path-functional problems the cubic captures the leading odd component
    of smooth link functions of the partial sum; stopping at the quadratic
    leaves a deterministic projection bias in the solved feedback that
    paired cost tests resolve at several standard errors.
    """
    return 0 if all(fn.kind != "path-functional" for fn in fns) else 3


def operator_report(op: np.ndarray, tau: float, samples=None, overflow_paths: int = 0):
    """StabilityReport of the one-period moment ``op`` = E[Phi(tau) (x) Phi(tau)].

    ``samples`` are per-path Phi(tau) (x) Phi(tau) with mean op, or None for
    an exact op.  rho's SE is the delta method's: the SE of the per-path
    scalars u' Z_p v / u'v, with u and v op's left and right Perron
    vectors.  An overflowed path makes rho infinite.
    """
    rho, rho_se = math.inf, 0.0
    if not overflow_paths:
        vals, right = np.linalg.eig(op)
        top = int(np.argmax(np.abs(vals)))
        rho = float(abs(vals[top]))
        if samples is not None:
            lvals, left = np.linalg.eig(op.T)
            u, v = left[:, int(np.argmax(np.abs(lvals)))].real, right[:, top].real
            rho_se = float(mean_se(np.einsum("i,pij,j->p", u, samples, v) / float(u @ v))[1])

    def rate(r):
        return -math.log(r) / tau if r > 0 else math.inf

    return StabilityReport(
        lambda_hat=rate(rho),
        beta_hat=float(math.isqrt(op.shape[0])),
        lambda_se=rho_se / (rho * tau) if rho > 0 else math.inf,
        ci_low=rate(rho + 1.96 * rho_se),
        ci_high=rate(rho - 1.96 * rho_se),
        rho=rho,
        rho_se=rho_se,
        overflow_paths=overflow_paths,
    )


def moment_operator(
    coeffs: PeriodicCoefficientSet, bundle: PathBundle, feedback: Optional[FeedbackLaw] = None
) -> StabilityReport:
    """Mean-square stability of the homogeneous loop (A + B Theta, C): the
    report of its weightless period pass (``_period_continuation``)."""
    return _period_continuation(coeffs, bundle, None, feedback)[2]


def _period_continuation(coeffs, bundle: PathBundle, weight, feedback=None, anchors=()):
    """(K, its SE, the loop's report, tails): the one forward pass over the
    first period of the loop (A + B Theta, C).

    Its rows hold Z_tau, vec O and, at each anchor node r, (Z_r, H_r, s_r):
    Z_k = Phi_k (x) Phi_k, O = int_0^tau Phi' Lam Phi dt (trapezoid, Lam read
    at node k), H_r its running trapezoid over [0, r], s_r the partial sums
    at r.  A loop and weight that read no path (``feature_degree`` 0) fill
    one exact row from the oracle's M_k = E[Z_k] (s_r = 0, no draws, SE 0);
    else each streamed path is a row.  The report is that of T = E[Z_tau].

    The periods are i.i.d., so K = E int_0^inf Phi' Lam Phi dt = O + T*(K),
    T*(K) = E[Phi(tau)' K Phi(tau)] (the matrix T' on vec K): K = (I -
    T*)^-1 E[O], with the SE of the per-path influence (I - T*)^-1 [O_p +
    T_p*(K) - K], antithetic pairs first.  tails[r] = (vec G_r, s_r):
    G_r = Phi_r^-T (O - H_r + Phi(tau)' K Phi(tau)) Phi_r^-1 is int_r^inf
    Psi' Lam Psi of Psi_s = Phi_s Phi_r^-1; on the exact row Psi does not
    depend on the path up to r, so M_k = M_{r->k} M_r gives its mean.
    With no weight K, SE and tails are None; else SimulationError unless
    rho(T) < 1, where the series diverges.
    """
    drift, n, sp = _homogeneous_drift(coeffs, feedback), coeffs.n, bundle.steps_per_period
    weights = np.full(sp + 1, bundle.dt)
    weights[[0, sp]] *= 0.5
    exact = feature_degree(drift, coeffs.C, *([] if weight is None else [weight])) == 0
    size, n2 = 1 if exact else bundle.n_paths, n * n
    ends, occupations = np.empty((size, n2, n2)), np.zeros((size, n2))
    marks = {r: (np.empty((size, n2, n2)), np.empty((size, n2)), np.zeros(size)) for r in anchors}

    def accumulate(rows, k, term, square):
        # node k of these rows: term(w) their w vec Phi_k' Lam_k Phi_k (None
        # weightless), square() their Z_k, formed at anchors and tau only
        if term is not None:
            occupations[rows] += term(weights[k])
        if k in marks:
            marks[k][0][rows] = square()
            marks[k][1][rows] = occupations[rows] - term(weights[0])
        if k == sp:
            ends[rows] = square()

    overflow = 0
    if exact:
        moments = oracle.scheme_moment_operator(
            bundle.bind(drift), bundle.bind(coeffs.C), bundle.dt, sp
        )
        lam_at = None if weight is None else bundle.bind(weight)
        for k in [sp] if lam_at is None else range(sp + 1):
            # (w M_k') vec Lam_k: moving w past the product would move round-off
            term = None if lam_at is None else lambda w: w * moments[k].T @ lam_at(k).reshape(-1)
            accumulate(slice(None), k, term, lambda: moments[k])
    else:
        kron = lambda phi: np.einsum("pij,pkl->pikjl", phi, phi).reshape(-1, n2, n2)

        def run(rows, block):
            lam_at = None if weight is None else block.bind(weight)

            def visit(k, phi):
                term = None
                if lam_at is not None:
                    t = _times(np.swapaxes(phi, -1, -2), _times(lam_at(k), phi)).reshape(-1, n2)
                    term = lambda w: w * t
                if k in marks:
                    marks[k][2][rows] = block.partial_sum(k)
                accumulate(rows, k, term, lambda: kron(phi))

            return stream_fundamental(coeffs, block, visit, feedback=feedback)

        overflow = int(stream_blocks(bundle.restrict(1), run).sum())
    op = ends.mean(axis=0)
    report = operator_report(op, bundle.tau, None if exact else ends, overflow)
    if weight is None:
        return None, None, report, None
    if not report.rho < 1.0:
        raise SimulationError(f"rho(T) = {report.rho:.4g} >= 1: the occupation integral diverges")
    resolvent = np.eye(n2) - op.T
    kbar = np.linalg.solve(resolvent, occupations.mean(axis=0))
    tail = occupations + np.einsum("pji,j->pi", ends, kbar)
    se = np.zeros(n2)
    if not exact:
        se = mean_se(np.linalg.solve(resolvent, (tail - kbar).T).T, bundle.antithetic)[1]
    tails = {
        r: (np.linalg.solve(np.swapaxes(z, -1, -2), (tail - head)[..., None])[..., 0], sums)
        for r, (z, head, sums) in marks.items()
    }
    return kbar.reshape(n, n), se.reshape(n, n), report, tails


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
) -> tuple:
    """(the loop's report, delta, delta_se): a regression proxy for the
    conditional Gram lower bound.

    For each anchor node r in {0, sp/4, sp/2, 3sp/4} of the first period
    (sp steps per period, floored), with Psi_s = Phi_s Phi_r^{-1}, the
    pathwise int_r^inf Psi_s' Psi_s ds is the loop's period continuation of
    Lam = I started at r: the tails of the one period pass
    (``_period_continuation``).  Each anchor's rows are regressed on
    polynomial features of the partial sums at r, at ``feature_degree`` of
    the loop; a path-free loop's one exact row (no draw) meets the constant
    column only, which returns it with SE 0.  delta is the smallest
    eigenvalue of the fitted conditional expectations over all anchors and
    rows, delta_se its SE.  The report is the pass's, as ``moment_operator``
    gives it.
    """
    n, sp = coeffs.n, bundle.steps_per_period
    degree = feature_degree(_homogeneous_drift(coeffs, feedback), coeffs.C)
    r_nodes = sorted({0, sp // 4, sp // 2, (3 * sp) // 4})
    identity = constant_coeff(np.eye(n), bundle.tau)
    _, _, report, tails = _period_continuation(coeffs, bundle, identity, feedback, r_nodes)
    worst, worst_se = math.inf, math.nan
    for r, (target, sums) in tails.items():
        design = poly_design(sums, bundle.phase(r), degree)
        plan = ridge_plan(design, RIDGE)
        fitted = design @ ridge_solve(design, target, plan)
        sym = fitted.reshape(-1, n, n)
        sym = 0.5 * (sym + np.swapaxes(sym, -1, -2))
        eigs = np.linalg.eigvalsh(sym)
        idx = int(np.argmin(eigs[:, 0]))
        low = float(eigs[idx, 0])
        if low < worst:
            sig2 = ((target - fitted) ** 2).mean(axis=0)
            lever = float(design[idx] @ np.linalg.solve(plan[0], design[idx]) / len(sums))
            vecs = np.linalg.eigh(sym[idx])[1][:, 0]
            wmat = np.outer(vecs, vecs).reshape(-1) ** 2
            worst, worst_se = low, math.sqrt(max(lever * float(wmat @ sig2), 0.0))
    return report, worst, worst_se


def contraction_check(
    coeffs: PeriodicCoefficientSet, feedback: FeedbackLaw, bundle: PathBundle
) -> StabilityReport:
    """Mean-square contraction of two closed-loop starts on common noise: they
    differ by Phi delta0, and E|Phi(k tau) delta0|^2 = delta0' T^k(I) delta0
    decays iff rho(T) < 1, so this is the loop's ``moment_operator``."""
    return moment_operator(coeffs, bundle, feedback)


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
