"""Deterministic reference solutions used to audit the Monte Carlo stack.

Scope is deliberately narrow: the explicit second moment of a scalar
fundamental solution, the exact second moment of its Euler scheme under
path-free coefficients, and deterministic-periodic coefficient sets where the
matrix equations reduce to backward ODEs.  The periodic solutions are found
by shooting on the terminal value with a classical fixed-step RK4
integrator; self-consistency is testable by node doubling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .coefficients import CoefficientFn, PeriodicCoefficientSet


class OracleError(RuntimeError):
    """Raised when a reference solve cannot be produced."""


# shooting stops once the terminal map is stationary to this (relative)
SHOOTING_TOL = 1e-10
SHOOTING_PASSES = 500


@dataclass
class OdeSolution:
    """Periodic solution on a uniform phase grid including both ends."""

    values: np.ndarray
    periodic_residual: float

    def on_grid(self, steps_per_period: int) -> np.ndarray:
        """Values at the nodes of a simulation grid that nests in this one."""
        nodes = len(self.values) - 1
        if nodes % steps_per_period:
            raise OracleError(f"{steps_per_period} steps do not nest in {nodes} nodes")
        return self.values[:: nodes // steps_per_period]


def explicit_phi_moment_1d(a: float, c: float, t: float) -> float:
    """Second moment of the 1-d fundamental solution: exp((2a + c^2) t)."""
    if t < 0:
        raise OracleError("time must be nonnegative")
    return math.exp((2.0 * a + c * c) * t)


def scheme_moment_operator(a_at, c_at, dt: float, n_steps: int) -> np.ndarray:
    """E[Phi_k (x) Phi_k] of the Euler scheme's fundamental solution at every
    node k = 0 .. n_steps, stacked as (n_steps + 1, n^2, n^2).

    With path-free coefficients the step factors F_k = I + A_k dt + C_k dW_k
    are independent, so the n^2 x n^2 moment M_k is the ordered product of
    E[F_j (x) F_j] = (I + A_j dt) (x) (I + A_j dt) + (C_j (x) C_j) dt over
    j < k, later steps on the left; no draws.  a_at(k) and c_at(k) give the
    (n, n) values at node k, such as a grid's bound tables.
    E|Phi_k|^2 = vec(I)' M_k vec(I).
    """
    n = np.shape(a_at(0))[-1]
    moments = np.empty((n_steps + 1, n * n, n * n))
    moments[0] = np.eye(n * n)
    for k in range(n_steps):
        step = np.eye(n) + dt * a_at(k)
        moments[k + 1] = (np.kron(step, step) + dt * np.kron(c_at(k), c_at(k))) @ moments[k]
    return moments


# ---------------------------------------------------------------------------
# periodic backward ODEs


def _det_table(fn: CoefficientFn, times: np.ndarray, tau: float) -> np.ndarray:
    if fn.kind == "path-functional":
        raise OracleError("oracle solves require deterministic coefficients")
    zero = np.zeros(1)
    return np.stack([fn.eval_batch(float(t % tau), zero) for t in times])


def _shoot(a_tab, c_tab, q_tab, g_tab: Optional[np.ndarray], tau: float, nodes: int):
    """Periodic solution of K' = -(K A + A' K + C' K C + Q - K G K).

    The tables hold the data at the 2 * nodes + 1 half-grid times; G = None
    drops the quadratic term.  RK4 runs backward from a terminal value that
    is replaced by the value at phase 0 until that map is stationary to
    SHOOTING_TOL; the nodes of the last pass come back symmetrized.  A map
    that runs off to overflow raises instead of reading as settled.
    """

    def rhs(j, k):
        ka = k @ a_tab[j]
        out = ka + ka.T + c_tab[j].T @ k @ c_tab[j] + q_tab[j]
        if g_tab is not None:
            out = out - k @ g_tab[j] @ k
        return -out

    h = tau / nodes
    n = a_tab.shape[1]
    term = np.zeros((n, n))
    values = np.empty((nodes + 1, n, n))
    for _ in range(SHOOTING_PASSES):
        values[nodes] = term
        y = term
        for i in range(nodes, 0, -1):
            j = 2 * i
            k1 = rhs(j, y)
            k2 = rhs(j - 1, y - 0.5 * h * k1)
            k3 = rhs(j - 1, y - 0.5 * h * k2)
            k4 = rhs(j - 2, y - h * k3)
            y = y - (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            values[i - 1] = y
        with np.errstate(over="ignore"):
            size = np.linalg.norm(values[0])
        if not math.isfinite(size):
            # a norm that overflows would divide the residual down to zero
            raise OracleError("shooting diverged: the terminal value overflowed")
        residual = float(np.linalg.norm(values[0] - term) / (1.0 + size))
        if residual < SHOOTING_TOL:
            return OdeSolution(0.5 * (values + np.swapaxes(values, 1, 2)), residual)
        term = values[0].copy()
    raise OracleError(
        f"shooting did not settle in {SHOOTING_PASSES} passes (residual {residual:.2e})"
    )


def periodic_lyapunov_ode(
    a_fn: CoefficientFn,
    c_fn: CoefficientFn,
    lam_fn: CoefficientFn,
    tau: float,
    nodes_per_period: int = 1024,
) -> OdeSolution:
    """Periodic solution of K' = -(K A + A' K + C' K C + Lambda)."""
    fine = np.linspace(0.0, tau, 2 * nodes_per_period + 1)
    a, c, lam = (_det_table(fn, fine, tau) for fn in (a_fn, c_fn, lam_fn))
    return _shoot(a, c, lam, None, tau, nodes_per_period)


def periodic_riccati_ode(
    coeffs: PeriodicCoefficientSet,
    nodes_per_period: int = 1024,
) -> OdeSolution:
    """Periodic stabilizing solution of the deterministic Riccati ODE.

    Applies the cross-term reduction At = A - B R^{-1} S, Qt = Q - S' R^{-1} S
    and shoots with G = B R^{-1} B'.  Requires every coefficient of the set
    to be deterministic.
    """
    tau = coeffs.tau
    fine = np.linspace(0.0, tau, 2 * nodes_per_period + 1)
    a, b, c, q, s, r = (
        _det_table(fn, fine, tau)
        for fn in (coeffs.A, coeffs.B, coeffs.C, coeffs.Q, coeffs.S, coeffs.R)
    )
    rinv_s = np.linalg.solve(r, s)
    q_til = q - np.matmul(np.swapaxes(s, 1, 2), rinv_s)
    q_til = 0.5 * (q_til + np.swapaxes(q_til, 1, 2))
    gain = np.matmul(b, np.linalg.solve(r, np.swapaxes(b, 1, 2)))
    return _shoot(a - np.matmul(b, rinv_s), c, q_til, gain, tau, nodes_per_period)
