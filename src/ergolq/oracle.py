"""Deterministic reference solutions used to audit the Monte Carlo stack.

Scope is deliberately narrow: scalar chains with closed forms, and
deterministic-periodic coefficient sets where the matrix equations reduce
to backward ODEs.  The periodic solutions are found by shooting on the
terminal value with a classical fixed-step RK4 integrator; self-consistency
is testable by node doubling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .coefficients import CoefficientFn, PeriodicCoefficientSet


class OracleError(RuntimeError):
    """Raised when a reference solve cannot be produced."""


# shooting stops once the terminal map is stationary to this (relative)
SHOOTING_TOL = 1e-10
SHOOTING_PASSES = 500


@dataclass
class OdeSolution:
    """Periodic solution sampled on a uniform phase grid including both ends."""

    times: np.ndarray
    values: np.ndarray
    tau: float
    periodic_residual: float
    diagnostics: dict = field(default_factory=dict)

    @property
    def nodes_per_period(self) -> int:
        return len(self.times) - 1

    def at_phase(self, phase: float) -> np.ndarray:
        if not 0.0 <= phase <= self.tau:
            raise OracleError(f"phase {phase} outside [0, {self.tau}]")
        h = self.tau / self.nodes_per_period
        pos = phase / h
        i0 = min(int(math.floor(pos)), self.nodes_per_period - 1)
        frac = pos - i0
        return (1.0 - frac) * self.values[i0] + frac * self.values[i0 + 1]

    def on_grid(self, steps_per_period: int) -> np.ndarray:
        """Values at the coarse nodes of a simulation grid (exact when nested)."""
        if self.nodes_per_period % steps_per_period == 0:
            stride = self.nodes_per_period // steps_per_period
            return self.values[::stride]
        h = self.tau / steps_per_period
        return np.stack([self.at_phase(k * h) for k in range(steps_per_period + 1)])


# ---------------------------------------------------------------------------
# scalar closed forms


def explicit_phi_moment_1d(a, c, t: float) -> float:
    """Second moment of the 1-d fundamental solution: exp(int_0^t (2a+c^2)).

    a and c may be floats or callables of time; callables are integrated
    with adaptive quadrature.
    """
    if t < 0:
        raise OracleError("time must be nonnegative")
    if callable(a) or callable(c):
        # scipy costs most of the package import time; only this branch needs it
        from scipy.integrate import quad

        a_fn = a if callable(a) else (lambda _t: a)
        c_fn = c if callable(c) else (lambda _t: c)
        integral, err = quad(
            lambda s: 2.0 * a_fn(s) + c_fn(s) ** 2, 0.0, t, epsabs=1e-13, limit=400
        )
        return math.exp(integral)
    return math.exp((2.0 * a + c * c) * t)


def algebraic_riccati_scalar(a, b, c, q, s, r) -> dict:
    """Stationary scalar Riccati root with cross-term reduction.

    Solves (2*a_tilde + c^2) k + q_tilde - k^2 b^2 / r = 0 for the
    nonnegative root, where a_tilde = a - b s / r, q_tilde = q - s^2 / r.
    Requires r > 0 and, when b = 0, mean-square stability 2a + c^2 < 0.
    """
    if r <= 0:
        raise OracleError("control weight r must be positive")
    a_t = a - b * s / r
    q_t = q - s * s / r
    mu = 2.0 * a_t + c * c
    if b == 0.0:
        if mu >= 0.0:
            raise OracleError("uncontrolled chain must satisfy 2a + c^2 < 0")
        k = q_t / (-mu)
    else:
        g = b * b / r
        disc = mu * mu + 4.0 * g * q_t
        if disc < 0.0:
            raise OracleError("no real stationary root")
        k = (mu + math.sqrt(disc)) / (2.0 * g)
    theta = -(b * k + s) / r
    return {
        "k": k,
        "theta": theta,
        "closed_loop_drift": a + b * theta,
        "mu": mu,
    }


def scalar_stationary_value(
    a, b_ctrl, c, q_cost, s, r, b_drift, sigma, q_lin, rho
) -> dict:
    """Ergodic value of a constant-coefficient scalar chain, fully explicit.

    Chains the stationary Riccati root, the stationary first-order
    correction eta (its martingale integrand vanishes for constant data),
    the optimal offset v0 = -(b eta + rho)/r, and the value
    V = -(b eta + rho)^2/r + k sigma^2 + 2 eta b_drift.
    """
    are = algebraic_riccati_scalar(a, b_ctrl, c, q_cost, s, r)
    k, theta = are["k"], are["theta"]
    a_cl = a + b_ctrl * theta
    if a_cl >= 0:
        raise OracleError("closed loop is not stable; value undefined")
    inhom = k * b_drift + c * k * sigma + q_lin + theta * rho
    eta = inhom / (-a_cl)
    v0 = -(b_ctrl * eta + rho) / r
    value = -((b_ctrl * eta + rho) ** 2) / r + k * sigma * sigma + 2.0 * eta * b_drift
    return {"k": k, "theta": theta, "eta": eta, "v0": v0, "value": value, "a_cl": a_cl}


# ---------------------------------------------------------------------------
# periodic backward ODEs


def _det_table(fn: CoefficientFn, times: np.ndarray, tau: float) -> np.ndarray:
    if fn.kind == "path-functional":
        raise OracleError("oracle solves require deterministic coefficients")
    zero = np.zeros(1)
    return np.stack([fn.eval_batch(float(t % tau), zero) for t in times])


def _rk4_backward_periodic(rhs: Callable, terminal: np.ndarray, tau: float, nodes: int):
    """Terminal-value shooting for a backward periodic ODE.

    rhs(j, y) evaluates the time derivative at half-grid index j (time
    j * tau / (2 * nodes)).  Iterates terminal <- value-at-0 until the map
    is stationary to SHOOTING_TOL.  Returns the node values of the last
    pass and its residual.
    """
    h = tau / nodes
    term = np.array(terminal, dtype=float)
    values = np.empty((nodes + 1,) + term.shape)
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
        residual = float(np.linalg.norm(values[0] - term) / (1.0 + np.linalg.norm(values[0])))
        if residual < SHOOTING_TOL:
            return values, residual
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
    a_tab = _det_table(a_fn, fine, tau)
    c_tab = _det_table(c_fn, fine, tau)
    lam_tab = _det_table(lam_fn, fine, tau)
    n = a_tab.shape[1]

    def rhs(j, k):
        a = a_tab[j]
        c = c_tab[j]
        ka = k @ a
        return -(ka + ka.T + c.T @ k @ c + lam_tab[j])

    values, residual = _rk4_backward_periodic(rhs, np.zeros((n, n)), tau, nodes_per_period)
    return OdeSolution(
        times=np.linspace(0.0, tau, nodes_per_period + 1),
        values=values,
        tau=tau,
        periodic_residual=residual,
    )


def _reduced_tables(coeffs: PeriodicCoefficientSet, fine: np.ndarray):
    tau = coeffs.tau
    a_tab = _det_table(coeffs.A, fine, tau)
    b_tab = _det_table(coeffs.B, fine, tau)
    c_tab = _det_table(coeffs.C, fine, tau)
    q_tab = _det_table(coeffs.Q, fine, tau)
    s_tab = _det_table(coeffs.S, fine, tau)
    r_tab = _det_table(coeffs.R, fine, tau)
    rinv_s = np.linalg.solve(r_tab, s_tab)
    a_til = a_tab - np.matmul(b_tab, rinv_s)
    q_til = q_tab - np.matmul(np.swapaxes(s_tab, 1, 2), rinv_s)
    q_til = 0.5 * (q_til + np.swapaxes(q_til, 1, 2))
    gain = np.matmul(
        b_tab, np.linalg.solve(r_tab, np.swapaxes(b_tab, 1, 2))
    )
    return a_til, c_tab, q_til, gain, b_tab, s_tab, r_tab


def periodic_riccati_ode(
    coeffs: PeriodicCoefficientSet,
    nodes_per_period: int = 1024,
) -> OdeSolution:
    """Periodic stabilizing solution of the deterministic Riccati ODE.

    Applies the cross-term reduction internally and integrates
    K' = -(K At + At' K + C' K C + Qt - K B R^{-1} B' K) by RK4 shooting.
    Requires every coefficient of the set to be deterministic.
    """
    tau = coeffs.tau
    fine = np.linspace(0.0, tau, 2 * nodes_per_period + 1)
    a_til, c_tab, q_til, gain, _, _, _ = _reduced_tables(coeffs, fine)
    n = coeffs.n

    def rhs(j, k):
        ka = k @ a_til[j]
        return -(ka + ka.T + c_tab[j].T @ k @ c_tab[j] + q_til[j] - k @ gain[j] @ k)

    values, residual = _rk4_backward_periodic(rhs, np.zeros((n, n)), tau, nodes_per_period)
    values = 0.5 * (values + np.swapaxes(values, 1, 2))
    return OdeSolution(
        times=np.linspace(0.0, tau, nodes_per_period + 1),
        values=values,
        tau=tau,
        periodic_residual=residual,
    )


def periodic_linear_ode_eta(
    coeffs: PeriodicCoefficientSet,
    k_solution: OdeSolution,
    nodes_per_period: int = 1024,
) -> OdeSolution:
    """Periodic first-order correction eta for a deterministic set.

    Integrates eta' = -(Abar' eta + K b + C' K sigma + q + Theta0' rho)
    jointly with the Riccati solution (so half-grid K values carry full RK4
    accuracy); Abar = A - B R^{-1} (B' K + S) and Theta0' rho enters through
    -(B'K + S)' R^{-1} rho.
    """
    tau = coeffs.tau
    n = coeffs.n
    fine = np.linspace(0.0, tau, 2 * nodes_per_period + 1)
    a_til, c_tab, q_til, gain, b_tab, s_tab, r_tab = _reduced_tables(coeffs, fine)
    bd_tab = _det_table(coeffs.b, fine, tau)
    sg_tab = _det_table(coeffs.sigma, fine, tau)
    ql_tab = _det_table(coeffs.q, fine, tau)
    rho_tab = _det_table(coeffs.rho, fine, tau)
    rinv_rho = np.linalg.solve(r_tab, rho_tab[..., None])[..., 0]

    def rhs(j, y):
        k = y[: n * n].reshape(n, n)
        eta = y[n * n:]
        ka = k @ a_til[j]
        dk = -(ka + ka.T + c_tab[j].T @ k @ c_tab[j] + q_til[j] - k @ gain[j] @ k)
        abar = a_til[j] - gain[j] @ k
        lin = b_tab[j].T @ k + s_tab[j]
        inhom = (
            k @ bd_tab[j]
            + c_tab[j].T @ (k @ sg_tab[j])
            + ql_tab[j]
            - lin.T @ rinv_rho[j]
        )
        deta = -(abar.T @ eta + inhom)
        return np.concatenate([dk.reshape(-1), deta])

    terminal = np.concatenate([k_solution.values[-1].reshape(-1), np.zeros(n)])
    values, residual = _rk4_backward_periodic(rhs, terminal, tau, nodes_per_period)
    eta_values = values[:, n * n:]
    k_check = float(
        np.linalg.norm(values[0, : n * n].reshape(n, n) - k_solution.values[0])
    )
    return OdeSolution(
        times=np.linspace(0.0, tau, nodes_per_period + 1),
        values=eta_values,
        tau=tau,
        periodic_residual=residual,
        diagnostics={"k_consistency": k_check},
    )
