"""Reference solvers: closed forms and periodic backward ODEs."""

import math

import numpy as np
import pytest

from ergolq.coefficients import (
    PeriodicCoefficientSet,
    builtin_scenarios,
    constant_coeff,
    harmonic_coeff,
)
from ergolq.oracle import (
    OracleError,
    algebraic_riccati_scalar,
    explicit_phi_moment_1d,
    periodic_linear_ode_eta,
    periodic_lyapunov_ode,
    periodic_riccati_ode,
    scalar_stationary_value,
)

SQRT2_M1 = math.sqrt(2.0) - 1.0


# ---------------------------------------------------------------------------
# closed forms


def test_phi_moment_constant_coefficients():
    assert explicit_phi_moment_1d(-1.0, 0.5, 1.0) == pytest.approx(math.exp(-1.75))
    assert explicit_phi_moment_1d(-1.0, 0.5, 0.0) == 1.0
    with pytest.raises(OracleError):
        explicit_phi_moment_1d(-1.0, 0.5, -0.1)


def test_phi_moment_callable_matches_constant():
    const = explicit_phi_moment_1d(-1.0, 0.5, 0.8)
    dyn = explicit_phi_moment_1d(lambda t: -1.0, lambda t: 0.5, 0.8)
    assert dyn == pytest.approx(const, rel=1e-12)


def test_scalar_riccati_roots():
    # a=-1, b=1, c=0, q=1, s=0, r=1: k^2 + 2k - 1 = 0
    root = algebraic_riccati_scalar(-1.0, 1.0, 0.0, 1.0, 0.0, 1.0)
    assert root["k"] == pytest.approx(SQRT2_M1, rel=1e-15)
    assert root["theta"] == pytest.approx(-SQRT2_M1, rel=1e-15)
    # multiplicative noise c=1: k^2 + k - 1 = 0
    noisy = algebraic_riccati_scalar(-1.0, 1.0, 1.0, 1.0, 0.0, 1.0)
    assert noisy["k"] == pytest.approx((math.sqrt(5.0) - 1.0) / 2.0, rel=1e-15)
    # uncontrolled stable chain: linear equation
    lin = algebraic_riccati_scalar(-1.0, 0.0, 0.5, 1.0, 0.0, 1.0)
    assert lin["k"] == pytest.approx(1.0 / 1.75, rel=1e-15)
    with pytest.raises(OracleError):
        algebraic_riccati_scalar(1.0, 0.0, 0.0, 1.0, 0.0, 1.0)
    with pytest.raises(OracleError):
        algebraic_riccati_scalar(-1.0, 1.0, 0.0, 1.0, 0.0, 0.0)


def test_scalar_stationary_value_chain():
    out = scalar_stationary_value(
        a=-1.0, b_ctrl=1.0, c=0.0, q_cost=1.0, s=0.0, r=1.0,
        b_drift=1.0, sigma=1.0, q_lin=0.0, rho=0.0,
    )
    eta = 1.0 - 1.0 / math.sqrt(2.0)
    assert out["k"] == pytest.approx(SQRT2_M1, rel=1e-15)
    assert out["eta"] == pytest.approx(eta, rel=1e-14)
    assert out["eta"] == pytest.approx(0.292893, abs=5e-7)
    assert out["v0"] == pytest.approx(-eta, rel=1e-14)
    assert out["value"] == pytest.approx(math.sqrt(2.0) - 0.5, rel=1e-14)
    assert out["a_cl"] == pytest.approx(-math.sqrt(2.0), rel=1e-15)


def test_stationary_value_requires_stable_loop():
    # indefinite cost with a double root parks the closed loop on the
    # stability boundary, which the value chain must refuse
    with pytest.raises(OracleError):
        scalar_stationary_value(-1.0, 1.0, 0.0, -1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# periodic Lyapunov ODE


def test_lyapunov_constant_coefficients_are_flat():
    tau = 1.0
    sol = periodic_lyapunov_ode(
        constant_coeff([[-1.0]], tau),
        constant_coeff([[0.0]], tau),
        constant_coeff([[1.0]], tau),
        tau,
        nodes_per_period=256,
    )
    # -2K + 1 = 0
    np.testing.assert_allclose(sol.values[:, 0, 0], 0.5, atol=1e-12)
    assert sol.periodic_residual < 1e-10


def test_lyapunov_planar_identity_weight():
    scen = builtin_scenarios()["planar-deterministic-periodic"]
    sol = periodic_lyapunov_ode(
        scen.A, scen.C, constant_coeff(np.eye(2), scen.tau), scen.tau,
        nodes_per_period=512,
    )
    assert sol.periodic_residual < 1e-10
    # symmetric positive definite at every node
    sym_gap = np.abs(sol.values - np.swapaxes(sol.values, 1, 2)).max()
    assert sym_gap < 1e-9
    eigs = np.linalg.eigvalsh(0.5 * (sol.values + np.swapaxes(sol.values, 1, 2)))
    assert eigs.min() > 0.0
    # endpoints agree by periodicity
    np.testing.assert_allclose(sol.values[0], sol.values[-1], atol=1e-9)


# ---------------------------------------------------------------------------
# periodic Riccati ODE


def test_riccati_constant_scenario_is_flat_at_algebraic_root():
    scen = builtin_scenarios()["scalar-constant"]
    sol = periodic_riccati_ode(scen, nodes_per_period=256)
    np.testing.assert_allclose(sol.values[:, 0, 0], SQRT2_M1, atol=1e-10)
    # stationary algebraic residual: -2k + 1 - k^2 = 0
    k = sol.values[0, 0, 0]
    assert abs(-2.0 * k + 1.0 - k * k) < 1e-8


def test_riccati_trivial_cost_gives_zero():
    scen = builtin_scenarios()["scalar-constant"]
    kwargs = {k: getattr(scen, k) for k in
              ("tau", "n", "m", "A", "B", "C", "b", "sigma", "S", "R", "q", "rho")}
    kwargs["Q"] = constant_coeff([[0.0]], scen.tau)
    hom = PeriodicCoefficientSet(**kwargs)
    sol = periodic_riccati_ode(hom, nodes_per_period=128)
    assert np.abs(sol.values).max() < 1e-12


def test_riccati_periodic_weight_residual_and_step_halving():
    scen = builtin_scenarios()["scalar-constant"]
    kwargs = {k: getattr(scen, k) for k in
              ("tau", "n", "m", "A", "B", "C", "b", "sigma", "S", "R", "q", "rho")}
    kwargs["Q"] = harmonic_coeff(scen.tau, [[1.0]], sin_terms={1: [[0.3]]})
    wobble = PeriodicCoefficientSet(**kwargs)
    coarse = periodic_riccati_ode(wobble, nodes_per_period=512)
    fine = periodic_riccati_ode(wobble, nodes_per_period=1024)
    assert coarse.periodic_residual < 1e-10
    assert fine.periodic_residual < 1e-10
    gap = np.abs(fine.on_grid(512) - coarse.values).max()
    assert gap / np.abs(fine.values).max() < 1e-9
    # solution actually oscillates
    assert np.ptp(coarse.values[:, 0, 0]) > 0.01


def test_riccati_planar_scenario():
    scen = builtin_scenarios()["planar-deterministic-periodic"]
    sol = periodic_riccati_ode(scen, nodes_per_period=512)
    assert sol.periodic_residual < 1e-10
    fine = periodic_riccati_ode(scen, nodes_per_period=1024)
    rel = np.abs(fine.on_grid(512) - sol.values).max() / np.abs(fine.values).max()
    assert rel < 1e-9
    eigs = np.linalg.eigvalsh(sol.values)
    assert eigs.min() >= -1e-12


def test_riccati_rejects_path_functional_coefficients():
    scen = builtin_scenarios()["scalar-random-periodic"]
    with pytest.raises(OracleError):
        periodic_riccati_ode(scen, nodes_per_period=64)


# ---------------------------------------------------------------------------
# first-order correction


def test_eta_constant_scenario_matches_closed_form():
    scen = builtin_scenarios()["scalar-constant"]
    ksol = periodic_riccati_ode(scen, nodes_per_period=256)
    esol = periodic_linear_ode_eta(scen, ksol, nodes_per_period=256)
    eta = 1.0 - 1.0 / math.sqrt(2.0)
    np.testing.assert_allclose(esol.values[:, 0], eta, atol=1e-9)
    assert esol.diagnostics["k_consistency"] < 1e-9


def test_ode_solution_grid_helpers():
    scen = builtin_scenarios()["scalar-constant"]
    sol = periodic_riccati_ode(scen, nodes_per_period=128)
    assert sol.on_grid(64).shape == (65, 1, 1)
    np.testing.assert_array_equal(sol.on_grid(64), sol.values[::2])
    # non-nested grids interpolate linearly
    interp = sol.on_grid(48)
    assert interp.shape == (49, 1, 1)
    np.testing.assert_allclose(interp[:, 0, 0], SQRT2_M1, atol=1e-9)
    with pytest.raises(OracleError):
        sol.at_phase(1.5)
