"""Reference solvers: the explicit scalar moment and periodic backward ODEs."""

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
    explicit_phi_moment_1d,
    periodic_lyapunov_ode,
    periodic_riccati_ode,
    scheme_moment_operator,
)

SQRT2_M1 = math.sqrt(2.0) - 1.0
GOLDEN_M1 = (math.sqrt(5.0) - 1.0) / 2.0


# ---------------------------------------------------------------------------
# explicit moment


def test_phi_moment_constant_coefficients():
    assert explicit_phi_moment_1d(-1.0, 0.5, 1.0) == pytest.approx(math.exp(-1.75))
    assert explicit_phi_moment_1d(-1.0, 0.5, 0.0) == 1.0
    with pytest.raises(OracleError):
        explicit_phi_moment_1d(-1.0, 0.5, -0.1)


@pytest.mark.parametrize("steps", [32, 64])
def test_scheme_moment_is_the_euler_product_and_within_2pc_of_the_continuum(steps):
    # a = -1, c = 0.5 at dt = 1/64: the scheme's exact moment at node k is
    # ((1 + a dt)^2 + c^2 dt)^k, and its bias against exp((2a + c^2) t)
    # (0.83 % at t = 1) is what A1 no longer has to absorb
    dt = 1.0 / 64
    a_at, c_at = (lambda k: np.array([[-1.0]])), (lambda k: np.array([[0.5]]))
    scheme = scheme_moment_operator(a_at, c_at, dt, steps)
    assert scheme.shape == (steps + 1, 1, 1)
    want = ((1.0 - dt) ** 2 + 0.25 * dt) ** np.arange(steps + 1)
    np.testing.assert_allclose(scheme[:, 0, 0], want, rtol=1e-13, atol=0.0)
    continuum = explicit_phi_moment_1d(-1.0, 0.5, steps * dt)
    assert abs(scheme[-1, 0, 0] - continuum) <= 0.02 * continuum


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


def test_lyapunov_rejects_path_functional_coefficients():
    scen = builtin_scenarios()["scalar-random-periodic"]
    with pytest.raises(OracleError):
        periodic_lyapunov_ode(scen.A, scen.C, scen.Q, scen.tau, nodes_per_period=64)


def test_divergent_shooting_raises():
    # A = +1/2 is unstable backward in time: each pass multiplies the
    # terminal value by about e until its norm overflows, which must not
    # read as a zero residual
    tau = 1.0
    with pytest.raises(OracleError, match="diverged"):
        periodic_lyapunov_ode(
            constant_coeff([[0.5]], tau),
            constant_coeff([[0.0]], tau),
            constant_coeff([[1.0]], tau),
            tau,
            nodes_per_period=8,
        )


# ---------------------------------------------------------------------------
# periodic Riccati ODE


def test_riccati_constant_scenario_is_flat_at_algebraic_root():
    scen = builtin_scenarios()["scalar-constant"]
    sol = periodic_riccati_ode(scen, nodes_per_period=256)
    np.testing.assert_allclose(sol.values[:, 0, 0], SQRT2_M1, atol=1e-10)
    # stationary algebraic residual: -2k + 1 - k^2 = 0
    k = sol.values[0, 0, 0]
    assert abs(-2.0 * k + 1.0 - k * k) < 1e-8


def test_riccati_noisy_scenario_is_flat_at_golden_root():
    # -2k + k + 1 - k^2 = 0: the C'KC term and the quadratic gain together
    scen = builtin_scenarios()["scalar-noisy"]
    sol = periodic_riccati_ode(scen, nodes_per_period=256)
    np.testing.assert_allclose(sol.values[:, 0, 0], GOLDEN_M1, atol=1e-10)
    assert sol.periodic_residual < 1e-10


def test_riccati_without_control_is_the_lyapunov_solve():
    # with B = 0 and S = 0 the gain and the cross-term reduction vanish, so
    # both entry points run the same shooting loop on the same tables
    scen = builtin_scenarios()["planar-deterministic-periodic"]
    kwargs = {k: getattr(scen, k) for k in
              ("tau", "n", "m", "A", "C", "b", "sigma", "Q", "R", "q", "rho")}
    kwargs["B"] = constant_coeff(np.zeros((scen.n, scen.m)), scen.tau)
    kwargs["S"] = constant_coeff(np.zeros((scen.m, scen.n)), scen.tau)
    ric = periodic_riccati_ode(PeriodicCoefficientSet(**kwargs), nodes_per_period=128)
    lyap = periodic_lyapunov_ode(scen.A, scen.C, scen.Q, scen.tau, nodes_per_period=128)
    np.testing.assert_allclose(ric.values, lyap.values, rtol=1e-12, atol=1e-14)
    assert ric.periodic_residual < 1e-10


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


def test_ode_solution_grid_helpers():
    scen = builtin_scenarios()["scalar-constant"]
    sol = periodic_riccati_ode(scen, nodes_per_period=128)
    assert sol.on_grid(64).shape == (65, 1, 1)
    np.testing.assert_array_equal(sol.on_grid(64), sol.values[::2])
    # a grid that does not nest has no exact reference
    with pytest.raises(OracleError):
        sol.on_grid(48)
