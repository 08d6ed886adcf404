"""Steady states, ergodic cost estimators and optimality diagnostics."""

import csv
import math

import numpy as np
import pytest

from ergolq.coefficients import (
    builtin_scenarios,
    constant_feedback,
)
from ergolq.ergodic import (
    BurnInError,
    ScanResult,
    _quadratic_cost,
    burn_in_state,
    completion_identity_check,
    export_scan_csv,
    finite_horizon_cost,
    fit_quadratic_excess,
    optimal_feedback,
    optimality_scan,
    single_period_cost,
    value_function,
)
from ergolq.riccati import solve_stochastic_riccati
from ergolq.sde_engine import PathBundle, derive_seed

SQRT2_M1 = math.sqrt(2.0) - 1.0
ETA = 1.0 - 1.0 / math.sqrt(2.0)


@pytest.fixture(scope="module")
def scalar_optimum():
    scen = builtin_scenarios()["scalar-constant"]
    bundle = PathBundle.generate(301, 2048, 64, 1, antithetic=True)
    ric = solve_stochastic_riccati(scen, bundle, tol=1e-9)
    opt = optimal_feedback(ric, tol=1e-9)
    return scen, bundle, ric, opt


# ---------------------------------------------------------------------------
# running cost


def test_running_cost_matches_hand_formula():
    scen = builtin_scenarios()["scalar-random-periodic"]
    rng = np.random.default_rng(8)
    sums = rng.normal(0.0, 0.125, size=(5, 11)).sum(axis=1)
    phase = 11 / 64
    x = rng.normal(size=(5, 1))
    u = rng.normal(size=(5, 1))
    weights = [scen.coefficient(f).eval_batch(phase, sums) for f in ("Q", "S", "R", "q", "rho")]
    got = _quadratic_cost(*weights, x, u)
    q = scen.Q.eval_batch(phase, sums)[:, 0, 0]
    s = scen.S.eval_batch(phase, sums)[0, 0]
    r = scen.R.eval_batch(phase, sums)[0, 0]
    ql = scen.q.eval_batch(phase, sums)[0]
    rho = scen.rho.eval_batch(phase, sums)[0]
    want = (
        q * x[:, 0] ** 2
        + 2.0 * s * u[:, 0] * x[:, 0]
        + r * u[:, 0] ** 2
        + 2.0 * ql * x[:, 0]
        + 2.0 * rho * u[:, 0]
    )
    np.testing.assert_allclose(got, want, atol=1e-13)


# ---------------------------------------------------------------------------
# burn-in


def test_burn_in_is_reproducible_and_sized_by_decay():
    scen = builtin_scenarios()["scalar-constant"]
    law = constant_feedback(scen, [[-0.4]])
    a = burn_in_state(scen, law, seed=41, n_paths=500, lambda_hat=2.5)
    b = burn_in_state(scen, law, seed=41, n_paths=500, lambda_hat=2.5)
    np.testing.assert_array_equal(a.samples, b.samples)
    assert a.k_burn == math.ceil(10.0 / 2.5)
    assert a.feedback is law and a.coeffs is scen
    assert a.moment > 0.0


def test_burn_in_rejects_unstable_law():
    # drift +0.2: slow enough to avoid overflow, so the decay certificate
    # itself is what fails
    scen = builtin_scenarios()["scalar-constant"]
    drifting = constant_feedback(scen, [[1.2]])
    with pytest.raises(BurnInError):
        burn_in_state(scen, drifting, seed=42, n_paths=200)


def test_single_period_cost_matches_discrete_stationary_law():
    # closed loop X' = alpha X + beta + sigma dW has explicit stationary
    # first and second moments; the cost rate is (q + r theta^2) E X^2
    scen = builtin_scenarios()["scalar-constant"]
    theta = -0.4
    law = constant_feedback(scen, [[theta]])
    dt = 1.0 / 64
    alpha = 1.0 + (-1.0 + theta) * dt
    beta = dt
    m1 = beta / (1.0 - alpha)
    m2 = (2.0 * alpha * beta * m1 + beta**2 + dt) / (1.0 - alpha**2)
    want = (1.0 + theta**2) * m2
    state = burn_in_state(scen, law, seed=44, n_paths=40000, lambda_hat=2.8)
    cost = single_period_cost(state)
    assert cost.n_overflow == 0
    assert abs(cost.value - want) < 4.0 * cost.se
    assert cost.per_path.shape == (40000,)
    assert cost.se < 0.02


def test_finite_horizon_checkpoints_are_paired():
    scen = builtin_scenarios()["scalar-constant"]
    law = constant_feedback(scen, [[-0.4]])
    bundle = PathBundle.generate(45, 2000, 64, 6)
    est = finite_horizon_cost(scen, law, np.array([0.9]), bundle, checkpoint_periods=[2, 4])
    assert set(est.checkpoints) == {2, 4, 6}
    val6, _ = est.checkpoints[6]
    assert val6 == pytest.approx(est.value)
    assert est.duration == pytest.approx(6.0)
    with pytest.raises(ValueError):
        finite_horizon_cost(scen, law, np.zeros(1), bundle, checkpoint_periods=[7])


# ---------------------------------------------------------------------------
# optimal control assembly


def test_optimal_feedback_recovers_constant_chain(scalar_optimum):
    scen, bundle, ric, opt = scalar_optimum
    empty = np.zeros(1)
    theta0 = opt.feedback.Theta.eval_batch(0.25, empty).item()
    v0 = opt.feedback.v.eval_batch(0.25, empty).item()
    assert abs(theta0 + SQRT2_M1) < 1e-7
    assert abs(v0 + ETA) < 1e-7
    assert opt.feedback.label == "optimal"
    assert abs(opt.eta_solution.fixed_point[0] - ETA) < 1e-7
    assert ric.k_solution.bundle is bundle and opt.eta_solution.bundle is bundle


def test_value_function_matches_closed_form(scalar_optimum):
    scen, bundle, ric, opt = scalar_optimum
    val = value_function(opt)
    assert abs(val.value - (math.sqrt(2.0) - 0.5)) < 1e-6
    assert val.se < 1e-4


def test_completion_identity_is_exact_at_the_optimum(scalar_optimum):
    scen, bundle, ric, opt = scalar_optimum
    report = completion_identity_check(
        opt, opt.feedback, seed=47, n_paths=1000,
        lambda_hat=0.7 * ric.stability.lambda_hat,
    )
    # identical law on identical noise: the pairing leaves nothing behind
    assert report.gap == 0.0
    assert report.min_penalty == 0.0
    assert report.mean_penalty == 0.0
    assert report.n_overflow == 0


def test_completion_identity_bounds_perturbed_laws(scalar_optimum):
    scen, bundle, ric, opt = scalar_optimum
    law = constant_feedback(scen, [[-SQRT2_M1 + 0.15]], v=[-ETA])
    report = completion_identity_check(
        opt, law, seed=48, n_paths=4000,
        lambda_hat=0.7 * ric.stability.lambda_hat,
    )
    assert report.min_penalty >= 0.0
    assert report.mean_penalty > 0.0
    assert report.gap_in_se < 4.0


def test_completion_of_square_against_formula_value(scalar_optimum):
    # 256 steps per period keep the O(dt) Euler bias of the measured
    # stationary cost small next to its standard error (as in A7)
    scen, bundle, ric, opt = scalar_optimum
    val = value_function(opt)
    report = completion_identity_check(
        opt, opt.feedback, seed=49, n_paths=4000, steps_per_period=256,
        lambda_hat=ric.stability.lambda_hat,
    )
    assert report.min_penalty == 0.0
    assert report.mean_penalty == 0.0
    assert abs(report.value - val.value) < 4.0 * math.hypot(report.value_se, val.se)


# ---------------------------------------------------------------------------
# perturbation scans


def test_scan_centers_at_zero_and_pairs_noise():
    scen = builtin_scenarios()["scalar-constant"]
    base = constant_feedback(scen, [[-SQRT2_M1]], v=[-ETA], label="algebraic-optimum")
    scan = optimality_scan(
        scen, base, d_theta=[[1.0]], d_v=None,
        eps_grid=[-0.2, -0.1, 0.0, 0.1, 0.2],
        seed=51, n_paths=4000, lambda_hat=2.5,
    )
    zero = int(np.argmin(np.abs(scan.eps)))
    assert scan.diff[zero] == 0.0
    assert scan.diff_se[zero] == 0.0
    assert scan.eps_star == 0.0
    assert scan.argmin_index == zero
    assert np.all(scan.diff[scan.eps != 0.0] > 0.0)
    fit = fit_quadratic_excess(scan)
    assert fit.curvature > 0.0
    assert fit.curvature_t > 1.96


def test_scan_requires_zero_on_grid():
    scen = builtin_scenarios()["scalar-constant"]
    base = constant_feedback(scen, [[-SQRT2_M1]])
    with pytest.raises(ValueError):
        optimality_scan(
            scen, base, d_theta=[[1.0]], d_v=None,
            eps_grid=[0.05, 0.1], seed=52, n_paths=200, lambda_hat=2.5,
        )


def test_quadratic_fit_recovers_synthetic_coefficients():
    eps = np.array([-0.2, -0.1, -0.05, 0.0, 0.05, 0.1, 0.2])
    b, c = 0.03, 0.61
    scan = ScanResult(
        eps=eps,
        cost=1.0 + b * eps + c * eps**2,
        cost_se=np.full(eps.size, 1e-3),
        diff=b * eps + c * eps**2,
        diff_se=np.full(eps.size, 1e-6),
        n_overflow=np.zeros(eps.size, dtype=int),
        k_burn=4,
        seed=0,
        n_paths=100,
    )
    fit = fit_quadratic_excess(scan)
    assert fit.linear == pytest.approx(b, abs=1e-9)
    assert fit.curvature == pytest.approx(c, abs=1e-9)
    assert fit.chi2_dof < 1e-10

    short = ScanResult(
        eps=np.array([-0.1, 0.0, 0.1]),
        cost=np.zeros(3), cost_se=np.ones(3),
        diff=np.zeros(3), diff_se=np.ones(3),
        n_overflow=np.zeros(3, dtype=int),
        k_burn=4, seed=0, n_paths=10,
    )
    with pytest.raises(ValueError):
        fit_quadratic_excess(short)


def test_scan_csv_round_trip(tmp_path):
    eps = np.array([-0.1, 0.0, 0.1])
    scan = ScanResult(
        eps=eps,
        cost=np.array([1.2, 1.1, 1.15]),
        cost_se=np.array([0.01, 0.01, 0.01]),
        diff=np.array([0.1, 0.0, 0.05]),
        diff_se=np.array([0.001, 0.0, 0.001]),
        n_overflow=np.array([0, 0, 0]),
        k_burn=3,
        seed=9,
        n_paths=50,
    )
    out = tmp_path / "scan.csv"
    export_scan_csv(scan, out)
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["eps", "cost", "cost_se", "excess", "excess_se", "n_overflow"]
    assert len(rows) == 4
    assert float(rows[2][1]) == 1.1
