"""Steady states, ergodic cost estimators and optimality diagnostics."""

import csv
import math

import numpy as np
import pytest

from ergolq.coefficients import (
    CoefficientFn,
    FeedbackLaw,
    builtin_scenarios,
    constant_feedback,
)
from ergolq.ergodic import (
    BurnInError,
    ScanResult,
    _accumulate_cost,
    _burn_in_periods,
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
from ergolq.sde_engine import PathBundle, _flag_overflow, derive_seed, mean_se

SQRT2_M1 = math.sqrt(2.0) - 1.0
ETA = 1.0 - 1.0 / math.sqrt(2.0)


@pytest.fixture(scope="module")
def scalar_optimum():
    scen = builtin_scenarios()["scalar-constant"]
    bundle = PathBundle.generate(301, 2048, 64, 1, antithetic=True)
    ric = solve_stochastic_riccati(scen, bundle, tol=1e-9)
    opt = optimal_feedback(ric)
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
    # drift +0.2: slow enough to avoid overflow, so a claimed positive rate
    # is caught by the stationarity audit of the reached state
    scen = builtin_scenarios()["scalar-constant"]
    drifting = constant_feedback(scen, [[1.2]])
    with pytest.raises(BurnInError, match="still drifting"):
        burn_in_state(scen, drifting, seed=42, n_paths=200, lambda_hat=2.5)


@pytest.mark.parametrize("rate", [0.0, -1.0, math.nan])
def test_burn_in_rejects_a_rate_that_is_not_positive(rate):
    scen = builtin_scenarios()["scalar-constant"]
    law = constant_feedback(scen, [[-0.4]])
    with pytest.raises(BurnInError, match="not positive"):
        burn_in_state(scen, law, seed=43, n_paths=200, lambda_hat=rate)


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


@pytest.mark.parametrize(
    "name", ["scalar-constant", "scalar-random-periodic", "planar-deterministic-periodic"]
)
def test_finite_horizon_checkpoints_are_paired(name):
    # a checkpoint is the cost integral to its period boundary on the same
    # paths, so it is bit for bit the whole-horizon integral of the bundle
    # restricted to that many periods: one quadrature serves both
    scen = builtin_scenarios()[name]
    law = constant_feedback(scen, np.full((scen.m, scen.n), -0.4))
    x0 = np.full(scen.n, 0.9)
    bundle = PathBundle.generate(45, 2000, 64, 6)
    est = finite_horizon_cost(scen, law, x0, bundle, checkpoint_periods=[1, 2, 4])
    assert set(est.checkpoints) == {1, 2, 4, 6}
    for k in (1, 2, 4, 6):
        totals, _, overflow = _accumulate_cost(scen, law, x0, bundle.restrict(k))
        assert not overflow.any()
        mean, se = mean_se(totals[-1] / (k * scen.tau))
        assert est.checkpoints[k] == (float(mean), float(se)), k
    assert est.checkpoints[6][0] == est.value
    assert est.duration == pytest.approx(6.0)
    with pytest.raises(ValueError):
        finite_horizon_cost(scen, law, x0, bundle, checkpoint_periods=[7])


def test_finite_horizon_cost_drops_overflowed_paths():
    # starting near the overflow limit, the multiplicative noise pushes some
    # paths past it; their totals are NaN and leave the estimate, which is
    # the mean over the surviving paths
    scen = builtin_scenarios()["scalar-noisy"]
    law = constant_feedback(scen, np.zeros((1, 1)))
    bundle = PathBundle.generate(5, 400, 32, 4)
    est = finite_horizon_cost(scen, law, np.full(1, 3e11), bundle, checkpoint_periods=[1])
    finite = np.isfinite(est.per_path)
    assert 0 < est.n_overflow == int((~finite).sum()) < bundle.n_paths
    mean, se = mean_se(est.per_path[finite])
    assert (est.value, est.se) == (float(mean), float(se))
    assert est.checkpoints[4] == (est.value, est.se)
    assert all(math.isfinite(v) for v in est.checkpoints[1])


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


SCAN_CASES = {
    # (scenario, d_theta, d_v, eps grid)
    "scalar-constant-theta": ("scalar-constant", [[1.0]], None, [-0.2, 0.0, 0.2, 40.0]),
    "scalar-constant-v": ("scalar-constant", None, [1.0], [-0.2, 0.0, 0.2]),
    "planar": ("planar-deterministic-periodic", np.full((1, 2), 0.5), None, [-0.1, 0.0, 0.1]),
    # a gain that reads the path, path-free at phase 0 as a solved gain is
    "path-gain": ("scalar-random-periodic", [[1.0]], [0.5], [-0.2, 0.0, 0.2]),
}


def _scan_base(scen):
    base = constant_feedback(scen, np.full((scen.m, scen.n), -0.4), v=np.full(scen.m, 0.1))
    if scen.name != "scalar-random-periodic":
        return base

    def gain(phase, s):
        return np.array([[-0.4]]) if phase == 0.0 else (-0.4 + 0.1 * np.tanh(s))[:, None, None]

    theta = CoefficientFn("path-functional", (1, 1), gain, scen.tau)
    return FeedbackLaw(Theta=theta, v=base.v)


@pytest.mark.parametrize("case", sorted(SCAN_CASES))
def test_scan_streams_its_laws_as_the_single_law_streams(case, monkeypatch):
    # the laws run as one stream on common noise, in row blocks; each law's
    # per-path totals and overflow mask are bit for bit its own single-law
    # stream's over the whole bundle, and an overflowing law's NaN rows stay
    # its own and cost no further overflow test
    name, d_theta, d_v, grid = SCAN_CASES[case]
    scen = builtin_scenarios()[name]
    base = _scan_base(scen)
    calls, flagged = [], []

    def spy(*args, **kwargs):
        calls.append((args, kwargs, _accumulate_cost(*args, **kwargs)))
        return calls[-1][2]

    def flag_spy(x, overflow):
        before = int(overflow.sum())
        live = _flag_overflow(x, overflow)
        flagged.append(int(overflow.sum()) - before)
        return live

    monkeypatch.setattr("ergolq.ergodic._accumulate_cost", spy)
    monkeypatch.setattr("ergolq.sde_engine._flag_overflow", flag_spy)
    k_burn = _burn_in_periods(2.5, scen.tau)
    monkeypatch.setattr("ergolq.sde_engine.BLOCK_ELEMENTS", 150 * 32 * (k_burn + 1))
    scan = optimality_scan(
        scen, base, d_theta, d_v, eps_grid=grid, seed=53, n_paths=400, lambda_hat=2.5,
        steps_per_period=32,
    )
    assert len(calls) == 3  # blocks of at most 150 paths
    (coeffs, laws, x0, _), kwargs, _ = calls[0]
    assert len(laws) == len(grid) and laws[grid.index(0.0)] is base
    assert all(call[0][1] is laws for call in calls)
    totals = np.concatenate([call[2][0] for call in calls], axis=-1)
    overflow = np.concatenate([call[2][2] for call in calls], axis=-1)
    assert totals.shape == (scan.k_burn + 2, len(grid), 400)
    assert overflow.shape == (len(grid), 400)
    whole = PathBundle.generate(derive_seed(53, "scan"), 400, 32, scan.k_burn + 1, tau=scen.tau)
    for j, law in enumerate(laws):
        one_totals, _, one_overflow = _accumulate_cost(coeffs, law, x0, whole, **kwargs)
        assert totals[:, j].tobytes() == one_totals.tobytes()  # NaN rows included
        np.testing.assert_array_equal(overflow[j], one_overflow)
        assert scan.n_overflow[j] == one_overflow.sum()
    overflowed = np.asarray(grid) == 40.0
    np.testing.assert_array_equal(scan.n_overflow > 0, overflowed)
    assert np.isfinite(totals[:, ~overflowed]).all()
    if overflowed.any():
        assert np.isnan(totals[-1, overflowed][overflow[overflowed]]).all()
    # each row-mask pass flags a new row: a flagged row is not tested again
    assert bool(flagged) == overflowed.any() and min(flagged, default=1) > 0


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
