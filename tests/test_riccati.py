"""Cross-term reduction, policy iteration and the gain certificate."""

import math

import numpy as np
import pytest

from ergolq.bsde_engine import ConvergenceError
from ergolq.coefficients import (
    PeriodicCoefficientSet,
    builtin_scenarios,
    constant_coeff,
)
from ergolq.oracle import periodic_riccati_ode
from ergolq.riccati import (
    default_stabilizer,
    reduce_cross_term,
    riccati_residual,
    solve_stochastic_riccati,
    stabilizer_check,
)
from ergolq.sde_engine import PathBundle, derive_seed

SQRT2_M1 = math.sqrt(2.0) - 1.0


def solve_bundle(seed, n_paths=2048, sp=64):
    return PathBundle.generate(seed, n_paths, sp, 1, antithetic=True)


# ---------------------------------------------------------------------------
# cross-term reduction


def test_reduce_cross_term_no_op_without_cross_weight():
    scen = builtin_scenarios()["scalar-constant"]
    reduced, shift = reduce_cross_term(scen)
    assert reduced is scen
    assert shift is None


def test_reduce_cross_term_algebra():
    scen = builtin_scenarios()["scalar-random-periodic"]
    reduced, shift = reduce_cross_term(scen)
    assert reduced.S.is_zero
    rng = np.random.default_rng(4)
    sums = rng.normal(0.0, 0.125, size=(6, 9)).sum(axis=1)
    phase = 9 / 64
    a = scen.A.eval_batch(phase, sums)
    b = scen.B.eval_batch(phase, sums)
    s = scen.S.eval_batch(phase, sums)
    r = scen.R.eval_batch(phase, sums)
    q = scen.Q.eval_batch(phase, sums)
    rinv_s = np.linalg.solve(np.atleast_2d(r), np.atleast_2d(s))
    np.testing.assert_allclose(
        reduced.A.eval_batch(phase, sums), a - b @ rinv_s, atol=1e-14
    )
    np.testing.assert_allclose(
        reduced.Q.eval_batch(phase, sums), q - s.T @ rinv_s, atol=1e-14
    )
    np.testing.assert_allclose(shift.eval_batch(phase, sums), rinv_s, atol=1e-14)


# ---------------------------------------------------------------------------
# stabilizers


def test_default_stabilizer_prefers_smallest_gain():
    scen = builtin_scenarios()["scalar-constant"]
    law = default_stabilizer(scen, seed=3)
    # the uncontrolled loop is already stable, so kappa = 0 wins
    assert law.Theta.eval_batch(0.0, np.zeros(1)).item() == 0.0
    report = stabilizer_check(scen, law, derive_seed(3, "audit"))
    assert report.stable


def test_default_stabilizer_reports_failure():
    tau = 1.0
    hopeless = PeriodicCoefficientSet(
        tau=tau, n=1, m=1,
        A=constant_coeff([[1.0]], tau),
        B=constant_coeff([[0.0]], tau),
        C=constant_coeff([[0.0]], tau),
        b=constant_coeff([0.0], tau),
        sigma=constant_coeff([0.0], tau),
        Q=constant_coeff([[1.0]], tau),
        S=constant_coeff([[0.0]], tau),
        R=constant_coeff([[1.0]], tau),
        q=constant_coeff([0.0], tau),
        rho=constant_coeff([0.0], tau),
        name="unstabilizable",
    )
    with pytest.raises(ConvergenceError):
        default_stabilizer(hopeless, seed=3, n_paths=200, n_periods=4)


# ---------------------------------------------------------------------------
# solves


def test_scalar_constant_gain_matches_algebraic_root():
    scen = builtin_scenarios()["scalar-constant"]
    ric = solve_stochastic_riccati(scen, solve_bundle(101), tol=1e-9)
    assert abs(ric.fixed_point[0, 0] - SQRT2_M1) < 1e-8
    theta0 = ric.theta.eval_batch(0.0, np.zeros(1)).item()
    assert abs(theta0 + SQRT2_M1) < 1e-8
    assert ric.n_policies <= 10
    assert all(g >= -1e-9 for g in ric.monotone_gaps)
    assert ric.stability is not None and ric.stability.stable
    assert ric.diagnostics["inner_stop"] == "tolerance"


def test_scalar_noisy_gain_matches_algebraic_root():
    scen = builtin_scenarios()["scalar-noisy"]
    ric = solve_stochastic_riccati(scen, solve_bundle(102), tol=1e-9)
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    assert abs(ric.fixed_point[0, 0] - golden) < 1e-8


def test_planar_solve_tracks_ode_reference():
    scen = builtin_scenarios()["planar-deterministic-periodic"]
    ric = solve_stochastic_riccati(scen, solve_bundle(103, n_paths=512, sp=32), tol=1e-7)
    ode = periodic_riccati_ode(scen, nodes_per_period=512)
    ref = ode.values[0]
    rel = np.linalg.norm(ric.fixed_point - ref) / np.linalg.norm(ref)
    assert rel < 0.05
    gap = np.abs(ric.fixed_point - ric.fixed_point.T).max()
    assert gap < 1e-12
    assert np.linalg.eigvalsh(ric.fixed_point).min() > 0.0


def test_indefinite_state_weight_is_rejected():
    scen = builtin_scenarios()["scalar-constant"]
    kwargs = {k: getattr(scen, k) for k in
              ("tau", "n", "m", "A", "B", "C", "b", "sigma", "S", "R", "q", "rho")}
    kwargs["Q"] = constant_coeff([[-0.5]], scen.tau)
    bad = PeriodicCoefficientSet(**kwargs)
    with pytest.raises(ValueError):
        solve_stochastic_riccati(bad, solve_bundle(104))


# ---------------------------------------------------------------------------
# residual audit


def test_residual_vanishes_on_solve_bundle():
    scen = builtin_scenarios()["scalar-constant"]
    bundle = solve_bundle(105)
    ric = solve_stochastic_riccati(scen, bundle, tol=1e-9)
    report = riccati_residual(ric)
    assert ric.k_solution.bundle is bundle
    assert report.rel_max_defect < 1e-6
    assert report.periodic_gap < 1e-6
    assert report.node_defects.shape == (64,)


def test_gain_feedback_carries_custom_offset():
    scen = builtin_scenarios()["scalar-constant"]
    ric = solve_stochastic_riccati(scen, solve_bundle(108), tol=1e-7)
    offset = constant_coeff([0.25], scen.tau)
    law = ric.gain_feedback(v=offset, label="shifted")
    assert law.label == "shifted"
    assert law.v.eval_batch(0.5, np.zeros(1)).item() == 0.25
