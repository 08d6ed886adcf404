"""Backward regression sweeps and periodic fixed points."""

import csv
import gc
import math
import weakref

import numpy as np
import pytest

from ergolq.bsde_engine import (
    ConvergenceError,
    RegressionBasis,
    RegressionError,
    _lyapunov_drift,
    backward_sweep,
    export_node_table_csv,
    representation_check,
    ridge_plan,
    ridge_solve,
    solution_coeff,
    solve_linear_matrix_bsde,
    solve_vector_bsde,
)
from ergolq.coefficients import builtin_scenarios, constant_coeff
from ergolq.sde_engine import RIDGE, PathBundle

TAU = 1.0


def scalar_const(v):
    return constant_coeff([[float(v)]], TAU)


# ---------------------------------------------------------------------------
# regression primitives


def test_ridge_solve_recovers_clean_coefficients():
    rng = np.random.default_rng(0)
    design = np.column_stack([np.ones(500), rng.normal(size=500)])
    beta = np.array([[2.0], [-1.5]])
    targets = design @ beta
    plan = ridge_plan(design, ridge=0.0)
    fit = ridge_solve(design, targets, plan)
    _, cond = plan
    np.testing.assert_allclose(fit, beta, atol=1e-12)
    assert cond < 10.0


def test_ridge_solve_rejects_singular_design():
    x = np.random.default_rng(1).normal(size=100)
    design = np.column_stack([np.ones(100), x, x])  # duplicated feature
    with pytest.raises(RegressionError):
        ridge_plan(design, ridge=0.0)


def test_basis_degree_guard():
    # a bad degree fails where the basis is built, not at its first design
    with pytest.raises(RegressionError):
        RegressionBasis(degree=7)
    with pytest.raises(RegressionError):
        RegressionBasis(degree=-1)


def test_backward_sweep_requires_single_period():
    bundle = PathBundle.generate(3, 8, 16, 2)
    with pytest.raises(ValueError):
        backward_sweep(lambda *a: 0.0, np.zeros((1, 1)), bundle, RegressionBasis(0), [])


# ---------------------------------------------------------------------------
# node plans and one-row degree-0 sweeps against the per-path reference


def _reference_sweep(drift, terminal, bundle, basis):
    """Per-path sweep that rebuilds the regression at every node: the drift
    runs on all rows and each solve forms its own ridged normal matrix."""
    terminal = np.asarray(terminal, dtype=float)
    vshape = terminal.shape
    is_matrix = len(vshape) == 2
    flat_dim = int(np.prod(vshape))
    sp, dt, n_paths = bundle.steps_per_period, bundle.dt, bundle.n_paths

    def solve(design, targets):
        gram = design.T @ design / n_paths
        if design.shape[1] > 1:
            idx = np.arange(1, design.shape[1])
            gram[idx, idx] += RIDGE
        rhs = design.T @ targets / n_paths
        return np.linalg.solve(gram, rhs), float(np.linalg.cond(gram))

    values = np.empty((n_paths, sp + 1) + vshape)
    integrand = np.empty((n_paths, sp) + vshape)
    values[:, sp] = terminal
    value_coeffs = [None] * sp
    max_cond = 0.0
    for i in range(sp - 1, -1, -1):
        design = basis.design(bundle, i)
        v_next = values[:, i + 1]
        flat_next = v_next.reshape(n_paths, flat_dim)
        dw = bundle.increments[:, i] / dt
        beta_l, cond_l = solve(design, flat_next * dw[:, None])
        l_est = (design @ beta_l).reshape((n_paths,) + vshape)
        if is_matrix:
            l_est = 0.5 * (l_est + np.swapaxes(l_est, -1, -2))
        d = np.asarray(drift(i, v_next, l_est), dtype=float)
        if d.ndim == len(vshape):
            d = d[None]
        target = flat_next + dt * d.reshape(d.shape[0], flat_dim)
        beta_v, cond_v = solve(design, target)
        fitted = (design @ beta_v).reshape((n_paths,) + vshape)
        if is_matrix:
            fitted = 0.5 * (fitted + np.swapaxes(fitted, -1, -2))
        values[:, i] = fitted
        integrand[:, i] = l_est
        value_coeffs[i] = beta_v
        max_cond = max(max_cond, cond_l, cond_v)
        if i == 0:
            node0_target = np.broadcast_to(target, (n_paths, flat_dim)).copy()
    return values, integrand, value_coeffs, node0_target, max_cond


def _lyapunov_case(name, degree, terminal):
    scen = builtin_scenarios()[name]
    bundle = PathBundle.generate(11, 256, 16, 1, antithetic=True)
    a_at, c_at, q_at = (bundle.bind(f) for f in (scen.A, scen.C, scen.Q))

    def drift(i, k_next, l_est):
        return _lyapunov_drift(k_next, a_at(i), c_at(i), l_est) + q_at(i)

    return drift, np.asarray(terminal), bundle, RegressionBasis(degree)


def _vector_case():
    # A'eta + C'zeta + K b + lam on the planar scenario, K from a matrix solve
    scen = builtin_scenarios()["planar-deterministic-periodic"]
    bundle = PathBundle.generate(11, 256, 16, 1, antithetic=True)
    ksol = solve_linear_matrix_bsde(scen.A, scen.C, scen.Q, bundle, tol=1e-6)
    a_at, c_at, b_at, q_at = (bundle.bind(f) for f in (scen.A, scen.C, scen.b, scen.q))

    def drift(i, eta_next, zeta_est):
        k_i = ksol.values[: len(eta_next), i]
        a, c = a_at(i), c_at(i)
        at_eta = np.matmul(np.swapaxes(a, -1, -2), eta_next[..., None])[..., 0]
        ct_zeta = np.matmul(np.swapaxes(c, -1, -2), zeta_est[..., None])[..., 0]
        kb = np.matmul(k_i, np.broadcast_to(b_at(i), eta_next.shape)[..., None])[..., 0]
        return at_eta + ct_zeta + kb + q_at(i)

    return drift, np.array([0.3, -0.8]), bundle, ksol.basis


SWEEP_CASES = {
    "scalar-constant": lambda: _lyapunov_case("scalar-constant", 0, [[0.7]]),
    "planar": lambda: _lyapunov_case(
        "planar-deterministic-periodic", 0, [[1.2, 0.3], [0.3, 0.9]]
    ),
    "planar-vector": _vector_case,
    "scalar-random-periodic": lambda: _lyapunov_case("scalar-random-periodic", 3, [[0.7]]),
}


@pytest.mark.parametrize("case", sorted(SWEEP_CASES))
def test_planned_sweep_is_bit_identical_to_per_path_reference(case):
    drift, terminal, bundle, basis = SWEEP_CASES[case]()
    plans = [ridge_plan(basis.design(bundle, i), RIDGE) for i in range(bundle.steps_per_period)]
    got = backward_sweep(drift, terminal, bundle, basis, plans)
    values, integrand, value_coeffs, node0_target, max_cond = _reference_sweep(
        drift, terminal, bundle, basis
    )
    np.testing.assert_array_equal(got.values, values)
    np.testing.assert_array_equal(got.integrand, integrand)
    assert len(got.value_coeffs) == len(value_coeffs)
    for mine, ref in zip(got.value_coeffs, value_coeffs):
        np.testing.assert_array_equal(mine, ref)
    np.testing.assert_array_equal(got.node0_target, node0_target)
    assert got.max_cond == max_cond
    # the sweep is not trivial: values move along the period
    assert np.ptp(values[0].reshape(values.shape[1], -1), axis=0).max() > 0.0


def test_regression_plans_are_built_once_per_solve(monkeypatch):
    calls = []

    def counting(design, ridge):
        calls.append(design.shape)
        return ridge_plan(design, ridge)

    monkeypatch.setattr("ergolq.bsde_engine.ridge_plan", counting)
    bundle = PathBundle.generate(5, 64, 32, 1, antithetic=True)
    ksol = solve_linear_matrix_bsde(
        scalar_const(-1.0), scalar_const(0.3), scalar_const(1.0), bundle, tol=1e-9
    )
    assert ksol.trace.n_iterations > 1
    assert len(calls) == bundle.steps_per_period
    esol = solve_vector_bsde(
        scalar_const(-1.0), scalar_const(0.3), ksol,
        constant_coeff([1.0], TAU), constant_coeff([1.0], TAU),
        constant_coeff([0.0], TAU), tol=1e-9,
    )
    assert esol.bundle is bundle
    assert esol.trace.n_iterations > 1
    assert len(calls) == 2 * bundle.steps_per_period


def test_solution_records_worst_condition_number():
    bundle = PathBundle.generate(5, 64, 32, 1, antithetic=True)
    scen = builtin_scenarios()["scalar-constant"]
    det = solve_linear_matrix_bsde(scen.A, scen.C, scen.Q, bundle, tol=1e-7)
    assert det.basis.degree == 0
    assert det.trace.diagnostics["max_cond"] == 1.0

    rand_a = builtin_scenarios()["scalar-random-periodic"].A
    rand = solve_linear_matrix_bsde(
        rand_a, scalar_const(0.0), scalar_const(1.0),
        PathBundle.generate(5, 512, 32, 1, antithetic=True), tol=1e-5,
    )
    assert rand.basis.degree == 3
    assert rand.trace.diagnostics["max_cond"] > 1.0


# ---------------------------------------------------------------------------
# matrix fixed points


def test_constant_lyapunov_fixed_point_is_exact():
    # scalar K' drift -2K + 1 has the periodic solution K = 1/2; the Euler
    # recursion shares that fixed point exactly
    bundle = PathBundle.generate(5, 64, 64, 1, antithetic=True)
    sol = solve_linear_matrix_bsde(
        scalar_const(-1.0), scalar_const(0.0), scalar_const(1.0), bundle, tol=1e-9
    )
    assert abs(sol.fixed_point[0, 0] - 0.5) < 1e-8
    assert sol.basis.degree == 0
    assert sol.periodic_residual < 1e-8
    assert sol.trace.stop_reason == "tolerance"
    assert sol.trace.diagnostics["min_sample_eig"] > 0.0
    # every node sample sits at the same constant
    assert np.abs(sol.values - 0.5).max() < 1e-7


def test_warm_start_shortcuts_iteration():
    bundle = PathBundle.generate(5, 64, 64, 1, antithetic=True)
    cold = solve_linear_matrix_bsde(
        scalar_const(-1.0), scalar_const(0.0), scalar_const(1.0), bundle, tol=1e-9
    )
    warm = solve_linear_matrix_bsde(
        scalar_const(-1.0), scalar_const(0.0), scalar_const(1.0), bundle,
        tol=1e-9, initial_terminal=[[0.5]],
    )
    assert warm.trace.n_iterations < cold.trace.n_iterations
    assert abs(warm.fixed_point[0, 0] - 0.5) < 1e-9
    with pytest.raises(ValueError):
        solve_linear_matrix_bsde(
            scalar_const(-1.0), scalar_const(0.0), scalar_const(1.0), bundle,
            initial_terminal=np.zeros((2, 2)),
        )


def test_unstable_dynamics_raise_convergence_error():
    bundle = PathBundle.generate(5, 32, 16, 1)
    with pytest.raises(ConvergenceError):
        solve_linear_matrix_bsde(
            scalar_const(1.0), scalar_const(0.0), scalar_const(1.0), bundle,
            tol=1e-10, max_iter=25,
        )


def test_planar_solution_stays_symmetric():
    scen = builtin_scenarios()["planar-deterministic-periodic"]
    bundle = PathBundle.generate(9, 128, 32, 1, antithetic=True)
    sol = solve_linear_matrix_bsde(
        scen.A, scen.C, constant_coeff(np.eye(2), scen.tau, symmetrize=True),
        bundle, tol=1e-7,
    )
    gap = np.abs(sol.values - np.swapaxes(sol.values, -1, -2)).max()
    assert gap == 0.0
    assert sol.fixed_point.shape == (2, 2)
    assert np.linalg.eigvalsh(sol.fixed_point).min() > 0.0


# ---------------------------------------------------------------------------
# surrogate access


def test_value_at_anchors_and_interior_nodes():
    bundle = PathBundle.generate(5, 64, 64, 1, antithetic=True)
    sol = solve_linear_matrix_bsde(
        scalar_const(-1.0), scalar_const(0.0), scalar_const(1.0), bundle, tol=1e-9
    )
    fresh = np.random.default_rng(2).normal(0, 0.1, size=(7, 16)).sum(axis=1)
    at0 = sol.value_at(0.0, fresh)
    assert at0.shape == (7, 1, 1)
    np.testing.assert_array_equal(at0[:, 0, 0], np.full(7, sol.fixed_point[0, 0]))
    at_end = sol.value_at(TAU, fresh)
    np.testing.assert_array_equal(at_end[:, 0, 0], np.full(7, sol.terminal[0, 0]))
    interior = sol.value_at(16 / 64, fresh)
    np.testing.assert_allclose(interior[:, 0, 0], 0.5, atol=1e-7)


def test_solution_coeff_kind_tracks_basis():
    bundle = PathBundle.generate(5, 64, 64, 1, antithetic=True)
    det = solve_linear_matrix_bsde(
        scalar_const(-1.0), scalar_const(0.0), scalar_const(1.0), bundle, tol=1e-9
    )
    fn = solution_coeff(det)
    assert fn.kind == "deterministic-periodic"
    assert fn.shape == (1, 1)
    out = fn.eval_batch(0.0, np.zeros(4))
    np.testing.assert_allclose(out[:, 0, 0], 0.5, atol=1e-8)

    rand_a = builtin_scenarios()["scalar-random-periodic"].A
    rand = solve_linear_matrix_bsde(
        rand_a, scalar_const(0.0), scalar_const(1.0),
        PathBundle.generate(5, 512, 32, 1, antithetic=True), tol=1e-5,
    )
    assert rand.basis.degree == 3
    assert solution_coeff(rand).kind == "path-functional"


# ---------------------------------------------------------------------------
# vector equation


def test_vector_solve_constant_chain():
    bundle = PathBundle.generate(5, 64, 64, 1, antithetic=True)
    ksol = solve_linear_matrix_bsde(
        scalar_const(-1.0), scalar_const(0.0), scalar_const(1.0), bundle, tol=1e-9
    )
    esol = solve_vector_bsde(
        scalar_const(-1.0), scalar_const(0.0), ksol,
        constant_coeff([1.0], TAU), constant_coeff([1.0], TAU),
        constant_coeff([0.0], TAU), tol=1e-9,
    )
    # stationary: eta = K b / 1 = 1/2 (c = 0, lam = 0)
    assert esol.kind == "vector"
    assert abs(esol.fixed_point[0] - 0.5) < 1e-7


# ---------------------------------------------------------------------------
# audits and exports


def test_representation_check_matches_occupation_integral():
    bundle = PathBundle.generate(5, 64, 64, 1, antithetic=True)
    sol = solve_linear_matrix_bsde(
        scalar_const(-1.0), scalar_const(0.0), scalar_const(1.0), bundle, tol=1e-9
    )
    audit = PathBundle.generate(31, 64, 64, 12, antithetic=True)
    report = representation_check(
        scalar_const(-1.0), scalar_const(0.0), scalar_const(1.0), sol, audit
    )
    # deterministic dynamics: zero spread, only O(dt) discretization gap
    assert report.se < 1e-12
    assert report.rel_residual < 0.02


def test_representation_check_leaves_no_reference_cycle():
    # a cycle through the coefficients would pin them, and any solution they
    # read, until the collector runs; with it off, refcounting alone must free
    bundle = PathBundle.generate(5, 64, 16, 1, antithetic=True)
    sol = solve_linear_matrix_bsde(
        scalar_const(-1.0), scalar_const(0.0), scalar_const(1.0), bundle, tol=1e-7
    )
    audit = PathBundle.generate(31, 16, 16, 2, antithetic=True)
    a_fn = scalar_const(-1.0)
    alive = weakref.ref(a_fn)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        representation_check(a_fn, scalar_const(0.0), scalar_const(1.0), sol, audit)
        del a_fn
        assert alive() is None
    finally:
        if was_enabled:
            gc.enable()


def test_node_table_csv(tmp_path):
    bundle = PathBundle.generate(5, 16, 8, 1, antithetic=True)
    sol = solve_linear_matrix_bsde(
        scalar_const(-1.0), scalar_const(0.0), scalar_const(1.0), bundle, tol=1e-7
    )
    out = tmp_path / "nodes.csv"
    export_node_table_csv(sol, out)
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["node", "t", "mean_c0", "se_c0"]
    assert len(rows) == 1 + 9
    assert float(rows[1][2]) == pytest.approx(sol.fixed_point[0, 0])
