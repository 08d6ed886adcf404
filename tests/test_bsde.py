"""Backward regression sweeps and periodic fixed points."""

import csv
import math

import numpy as np
import pytest

from ergolq.bsde_engine import (
    ConvergenceError,
    RegressionBasis,
    RegressionError,
    backward_sweep,
    export_node_table_csv,
    representation_check,
    ridge_solve,
    solution_coeff,
    solve_linear_matrix_bsde,
    solve_vector_bsde,
)
from ergolq.coefficients import builtin_scenarios, constant_coeff
from ergolq.sde_engine import PathBundle

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
    fit, cond = ridge_solve(design, targets, ridge=0.0)
    np.testing.assert_allclose(fit, beta, atol=1e-12)
    assert cond < 10.0


def test_ridge_solve_rejects_singular_design():
    x = np.random.default_rng(1).normal(size=100)
    design = np.column_stack([np.ones(100), x, x])  # duplicated feature
    with pytest.raises(RegressionError):
        ridge_solve(design, x[:, None], ridge=0.0)


def test_basis_degree_guard():
    basis = RegressionBasis(degree=7)
    with pytest.raises(RegressionError):
        basis.design(PathBundle.generate(3, 3, 16, 1), 8)


def test_backward_sweep_requires_single_period():
    bundle = PathBundle.generate(3, 8, 16, 2)
    with pytest.raises(ValueError):
        backward_sweep(lambda *a: 0.0, np.zeros((1, 1)), bundle, RegressionBasis(0))


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
        constant_coeff([0.0], TAU), bundle, tol=1e-9,
    )
    # stationary: eta = K b / 1 = 1/2 (c = 0, lam = 0)
    assert esol.kind == "vector"
    assert abs(esol.fixed_point[0] - 0.5) < 1e-7


def test_vector_solve_enforces_bundle_token():
    bundle = PathBundle.generate(5, 64, 64, 1, antithetic=True)
    other = PathBundle.generate(6, 64, 64, 1, antithetic=True)
    ksol = solve_linear_matrix_bsde(
        scalar_const(-1.0), scalar_const(0.0), scalar_const(1.0), bundle, tol=1e-9
    )
    with pytest.raises(ValueError):
        solve_vector_bsde(
            scalar_const(-1.0), scalar_const(0.0), ksol,
            constant_coeff([1.0], TAU), constant_coeff([1.0], TAU),
            constant_coeff([0.0], TAU), other,
        )


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
