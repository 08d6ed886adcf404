"""Backward regression sweeps and periodic fixed points."""

import csv
import gc
import math
import tracemalloc
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from ergolq.bsde_engine import (
    ConvergenceError,
    RegressionBasis,
    RegressionError,
    _lyapunov_drift,
    _outer_fixed_point,
    _sweep_plans,
    backward_sweep,
    export_node_table_csv,
    representation_check,
    ridge_plan,
    ridge_solve,
    solution_coeff,
    solve_linear_matrix_bsde,
    solve_vector_bsde,
)
from ergolq.coefficients import (
    builtin_scenarios,
    constant_coeff,
    constant_feedback,
    tanh_sum_coeff,
)
from ergolq.riccati import kleinman_solve
from ergolq.sde_engine import RIDGE, PathBundle, mean_se

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
# node plans and path-free sweeps against the per-path reference


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
        dw = bundle.increments[i] / dt
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


# a 2x2 path-functional A, so a path sweep multiplies per-path 2x2 blocks
PLANAR_RANDOM_A = tanh_sum_coeff(TAU, [[-1.0, 0.2], [0.0, -1.2]], [[0.25, 0.1], [-0.1, 0.2]])


def _lyapunov_case(name, degree, terminal, n_paths=256, a_fn=None):
    scen = builtin_scenarios()[name]
    bundle = PathBundle.generate(11, n_paths, 16, 1, antithetic=n_paths > 1)
    a_at, c_at, q_at = (bundle.bind(f) for f in (a_fn or scen.A, scen.C, scen.Q))

    def drift(i, k_next, l_est):
        return _lyapunov_drift(k_next, a_at(i), c_at(i), l_est) + q_at(i)

    return drift, np.asarray(terminal), bundle, RegressionBasis(degree)


def _vector_case(a_fn=None):
    # A'eta + C'zeta + K b + lam on the planar scenario, K from a matrix solve
    scen = builtin_scenarios()["planar-deterministic-periodic"]
    a_fn = a_fn or scen.A
    bundle = PathBundle.generate(11, 256, 16, 1, antithetic=True)
    ksol = solve_linear_matrix_bsde(a_fn, scen.C, scen.Q, bundle)
    a_at, c_at, b_at, q_at = (bundle.bind(f) for f in (a_fn, scen.C, scen.b, scen.q))

    def drift(i, eta_next, zeta_est):
        k_i = ksol.stored[0][:, i]
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
    "planar-random": lambda: _lyapunov_case(
        "planar-deterministic-periodic", 3, [[1.2, 0.3], [0.3, 0.9]], a_fn=PLANAR_RANDOM_A
    ),
    "planar-random-vector": lambda: _vector_case(PLANAR_RANDOM_A),
    "scalar-random-periodic": lambda: _lyapunov_case("scalar-random-periodic", 3, [[0.7]]),
    # one path is one row for a cubic basis too; its fit is still design @ beta
    "scalar-random-periodic-one-path": lambda: _lyapunov_case(
        "scalar-random-periodic", 3, [[0.7]], n_paths=1
    ),
}


def _noise_free(bundle):
    """A one-path, zero-increment copy of a bundle's grid."""
    sp = bundle.steps_per_period
    return PathBundle(bundle.tau, sp, 1, bundle.seed, np.zeros((sp, 1)))


@pytest.mark.parametrize("case", sorted(SWEEP_CASES))
def test_planned_sweep_is_bit_identical_to_per_path_reference(case):
    # a sweep steps a stack of terminals: on a path basis each regresses on
    # the bundle's rows, on a degree-0 basis each is the regression on one
    # noise-free path; either way each is bit for bit its sweep alone
    drift, terminal, bundle, basis = SWEEP_CASES[case]()
    rows = np.stack([terminal, np.zeros_like(terminal), -2.0 * terminal])
    if basis.degree == 0:
        plans, bundle = None, _noise_free(bundle)
    else:
        plans = [ridge_plan(basis.design(bundle, i), RIDGE) for i in range(bundle.steps_per_period)]
    got = backward_sweep(drift, rows, bundle, basis, plans)
    assert got.values.shape[:2] == (len(rows), bundle.n_paths)
    for r, row in enumerate(rows):
        values, integrand, value_coeffs, node0_target, max_cond = _reference_sweep(
            drift, row, bundle, basis
        )
        np.testing.assert_array_equal(got.values[r], values)
        np.testing.assert_array_equal(got.integrand[r], integrand)
        assert len(got.value_coeffs) == len(value_coeffs)
        for coeffs, ref in zip(got.value_coeffs, value_coeffs):
            np.testing.assert_array_equal(coeffs[r], ref)
        np.testing.assert_array_equal(got.node0_target[r], node0_target)
        assert got.max_cond == max_cond
    # the sweep is not trivial: values move along the period
    assert np.ptp(got.values[0, 0].reshape(values.shape[1], -1), axis=0).max() > 0.0
    if basis.degree == 0:
        assert got.max_cond == 1.0 and not np.any(got.integrand)  # L = 0


def _reference_route(drift, shape, bundle, basis):
    """The d + 2 sweep route: the zero terminal, each probe and the fixed
    point, each swept alone by the reference (on one noise-free path when
    path-free)."""
    if basis.degree == 0:
        bundle = _noise_free(bundle)
    idx = np.triu_indices(shape[0]) if len(shape) == 2 else (np.arange(shape[0]),)
    d = len(idx[0])
    probes = np.zeros((d,) + shape)
    probes[(np.arange(d),) + idx] = probes[(np.arange(d),) + idx[::-1]] = 1.0
    f0 = _reference_sweep(drift, np.zeros(shape), bundle, basis)[0][0, 0][idx]
    m = np.column_stack(
        [_reference_sweep(drift, e, bundle, basis)[0][0, 0][idx] - f0 for e in probes]
    )
    terminal = np.tensordot(np.linalg.solve(np.eye(d) - m, f0), probes, 1)
    return terminal, _reference_sweep(drift, terminal, bundle, basis)


@pytest.mark.parametrize("case", sorted(set(SWEEP_CASES) - {"scalar-random-periodic-one-path"}))
def test_solve_is_two_sweeps_of_the_reference_route(case, monkeypatch):
    # the zero and probe terminals run as one stacked sweep, then the fixed
    # point: 2 sweeps, bit for bit the d + 2 one-terminal sweeps of the scheme
    drift, terminal, bundle, basis = SWEEP_CASES[case]()
    rows = []

    def counting(drift, terminal, *args, **kwargs):
        rows.append(len(terminal))
        return backward_sweep(drift, terminal, *args, **kwargs)

    monkeypatch.setattr("ergolq.bsde_engine.backward_sweep", counting)
    sol = _outer_fixed_point(drift, terminal.shape, bundle, basis)
    d = terminal.size if terminal.ndim == 1 else terminal.shape[0] * (terminal.shape[0] + 1) // 2
    assert rows == [d + 1, 1] and sol.trace.n_iterations == 2
    ref_terminal, (values, integrand, value_coeffs, node0_target, _) = _reference_route(
        drift, terminal.shape, bundle, basis
    )
    # bytes, so a sign of zero counts too
    for mine, ref in zip(
        [sol.terminal, sol.fixed_point, *sol.stored, *sol.value_coeffs],
        [ref_terminal, values[0, 0], values, integrand, *value_coeffs],
        strict=True,
    ):
        assert mine.shape == ref.shape and mine.tobytes() == ref.tobytes()
    if basis.degree == 0:
        assert sol.fixed_point_se == 0.0
    else:
        se = np.linalg.norm(mean_se(node0_target, bundle.antithetic)[1])
        assert sol.fixed_point_se == se > 0.0


def test_regression_plans_are_built_once_per_bundle(monkeypatch):
    # every path sweep on one bundle and basis degree reads one plan per
    # node: a matrix solve, the vector solve on its solution and every
    # Kleinman policy; a path-free solve builds none; a second bundle builds
    # its own, and keeping them there does not keep that bundle alive
    calls = []

    def counting(design, ridge):
        calls.append(design.shape)
        return ridge_plan(design, ridge)

    monkeypatch.setattr("ergolq.bsde_engine.ridge_plan", counting)
    sp = 32
    scen = builtin_scenarios()["scalar-random-periodic"]
    bundle = PathBundle.generate(5, 64, sp, 1, antithetic=True)
    free = solve_linear_matrix_bsde(
        scalar_const(-1.0), scalar_const(0.3), scalar_const(1.0), bundle
    )
    assert free.basis.degree == 0 and free.trace.n_iterations == 2
    assert calls == []
    ksol = solve_linear_matrix_bsde(scen.A, scalar_const(0.3), scalar_const(1.0), bundle)
    assert ksol.basis.degree == 3
    assert ksol.trace.n_iterations == 2
    assert len(calls) == sp
    esol = solve_vector_bsde(
        scen.A, scalar_const(0.3), ksol,
        constant_coeff([1.0], TAU), constant_coeff([1.0], TAU),
        constant_coeff([0.0], TAU),
    )
    assert esol.bundle is bundle
    assert esol.trace.n_iterations == 2
    last, gaps, _, _ = kleinman_solve(scen, constant_feedback(scen, [[0.0]]), bundle, tol=1e-9)
    assert last.basis.degree == 3
    assert len(gaps) >= 2
    assert len(calls) == sp

    was_enabled = gc.isenabled()
    gc.disable()
    try:
        fresh = PathBundle.generate(6, 64, sp, 1, antithetic=True)
        alive = weakref.ref(fresh)
        sol = solve_linear_matrix_bsde(scen.A, scalar_const(0.3), scalar_const(1.0), fresh)
        assert len(calls) == 2 * sp
        del sol, fresh
        assert alive() is None
    finally:
        if was_enabled:
            gc.enable()


def test_solution_records_worst_condition_number():
    bundle = PathBundle.generate(5, 64, 32, 1, antithetic=True)
    scen = builtin_scenarios()["scalar-constant"]
    det = solve_linear_matrix_bsde(scen.A, scen.C, scen.Q, bundle)
    assert det.basis.degree == 0
    assert det.trace.diagnostics["max_cond"] == 1.0

    rand_a = builtin_scenarios()["scalar-random-periodic"].A
    rand = solve_linear_matrix_bsde(
        rand_a, scalar_const(0.0), scalar_const(1.0),
        PathBundle.generate(5, 512, 32, 1, antithetic=True),
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
        scalar_const(-1.0), scalar_const(0.0), scalar_const(1.0), bundle
    )
    assert abs(sol.fixed_point[0, 0] - 0.5) < 1e-8
    assert sol.basis.degree == 0
    assert sol.periodic_residual < 1e-8
    assert sol.trace.stop_reason == "direct"
    assert sol.trace.diagnostics["min_sample_eig"] > 0.0
    # every node sample sits at the same constant
    assert np.abs(sol.stored[0] - 0.5).max() < 1e-7


def _picard_fixed_point(drift, shape, bundle, basis, plans):
    """Reference: plain iteration of the period map from zero until an
    update drops below 1e-13 of the iterate."""
    terminal = np.zeros(shape)
    for _ in range(500):
        fixed = backward_sweep(drift, terminal[None], bundle, basis, plans).values[0, 0, 0]
        if np.linalg.norm(fixed - terminal) <= 1e-13 * np.linalg.norm(fixed):
            return fixed
        terminal = fixed
    raise AssertionError("reference iteration did not settle")


@pytest.mark.parametrize("case", ["scalar-random-periodic", "planar", "planar-vector"])
def test_direct_fixed_point_matches_plain_iteration(case):
    drift, terminal, bundle, basis = SWEEP_CASES[case]()
    sol = _outer_fixed_point(drift, terminal.shape, bundle, basis)
    scale = max(1.0, float(np.linalg.norm(sol.fixed_point)))
    # a path-free sweep reads no plan; a path sweep reads the bundle's
    plans = _sweep_plans(bundle, basis) if basis.degree else None
    again = backward_sweep(drift, sol.terminal[None], bundle, basis, plans).values[0, 0, 0]
    np.testing.assert_array_equal(again, sol.fixed_point)
    assert np.linalg.norm(again - sol.terminal) <= 1e-13 * scale
    iterated = _picard_fixed_point(drift, terminal.shape, bundle, basis, plans)
    assert np.linalg.norm(iterated - sol.fixed_point) <= 1e-8 * scale
    assert sol.trace.n_iterations == 2
    assert sol.trace.stop_reason == "direct"
    assert 0.0 < sol.trace.diagnostics["rho"] < 1.0


@pytest.mark.parametrize("a, rho", [(1.0, r"\d"), (math.nan, "nan")], ids=["growth", "nan"])
def test_unstable_dynamics_raise_convergence_error(a, rho):
    # a NaN map has no spectral radius below 1 either
    bundle = PathBundle.generate(5, 32, 16, 1)
    with pytest.raises(ConvergenceError, match=r"rho\(M\) = " + rho):
        solve_linear_matrix_bsde(
            scalar_const(a), scalar_const(0.0), scalar_const(1.0), bundle
        )


def test_path_free_solve_draws_nothing_and_stores_one_row():
    # A2's solve: 20 000 antithetic paths on a loop that reads no path, so
    # it sweeps one noise-free path, draws nothing, allocates no path axis,
    # and stores that one row
    scen = builtin_scenarios()["planar-deterministic-periodic"]
    lam = constant_coeff(np.eye(2), scen.tau)
    bundle = PathBundle.undrawn(3, 20_000, 64, 1, tau=scen.tau, antithetic=True)
    tracemalloc.start()
    try:
        sol = solve_linear_matrix_bsde(scen.A, scen.C, lam, bundle)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert bundle.increments is None
    assert peak < 2**20
    assert sol.fixed_point_se == 0.0
    values, integrand = sol.stored
    assert values.shape == (1, 65, 2, 2) and integrand.shape == (1, 64, 2, 2)
    assert not np.any(integrand)  # L = 0
    np.testing.assert_array_equal(values[0, 0], sol.fixed_point)


def test_planar_solution_stays_symmetric():
    scen = builtin_scenarios()["planar-deterministic-periodic"]
    bundle = PathBundle.generate(9, 128, 32, 1, antithetic=True)
    sol = solve_linear_matrix_bsde(
        scen.A, scen.C, constant_coeff(np.eye(2), scen.tau),
        bundle,
    )
    values = sol.stored[0]
    gap = np.abs(values - np.swapaxes(values, -1, -2)).max()
    assert gap == 0.0
    assert sol.fixed_point.shape == (2, 2)
    assert np.linalg.eigvalsh(sol.fixed_point).min() > 0.0


# ---------------------------------------------------------------------------
# surrogate access


def test_value_at_anchors_and_interior_nodes():
    bundle = PathBundle.generate(5, 64, 64, 1, antithetic=True)
    sol = solve_linear_matrix_bsde(
        scalar_const(-1.0), scalar_const(0.0), scalar_const(1.0), bundle
    )
    fresh = np.random.default_rng(2).normal(0, 0.1, size=(7, 16)).sum(axis=1)
    # the anchors are path-free: the fixed point and terminal themselves
    np.testing.assert_array_equal(sol.value_at(0.0, fresh), sol.fixed_point)
    np.testing.assert_array_equal(sol.value_at(TAU, fresh), sol.terminal)
    interior = sol.value_at(16 / 64, fresh)
    np.testing.assert_allclose(interior[:, 0, 0], 0.5, atol=1e-7)


def test_solution_coeff_kind_tracks_basis():
    bundle = PathBundle.generate(5, 64, 64, 1, antithetic=True)
    det = solve_linear_matrix_bsde(
        scalar_const(-1.0), scalar_const(0.0), scalar_const(1.0), bundle
    )
    fn = solution_coeff(det)
    assert fn.kind == "deterministic-periodic"
    assert fn.shape == (1, 1)
    out = fn.eval_batch(0.0, np.zeros(4))
    np.testing.assert_allclose(out[..., 0, 0], 0.5, atol=1e-8)

    rand_a = builtin_scenarios()["scalar-random-periodic"].A
    rand = solve_linear_matrix_bsde(
        rand_a, scalar_const(0.0), scalar_const(1.0),
        PathBundle.generate(5, 512, 32, 1, antithetic=True),
    )
    assert rand.basis.degree == 3
    assert solution_coeff(rand).kind == "path-functional"


# ---------------------------------------------------------------------------
# vector equation


def test_vector_solve_constant_chain():
    bundle = PathBundle.generate(5, 64, 64, 1, antithetic=True)
    ksol = solve_linear_matrix_bsde(
        scalar_const(-1.0), scalar_const(0.0), scalar_const(1.0), bundle
    )
    esol = solve_vector_bsde(
        scalar_const(-1.0), scalar_const(0.0), ksol,
        constant_coeff([1.0], TAU), constant_coeff([1.0], TAU),
        constant_coeff([0.0], TAU),
    )
    # stationary: eta = K b / 1 = 1/2 (c = 0, lam = 0)
    assert esol.kind == "vector"
    assert abs(esol.fixed_point[0] - 0.5) < 1e-7


# ---------------------------------------------------------------------------
# audits and exports


def test_representation_check_matches_occupation_integral(monkeypatch):
    # a = -1, c = 0.5, Lam = 1: a path-free loop, so K = (I - T*)^-1 O is the
    # scalar Kronecker closed form with m = (1 + a dt)^2 + c^2 dt,
    # O = dt (1/2 + m + .. + m^(sp - 1) + m^sp / 2) and T = m^sp, drawn from no path
    a_fn, c_fn, lam_fn = scalar_const(-1.0), scalar_const(0.5), scalar_const(1.0)
    sol = solve_linear_matrix_bsde(
        a_fn, c_fn, lam_fn, PathBundle.generate(5, 64, 64, 1, antithetic=True)
    )
    calls = []
    generate = PathBundle.generate.__func__

    def counted(cls, *args, **kwargs):
        calls.append(args)
        return generate(cls, *args, **kwargs)

    monkeypatch.setattr(PathBundle, "generate", classmethod(counted))
    audit = PathBundle.undrawn(31, 4000, 64, 1, antithetic=True)
    report = representation_check(a_fn, c_fn, lam_fn, sol, audit)
    dt, m = audit.dt, (1.0 - audit.dt) ** 2 + 0.25 * audit.dt
    powers = m ** np.arange(65)
    closed = dt * (powers[1:64].sum() + 0.5 * (powers[0] + powers[64])) / (1.0 - powers[64])
    exact = SimpleNamespace(fixed_point=np.array([[closed]]))
    assert representation_check(a_fn, c_fn, lam_fn, exact, audit).residual <= 1e-13
    assert calls == [] and audit.increments is None
    # no spread, only the scheme's O(dt) gap between backward and forward
    assert report.se == 0.0
    assert report.rel_residual < 0.02


def test_representation_check_leaves_no_reference_cycle():
    # a cycle through the coefficients would pin them, and any solution they
    # read, until the collector runs; with it off, refcounting alone must free
    bundle = PathBundle.generate(5, 64, 16, 1, antithetic=True)
    sol = solve_linear_matrix_bsde(
        scalar_const(-1.0), scalar_const(0.0), scalar_const(1.0), bundle
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
        scalar_const(-1.0), scalar_const(0.0), scalar_const(1.0), bundle
    )
    out = tmp_path / "nodes.csv"
    export_node_table_csv(sol, out)
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["node", "t", "mean_c0", "se_c0"]
    assert len(rows) == 1 + 9
    assert float(rows[1][2]) == pytest.approx(sol.fixed_point[0, 0])


def test_node_table_se_is_that_of_the_paired_node_mean(tmp_path):
    # a path-functional solve's rows are antithetic pairs, so each se_c is
    # the SE of the node mean beside it: pairs first, as every reader pairs
    rand_a = builtin_scenarios()["scalar-random-periodic"].A
    bundle = PathBundle.generate(5, 512, 16, 1, antithetic=True)
    sol = solve_linear_matrix_bsde(rand_a, scalar_const(0.3), scalar_const(1.0), bundle)
    assert sol.basis.degree == 3
    out = tmp_path / "nodes.csv"
    export_node_table_csv(sol, out)
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    samples = sol.stored[0][..., 0, 0]
    paired_below = 0
    for k, row in enumerate(rows):
        mean, se = mean_se(samples[:, k], antithetic=True)
        assert float(row[2]) == mean and float(row[3]) == se
        paired_below += se < mean_se(samples[:, k])[1]
    assert paired_below > len(rows) // 2  # pairing is what the column reads
