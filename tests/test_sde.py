"""Path bundles, Euler stepping and moment estimators."""

import csv
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from ergolq.bsde_engine import RegressionBasis, solve_linear_matrix_bsde
from ergolq.coefficients import (
    PeriodicCoefficientSet,
    builtin_scenarios,
    constant_coeff,
    constant_feedback,
)
from ergolq.sde_engine import (
    PathBundle,
    SimulationError,
    StateTrajectory,
    _decay_report,
    _difference_step_stream,
    contraction_check,
    derive_seed,
    estimate_gram_lower_bound,
    estimate_second_moment_decay,
    export_moments_csv,
    export_trajectory_csv,
    mean_se,
    poly_design,
    simulate_closed_loop,
    stream_closed_loop,
    stream_fundamental,
)
from ergolq.riccati import default_stabilizer, stabilizer_check


def simulate_fundamental(coeffs, bundle, feedback=None):
    """Reference for the streamed certificates: the fundamental solution
    kept at every node."""
    values = np.empty((bundle.n_paths, bundle.n_steps + 1, coeffs.n, coeffs.n))

    def visit(k, phi):
        values[:, k] = phi

    overflow = stream_fundamental(coeffs, bundle, visit, feedback=feedback)
    return StateTrajectory(values, bundle.tau, bundle.steps_per_period, overflow)


def squared_norms(traj):
    """Reference reduction of a stored trajectory: per-path squared norms
    at every node, shape (n_paths, n_nodes)."""
    flat = traj.values.reshape(traj.values.shape[:2] + (-1,))
    return np.einsum("pkc,pkc->pk", flat, flat)


# ---------------------------------------------------------------------------
# bundles


def test_bundle_shapes_and_grid():
    bundle = PathBundle.generate(11, 6, 8, 3)
    assert bundle.increments.shape == (6, 24)
    assert bundle.dt == pytest.approx(1.0 / 8)
    assert bundle.duration == pytest.approx(3.0)
    grid = (bundle.seed, bundle.n_paths, bundle.steps_per_period, bundle.n_periods)
    assert grid == (11, 6, 8, 3) and not bundle.antithetic


def test_bundle_is_deterministic_and_seed_sensitive():
    a = PathBundle.generate(5, 4, 16, 2)
    b = PathBundle.generate(5, 4, 16, 2)
    c = PathBundle.generate(6, 4, 16, 2)
    np.testing.assert_array_equal(a.increments, b.increments)
    assert np.abs(a.increments - c.increments).max() > 0.0


def test_bundle_paths_are_counter_indexed():
    # growing the ensemble must not change existing paths
    small = PathBundle.generate(9, 2, 8, 2)
    big = PathBundle.generate(9, 6, 8, 2)
    np.testing.assert_array_equal(big.increments[:2], small.increments)


def _per_path_increments(seed, n_paths, n_steps, antithetic=False):
    # reference construction: one fresh Philox(key=[seed, i]) per path or pair
    root = math.sqrt(1.0 / 16)
    rows = []
    for i in range(n_paths // 2 if antithetic else n_paths):
        row = root * np.random.Generator(np.random.Philox(key=[seed, i])).standard_normal(n_steps)
        rows.extend([row, -row] if antithetic else [row])
    return np.array(rows)


@pytest.mark.parametrize("antithetic", [False, True])
def test_bundle_equals_per_path_generators(antithetic):
    for seed in (0, 5, 2**62 + 3):
        bundle = PathBundle.generate(seed, 10, 16, 3, antithetic=antithetic)
        np.testing.assert_array_equal(
            bundle.increments, _per_path_increments(seed, 10, 48, antithetic)
        )


@pytest.mark.parametrize("antithetic", [False, True])
def test_first_half_of_a_doubled_bundle_is_the_smaller_bundle(antithetic):
    small = PathBundle.generate(13, 6, 16, 2, antithetic=antithetic)
    big = PathBundle.generate(13, 12, 16, 2, antithetic=antithetic)
    np.testing.assert_array_equal(big.increments[:6], small.increments)


def test_antithetic_pairs_negate():
    bundle = PathBundle.generate(3, 8, 16, 2, antithetic=True)
    np.testing.assert_array_equal(bundle.increments[0::2], -bundle.increments[1::2])
    with pytest.raises(SimulationError):
        PathBundle.generate(3, 7, 16, 2, antithetic=True)


def test_increment_scale_matches_grid():
    bundle = PathBundle.generate(0, 2000, 64, 1)
    var = bundle.increments.var()
    assert abs(var - 1.0 / 64) < 3e-4


def test_phase_wraps_and_prefix_resets_at_boundaries():
    bundle = PathBundle.generate(1, 3, 8, 2)
    assert bundle.phase(0) == 0.0
    assert bundle.phase(3) == pytest.approx(3 / 8)
    assert bundle.phase(8) == 0.0
    assert bundle.phase(11) == pytest.approx(3 / 8)
    # period boundary: the partial sum restarts at zero
    for node in (0, 8, 16):
        np.testing.assert_array_equal(bundle.partial_sum(node), np.zeros(3))
    np.testing.assert_allclose(bundle.partial_sum(11), bundle.increments[:, 8:11].sum(axis=1))
    for node in (-1, 17):
        with pytest.raises(SimulationError):
            bundle.partial_sum(node)


def test_streams_that_read_no_prefix_sum_leave_the_table_unbuilt(monkeypatch):
    # constant coefficients read no partial sum, so neither a direct stream,
    # the decay certificate nor a degree-0 backward solve may allocate the
    # (n_steps + 1, n_paths) table
    scen = builtin_scenarios()["scalar-moment-decay"]
    bundle = PathBundle.generate(5, 8, 16, 3)
    stream_fundamental(scen, bundle, lambda k, phi: None)
    assert bundle._cumsum is None

    def refuse(self):
        raise AssertionError("partial-sum table built")

    monkeypatch.setattr(PathBundle, "_sums", refuse)
    assert stabilizer_check(scen, constant_feedback(scen, [[0.0]]), seed=3, n_paths=16).stable
    const = builtin_scenarios()["scalar-constant"]
    solve = PathBundle.generate(5, 64, 16, 1, antithetic=True)
    sol = solve_linear_matrix_bsde(const.A, const.C, const.Q, solve, basis=RegressionBasis(0))
    assert sol.fixed_point[0, 0] > 0.0


def test_prefix_sums_are_cumsum_differences_bit_for_bit():
    # nodes in periods 0, 1 and 2, at boundaries and at the last node, read
    # during a path-functional stream and again after it: each is the last
    # column of a cumsum restarted at its period's start, one contiguous row
    scen = builtin_scenarios()["scalar-random-periodic"]
    bundle = PathBundle.generate(31, 64, 64, 3)
    nodes = (0, 1, 40, 64, 64 + 50, 128 + 33, 191, 192)
    seen = {}

    def visit(k, phi):
        if k in nodes:
            seen[k] = bundle.partial_sum(k).copy()

    stream_fundamental(scen, bundle, visit)
    for node in nodes:
        start = node - node % bundle.steps_per_period
        want = np.zeros(bundle.n_paths)
        if node > start:
            want = np.cumsum(bundle.increments[:, start:node], axis=1)[:, -1]
        got = bundle.partial_sum(node)
        assert got.flags.c_contiguous
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(seen[node], want)


def test_restrict_shares_increments():
    bundle = PathBundle.generate(2, 4, 8, 5)
    head = bundle.restrict(2)
    assert head.n_steps == 16
    assert head.increments.base is bundle.increments
    with pytest.raises(SimulationError):
        bundle.restrict(6)


def test_derive_seed_is_stable_and_tag_sensitive():
    assert derive_seed(7, "solve") == derive_seed(7, "solve")
    assert derive_seed(7, "solve") != derive_seed(7, "scan")
    assert derive_seed(7, "solve") != derive_seed(8, "solve")


def test_mean_se_plain_and_antithetic():
    vals = np.array([1.0, 3.0, 2.0, 4.0])
    m, se = mean_se(vals)
    assert m == pytest.approx(2.5)
    assert se == pytest.approx(vals.std(ddof=1) / 2.0)
    m2, se2 = mean_se(vals, antithetic=True)
    pair_means = np.array([2.0, 3.0])
    assert m2 == pytest.approx(2.5)
    assert se2 == pytest.approx(pair_means.std(ddof=1) / math.sqrt(2.0))
    # an empty sample (every path overflowed) is answered without numpy warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        m, se = mean_se(np.array([]))
    assert math.isnan(m) and se == math.inf


# ---------------------------------------------------------------------------
# Euler stepping


def test_closed_loop_step_matches_hand_recursion():
    scen = builtin_scenarios()["scalar-constant"]
    law = constant_feedback(scen, [[-0.4]], v=[0.1])
    bundle = PathBundle.generate(21, 5, 16, 2)
    traj = simulate_closed_loop(scen, law, np.array([0.7]), bundle)
    dt = bundle.dt
    x = np.full(5, 0.7)
    for k in range(bundle.n_steps):
        # dX = (a x + u + b) dt + sigma dW with u = -0.4 x + 0.1
        x = x + dt * (-x + (-0.4 * x + 0.1) + 1.0) + 1.0 * bundle.increments[:, k]
        np.testing.assert_allclose(traj.values[:, k + 1, 0], x, rtol=0, atol=1e-14)
    assert not traj.overflow.any()


def test_multiplicative_noise_step_is_exact():
    scen = builtin_scenarios()["scalar-moment-decay"]
    bundle = PathBundle.generate(4, 3, 32, 1)
    traj = simulate_closed_loop(scen, constant_feedback(scen, [[0.0]]), np.array([1.0]), bundle)
    factors = 1.0 + (-1.0) * bundle.dt + 0.5 * bundle.increments
    want = np.cumprod(factors, axis=1)
    np.testing.assert_allclose(traj.values[:, 1:, 0], want, rtol=1e-13)


def test_fundamental_agrees_with_state_for_linear_dynamics():
    scen = builtin_scenarios()["scalar-moment-decay"]
    bundle = PathBundle.generate(13, 4, 16, 2)
    phi = simulate_fundamental(scen, bundle)
    state = simulate_closed_loop(scen, constant_feedback(scen, [[0.0]]), np.array([1.0]), bundle)
    np.testing.assert_allclose(phi.values[:, :, 0, 0], state.values[:, :, 0], atol=1e-13)


def test_planar_fundamental_starts_at_identity():
    scen = builtin_scenarios()["planar-deterministic-periodic"]
    bundle = PathBundle.generate(3, 2, 8, 1)
    phi = simulate_fundamental(scen, bundle)
    assert phi.values.shape == (2, 9, 2, 2)
    np.testing.assert_array_equal(phi.values[:, 0], np.broadcast_to(np.eye(2), (2, 2, 2)))


def _closed_loop_states(scen, law, x0, bundle):
    states = []
    stream_closed_loop(scen, law, x0, bundle, lambda k, x, u: states.append(x.copy()))
    return np.stack(states, axis=1)


@pytest.mark.parametrize("name", sorted(builtin_scenarios()))
def test_closed_loop_is_random_periodic_under_the_shift(name):
    # X(t + 2 tau, omega) = X(t, theta_{2 tau} omega) on the grid: restarting
    # at node 2 sp from the reached state on the increments that follow must
    # continue the same paths
    scen = builtin_scenarios()[name]
    law = default_stabilizer(scen, seed=3)
    sp = 16
    full = PathBundle.generate(23, 50, sp, 4, tau=scen.tau)
    first = _closed_loop_states(scen, law, np.ones(scen.n), full)
    shifted = PathBundle(
        tau=full.tau, steps_per_period=sp, n_periods=2, seed=full.seed,
        increments=full.increments[:, 2 * sp:],
    )
    second = _closed_loop_states(scen, law, first[:, 2 * sp], shifted)
    np.testing.assert_array_equal(second, first[:, 2 * sp:])


def test_overflow_paths_are_flagged_and_nan():
    scen = builtin_scenarios()["scalar-constant"]
    runaway = constant_feedback(scen, [[6.0]])
    bundle = PathBundle.generate(2, 3, 16, 8)
    traj = simulate_closed_loop(scen, runaway, np.array([1.0]), bundle)
    assert traj.overflow.all()
    assert np.isnan(traj.values[:, -1, 0]).all()
    with pytest.raises(SimulationError, match="all paths overflowed"):
        estimate_second_moment_decay(scen, bundle, runaway)  # all paths excluded


def test_every_stream_applies_the_same_overflow_rule():
    # |x| grows like 1.3e15 over the horizon: finite, but past OVERFLOW_LIMIT
    scen = builtin_scenarios()["scalar-constant"]
    runaway = constant_feedback(scen, [[6.0]])
    bundle = PathBundle.generate(2, 3, 16, 8)
    last = []

    def visit(k, d):
        if k == bundle.n_steps:
            last.append(d.copy())

    overflow = _difference_step_stream(scen, runaway, np.array([2.0]), bundle, visit)
    assert overflow.all()
    assert np.isnan(last[0]).all()
    report = contraction_check(scen, runaway, np.array([1.0]), np.array([-1.0]), bundle)
    assert report.overflow_paths == 3
    assert not report.stable
    phi = simulate_fundamental(scen, bundle, feedback=runaway)
    assert phi.overflow.all()
    assert np.isnan(phi.values[:, -1]).all()


# ---------------------------------------------------------------------------
# moment estimators


def test_decay_estimate_matches_discrete_rate():
    scen = builtin_scenarios()["scalar-moment-decay"]
    bundle = PathBundle.generate(17, 20000, 64, 4, antithetic=True)
    report = estimate_second_moment_decay(scen, bundle)
    dt = 1.0 / 64
    discrete = -math.log((1.0 - dt) ** 2 + 0.25 * dt) / dt
    assert report.stable
    assert abs(report.lambda_hat - discrete) < 0.15
    assert report.n_points == 5


def test_decay_estimate_needs_three_periods():
    scen = builtin_scenarios()["scalar-moment-decay"]
    bundle = PathBundle.generate(17, 16, 16, 2)
    with pytest.raises(SimulationError):
        estimate_second_moment_decay(scen, bundle)


def _runaway_scalar(a=5.0, c=2.0):
    tau = 1.0
    mat = lambda v: constant_coeff([[v]], tau)
    vec = lambda v: constant_coeff([v], tau)
    return PeriodicCoefficientSet(
        tau=tau, n=1, m=1, A=mat(a), B=mat(0.0), C=mat(c), b=vec(0.0),
        sigma=vec(0.0), Q=mat(1.0), S=mat(0.0), R=mat(1.0), q=vec(0.0),
        rho=vec(0.0), name="runaway",
    )


@pytest.mark.parametrize(
    "name", ["scalar-moment-decay", "planar-deterministic-periodic", "runaway"]
)
def test_decay_certificate_equals_the_stored_trajectory_reduction(name):
    # the streamed certificate against the reduction of a stored trajectory:
    # squared norms of every node, period ends of the surviving paths, mean
    if name == "runaway":
        scen, bundle = _runaway_scalar(), PathBundle.generate(41, 200, 16, 8)
    else:
        scen, bundle = builtin_scenarios()[name], PathBundle.generate(43, 300, 32, 4)
    traj = simulate_fundamental(scen, bundle)
    if name == "runaway":
        assert 0 < traj.overflow.sum() < bundle.n_paths
    idx = np.arange(0, traj.n_nodes, bundle.steps_per_period)
    moments = squared_norms(traj)[~traj.overflow][:, idx].mean(axis=0)
    want = _decay_report(
        bundle.tau, moments, overflow_paths=int(traj.overflow.sum()),
        diagnostics={"period_end_moments": moments},
    )
    got = estimate_second_moment_decay(scen, bundle)
    np.testing.assert_array_equal(
        got.diagnostics.pop("period_end_moments"), want.diagnostics.pop("period_end_moments")
    )
    assert got == want


def test_decay_certificate_memory_stays_near_the_increments():
    # 4000 paths x 12 periods x 64 steps: the certificate may hold the
    # increments plus per-path working state, not a trajectory or its norms
    scen = builtin_scenarios()["scalar-moment-decay"]
    increment_bytes = 4000 * 12 * 64 * 8
    tracemalloc.start()
    try:
        stabilizer_check(scen, constant_feedback(scen, [[0.0]]), seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * increment_bytes


def test_contraction_deterministic_dynamics_fits_exactly():
    scen = builtin_scenarios()["scalar-constant"]
    law = constant_feedback(scen, [[-0.4]])
    bundle = PathBundle.generate(19, 32, 64, 6)
    report = contraction_check(scen, law, np.array([1.0]), np.array([-1.0]), bundle)
    # C = 0: the difference decays deterministically, so the fit is exact
    want = -2.0 * 64 * math.log(1.0 - 1.4 / 64)
    assert abs(report.lambda_hat - want) < 1e-9
    assert report.lambda_se < 1e-9
    assert report.r_squared > 1.0 - 1e-12
    assert report.stable


def test_contraction_identical_starts_short_circuits():
    scen = builtin_scenarios()["scalar-constant"]
    law = constant_feedback(scen, [[-0.4]])
    bundle = PathBundle.generate(19, 8, 16, 4)
    report = contraction_check(scen, law, np.ones(1), np.ones(1), bundle)
    assert report.diagnostics["identically_zero"]
    assert report.lambda_hat == math.inf


# ---------------------------------------------------------------------------
# regression features and the Gram proxy


def test_poly_design_values():
    sums = np.array([0.1, 0.6])
    phase = 0.25
    design = poly_design(sums, phase, degree=3)
    z = np.array([0.1, 0.6]) / 0.5
    np.testing.assert_allclose(design[:, 0], 1.0)
    np.testing.assert_allclose(design[:, 1], z)
    np.testing.assert_allclose(design[:, 2], z**2)
    np.testing.assert_allclose(design[:, 3], z**3)
    assert poly_design(sums, 0.0, degree=3).shape == (2, 1)
    assert poly_design(sums, phase, degree=0).shape == (2, 1)


def test_gram_lower_bound_on_constant_scenario():
    scen = builtin_scenarios()["scalar-constant"]
    bundle = PathBundle.generate(29, 256, 32, 8, antithetic=True)
    report = estimate_gram_lower_bound(scen, bundle)
    # integral of exp(-2 s) over a long tail is about one half
    assert report.delta_hat > 0.3
    assert report.diagnostics["delta_raw"] == pytest.approx(report.delta_hat)
    assert "tail_bound" in report.diagnostics
    with pytest.raises(SimulationError):
        estimate_gram_lower_bound(scen, bundle.restrict(2))


# ---------------------------------------------------------------------------
# exports


def test_trajectory_csv_round_trip(tmp_path):
    scen = builtin_scenarios()["scalar-constant"]
    bundle = PathBundle.generate(23, 3, 8, 1)
    traj = simulate_closed_loop(scen, constant_feedback(scen, [[0.0]]), np.zeros(1), bundle)
    out = tmp_path / "traj.csv"
    export_trajectory_csv(traj, out, max_paths=2)
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["path_id", "node_index", "t", "c0"]
    assert len(rows) == 1 + 2 * traj.n_nodes
    # repr round trip preserves every bit
    assert float(rows[1][3]) == traj.values[0, 0, 0]
    assert float(rows[10][3]) == traj.values[1, 0, 0]


def test_moments_csv_matches_trajectory(tmp_path):
    scen = builtin_scenarios()["scalar-constant"]
    bundle = PathBundle.generate(23, 16, 8, 1)
    traj = simulate_closed_loop(scen, constant_feedback(scen, [[0.0]]), np.zeros(1), bundle)
    out = tmp_path / "moments.csv"
    export_moments_csv(traj, out)
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "mean_c0", "second_moment", "stderr"]
    assert len(rows) == 1 + traj.n_nodes
    second = np.array([float(r[2]) for r in rows[1:]])
    np.testing.assert_allclose(second, squared_norms(traj).mean(axis=0), rtol=1e-15)
