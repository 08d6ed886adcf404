"""Path bundles, Euler stepping and moment estimators."""

import csv
import dataclasses
import math
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from ergolq import oracle, sde_engine
from ergolq.bsde_engine import RegressionBasis, representation_check, solve_linear_matrix_bsde
from ergolq.coefficients import (
    PeriodicCoefficientSet,
    builtin_scenarios,
    constant_coeff,
    constant_feedback,
    tanh_sum_coeff,
)
from ergolq.sde_engine import (
    NOISE_BLOCK,
    OVERFLOW_LIMIT,
    PathBundle,
    SimulationError,
    StateTrajectory,
    _difference_step_stream,
    _period_continuation,
    _rekey_template,
    contraction_check,
    derive_seed,
    estimate_gram_lower_bound,
    export_moments_csv,
    export_trajectory_csv,
    fundamental_squared_norms,
    mean_se,
    moment_operator,
    operator_report,
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
    assert bundle.increments.shape == (24, 6)
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
    np.testing.assert_array_equal(big.increments[:, :2], small.increments)


def _per_path_increments(seed, n_paths, n_steps, antithetic=False, dt=1.0 / 16):
    # reference construction: one fresh Philox(key=[seed, i]) per path or
    # pair, each path's draws one column of the node-major increments
    root = math.sqrt(dt)
    cols = []
    for i in range(n_paths // 2 if antithetic else n_paths):
        col = root * np.random.Generator(np.random.Philox(key=[seed, i])).standard_normal(n_steps)
        cols.extend([col, -col] if antithetic else [col])
    return np.stack(cols, axis=1)


@pytest.mark.parametrize("antithetic", [False, True])
def test_bundle_equals_per_path_generators(antithetic):
    # inside one block, and drawn rows ending either side of a block boundary
    if antithetic:
        counts = (10, 2 * (NOISE_BLOCK + 1))
    else:
        counts = (10, NOISE_BLOCK - 1, NOISE_BLOCK, NOISE_BLOCK + 1)
    for seed in (0, 5, 2**62 + 3):
        for n_paths in counts:
            for steps_per_period, n_periods in ((16, 3), (1, 1)):
                bundle = PathBundle.generate(
                    seed, n_paths, steps_per_period, n_periods, antithetic=antithetic
                )
                expected = _per_path_increments(
                    seed, n_paths, steps_per_period * n_periods, antithetic, 1.0 / steps_per_period
                )
                np.testing.assert_array_equal(bundle.increments, expected)


def test_rekey_template_is_the_per_path_state():
    # the plain-int state generate assigns per path: re-keyed to path i it is
    # Philox(key=[seed, i])'s state, so a change to numpy's state schema
    # fails here by name
    for seed in (0, 2**62 + 3):
        template = _rekey_template(np.random.Philox(key=[seed, 0]))
        template["state"]["key"][1] = 7
        state = np.random.Philox(key=[seed, 7]).state
        state["state"] = {name: arr.tolist() for name, arr in state["state"].items()}
        state["buffer"] = state["buffer"].tolist()
        for fields in (template["state"]["counter"], template["state"]["key"], template["buffer"]):
            assert all(type(v) is int for v in fields)
        assert template == state


@pytest.mark.parametrize("antithetic", [False, True])
def test_first_half_of_a_doubled_bundle_is_the_smaller_bundle(antithetic):
    small = PathBundle.generate(13, 6, 16, 2, antithetic=antithetic)
    big = PathBundle.generate(13, 12, 16, 2, antithetic=antithetic)
    np.testing.assert_array_equal(big.increments[:, :6], small.increments)


def test_antithetic_pairs_negate():
    bundle = PathBundle.generate(3, 8, 16, 2, antithetic=True)
    np.testing.assert_array_equal(bundle.increments[:, 0::2], -bundle.increments[:, 1::2])
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
    np.testing.assert_allclose(bundle.partial_sum(11), bundle.increments[8:11].sum(axis=0))
    for node in (-1, 17):
        with pytest.raises(SimulationError):
            bundle.partial_sum(node)


def test_streams_that_read_no_prefix_sum_leave_the_table_unbuilt(monkeypatch):
    # constant coefficients read no partial sum, so neither a direct stream,
    # the decay certificate nor a degree-0 backward solve may build the
    # (n_steps + 1, n_paths) table of any bundle, its blocks or its views
    def refuse(self):
        raise AssertionError("partial-sum table built")

    monkeypatch.setattr(PathBundle, "_sums", refuse)
    scen = builtin_scenarios()["scalar-moment-decay"]
    stream_fundamental(scen, PathBundle.generate(5, 8, 16, 3), lambda k, phi: None)
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
            want = np.cumsum(bundle.increments[start:node], axis=0)[-1]
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


@pytest.mark.parametrize("antithetic", [False, True])
def test_undrawn_bundle_draws_the_generated_table_in_row_blocks(monkeypatch, antithetic):
    # blocks of an undrawn bundle, drawn one by one, and of a drawn table,
    # sliced, both hold exactly the generated rows; a budget of 7 rows splits
    # 30 paths into 5 even blocks of 6, which also keeps antithetic pairs whole
    monkeypatch.setattr(sde_engine, "BLOCK_ELEMENTS", 7 * 48)
    want = PathBundle.generate(9, 30, 16, 3, antithetic=antithetic)
    lazy = PathBundle.undrawn(9, 30, 16, 3, antithetic=antithetic)
    assert lazy.increments is None and (lazy.n_paths, lazy.n_steps) == (30, 48)
    for bundle in (lazy, want):
        rows = []
        for sl, block in bundle.blocks():
            rows.append((sl.start, sl.stop))
            np.testing.assert_array_equal(block.increments, want.increments[:, sl])
            assert block.antithetic == antithetic and block.seed == 9
        assert rows == [(0, 6), (6, 12), (12, 18), (18, 24), (24, 30)]
    assert lazy.increments is None
    head = lazy.restrict(2)
    assert head.increments is None
    np.testing.assert_array_equal(head.draw(), want.increments[:32])
    np.testing.assert_array_equal(lazy.draw(), want.increments)
    assert lazy.draw() is lazy.increments


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
        x = x + dt * (-x + (-0.4 * x + 0.1) + 1.0) + 1.0 * bundle.increments[k]
        np.testing.assert_allclose(traj.values[:, k + 1, 0], x, rtol=0, atol=1e-14)
    assert not traj.overflow.any()


def test_multiplicative_noise_step_is_exact():
    scen = builtin_scenarios()["scalar-moment-decay"]
    bundle = PathBundle.generate(4, 3, 32, 1)
    traj = simulate_closed_loop(scen, constant_feedback(scen, [[0.0]]), np.array([1.0]), bundle)
    factors = 1.0 + (-1.0) * bundle.dt + 0.5 * bundle.increments
    want = np.cumprod(factors, axis=0)
    np.testing.assert_allclose(traj.values[:, 1:, 0], want.T, rtol=1e-13)


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
        increments=full.increments[2 * sp:],
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
    # a Monte Carlo operator over overflowed paths certifies nothing
    wild = _runaway_scalar(a=400.0, path_functional=True)
    report = moment_operator(wild, bundle)
    assert report.overflow_paths == 3
    assert report.rho == math.inf and report.lambda_hat == -math.inf
    assert not report.stable


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
    # the exact operator of the same loop: mean square grows, no certificate
    report = contraction_check(scen, runaway, bundle)
    assert report.overflow_paths == 0 and report.rho > 1.0
    assert not report.stable
    phi = simulate_fundamental(scen, bundle, feedback=runaway)
    assert phi.overflow.all()
    assert np.isnan(phi.values[:, -1]).all()


def test_one_overflowing_path_leaves_the_others_untouched():
    # a stabilizing law from per-path starts, one of them past OVERFLOW_LIMIT:
    # only that path is flagged and NaN from the first checked node on, and
    # every other path, state and difference alike, keeps its bits
    scen = builtin_scenarios()["scalar-constant"]
    law = constant_feedback(scen, [[-0.4]], v=[0.1])
    bundle = PathBundle.generate(2, 6, 16, 2)
    x0 = np.linspace(-1.0, 1.0, 6)[:, None]
    wild = x0.copy()
    wild[3] = 2.0 * OVERFLOW_LIMIT
    only = np.arange(6) == 3
    calm = simulate_closed_loop(scen, law, x0, bundle)
    hit = simulate_closed_loop(scen, law, wild, bundle)
    assert not calm.overflow.any()
    np.testing.assert_array_equal(hit.overflow, only)
    assert hit.values[3, 0, 0] == wild[3, 0]
    assert np.isnan(hit.values[3, 1:]).all()
    np.testing.assert_array_equal(hit.values[~only], calm.values[~only])

    def diffs(delta0):
        seen = []
        mask = _difference_step_stream(scen, law, delta0, bundle, lambda k, d: seen.append(d))
        return mask, np.stack(seen, axis=1)

    calm_mask, calm_d = diffs(x0)
    hit_mask, hit_d = diffs(wild)
    assert not calm_mask.any()
    np.testing.assert_array_equal(hit_mask, only)
    assert np.isnan(hit_d[3, 1:]).all()
    np.testing.assert_array_equal(hit_d[~only], calm_d[~only])


# ---------------------------------------------------------------------------
# the one-period second-moment operator


def test_exact_operator_is_the_scheme_product():
    # scalar-moment-decay: T = ((1 - dt)^2 + c^2 dt)^64 with c = 0.5, no noise
    scen = builtin_scenarios()["scalar-moment-decay"]
    report = moment_operator(scen, PathBundle.undrawn(3, 16, 64, 1))
    dt = 1.0 / 64
    want = ((1.0 - dt) ** 2 + 0.25 * dt) ** 64
    assert report.rho == pytest.approx(want, rel=1e-13, abs=0.0)
    assert report.lambda_hat == pytest.approx(-math.log(want), rel=1e-13, abs=0.0)
    assert report.rho_se == report.lambda_se == 0.0
    assert report.ci_low == report.lambda_hat == report.ci_high
    assert report.beta_hat == 1.0
    assert report.stable


def test_scheme_moment_operator_matches_the_kronecker_recursion():
    # planar: the moment path against E[Phi_k (x) Phi_k] stepped by hand,
    # and E|Phi|^2 = vec(I)' M vec(I)
    scen = builtin_scenarios()["planar-deterministic-periodic"]
    bundle = PathBundle.undrawn(3, 16, 16, 1)
    a_at, c_at = bundle.bind(scen.A), bundle.bind(scen.C)
    moments = [np.eye(4)]
    for k in range(10):
        step = np.eye(2) + bundle.dt * a_at(k)
        moments.append((np.kron(step, step) + bundle.dt * np.kron(c_at(k), c_at(k))) @ moments[-1])
    got = oracle.scheme_moment_operator(a_at, c_at, bundle.dt, 10)
    np.testing.assert_allclose(got, np.stack(moments), rtol=1e-14, atol=1e-15)
    eye = np.eye(2).reshape(-1)
    assert eye @ got[-1] @ eye > 0.0


def _path_functional_copy(scen):
    """scen with a path-functional A that equals A's value (amplitude 0)."""
    base = scen.A.eval_batch(0.0, np.zeros(1)).reshape(scen.n, scen.n)
    return dataclasses.replace(
        scen, A=tanh_sum_coeff(scen.tau, base, np.zeros((scen.n, scen.n)))
    )


def test_monte_carlo_operator_agrees_with_the_exact_one():
    # scalar-noisy with A = tanh_sum(-1, 0): the same loop, read through the
    # path, so the Monte Carlo branch runs; its rho covers the exact one
    scen = builtin_scenarios()["scalar-noisy"]
    copy = _path_functional_copy(scen)
    law = constant_feedback(scen, [[0.0]])
    bundle = PathBundle.undrawn(11, 16_000, 64, 1)
    exact, mc = moment_operator(scen, bundle, law), moment_operator(copy, bundle, law)
    assert exact.rho_se == 0.0 < mc.rho_se
    assert abs(mc.rho - exact.rho) <= 3.0 * mc.rho_se
    assert mc.ci_low < mc.lambda_hat < mc.ci_high
    assert mc.lambda_se == pytest.approx(mc.rho_se / mc.rho)


def test_monte_carlo_operator_reads_one_period():
    # the first period of a longer bundle is the whole estimate
    scen = builtin_scenarios()["scalar-random-periodic"]
    short = moment_operator(scen, PathBundle.generate(17, 40, 16, 1))
    long = moment_operator(scen, PathBundle.generate(17, 40, 16, 3))
    assert short == long
    assert short.rho_se > 0.0


def _runaway_scalar(a=5.0, c=2.0, path_functional=False):
    tau = 1.0
    mat = lambda v: constant_coeff([[v]], tau)
    vec = lambda v: constant_coeff([v], tau)
    drift = tanh_sum_coeff(tau, [[a]], [[0.0]]) if path_functional else mat(a)
    return PeriodicCoefficientSet(
        tau=tau, n=1, m=1, A=drift, B=mat(0.0), C=mat(c), b=vec(0.0),
        sigma=vec(0.0), Q=mat(1.0), S=mat(0.0), R=mat(1.0), q=vec(0.0),
        rho=vec(0.0), name="runaway",
    )


def _planar_path_functional():
    scen = builtin_scenarios()["planar-deterministic-periodic"]
    c = tanh_sum_coeff(scen.tau, [[0.3, 0.0], [0.1, 0.2]], [[0.2, 0.0], [0.0, 0.1]])
    return dataclasses.replace(scen, C=c)


@pytest.mark.parametrize("name", ["scalar-random-periodic", "planar", "runaway"])
def test_monte_carlo_operator_equals_the_stored_trajectory_reduction(name):
    # the streamed operator against a stored trajectory's Phi(tau) (x) Phi(tau)
    if name == "runaway":
        scen = _runaway_scalar(a=40.0, c=4.0, path_functional=True)
        bundle = PathBundle.generate(41, 200, 32, 1)
    elif name == "planar":
        scen, bundle = _planar_path_functional(), PathBundle.generate(43, 300, 32, 1)
    else:
        scen, bundle = builtin_scenarios()[name], PathBundle.generate(43, 300, 32, 1)
    traj = simulate_fundamental(scen, bundle)
    if name == "runaway":
        assert 0 < traj.overflow.sum() < bundle.n_paths
    end = traj.values[:, -1]
    samples = np.stack([np.kron(p, p) for p in end])
    want = operator_report(samples.mean(axis=0), bundle.tau, samples, int(traj.overflow.sum()))
    got = moment_operator(scen, bundle)
    assert got == want
    assert got.stable == (name != "runaway")


def test_delta_method_se_is_the_se_of_the_perron_scalars():
    # rho is the mean of u' Z_p v / u'v over paths, and rho_se its SE
    scen = _planar_path_functional()
    bundle = PathBundle.generate(5, 500, 16, 1)
    traj = simulate_fundamental(scen, bundle)
    samples = np.stack([np.kron(p, p) for p in traj.values[:, -1]])
    op = samples.mean(axis=0)
    vals, right = np.linalg.eig(op)
    lvals, left = np.linalg.eig(op.T)
    v = right[:, np.argmax(np.abs(vals))].real
    u = left[:, np.argmax(np.abs(lvals))].real
    scalars = np.array([u @ z @ v for z in samples]) / (u @ v)
    mean, se = mean_se(scalars)
    report = moment_operator(scen, bundle)
    assert report.rho == pytest.approx(float(mean), rel=1e-12)
    assert report.rho_se == pytest.approx(float(se), rel=1e-10)
    assert report.beta_hat == 2.0


def test_monte_carlo_operator_memory_stays_near_one_block(monkeypatch):
    # 16000 paths x one period of 64 steps in 16 blocks of 1000 paths: the
    # operator holds one block of increments at a time (and its partial-sum
    # table), the generator's buffer of NOISE_BLOCK drawn rows and per-path
    # state (Phi(tau), its Kronecker square and the Perron scalars), never
    # the whole table
    scen = builtin_scenarios()["scalar-random-periodic"]
    n_paths, n_steps = 16_000, 64
    monkeypatch.setattr(sde_engine, "BLOCK_ELEMENTS", 1000 * n_steps)
    block_bytes = 1000 * (2 * n_steps + 1) * 8
    per_path_bytes = 6 * n_paths * 8
    law = constant_feedback(scen, [[0.0]])
    stabilizer_check(scen, law, seed=3, n_paths=16)  # one-time set-up, untraced
    tracemalloc.start()
    try:
        stabilizer_check(scen, law, seed=3, n_paths=n_paths)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < block_bytes + NOISE_BLOCK * n_steps * 8 + per_path_bytes
    assert peak < 0.5 * n_paths * n_steps * 8


def test_monte_carlo_continuation_agrees_with_the_exact_one():
    # scalar-noisy with A = tanh_sum(-1, 0) under Theta = 0: the same loop,
    # read through the path, so the Monte Carlo period runs on antithetic
    # pairs; its K = (I - T*)^-1 O covers the exact one within 3 SE
    scen = builtin_scenarios()["scalar-noisy"]
    copy = _path_functional_copy(scen)
    law = constant_feedback(scen, [[0.0]])
    bundle = PathBundle.undrawn(11, 16_000, 64, 1, antithetic=True)
    exact, exact_se, exact_report, _ = _period_continuation(scen, bundle, scen.Q, law)
    mc, mc_se, mc_report, _ = _period_continuation(copy, bundle, scen.Q, law)
    assert exact_se[0, 0] == 0.0 < mc_se[0, 0]
    assert abs(mc[0, 0] - exact[0, 0]) <= 3.0 * mc_se[0, 0]
    assert exact_report == moment_operator(scen, bundle, law)
    assert mc_report == moment_operator(copy, bundle, law)


def test_monte_carlo_continuation_equals_the_stored_trajectory_reduction():
    # K and its SE against a stored trajectory: O_p the per-path trapezoid
    # of Phi' Lam Phi (ends at half weight, Lam read at node k), T_p the
    # per-path Phi(tau) (x) Phi(tau), and the SE that of the per-path
    # influence (I - T*)^-1 [O_p + T_p*(K) - K] over antithetic pairs
    scen = builtin_scenarios()["scalar-random-periodic"]
    bundle = PathBundle.generate(47, 300, 32, 2, antithetic=True)
    head = bundle.restrict(1)
    phi = simulate_fundamental(scen, head).values[..., 0, 0]
    lam = np.stack([scen.Q.eval_batch(head.phase(k), head.partial_sum(k))[:, 0, 0]
                    for k in range(33)], axis=1)
    weights = np.full(33, head.dt)
    weights[[0, 32]] *= 0.5
    occupation = (weights * lam * phi**2).sum(axis=1)
    ends = phi[:, -1] ** 2
    kbar = occupation.mean() / (1.0 - ends.mean())
    _, want_se = mean_se((occupation + ends * kbar - kbar) / (1.0 - ends.mean()), True)
    got, got_se, _, _ = _period_continuation(scen, bundle, scen.Q)
    assert got[0, 0] == pytest.approx(kbar, rel=1e-12)
    assert got_se[0, 0] == pytest.approx(float(want_se), rel=1e-10)


@pytest.mark.parametrize("sp", [16, 48])
def test_exact_continuation_equals_the_scheme_moment_reduction(sp):
    # the exact twin of the stored-trajectory reduction: from the scheme's
    # moments M_k, K = (I - M_tau')^-1 sum_k w_k M_k' vec Lam_k and each
    # anchor's tail M_r^-T (O - O_r + M_tau' vec K), O_r the trapezoid over
    # [0, r]; one exact row, partial sums 0, SE 0 and no draw, on a dyadic
    # and a non-dyadic step
    scen = builtin_scenarios()["planar-deterministic-periodic"]
    law = default_stabilizer(scen, seed=3)
    bundle = PathBundle.undrawn(13, 50, sp, 1)
    drift = sde_engine._homogeneous_drift(scen, law)
    moments = oracle.scheme_moment_operator(bundle.bind(drift), bundle.bind(scen.C), bundle.dt, sp)
    lam_at = bundle.bind(scen.Q)
    terms = np.stack([m.T @ lam_at(k).reshape(-1) for k, m in enumerate(moments)])
    occupation = np.trapezoid(terms, dx=bundle.dt, axis=0)
    kbar = np.linalg.solve(np.eye(4) - moments[-1].T, occupation)
    anchors = (0, 5, sp // 2, 3 * sp // 4)
    got, got_se, _, tails = _period_continuation(scen, bundle, scen.Q, law, anchors)
    np.testing.assert_allclose(got.reshape(-1), kbar, rtol=1e-12, atol=0.0)
    assert not got_se.any() and bundle.increments is None
    for r, (tail, sums) in tails.items():
        head = np.trapezoid(terms[: r + 1], dx=bundle.dt, axis=0)
        want = np.linalg.solve(moments[r].T, occupation - head + moments[-1].T @ kbar)
        assert tail.shape == (1, 4) and sums.tolist() == [0.0]
        np.testing.assert_allclose(tail[0], want, rtol=1e-12, atol=0.0, err_msg=f"anchor {r}")


def test_a_runaway_loop_has_no_continuation():
    # rho(T) >= 1: the exact branch raises, and so does a Monte Carlo period
    # whose overflowed path makes rho infinite; the same pass with no
    # weight reports rho on both branches and does not raise
    bundle = PathBundle.generate(41, 200, 32, 1)
    for scen in (_runaway_scalar(), _runaway_scalar(a=40.0, c=4.0, path_functional=True)):
        kbar, se, report, tails = _period_continuation(scen, bundle, None)
        assert (kbar, se, tails) == (None, None, None) and not report.rho < 1.0
        with pytest.raises(SimulationError, match="the occupation integral diverges"):
            _period_continuation(scen, bundle, scen.Q)
    reference = SimpleNamespace(fixed_point=np.eye(1))
    with pytest.raises(SimulationError, match="the occupation integral diverges"):
        representation_check(scen.A, scen.C, scen.Q, reference, bundle)


@pytest.mark.parametrize("name", ["planar-deterministic-periodic", "scalar-random-periodic"])
def test_gram_features_and_rate_read_the_bundle_and_the_operator(monkeypatch, name):
    # the Gram regression's features read the bundle's own partial sums at
    # the loop's feature degree, and its rate is the loop's operator
    scen = builtin_scenarios()[name]
    law = constant_feedback(scen, np.full((scen.m, scen.n), -0.2))
    bundle = PathBundle.generate(43, 40, 16, 4)
    features = []

    def design(sums, phase, degree):
        features.append((phase, degree, sums.copy()))
        return poly_design(sums, phase, degree)

    monkeypatch.setattr(sde_engine, "poly_design", design)
    gram = estimate_gram_lower_bound(scen, bundle, law)[0]
    ref = moment_operator(scen, bundle, law)
    fit = ("lambda_hat", "beta_hat", "lambda_se", "ci_low", "rho", "rho_se")
    assert [getattr(gram, f) for f in fit] == [getattr(ref, f) for f in fit]
    # every anchor is regressed: a path-free loop's one exact row (partial
    # sums zero) on the constant column, which returns it unchanged
    path = name == "scalar-random-periodic"
    assert [f[:2] for f in features] == [(bundle.phase(r), 3 if path else 0) for r in (0, 4, 8, 12)]
    for r, (_, _, sums) in zip((0, 4, 8, 12), features):
        np.testing.assert_array_equal(sums, bundle.partial_sum(r) if path else np.zeros(1))


# ---------------------------------------------------------------------------
# row-block invariance of the forward-only estimators


def _forward_only_results(scen, bundle):
    """Every blocked estimator's results on one bundle, as nested values."""
    law = constant_feedback(scen, np.full((scen.m, scen.n), -0.2))
    out = {"norms": fundamental_squared_norms(scen, bundle, range(0, bundle.n_steps + 1, 5), law)}
    out["operator"] = moment_operator(scen, bundle, law)
    try:
        out["gram"] = estimate_gram_lower_bound(scen, bundle, law)
    except SimulationError as exc:
        out["gram"] = str(exc)
    # the check reads only the solution's fixed point
    reference = SimpleNamespace(fixed_point=np.eye(scen.n))
    try:
        out["representation"] = representation_check(scen.A, scen.C, scen.Q, reference, bundle)
    except SimulationError as exc:
        out["representation"] = str(exc)
    return out


def _assert_same_bits(got, want, where="results"):
    if isinstance(want, dict):
        assert got.keys() == want.keys(), where
        for key in want:
            _assert_same_bits(got[key], want[key], f"{where}[{key!r}]")
    elif isinstance(want, (tuple, list)):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_same_bits(g, w, f"{where}[{i}]")
    elif dataclasses.is_dataclass(want):
        _assert_same_bits(vars(got), vars(want), where)
    elif isinstance(want, str):
        assert got == want, where
    else:
        np.testing.assert_array_equal(got, want, err_msg=where)


@pytest.mark.parametrize(
    "name, antithetic",
    [
        ("scalar-moment-decay", False),
        ("planar-deterministic-periodic", False),
        ("scalar-random-periodic", False),
        ("scalar-random-periodic", True),
        ("runaway", False),
    ],
)
def test_forward_only_estimators_are_block_invariant(monkeypatch, name, antithetic):
    # blocks of 1, 7 (6 with whole pairs) and all 28 paths, drawn block by
    # block or sliced from a drawn table: every per-path result and every
    # reduction keeps the bits of one stream over the whole ensemble
    if name == "runaway":
        scen, grid = _runaway_scalar(), (45, 28, 16, 6)  # exactly one path overflows
    else:
        scen, grid = builtin_scenarios()[name], (43, 28, 16, 4)
    want = _forward_only_results(scen, PathBundle.generate(*grid, antithetic=antithetic))
    if name == "runaway":
        assert int(want["norms"][1].sum()) == 1
        # the period continuation of a loop with rho(T) >= 1 diverges
        assert want["gram"] == want["representation"]
        assert want["gram"].endswith("the occupation integral diverges")
    n_steps = grid[2] * grid[3]
    for rows in (1, 7, grid[1]):
        monkeypatch.setattr(sde_engine, "BLOCK_ELEMENTS", rows * n_steps)
        for drawn in (False, True):
            make = PathBundle.generate if drawn else PathBundle.undrawn
            bundle = make(*grid, antithetic=antithetic)
            _assert_same_bits(_forward_only_results(scen, bundle), want, f"{rows} rows")
            assert (bundle.increments is not None) == drawn


def test_operator_on_deterministic_dynamics_is_exact():
    # C = 0: Phi is deterministic, T = (1 - 1.4 dt)^(2 * 64) and the
    # certificate's interval collapses to the point
    scen = builtin_scenarios()["scalar-constant"]
    law = constant_feedback(scen, [[-0.4]])
    report = stabilizer_check(scen, law, seed=19, n_paths=32)
    want = -2.0 * 64 * math.log(1.0 - 1.4 / 64)
    assert abs(report.lambda_hat - want) < 1e-12
    assert report.lambda_se == 0.0
    assert report.ci_low == report.ci_high == report.lambda_hat
    assert report.stable


def test_deterministic_certificate_draws_no_noise(monkeypatch):
    # every path-free loop of the catalog is certified with no draw
    calls = []
    generate = PathBundle.generate.__func__

    def counted(cls, *args, **kwargs):
        calls.append(args)
        return generate(cls, *args, **kwargs)

    monkeypatch.setattr(PathBundle, "generate", classmethod(counted))
    for name in ("scalar-constant", "scalar-noisy", "planar-deterministic-periodic"):
        scen = builtin_scenarios()[name]
        law = default_stabilizer(scen, seed=3)
        assert stabilizer_check(scen, law, seed=5).stable
    assert calls == []
    # a path-functional loop draws its one period once
    scen = builtin_scenarios()["scalar-random-periodic"]
    stabilizer_check(scen, constant_feedback(scen, [[0.0]]), seed=5, n_paths=8)
    assert len(calls) == 1


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


def gram_reference(coeffs, bundle, feedback=None):
    """Reference for the Gram bound: (delta, delta_se) from a second stream
    of the first period that forms Psi_s = Phi_s Phi_r^-1 from each anchor r
    on, accumulates the trapezoid of Psi' Psi and adds Psi(tau)' K_I
    Psi(tau) at tau, then regresses each anchor's integral on the partial
    sums at r (on a path-free loop the design is constant: a sample mean)."""
    n, sp, dt = coeffs.n, bundle.steps_per_period, bundle.dt
    degree = sde_engine.feature_degree(sde_engine._homogeneous_drift(coeffs, feedback), coeffs.C)
    r_nodes = sorted({0, sp // 4, sp // 2, (3 * sp) // 4})
    kbar = _period_continuation(coeffs, bundle, constant_coeff(np.eye(n), bundle.tau), feedback)[0]
    head = bundle.restrict(1)
    grams = {r: np.zeros((head.n_paths, n, n)) for r in r_nodes}
    inv_at = {}

    def visit(k, phi):
        if k in grams and k not in inv_at:
            inv_at[k] = np.linalg.inv(phi)
        for r, inv in inv_at.items():
            psi = phi @ inv
            psi_t = np.swapaxes(psi, -1, -2)
            grams[r] += (0.5 * dt if k in (r, sp) else dt) * (psi_t @ psi)
            if k == sp:
                grams[r] += psi_t @ kbar @ psi

    assert not stream_fundamental(coeffs, head, visit, feedback=feedback).any()
    worst, worst_se = math.inf, math.nan
    for r in r_nodes:
        design = poly_design(head.partial_sum(r), head.phase(r), degree)
        plan = sde_engine.ridge_plan(design, sde_engine.RIDGE)
        target = grams[r].reshape(head.n_paths, -1)
        flat = design @ sde_engine.ridge_solve(design, target, plan)
        fitted = flat.reshape(-1, n, n)
        eigs = np.linalg.eigvalsh(0.5 * (fitted + np.swapaxes(fitted, -1, -2)))
        idx = int(np.argmin(eigs[:, 0]))
        if eigs[idx, 0] < worst:
            worst = float(eigs[idx, 0])
            sig2 = ((target - flat) ** 2).mean(axis=0)
            lever = design[idx] @ np.linalg.solve(plan[0], design[idx]) / head.n_paths
            vec = np.linalg.eigh(0.5 * (fitted[idx] + fitted[idx].T))[1][:, 0]
            worst_se = math.sqrt(lever * float(np.outer(vec, vec).reshape(-1) ** 2 @ sig2))
    return worst, worst_se


def test_gram_bound_matches_the_psi_product_reference():
    # one pass with anchor snapshots gives the second stream's targets, so
    # delta and its SE agree to round-off on a path-functional loop
    scen = builtin_scenarios()["scalar-random-periodic"]
    law = constant_feedback(scen, [[-0.5]])
    bundle = PathBundle.generate(derive_seed(7, "gram-reference"), 2000, 64, 1)
    _, got, got_se = estimate_gram_lower_bound(scen, bundle, law)
    delta, delta_se = gram_reference(scen, bundle, law)
    assert got == pytest.approx(delta, rel=1e-12, abs=0.0)
    assert got_se == pytest.approx(delta_se, rel=1e-12, abs=0.0)


def test_exact_gram_bound_agrees_with_the_monte_carlo_reference():
    # scalar-noisy (C = 1): the exact means M_r^-T (O - O_r + M_tau' vec K)
    # against the reference's sample means over 20 000 paths, within 3 SE
    scen = builtin_scenarios()["scalar-noisy"]
    law = constant_feedback(scen, [[-0.5]])
    bundle = PathBundle.generate(derive_seed(7, "gram-exact"), 20_000, 64, 1)
    _, got, got_se = estimate_gram_lower_bound(scen, bundle, law)
    delta, delta_se = gram_reference(scen, bundle, law)
    assert got_se == 0.0 < delta_se
    assert abs(got - delta) <= 3.0 * delta_se


def test_gram_bound_streams_one_period_once_and_draws_nothing_path_free(monkeypatch):
    # a path-functional loop streams each path of its first period once, in
    # row blocks; a path-free one draws and streams nothing
    passes, draws = [], []
    stream, generate = sde_engine.stream_fundamental, PathBundle.generate.__func__

    def counted_stream(coeffs, bundle, visit, feedback=None):
        passes.append(bundle.n_paths)
        return stream(coeffs, bundle, visit, feedback=feedback)

    def counted_generate(cls, *args, **kwargs):
        draws.append(args)
        return generate(cls, *args, **kwargs)

    monkeypatch.setattr(sde_engine, "stream_fundamental", counted_stream)
    monkeypatch.setattr(PathBundle, "generate", classmethod(counted_generate))
    monkeypatch.setattr(sde_engine, "BLOCK_ELEMENTS", 10 * 16)
    for name, scen in builtin_scenarios().items():
        bundle = PathBundle.undrawn(derive_seed(7, name), 40, 16, 1)
        law = constant_feedback(scen, np.full((scen.m, scen.n), -0.5))
        passes.clear()
        draws.clear()
        estimate_gram_lower_bound(scen, bundle, law)
        if name == "scalar-random-periodic":
            assert passes == [10] * 4 and len(draws) == 4
        else:
            assert passes == [] and draws == []
        assert bundle.increments is None


def test_gram_lower_bound_on_constant_scenario():
    # C = 0 and a = -1.4: Psi_r(s) = q^(s - r) with q = 1 + a dt at every
    # anchor, so each conditional Gram integral is the scheme's trapezoid
    # over the infinite horizon, dt (1/2 + q^2 / (1 - q^2)), read from one
    # period however many the bundle has
    scen = builtin_scenarios()["scalar-constant"]
    law = constant_feedback(scen, [[-0.4]])
    bundle = PathBundle.generate(29, 256, 32, 8, antithetic=True)
    report, delta, delta_se = estimate_gram_lower_bound(scen, bundle, law)
    dt = bundle.dt
    q2 = (1.0 - 1.4 * dt) ** 2
    want = dt * (0.5 + q2 / (1.0 - q2))
    assert delta == pytest.approx(want, rel=1e-12, abs=0.0)
    assert delta_se == 0.0
    assert estimate_gram_lower_bound(scen, bundle.restrict(1), law) == (report, delta, delta_se)
    assert report.rho == moment_operator(scen, bundle, law).rho


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
