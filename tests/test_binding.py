"""Grid binding: the Euler kernel against direct per-node evaluation."""

from types import SimpleNamespace

import numpy as np
import pytest

from ergolq import oracle
from ergolq.bsde_engine import solution_coeff
from ergolq.coefficients import (
    CoefficientFn,
    FeedbackLaw,
    PeriodicCoefficientSet,
    builtin_scenarios,
    cf_add,
    cf_matmul,
    cf_sym,
    constant_coeff,
    harmonic_coeff,
    perturbed_feedback,
    tanh_sum_coeff,
)
from ergolq.ergodic import _accumulate_cost, optimal_feedback
from ergolq.riccati import (
    _policy_gain,
    _policy_problem,
    default_stabilizer,
    reduce_cross_term,
    solve_stochastic_riccati,
)
from ergolq.sde_engine import (
    PathBundle,
    _difference_step_stream,
    _homogeneous_drift,
    moment_operator,
    stream_closed_loop,
    stream_fundamental,
)

SP = 16
SCENARIOS = sorted(builtin_scenarios())


def _at(fn, bundle, k):
    return fn.eval_batch(bundle.phase(k), bundle.partial_sum(k))


def _hand_closed_loop(scen, law, x0, bundle):
    """Euler recursion with every coefficient evaluated at every node."""
    x = np.broadcast_to(x0, (bundle.n_paths, scen.n)).copy()
    states, controls = [], []
    for k in range(bundle.n_steps + 1):
        u = np.matmul(_at(law.Theta, bundle, k), x[..., None])[..., 0] + _at(law.v, bundle, k)
        states.append(x)
        controls.append(u)
        if k == bundle.n_steps:
            break
        drift = (
            np.matmul(_at(scen.A, bundle, k), x[..., None])[..., 0]
            + np.matmul(_at(scen.B, bundle, k), u[..., None])[..., 0]
            + _at(scen.b, bundle, k)
        )
        diffusion = np.matmul(_at(scen.C, bundle, k), x[..., None])[..., 0] + _at(scen.sigma, bundle, k)
        x = x + bundle.dt * drift + bundle.increments[k][:, None] * diffusion
    return np.stack(states, axis=1), np.stack(controls, axis=1)


def _hand_homogeneous(scen, law, start, bundle):
    """x + (A + B Theta) x dt + C x dW for a vector or matrix state."""
    x = start.copy()
    states = []
    for k in range(bundle.n_steps + 1):
        states.append(x)
        if k == bundle.n_steps:
            break
        acl = _at(scen.A, bundle, k) + np.matmul(_at(scen.B, bundle, k), _at(law.Theta, bundle, k))
        col = x if x.ndim == 3 else x[..., None]
        step = bundle.dt * np.matmul(acl, col) + bundle.increments[k][:, None, None] * np.matmul(
            _at(scen.C, bundle, k), col
        )
        x = x + (step if x.ndim == 3 else step[..., 0])
    return np.stack(states, axis=1)


def _assert_close(got, want):
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


@pytest.fixture(scope="module", params=SCENARIOS)
def laws(request):
    scen = builtin_scenarios()[request.param]
    solve = PathBundle.generate(31, 512, SP, 1, antithetic=True)
    ric = solve_stochastic_riccati(scen, solve, tol=1e-5)
    optimal = optimal_feedback(ric).feedback
    perturbed = perturbed_feedback(
        optimal, np.full((scen.m, scen.n), 0.1), np.full(scen.m, 0.05), eps=1.0
    )
    stabilizer = default_stabilizer(scen, seed=5, steps_per_period=SP)
    return scen, {"stabilizer": stabilizer, "optimal": optimal, "perturbed": perturbed}


@pytest.mark.parametrize("which", ["stabilizer", "optimal", "perturbed"])
def test_bound_kernel_matches_per_node_evaluation(laws, which):
    scen, by_name = laws
    law = by_name[which]
    bundle = PathBundle.generate(47, 32, SP, 3)
    x0 = np.linspace(-1.0, 1.0, scen.n)

    states, controls = [], []
    stream_closed_loop(
        scen, law, x0, bundle, lambda k, x, u: (states.append(x), controls.append(u))
    )
    want_x, want_u = _hand_closed_loop(scen, law, x0, bundle)
    _assert_close(np.stack(states, axis=1), want_x)
    _assert_close(np.stack(controls, axis=1), want_u)

    phis = []
    stream_fundamental(scen, bundle, lambda k, phi: phis.append(phi), feedback=law)
    eye = np.broadcast_to(np.eye(scen.n), (bundle.n_paths, scen.n, scen.n))
    _assert_close(np.stack(phis, axis=1), _hand_homogeneous(scen, law, eye.copy(), bundle))

    diffs = []
    _difference_step_stream(scen, law, x0, bundle, lambda k, d: diffs.append(d))
    delta = np.broadcast_to(x0, (bundle.n_paths, scen.n)).copy()
    _assert_close(np.stack(diffs, axis=1), _hand_homogeneous(scen, law, delta, bundle))

    # the operator of the bound loop against per-node evaluation: the exact
    # product of a path-free loop, else the first period's mean Phi (x) Phi
    report = moment_operator(scen, bundle, law)
    drift = _homogeneous_drift(scen, law)
    if drift.kind != "path-functional" and scen.C.kind != "path-functional":
        at = lambda fn: (lambda k: _at(fn, bundle, k).reshape(-1, scen.n, scen.n)[0])
        op = oracle.scheme_moment_operator(at(drift), at(scen.C), bundle.dt, SP)[-1]
    else:
        ends = _hand_homogeneous(scen, law, eye.copy(), bundle)[:, SP]
        op = np.mean([np.kron(p, p) for p in ends], axis=0)
    assert report.rho == pytest.approx(np.abs(np.linalg.eigvals(op)).max(), rel=1e-12)


def _stacked_euler(bundle, state, a_fn, c_fn, affine=None):
    """The Euler kernel as numpy's stacked matmul on path-major increments:
    every bound value multiplies each path's columns in a matmul of its own.
    Returns the visited states and, with ``affine = (coeffs, law)``, controls."""
    incs = bundle.increments.T
    vector = state.ndim == 2
    x = state[..., None] if vector else state
    a_at, c_at = bundle.bind(a_fn), bundle.bind(c_fn)
    if affine is not None:
        coeffs, law = affine
        theta_at, v_at = bundle.bind(law.Theta), bundle.bind(law.v)
        b_at, drift_at, sigma_at = (bundle.bind(f) for f in (coeffs.B, coeffs.b, coeffs.sigma))
    states, controls = [], []
    for k in range(bundle.n_steps + 1):
        view = x[..., 0] if vector else x
        states.append(view)
        if affine is not None:
            u = np.matmul(theta_at(k), view[..., None])[..., 0] + v_at(k)
            controls.append(u)
        if k == bundle.n_steps:
            break
        drift = np.matmul(a_at(k), x)
        diffusion = np.matmul(c_at(k), x)
        if affine is not None:
            drift = drift + np.matmul(b_at(k), u[..., None]) + drift_at(k)[..., None]
            diffusion = diffusion + sigma_at(k)[..., None]
        x = x + bundle.dt * drift + incs[:, k][:, None, None] * diffusion
    return states, controls


@pytest.mark.parametrize("which", ["stabilizer", "optimal", "perturbed"])
def test_kernel_is_bit_identical_to_the_stacked_matmul_reference(laws, which):
    # every stream against the per-path arithmetic on path-major increments,
    # node by node and to the bit: fundamental, closed loop (with controls)
    # and difference
    scen, by_name = laws
    law = by_name[which]
    bundle = PathBundle.generate(47, 32, SP, 3)
    x0 = np.linspace(-1.0, 1.0, scen.n)
    drift = _homogeneous_drift(scen, law)
    eye = np.broadcast_to(np.eye(scen.n), (bundle.n_paths, scen.n, scen.n))
    start = np.broadcast_to(x0, (bundle.n_paths, scen.n))

    phis = []
    assert not stream_fundamental(scen, bundle, lambda k, p: phis.append(p), feedback=law).any()
    states, controls = [], []
    assert not stream_closed_loop(
        scen, law, x0, bundle, lambda k, x, u: (states.append(x), controls.append(u))
    ).any()
    diffs = []
    assert not _difference_step_stream(scen, law, x0, bundle, lambda k, d: diffs.append(d)).any()

    runs = [
        ("fundamental", phis, _stacked_euler(bundle, eye, drift, scen.C)[0]),
        ("difference", diffs, _stacked_euler(bundle, start, drift, scen.C)[0]),
    ]
    want_x, want_u = _stacked_euler(bundle, start, scen.A, scen.C, affine=(scen, law))
    runs += [("closed-loop state", states, want_x), ("closed-loop control", controls, want_u)]
    for label, got, want in runs:
        assert len(got) == len(want) == bundle.n_steps + 1
        for k, (g, w) in enumerate(zip(got, want)):
            np.testing.assert_array_equal(g, w, err_msg=f"{label} at node {k}")


def _counted(fn, calls):
    """fn as a leaf that records the phase of every evaluation."""

    def evaluator(phase, s):
        calls.append(phase)
        return fn.eval_batch(phase, s)

    return CoefficientFn(fn.kind, fn.shape, evaluator, fn.tau)


@pytest.mark.parametrize("n_periods", [1, 5])
def test_deterministic_composed_gain_is_tabulated_once_per_phase(n_periods):
    # a deterministic gain is evaluated at most once per phase per bind; added
    # to a path-functional leaf it is still a table, and only the leaf is
    # evaluated at every node the stream reads
    scen = builtin_scenarios()["planar-deterministic-periodic"]
    gain = cf_add(
        harmonic_coeff(scen.tau, [[-0.2, -0.5]], sin_terms={1: [[0.1, 0.0]]}),
        cf_matmul(constant_coeff([[0.5]], scen.tau), constant_coeff([[0.0, -0.3]], scen.tau)),
    )
    leaf = tanh_sum_coeff(scen.tau, [[0.0, 0.0]], [[0.1, -0.2]], scale=0.7)
    bundle = PathBundle.generate(3, 40, SP, n_periods)
    for path_functional in (False, True):
        phases, leaf_phases = [], []
        theta = _counted(gain, phases)
        if path_functional:
            theta = cf_add(theta, _counted(leaf, leaf_phases))
        law = FeedbackLaw(Theta=theta, v=constant_coeff([0.1], scen.tau))
        # each stream with the number of nodes at which it reads the gain
        streams = [
            (lambda: stream_closed_loop(scen, law, np.ones(2), bundle, lambda *a: None),
             bundle.n_steps + 1),
            (lambda: stream_fundamental(scen, bundle, lambda *a: None, feedback=law),
             bundle.n_steps),
            (lambda: _difference_step_stream(scen, law, np.ones(2), bundle, lambda *a: None),
             bundle.n_steps),
            (lambda: moment_operator(scen, bundle, law), SP),
        ]
        for run, n_reads in streams:
            phases.clear()
            leaf_phases.clear()
            run()
            assert 0 < len(phases) <= SP
            assert len(leaf_phases) == (n_reads if path_functional else 0)


@pytest.mark.parametrize("name", SCENARIOS)
def test_bound_compositions_equal_direct_evaluation(name):
    # every composition the solvers build, bound to a 2-period grid, returns
    # at each node exactly what a direct evaluation on that node returns
    scen = builtin_scenarios()[name]
    solve = PathBundle.generate(31, 256, SP, 1, antithetic=True)
    ric = solve_stochastic_riccati(scen, solve, tol=1e-5)
    optimal = optimal_feedback(ric).feedback
    fns = {
        "theta": optimal.Theta,
        "v": optimal.v,
        "A+B theta": _homogeneous_drift(scen, optimal),
    }
    fns["reduced A+B theta"], fns["Q+theta'R theta"] = _policy_problem(
        ric.reduced, _policy_gain(ric.reduced, solution_coeff(ric.k_solution))
    )
    reduced, shift = reduce_cross_term(scen)
    if shift is not None:
        fns["A tilde"], fns["Q tilde"] = reduced.A, reduced.Q
    assert (shift is not None) == (name == "scalar-random-periodic")
    bundle = PathBundle.generate(47, 32, SP, 2)
    for label, fn in fns.items():
        at = bundle.bind(fn)
        for k in range(bundle.n_steps + 1):
            got, want = np.broadcast_arrays(
                at(k), fn.eval_batch(bundle.phase(k), bundle.partial_sum(k))
            )
            np.testing.assert_array_equal(got, want, err_msg=f"{label} at node {k}")


def _harmonic_policy_problem():
    """Theta = -R^{-1} B'K, A + B Theta and Q + Theta'R Theta on a 2x2 problem
    whose R, A and Q vary with the phase and whose K is a harmonic stand-in;
    R is not diagonal, so an inverse and a solve differ in the last bits, and
    Q + Theta'R Theta and sym(K + A) are the symmetric parts of asymmetric
    sums (Q itself is asymmetric)."""
    tau, zero2, zero = 1.0, np.zeros((2, 2)), np.zeros(2)
    scen = PeriodicCoefficientSet(
        tau=tau, n=2, m=2,
        A=harmonic_coeff(tau, [[-1.0, 0.3], [0.1, -0.8]], sin_terms={1: [[0.2, 0.0], [0.1, 0.3]]}),
        B=constant_coeff([[1.0, 0.2], [0.3, 0.7]], tau),
        C=constant_coeff(zero2, tau),
        b=constant_coeff(zero, tau),
        sigma=constant_coeff(zero, tau),
        Q=harmonic_coeff(tau, [[1.0, 0.1], [0.1, 0.9]], cos_terms={1: [[0.2, 0.05], [-0.05, 0.1]]}),
        S=constant_coeff(zero2, tau),
        R=harmonic_coeff(
            tau, [[1.3, 0.4], [0.4, 0.9]],
            sin_terms={1: [[0.3, 0.1], [0.1, -0.2]]}, cos_terms={2: [[0.1, -0.15], [-0.15, 0.2]]},
        ),
        q=constant_coeff(zero, tau),
        rho=constant_coeff(zero, tau),
    )
    k = harmonic_coeff(tau, [[0.8, 0.3], [0.2, 0.6]], sin_terms={1: [[0.1, 0.05], [0.0, 0.2]]})
    theta = _policy_gain(scen, k)
    a_cl, lam = _policy_problem(scen, theta)
    sym = cf_sym(cf_add(k, scen.A))
    return {"theta": theta, "A+B theta": a_cl, "Q+theta'R theta": lam, "sym(K+A)": sym}


def test_bound_path_free_compositions_equal_per_phase_evaluation():
    # a path-free tree bound from its operands' tables returns at every node
    # the bits of evaluating the whole tree there, R^{-1} included, and its
    # symmetric parts are symmetric where their operands are not
    trees = _harmonic_policy_problem()
    bundle = PathBundle.generate(47, 8, SP, 2)
    for label, fn in trees.items():
        assert fn.kind == "deterministic-periodic"
        at = bundle.bind(fn)
        for k in range(bundle.n_steps + 1):
            np.testing.assert_array_equal(
                at(k), fn.eval_batch(bundle.phase(k), bundle.partial_sum(k)),
                err_msg=f"{label} at node {k}",
            )
    for label in ("sym(K+A)", "Q+theta'R theta"):
        at, sum_at = bundle.bind(trees[label]), bundle.bind(trees[label].parts[1][0])
        asymmetry = max(np.abs(sum_at(k) - sum_at(k).T).max() for k in range(SP))
        assert asymmetry > 0.05, label
        for k in range(SP):
            np.testing.assert_array_equal(at(k), at(k).T, err_msg=f"{label} at node {k}")


def test_bound_path_functional_composition_is_symmetrized():
    # a symmetric part walked over the bundle is symmetric where its
    # operand is not, and it is the bits of a direct evaluation
    tau = 1.0
    skew = tanh_sum_coeff(tau, [[1.0, 0.5], [0.0, 1.0]], [[0.1, 0.3], [-0.2, 0.1]])
    lam = cf_sym(cf_add(skew, constant_coeff(np.eye(2), tau)))
    bundle = PathBundle.generate(5, 16, SP, 1)
    at = bundle.bind(lam)
    walked = [at(k) for k in range(bundle.n_steps + 1)]
    operand = lam.parts[1][0].eval_batch(bundle.phase(3), bundle.partial_sum(3))
    assert np.abs(operand - np.swapaxes(operand, -1, -2)).max() > 0.25
    for k, got in enumerate(walked):
        np.testing.assert_array_equal(got, np.swapaxes(got, -1, -2))
        np.testing.assert_array_equal(
            got, lam.eval_batch(bundle.phase(k), bundle.partial_sum(k))
        )


@pytest.mark.parametrize("periodic_r", [False, True])
def test_path_free_r_is_inverted_once_per_bound_tree(monkeypatch, periodic_r):
    # Theta = -R^{-1} B'K with a path-functional K: binding tabulates a
    # path-free R^{-1} with one inverse, not one per node it reads, and the
    # bound tree keeps the bits of evaluating it at each node
    inv, calls = np.linalg.inv, []
    monkeypatch.setattr(np.linalg, "inv", lambda a: calls.append(a.shape) or inv(a))
    tau, r = 1.0, [[1.3, 0.4], [0.4, 0.9]]
    r_fn = constant_coeff(r, tau)
    if periodic_r:
        r_fn = harmonic_coeff(tau, r, sin_terms={1: [[0.3, 0.1], [0.1, -0.2]]})
    b_fn = constant_coeff([[1.0, 0.2], [0.3, 0.7]], tau)
    k_fn = tanh_sum_coeff(tau, [[0.8, 0.3], [0.2, 0.6]], [[0.1, 0.05], [0.0, 0.2]])
    theta = _policy_gain(SimpleNamespace(B=b_fn, R=r_fn), k_fn)
    assert theta.kind == "path-functional"
    bundle = PathBundle.generate(5, 16, SP, 2)
    at = bundle.bind(theta)
    bound = [at(k) for k in range(bundle.n_steps + 1)]
    assert calls == [(SP, 2, 2) if periodic_r else (2, 2)]
    for k, got in enumerate(bound):
        np.testing.assert_array_equal(got, _at(theta, bundle, k), err_msg=f"node {k}")


@pytest.mark.parametrize(
    "laws", ["scalar-random-periodic", "planar-deterministic-periodic"], indirect=True
)
@pytest.mark.parametrize("antithetic", [False, True])
def test_paths_do_not_change_when_the_ensemble_grows(laws, antithetic):
    # path i is driven by the same increments at any path count, so its
    # states, controls and cost integral must not move by a single bit
    scen, by_name = laws
    x0 = np.linspace(-1.0, 1.0, scen.n)
    n_small = 38

    def run(law, n_paths):
        bundle = PathBundle.generate(47, n_paths, SP, 3, antithetic=antithetic)
        states, controls = [], []
        stream_closed_loop(
            scen, law, x0, bundle, lambda k, x, u: (states.append(x), controls.append(u))
        )
        totals, _, _ = _accumulate_cost(scen, law, x0, bundle)
        return np.stack(states, axis=1), np.stack(controls, axis=1), totals.T

    for law in by_name.values():
        for small, big in zip(run(law, n_small), run(law, 2 * n_small)):
            np.testing.assert_array_equal(small, big[:n_small])
