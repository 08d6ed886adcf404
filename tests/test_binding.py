"""Grid binding: the Euler kernel against direct per-node evaluation."""

import numpy as np
import pytest

from ergolq.coefficients import (
    CoefficientFn,
    FeedbackLaw,
    builtin_scenarios,
    cf_add,
    cf_matmul,
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
        x = x + bundle.dt * drift + bundle.increments[:, k][:, None] * diffusion
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
        step = bundle.dt * np.matmul(acl, col) + bundle.increments[:, k][:, None, None] * np.matmul(
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
    ric = solve_stochastic_riccati(scen, solve, tol=1e-5, require_stable=False)
    optimal = optimal_feedback(ric, tol=1e-5).feedback
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
    ric = solve_stochastic_riccati(scen, solve, tol=1e-5, require_stable=False)
    optimal = optimal_feedback(ric, tol=1e-5).feedback
    fns = {
        "theta": optimal.Theta,
        "v": optimal.v,
        "A+B theta": _homogeneous_drift(scen, optimal),
    }
    fns["reduced A+B theta"], fns["Q+theta'R theta"] = _policy_problem(
        ric.reduced, _policy_gain(ric.reduced, ric.k_fn)
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


def test_bound_path_functional_composition_is_symmetrized():
    # a flagged composition symmetrizes its walked value and records the
    # asymmetry, as a direct evaluation does
    tau = 1.0
    skew = tanh_sum_coeff(tau, [[1.0, 0.5], [0.0, 1.0]], [[0.1, 0.3], [-0.2, 0.1]])
    lam = cf_add(skew, constant_coeff(np.eye(2), tau))
    lam.symmetrize = True
    bundle = PathBundle.generate(5, 16, SP, 1)
    at = bundle.bind(lam)
    walked = [at(k) for k in range(bundle.n_steps + 1)]
    assert lam.diagnostics["max_asymmetry"] > 0.25
    for k, got in enumerate(walked):
        np.testing.assert_array_equal(got, np.swapaxes(got, -1, -2))
        np.testing.assert_array_equal(
            got, lam.eval_batch(bundle.phase(k), bundle.partial_sum(k))
        )


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
        cost, _, _ = _accumulate_cost(scen, law, x0, bundle)
        return np.stack(states, axis=1), np.stack(controls, axis=1), cost

    for law in by_name.values():
        for small, big in zip(run(law, n_small), run(law, 2 * n_small)):
            np.testing.assert_array_equal(small, big[:n_small])
