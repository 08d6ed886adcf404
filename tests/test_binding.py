"""Grid binding: the Euler kernel against direct per-node evaluation."""

import numpy as np
import pytest

from ergolq.coefficients import (
    FeedbackLaw,
    builtin_scenarios,
    cf_add,
    cf_matmul,
    composite_coeff,
    constant_coeff,
    harmonic_coeff,
    perturbed_feedback,
)
from ergolq.ergodic import _accumulate_cost, optimal_feedback
from ergolq.riccati import default_stabilizer, solve_stochastic_riccati
from ergolq.sde_engine import (
    PathBundle,
    _difference_step_stream,
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
    optimal = optimal_feedback(ric, solve, tol=1e-5).feedback
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


@pytest.mark.parametrize("n_periods", [1, 5])
def test_deterministic_composed_gain_is_tabulated_once_per_phase(n_periods):
    scen = builtin_scenarios()["planar-deterministic-periodic"]
    gain = cf_add(
        harmonic_coeff(scen.tau, [[-0.2, -0.5]], sin_terms={1: [[0.1, 0.0]]}),
        cf_matmul(constant_coeff([[0.5]], scen.tau), constant_coeff([[0.0, -0.3]], scen.tau)),
    )
    phases = []

    def counted_eval(phase, s):
        phases.append(phase)
        return gain.eval_batch(phase, s)

    theta = composite_coeff(gain.shape, gain.tau, gain.kind, counted_eval)
    law = FeedbackLaw(Theta=theta, v=constant_coeff([0.1], scen.tau))
    bundle = PathBundle.generate(3, 40, SP, n_periods)
    streams = [
        lambda: stream_closed_loop(scen, law, np.ones(2), bundle, lambda *a: None),
        lambda: stream_fundamental(scen, bundle, lambda *a: None, feedback=law),
        lambda: _difference_step_stream(scen, law, np.ones(2), bundle, lambda *a: None),
    ]
    for run in streams:
        phases.clear()
        run()
        assert 0 < len(phases) <= SP


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
