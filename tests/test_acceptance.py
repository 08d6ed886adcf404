"""Acceptance battery, one test per criterion.

Every test prints the check's one-line verdict and fails with that same
line, so a red run shows exactly which tolerance was missed.  The context
is module-scoped: checks share solved artifacts the same way the CLI
battery does, and the whole file is expected to finish well inside the
ten minute budget audited at the end.
"""

import pytest

from ergolq.verify import (
    AcceptanceContext,
    check_a1_moment_decay,
    check_a2_bsde_vs_ode,
    check_a3_riccati_constant,
    check_a4_riccati_noisy,
    check_a5_stabilizer_certificate,
    check_a6_ergodic_equivalence,
    check_a7_value_formula,
    check_a8_optimality_scan,
    check_a9_contraction,
    check_a10_completion_of_square,
)

OUTCOMES = {}


@pytest.fixture(scope="module")
def ctx():
    return AcceptanceContext(seed=7)


def run(check, ctx):
    out = check(ctx)
    OUTCOMES[out.check_id] = out
    print(out.line())
    assert out.passed, out.line()
    return out


def test_a1_second_moment_decay_rate(ctx):
    out = run(check_a1_moment_decay, ctx)
    assert out.elapsed_s < 30.0, f"A1 exceeded its 30 s budget: {out.elapsed_s:.1f}s"


def test_a2_matrix_bsde_tracks_lyapunov_ode(ctx):
    out = run(check_a2_bsde_vs_ode, ctx)
    assert out.elapsed_s < 120.0, f"A2 exceeded its 2 min budget: {out.elapsed_s:.1f}s"


def test_a3_constant_riccati_root_and_monotonicity(ctx):
    run(check_a3_riccati_constant, ctx)


def test_a4_multiplicative_noise_riccati_root(ctx):
    run(check_a4_riccati_noisy, ctx)


def test_a5_solved_gains_certify_stable(ctx):
    run(check_a5_stabilizer_certificate, ctx)


def test_a6_finite_horizon_approaches_ergodic_cost(ctx):
    out = run(check_a6_ergodic_equivalence, ctx)
    assert out.elapsed_s < 120.0, f"A6 exceeded its 2 min budget: {out.elapsed_s:.1f}s"


def test_a7_value_formula_matches_closed_form_and_simulation(ctx):
    run(check_a7_value_formula, ctx)


def test_a8_perturbation_scan_minimizes_at_solved_gain(ctx):
    run(check_a8_optimality_scan, ctx)


def test_a9_two_start_contraction_on_every_scenario(ctx):
    run(check_a9_contraction, ctx)


def test_a10_quadratic_penalty_identity(ctx):
    run(check_a10_completion_of_square, ctx)


def test_context_caches_each_solve_under_all_its_arguments():
    fresh = AcceptanceContext(seed=7)
    small = fresh.riccati("scalar-constant", n_paths=64, tol=1e-6)
    large = fresh.riccati("scalar-constant", n_paths=128, tol=1e-6)
    assert small.k_solution.bundle.n_paths == 64
    assert large.k_solution.bundle.n_paths == 128
    assert fresh.riccati("scalar-constant", n_paths=64, tol=1e-6) is small
    opt, _ = fresh.optimum("scalar-constant", n_paths=128, tol=1e-6)
    assert opt.riccati is large and opt.eta_solution.bundle is large.k_solution.bundle


def test_battery_runtime_budget():
    if len(OUTCOMES) < 10:
        pytest.skip("budget is audited only when the full battery ran")
    total = sum(o.elapsed_s for o in OUTCOMES.values())
    print(f"battery total {total:.1f}s")
    assert total < 600.0, f"battery took {total:.1f}s, budget is 600s"
