"""Coefficient families, composition algebra and scenario files."""

import math

import numpy as np
import pytest

from ergolq.coefficients import (
    CoefficientError,
    PeriodicCoefficientSet,
    ScenarioFormatError,
    builtin_scenarios,
    cf_add,
    cf_matmul,
    cf_rinv_mul,
    cf_scale,
    cf_transpose,
    check_positivity,
    constant_coeff,
    constant_feedback,
    harmonic_coeff,
    load_scenario,
    parse_scenario,
    perturbed_feedback,
    save_scenario,
    serialize_scenario,
    tanh_sum_coeff,
)

TAU = 1.0


def random_partial_sums(rng, n_paths, k):
    return rng.normal(0.0, math.sqrt(TAU / 64), size=(n_paths, k)).sum(axis=1)


# ---------------------------------------------------------------------------
# families


def test_constant_coeff_evaluates_everywhere():
    fn = constant_coeff([[2.0, -1.0], [0.0, 3.0]], TAU)
    sums = random_partial_sums(np.random.default_rng(0), 5, 7)
    out = fn.eval_batch(0.3, sums)
    assert out.shape == (2, 2)
    np.testing.assert_array_equal(out, [[2.0, -1.0], [0.0, 3.0]])
    assert fn.kind == "constant"


def test_harmonic_coeff_matches_trig_polynomial():
    fn = harmonic_coeff(
        TAU, [[1.0]], sin_terms={2: [[0.5]]}, cos_terms={1: [[-0.25]]}
    )
    for phase in (0.0, 0.125, 0.5, 0.9):
        want = 1.0 + 0.5 * math.sin(4 * math.pi * phase) - 0.25 * math.cos(2 * math.pi * phase)
        got = fn.eval_batch(phase, np.zeros(1))
        assert got.shape == (1, 1)
        assert abs(got[0, 0] - want) < 1e-14
    assert fn.kind == "deterministic-periodic"


def test_harmonic_coeff_rejects_bad_order():
    with pytest.raises(CoefficientError):
        harmonic_coeff(TAU, [[1.0]], sin_terms={0: [[1.0]]})


def test_tanh_sum_coeff_depends_on_partial_sum_only():
    fn = tanh_sum_coeff(TAU, [[0.5]], [[0.2]], scale=1.5, offset=0.1)
    out = fn.eval_batch(3 / 64, np.array([0.2, 0.0]))
    want0 = 0.5 + 0.2 * math.tanh(1.5 * 0.2 + 0.1)
    want1 = 0.5 + 0.2 * math.tanh(0.1)
    assert out.shape == (2, 1, 1)
    assert abs(out[0, 0, 0] - want0) < 1e-14
    assert abs(out[1, 0, 0] - want1) < 1e-14
    assert fn.kind == "path-functional"


def test_tanh_sum_rejects_unknown_link():
    with pytest.raises(CoefficientError):
        tanh_sum_coeff(TAU, [[1.0]], [[1.0]], link="exp")


def test_phase_domain_is_half_open():
    fn = constant_coeff([[1.0]], TAU)
    with pytest.raises(CoefficientError):
        fn.eval_batch(TAU, np.zeros(1))
    with pytest.raises(CoefficientError):
        fn.eval_batch(-0.01, np.zeros(1))


def test_symmetrize_records_asymmetry():
    fn = constant_coeff([[1.0, 0.5], [0.0, 1.0]], TAU, symmetrize=True)
    out = fn.eval_batch(0.0, np.zeros(1))
    np.testing.assert_allclose(out, [[1.0, 0.25], [0.25, 1.0]])
    assert fn.diagnostics["max_asymmetry"] == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# composition algebra


def test_algebra_matches_numpy_on_random_samples():
    rng = np.random.default_rng(42)
    a = harmonic_coeff(TAU, rng.normal(size=(2, 3)), sin_terms={1: rng.normal(size=(2, 3))})
    b = tanh_sum_coeff(TAU, rng.normal(size=(2, 3)), rng.normal(size=(2, 3)), scale=0.7)
    m = constant_coeff(rng.normal(size=(3, 2)), TAU)
    v = constant_coeff(rng.normal(size=3), TAU)
    sums = random_partial_sums(rng, 4, 5)
    phase = 5 / 64

    av = a.eval_batch(phase, sums)
    bv = b.eval_batch(phase, sums)
    mv = m.eval_batch(phase, sums)
    vv = v.eval_batch(phase, sums)

    np.testing.assert_allclose(cf_add(a, b).eval_batch(phase, sums), av + bv, atol=1e-14)
    np.testing.assert_allclose(cf_scale(a, -2.5).eval_batch(phase, sums), -2.5 * av, atol=1e-14)
    np.testing.assert_allclose(
        cf_transpose(b).eval_batch(phase, sums), np.swapaxes(bv, -1, -2), atol=1e-14
    )
    np.testing.assert_allclose(cf_matmul(b, m).eval_batch(phase, sums), bv @ mv, atol=1e-14)
    got = cf_matmul(a, v).eval_batch(phase, sums)
    assert got.shape == (2,)
    np.testing.assert_allclose(got, av @ vv, atol=1e-14)


def test_algebra_kind_promotion_and_shape_checks():
    det = harmonic_coeff(TAU, [[1.0]])
    rnd = tanh_sum_coeff(TAU, [[1.0]], [[0.1]])
    assert cf_add(det, rnd).kind == "path-functional"
    assert cf_matmul(det, det).kind == "deterministic-periodic"
    with pytest.raises(CoefficientError):
        cf_add(det, constant_coeff(np.eye(2), TAU))
    with pytest.raises(CoefficientError):
        cf_matmul(constant_coeff(np.eye(2), TAU), constant_coeff(np.ones((3, 3)), TAU))
    with pytest.raises(CoefficientError):
        cf_transpose(constant_coeff(np.ones(2), TAU))


def test_rinv_mul_solves_batched_systems():
    rng = np.random.default_rng(7)
    r = tanh_sum_coeff(TAU, 2.0 * np.eye(2), 0.3 * np.eye(2), scale=0.5, symmetrize=True)
    g = constant_coeff(rng.normal(size=(2, 1)), TAU)
    sums = random_partial_sums(rng, 6, 10)
    phase = 10 / 64
    got = cf_rinv_mul(r, g).eval_batch(phase, sums)
    rv = r.eval_batch(phase, sums)
    gv = g.eval_batch(phase, sums)
    for p in range(6):
        np.testing.assert_allclose(rv[p] @ got[p], gv, atol=1e-12)


# ---------------------------------------------------------------------------
# coefficient sets


def test_coefficient_set_validates_shapes():
    scen = builtin_scenarios()["scalar-constant"]
    kwargs = {k: getattr(scen, k) for k in
              ("tau", "n", "m", "A", "B", "C", "b", "sigma", "Q", "S", "R", "q", "rho")}
    kwargs["B"] = constant_coeff(np.ones((2, 1)), TAU)
    with pytest.raises(CoefficientError):
        PeriodicCoefficientSet(**kwargs)


def test_builtin_scenarios_positivity_and_names():
    cat = builtin_scenarios()
    assert len(cat) == 5
    for name, scen in cat.items():
        assert scen.name == name
        report = check_positivity(scen)
        assert report.passed, f"{name}: margin {report.margin}"


def test_check_positivity_flags_indefinite_cost():
    scen = builtin_scenarios()["scalar-constant"]
    kwargs = {k: getattr(scen, k) for k in
              ("tau", "n", "m", "A", "B", "C", "b", "sigma", "S", "R", "q", "rho")}
    kwargs["Q"] = constant_coeff([[-1.0]], TAU)
    bad = PeriodicCoefficientSet(**kwargs)
    assert not check_positivity(bad).passed


# ---------------------------------------------------------------------------
# feedback laws


def test_feedback_constructors():
    scen = builtin_scenarios()["scalar-constant"]
    zero = constant_feedback(scen, np.zeros((scen.m, scen.n)))
    assert zero.Theta.eval_batch(0.25, np.zeros(1)).item() == 0.0
    assert zero.v.eval_batch(0.25, np.zeros(1)).item() == 0.0
    law = constant_feedback(scen, [[-0.4]], v=[0.1], label="manual")
    assert law.label == "manual"
    pert = perturbed_feedback(law, d_theta=[[1.0]], d_v=[1.0], eps=0.05)
    assert pert.Theta.eval_batch(0.0, np.zeros(1)).item() == pytest.approx(-0.35)
    assert pert.v.eval_batch(0.0, np.zeros(1)).item() == pytest.approx(0.15)


# ---------------------------------------------------------------------------
# scenario files


def test_serialize_parse_round_trip_catalog():
    # the text fixes tau, n, m, the name, every family and every parameter
    # (floats by repr), so equal text means an equal scenario
    for name, scen in builtin_scenarios().items():
        text = serialize_scenario(scen)
        back = parse_scenario(text)
        assert serialize_scenario(back) == text, name


def test_round_trip_preserves_evaluations():
    scen = builtin_scenarios()["scalar-random-periodic"]
    back = parse_scenario(serialize_scenario(scen))
    rng = np.random.default_rng(3)
    sums = random_partial_sums(rng, 8, 17)
    for key in ("A", "C", "b", "sigma", "Q", "R"):
        a = getattr(scen, key).eval_batch(17 / 64, sums)
        bkv = getattr(back, key).eval_batch(17 / 64, sums)
        np.testing.assert_allclose(bkv, a, atol=1e-15)


def test_save_load_scenario(tmp_path):
    scen = builtin_scenarios()["planar-deterministic-periodic"]
    path = tmp_path / "planar.ini"
    save_scenario(scen, path)
    back = load_scenario(path)
    assert serialize_scenario(back) == serialize_scenario(scen)


def test_parse_scenario_rejects_garbage():
    with pytest.raises(ScenarioFormatError):
        parse_scenario("not a scenario at all")
    good = serialize_scenario(builtin_scenarios()["scalar-constant"])
    with pytest.raises(ScenarioFormatError):
        parse_scenario(good.replace("family = constant", "family = mystery", 1))
    # a section missing a required key, and a tanh_sum scale that is not a number
    with pytest.raises(ScenarioFormatError, match="lacks 'value'"):
        parse_scenario(good.replace("value = -1.0\n", "", 1))
    periodic = serialize_scenario(builtin_scenarios()["scalar-random-periodic"])
    with pytest.raises(ScenarioFormatError, match=r"bad \[A\] section"):
        parse_scenario(periodic.replace("scale = 1.0", "scale = fast", 1))
    with pytest.raises(ScenarioFormatError, match="lacks 'amp'"):
        parse_scenario(periodic.replace("amp = ", "amplitude = ", 1))
