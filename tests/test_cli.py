"""Command line front door: config layering, artifacts, exit codes."""

import csv
import json
import math
import os
import subprocess
import sys
import warnings

import pytest

import ergolq
from ergolq import cli, verify
from ergolq.coefficients import builtin_scenarios, save_scenario, serialize_scenario
from ergolq.sde_engine import SimulationError


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# configuration errors (exit 2, no artifacts)


def test_unknown_scenario_exits_2_without_output(tmp_path, capsys):
    out = tmp_path / "nope"
    rc = cli.main(["simulate", "--scenario", "no-such-model", "--out", str(out)])
    assert rc == 2
    assert not out.exists()
    assert "unknown scenario" in capsys.readouterr().err


def test_missing_scenario_exits_2(tmp_path):
    assert cli.main(["simulate", "--out", str(tmp_path / "x")]) == 2
    assert not (tmp_path / "x").exists()


def test_bad_flag_values_exit_2(tmp_path):
    args = ["simulate", "--scenario", "scalar-constant", "--out", str(tmp_path / "x")]
    assert cli.main(args + ["--paths", "1"]) == 2
    assert cli.main(args + ["--tol", "0"]) == 2
    assert cli.main(args + ["--seed", "-3"]) == 2
    assert cli.main(args + ["--seed", str(2**64)]) == 2
    # an odd path count cannot fill an antithetic Riccati solve bundle
    for cmd, paths in (("solve-riccati", "5"), ("ergodic-cost", "5"), ("verify", "5"),
                       ("scan", "8191")):
        rc = cli.main([cmd, "--scenario", "scalar-constant", "--paths", paths,
                       "--out", str(tmp_path / "x")])
        assert rc == 2, cmd
    assert not (tmp_path / "x").exists()
    # simulate draws no antithetic pairs, so an odd count is fine there
    assert cli.main(args + ["--paths", "5", "--periods", "2"]) == 0


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_path": 100}))
    rc = cli.main([
        "simulate", "--scenario", "scalar-constant",
        "--config", str(cfg), "--out", str(tmp_path / "x"),
    ])
    assert rc == 2
    assert "unknown config keys" in capsys.readouterr().err
    # known keys holding values of the wrong type, and embedded scenario text
    # that does not parse
    for values, message in (
        ({"seed": "7"}, "must be an integer"),
        ({"steps_per_period": 2.5}, "must be an integer"),
        ({"scenario_text": "not a scenario"}, "unparseable scenario"),
        ({"scenario": "scalar-constant", "out": 5}, "out must be a string"),
        ({"scenario": "scalar-constant", "scenario_text": 3}, "scenario_text must be a string"),
        ({"scenario": 5}, "scenario must be a string"),
    ):
        cfg.write_text(json.dumps(values))
        # an --out flag would override the config's own out
        out = [] if "out" in values else ["--out", str(tmp_path / "x")]
        rc = cli.main(["simulate", "--config", str(cfg), *out])
        assert rc == 2, values
        assert message in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_scan_grid_must_contain_zero(tmp_path):
    rc = cli.main([
        "scan", "--scenario", "scalar-constant", "--eps-grid", "0.1,0.2",
        "--out", str(tmp_path / "x"),
    ])
    assert rc == 2


def test_scan_grid_too_small_for_fit_is_config_error(tmp_path, capsys):
    out = tmp_path / "x"
    rc = cli.main([
        "scan", "--scenario", "scalar-constant", "--eps-grid=-0.1,0,0.1",
        "--out", str(out),
    ])
    assert rc == 2
    assert "three nonzero points" in capsys.readouterr().err
    assert not out.exists()


def test_verify_checks_conflicts_with_scenario(tmp_path, capsys):
    rc = cli.main([
        "verify", "--scenario", "scalar-constant", "--checks", "A3",
        "--out", str(tmp_path / "x"),
    ])
    assert rc == 2
    rc = cli.main(["verify", "--checks", "A99", "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "unknown checks" in capsys.readouterr().err


def test_indefinite_scenario_rejected_before_output(tmp_path):
    # an indefinite state weight, a singular and an indefinite control weight
    scen = builtin_scenarios()["scalar-constant"]
    from ergolq.coefficients import PeriodicCoefficientSet, constant_coeff

    for weight, value in (("Q", -1.0), ("R", 0.0), ("R", -1.0)):
        kwargs = {k: getattr(scen, k) for k in
                  ("tau", "n", "m", "A", "B", "C", "b", "sigma", "Q", "S", "R", "q", "rho")}
        kwargs[weight] = constant_coeff([[value]], scen.tau)
        bad = PeriodicCoefficientSet(**kwargs, name="indefinite")
        path = tmp_path / f"bad-{weight}{value:g}.ini"
        save_scenario(bad, path)
        out = tmp_path / "x"
        rc = cli.main(["simulate", "--scenario", str(path), "--out", str(out)])
        assert rc == 2, (weight, value)
        assert not out.exists()
    # malformed files: a constant section without its value, and a tanh_sum
    # scale that is not a number
    for name, old, new in (
        ("scalar-constant", "family = constant\nvalue = -1.0\n", "family = constant\n"),
        ("scalar-random-periodic", "scale = 1.0", "scale = fast"),
    ):
        text = serialize_scenario(builtin_scenarios()[name])
        assert old in text
        path = tmp_path / f"malformed-{name}.ini"
        path.write_text(text.replace(old, new, 1))
        rc = cli.main(["simulate", "--scenario", str(path), "--out", str(out)])
        assert rc == 2, name
        assert not out.exists()


# ---------------------------------------------------------------------------
# artifacts


def assert_run_protocol(capsys, out):
    # one skeleton ends every successful run: summary.json, then "<line> -> <out>"
    assert capsys.readouterr().out.splitlines()[-1].endswith(f"-> {out}")
    assert (out / "summary.json").exists()


def test_simulate_writes_manifest_then_data(tmp_path, capsys):
    out = tmp_path / "sim"
    rc = cli.main([
        "simulate", "--scenario", "scalar-moment-decay",
        "--paths", "256", "--periods", "6", "--out", str(out),
    ])
    assert rc == 0
    assert_run_protocol(capsys, out)
    names = sorted(p.name for p in out.iterdir())
    assert names == ["manifest.json", "moments.csv", "summary.json", "trajectories.csv"]
    manifest = read_json(out / "manifest.json")
    assert manifest["schema"] == "ergolq-run/1"
    assert manifest["command"] == "simulate"
    assert manifest["config"]["n_paths"] == 256
    assert "numpy" in manifest["versions"]
    summary = read_json(out / "summary.json")
    assert summary["schema"] == "ergolq-summary/1"
    assert summary["scenario"] == "scalar-moment-decay"
    assert summary["seed"] == 7
    assert "lambda_hat" in summary["stability"]
    with open(out / "moments.csv", encoding="utf-8") as fh:
        assert len(fh.readlines()) == 1 + 6 * 64 + 1


def test_simulate_certifies_stability_of_forced_loop(tmp_path):
    # the forced trajectory plateaus at its stationary moment; the verdict
    # must come from the homogeneous loop, which decays at rate 2 here
    out = tmp_path / "sim-forced"
    rc = cli.main([
        "simulate", "--scenario", "scalar-constant",
        "--paths", "512", "--periods", "6", "--out", str(out),
    ])
    assert rc == 0
    stab = read_json(out / "summary.json")["stability"]
    assert stab["stable"] is True
    assert abs(stab["lambda_hat"] - 2.0) < 0.2
    assert read_json(out / "summary.json")["overflow_paths"] == 0


# scalar-noisy with C = 1.6: the uncontrolled loop is mean-square unstable
# (2a + c^2 = 0.56 > 0) while kappa = 1 stabilizes it (2 (a - 1) + c^2 < 0)
NOISY_C16 = os.path.join(os.path.dirname(os.path.abspath(__file__)), "scalar-noisy-c1.6.ini")


def test_simulate_does_not_certify_a_mean_square_unstable_law(tmp_path):
    out = tmp_path / "sim"
    rc = cli.main(["simulate", "--scenario", NOISY_C16, "--paths", "64", "--periods", "2",
                   "--out", str(out)])
    assert rc == 0
    summary = read_json(out / "summary.json")
    assert summary["feedback"] == "stabilizer-kappa=1"
    stab = summary["stability"]
    assert stab["stable"] is True
    # the exact scheme rate of the kappa = 1 loop, with a collapsed interval
    dt = 1.0 / 64
    want = -64.0 * math.log((1.0 - 2.0 * dt) ** 2 + 2.56 * dt)
    assert stab["lambda_hat"] == pytest.approx(want, rel=1e-12)
    assert stab["lambda_ci"] == [stab["lambda_hat"]] * 2


def test_solve_riccati_succeeds_through_the_first_stabilizing_gain(tmp_path):
    out = tmp_path / "ric"
    rc = cli.main(["solve-riccati", "--scenario", NOISY_C16, "--paths", "256",
                   "--out", str(out)])
    assert rc == 0
    summary = read_json(out / "summary.json")
    # K^2 - (2a + c^2) K - 1 = 0 with b = q = r = 1
    root = 0.5 * (0.56 + math.sqrt(0.56**2 + 4.0))
    assert abs(summary["k0"][0][0] - root) < 0.02 * root
    assert summary["stability"]["stable"] is True


def test_simulate_searches_stabilizer_on_its_own_grid(tmp_path, monkeypatch):
    seen = []
    search = cli.default_stabilizer

    def recording(*args, **kwargs):
        seen.append(kwargs.get("steps_per_period"))
        return search(*args, **kwargs)

    monkeypatch.setattr("ergolq.cli.default_stabilizer", recording)
    rc = cli.main([
        "simulate", "--scenario", "scalar-constant", "--steps-per-period", "32",
        "--paths", "64", "--periods", "2", "--out", str(tmp_path / "sim"),
    ])
    assert rc == 0
    assert seen == [32]


def test_solve_riccati_reports_algebraic_gain(tmp_path, capsys):
    out = tmp_path / "ric"
    rc = cli.main([
        "solve-riccati", "--scenario", "scalar-constant",
        "--paths", "1024", "--out", str(out),
    ])
    assert rc == 0
    assert_run_protocol(capsys, out)
    summary = read_json(out / "summary.json")
    assert summary["k0"][0][0] == pytest.approx(math.sqrt(2.0) - 1.0, abs=1e-6)
    assert summary["n_policies"] <= 10
    assert summary["residual"]["rel_max_defect"] < 1e-3
    assert summary["stability"]["stable"] is True
    assert (out / "riccati_nodes.csv").exists()


def test_solve_riccati_on_one_antithetic_pair_reaches_the_golden_root(tmp_path):
    # a path-free solve sweeps one noise-free path, so one pair is enough: K0
    # is the scheme's root with SE 0, and policy iteration runs to tolerance
    out = tmp_path / "ric"
    rc = cli.main([
        "solve-riccati", "--scenario", "scalar-noisy", "--paths", "2", "--out", str(out),
    ])
    assert rc == 0
    summary = read_json(out / "summary.json")
    assert summary["k0"][0][0] == pytest.approx(0.6180339887498948, rel=0.0, abs=1e-15)
    assert summary["n_policies"] >= 5
    assert summary["k0_se"] == 0.0


def test_path_free_node_table_holds_the_exact_row(tmp_path):
    # a path-free solution stores one exact row: node 0 of the table is K0
    # bit for bit, and no cell carries a sampling error
    out = tmp_path / "ric"
    rc = cli.main([
        "solve-riccati", "--scenario", "planar-deterministic-periodic",
        "--paths", "6", "--out", str(out),
    ])
    assert rc == 0
    k0 = [v for row in read_json(out / "summary.json")["k0"] for v in row]
    with open(out / "riccati_nodes.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [float(rows[0][f"mean_c{i}"]) for i in range(4)] == k0
    assert all(float(v) == 0.0 for row in rows for k, v in row.items() if k.startswith("se_c"))


def test_path_free_value_has_no_sampling_error_on_one_pair(tmp_path):
    out = tmp_path / "cost"
    rc = cli.main([
        "ergodic-cost", "--scenario", "scalar-noisy", "--paths", "2", "--out", str(out),
    ])
    assert rc == 0
    summary = read_json(out / "summary.json")
    assert summary["value_se"] == 0.0
    assert math.isfinite(summary["gap_in_se"]) and summary["gap_in_se"] > 0.0


def test_ergodic_cost_summary(tmp_path, capsys):
    out = tmp_path / "cost"
    rc = cli.main([
        "ergodic-cost", "--scenario", "scalar-constant",
        "--paths", "2048", "--out", str(out),
    ])
    assert rc == 0
    assert_run_protocol(capsys, out)
    summary = read_json(out / "summary.json")
    assert summary["value"] == pytest.approx(math.sqrt(2.0) - 0.5, abs=1e-4)
    assert abs(summary["gap"]) < 0.05
    assert summary["burn_in_periods"] >= 2
    assert (out / "eta_nodes.csv").exists()


def test_scan_artifacts(tmp_path, capsys):
    out = tmp_path / "scan"
    rc = cli.main([
        "scan", "--scenario", "scalar-constant", "--paths", "2000",
        "--eps-grid=-0.15,-0.05,0,0.05,0.15", "--out", str(out),
    ])
    assert rc == 0
    assert_run_protocol(capsys, out)
    summary = read_json(out / "summary.json")
    assert summary["eps_star"] == 0.0
    assert summary["quadratic_fit"]["curvature"] > 0.0
    with open(out / "scan.csv", encoding="utf-8") as fh:
        rows = fh.readlines()
    assert rows[0].startswith("eps,")
    assert len(rows) == 6


def test_scan_with_an_all_overflowed_point_fails_quietly(tmp_path):
    # eps = 40 sends every path past the overflow limit, which leaves two
    # usable off-center points: too few to fit, so exit 1 after scan.csv
    out = tmp_path / "scan"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main([
            "scan", "--scenario", "scalar-constant", "--paths", "200",
            "--eps-grid=-0.1,0,0.1,40", "--out", str(out),
        ])
    assert rc == 1
    with open(out / "scan.csv", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [float(r["eps"]) for r in rows] == [-0.1, 0.0, 0.1, 40.0]
    assert int(rows[3]["n_overflow"]) == 200
    assert not (out / "summary.json").exists()


def test_default_out_root_env(tmp_path, monkeypatch):
    monkeypatch.setenv("ERGOLQ_OUT_ROOT", str(tmp_path / "root"))
    rc = cli.main([
        "simulate", "--scenario", "scalar-moment-decay",
        "--paths", "128", "--periods", "4",
    ])
    assert rc == 0
    expect = tmp_path / "root" / "simulate-scalar-moment-decay-s7"
    assert (expect / "manifest.json").exists()


# ---------------------------------------------------------------------------
# config layering and reruns


def test_flags_override_config_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 11, "n_paths": 512, "scenario": "scalar-constant"}))
    out = tmp_path / "run"
    rc = cli.main([
        "solve-riccati", "--config", str(cfg), "--seed", "12", "--out", str(out),
    ])
    assert rc == 0
    manifest = read_json(out / "manifest.json")
    assert manifest["config"]["seed"] == 12       # flag wins
    assert manifest["config"]["n_paths"] == 512   # file survives


def test_rerun_from_manifest_is_byte_identical(tmp_path):
    out1 = tmp_path / "first"
    rc = cli.main([
        "solve-riccati", "--scenario", "scalar-constant",
        "--paths", "512", "--steps-per-period", "32", "--out", str(out1),
    ])
    assert rc == 0
    out2 = tmp_path / "second"
    rc = cli.main([
        "solve-riccati", "--config", str(out1 / "manifest.json"), "--out", str(out2),
    ])
    assert rc == 0
    for name in ("summary.json", "riccati_nodes.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_scenario_file_is_embedded_for_reruns(tmp_path):
    path = tmp_path / "model.ini"
    save_scenario(builtin_scenarios()["scalar-constant"], path)
    out1 = tmp_path / "a"
    rc = cli.main([
        "solve-riccati", "--scenario", str(path), "--paths", "512",
        "--steps-per-period", "32", "--out", str(out1),
    ])
    assert rc == 0
    manifest = read_json(out1 / "manifest.json")
    assert manifest["config"]["scenario_text"] is not None
    path.unlink()  # the original file is no longer needed
    out2 = tmp_path / "b"
    rc = cli.main([
        "solve-riccati", "--config", str(out1 / "manifest.json"), "--out", str(out2),
    ])
    assert rc == 0
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()


# ---------------------------------------------------------------------------
# verify plumbing


def test_check_table_maps_checks_to_scenarios():
    # verify --scenario runs S1..S6 plus these battery checks; A5 and A9
    # span several scenarios and belong to none
    assert verify.CHECK_IDS == [f"A{i}" for i in range(1, 11)]
    assert {name: verify.scenario_check_ids(name) for name in builtin_scenarios()} == {
        "scalar-moment-decay": ["A1"],
        "planar-deterministic-periodic": ["A2"],
        "scalar-constant": ["A3", "A6", "A7", "A8"],
        "scalar-noisy": ["A4"],
        "scalar-random-periodic": ["A10"],
    }
    assert verify.scenario_check_ids("no-such-model") == []


def test_verify_single_check_subset(tmp_path, capsys):
    out = tmp_path / "ver"
    rc = cli.main(["verify", "--checks", "A3", "--out", str(out)])
    assert rc == 0
    assert_run_protocol(capsys, out)
    summary = read_json(out / "summary.json")
    assert summary["passed"] is True
    assert summary["n_checks"] == 1
    assert summary["checks"][0]["check_id"] == "A3"
    with open(out / "checks.csv", encoding="utf-8") as fh:
        lines = fh.readlines()
    assert lines[0].strip() == "check_id,passed,label,detail"
    assert lines[1].startswith("A3,1,")


def test_verify_check_that_raises_fails_and_the_battery_goes_on(tmp_path, capsys):
    # at master seed 4 the scalar-constant steady state behind A6 fails its
    # stationarity audit with BurnInError; A1 must still be reported and
    # both files written
    out = tmp_path / "ver-raise"
    rc = cli.main(["verify", "--seed", "4", "--checks", "A1,A6", "--out", str(out)])
    assert rc == 1
    assert "A6 FAIL BurnInError: second moment still drifting" in capsys.readouterr().out
    with open(out / "checks.csv", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert [row[:2] for row in rows[1:]] == [["A1", "1"], ["A6", "0"]]
    assert "still drifting" in rows[2][3]
    summary = read_json(out / "summary.json")
    assert summary["n_failed"] == 1
    assert summary["checks"][1]["metrics"] == {}


def test_verify_scenario_battery(tmp_path):
    out = tmp_path / "ver-scen"
    rc = cli.main([
        "verify", "--scenario", "scalar-moment-decay",
        "--paths", "2048", "--out", str(out),
    ])
    assert rc == 0
    summary = read_json(out / "summary.json")
    ids = [c["check_id"] for c in summary["checks"]]
    assert ids == ["S1", "S2", "S3", "S4", "S5", "S6", "A1"]
    assert summary["passed"] is True
    assert summary["n_failed"] == 0


@pytest.mark.parametrize("error", ["ConvergenceError", "TypeError", "S6"])
def test_scenario_checks_report_run_errors_and_raise_programming_errors(
    monkeypatch, tmp_path, error
):
    # a typed run failure of the stabilizer search is a FAIL verdict that ends
    # the checks; anything else is a defect and propagates
    if error == "S6":
        # a typed failure of the last check fails that check alone, and verify
        # --scenario still writes both files
        def overflow(*args, **kwargs):
            raise SimulationError("Gram stream overflowed")

        monkeypatch.setattr("ergolq.verify.estimate_gram_lower_bound", overflow)
        out = tmp_path / "ver-s6"
        rc = cli.main([
            "verify", "--scenario", "scalar-moment-decay",
            "--paths", "2048", "--out", str(out),
        ])
        assert rc == 1
        with open(out / "checks.csv", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [row[:2] for row in rows] == [
            ["S1", "1"], ["S2", "1"], ["S3", "1"], ["S4", "1"], ["S5", "1"], ["S6", "0"],
            ["A1", "1"],
        ]
        assert rows[5][2:] == ["conditional Gram lower bound", "Gram stream overflowed"]
        summary = read_json(out / "summary.json")
        assert summary["n_failed"] == 1
        assert summary["checks"][5]["metrics"] == {}
        return
    if error == "ConvergenceError":
        exc = ergolq.ConvergenceError("no stabilizer")
    else:
        exc = TypeError("bug")

    def broken(*args, **kwargs):
        raise exc

    monkeypatch.setattr("ergolq.verify.default_stabilizer", broken)
    scen = builtin_scenarios()["scalar-constant"]
    if error == "TypeError":
        with pytest.raises(TypeError):
            ergolq.run_scenario_checks(scen)
        return
    outcomes = ergolq.run_scenario_checks(scen)
    assert [o.check_id for o in outcomes] == ["S1", "S2"]
    assert outcomes[0].passed and not outcomes[1].passed
    assert "no stabilizer" in outcomes[1].detail


def test_public_names_resolve():
    for name in ergolq.__all__:
        assert getattr(ergolq, name) is not None, name
    # the backward engine re-exports the regression rule it shares with the
    # Gram estimate; both modules must hold the same objects
    for name in ("ridge_plan", "ridge_solve", "RegressionError"):
        assert getattr(ergolq.bsde_engine, name) is getattr(ergolq.sde_engine, name)


def test_cli_import_does_not_load_scipy():
    # numpy is the only run-time dependency: every module and both oracle
    # families must work with scipy unimportable
    src = os.path.dirname(os.path.dirname(os.path.abspath(ergolq.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "\n".join([
        "import importlib, pkgutil, sys",
        "sys.modules['scipy'] = None",
        "import ergolq",
        "for mod in pkgutil.iter_modules(ergolq.__path__):",
        "    importlib.import_module('ergolq.' + mod.name)",
        "from ergolq import oracle",
        "from ergolq.coefficients import builtin_scenarios, constant_coeff",
        "oracle.explicit_phi_moment_1d(-1.0, 0.5, 1.0)",
        "s = builtin_scenarios()['planar-deterministic-periodic']",
        "lam = constant_coeff([[1.0, 0.0], [0.0, 1.0]], s.tau)",
        "oracle.periodic_lyapunov_ode(s.A, s.C, lam, s.tau, nodes_per_period=64)",
    ])
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
