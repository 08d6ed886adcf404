"""Self-checks of the benchmark.  Run from the repository root:

    python3 -m pytest -q perfbench

The unit tests take a second.  ``test_wrappers_attach_and_fire`` runs each
workload once, traced, with fewer paths (about a minute on two cores).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import layers
import report
import run
from workloads import WORKLOADS, drift, gate

SPEC = run.load_spec()

# spans each workload must record; every wrapper appears in at least one set
EXPECTED_SPANS = {
    "riccati-planar": {
        "coefficients.eval", "sde_engine.noise", "sde_engine.fundamental",
        "bsde_engine.sweep", "bsde_engine.ridge", "bsde_engine.design", "bsde_engine.solve",
        "riccati.policy_iteration", "riccati.certificate", "riccati.stabilizer_search",
        "riccati.residual", "cli.export",
    },
    "ergodic-random": {
        "coefficients.eval", "sde_engine.noise", "sde_engine.closed_loop",
        "bsde_engine.sweep", "bsde_engine.solve", "riccati.policy_iteration",
        "ergodic.vector_solve", "ergodic.value", "ergodic.burn_in", "ergodic.cost", "cli.export",
    },
    "scan-constant": {
        "coefficients.eval", "sde_engine.noise", "sde_engine.closed_loop",
        "bsde_engine.sweep", "ergodic.vector_solve", "ergodic.value", "ergodic.scan",
        "cli.export",
    },
    "verify-moment-decay": {
        "coefficients.eval", "sde_engine.noise", "sde_engine.fundamental",
        "sde_engine.difference", "sde_engine.contraction", "sde_engine.gram",
        "bsde_engine.representation", "verify.scenario_checks", "verify.acceptance",
        "cli.export",
    },
}
SMALL_PATHS = {"riccati-planar": 512, "ergodic-random": 512, "scan-constant": 1024,
               "verify-moment-decay": 512}
# added by run.py on top of layers.layer_metrics
RUN_LEVEL = {"cli.bytes_written", "trace.wall_s", "trace.overhead_s", "trace.spans",
             "trace.missing_wrappers"}


def _span(i, name, start, end, parent=None, **attrs):
    return {"id": i, "name": name, "fn": name, "parent": parent, "run": "r",
            "start": start, "end": end, "attrs": attrs}


def _trace(spans, aggregates=(), missing=()):
    return {"run": "r", "wall_s": 1.0, "attached": [], "missing": list(missing),
            "spans": spans, "aggregates": list(aggregates)}


def test_spec_names_match_the_code():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)
    assert {m["name"] for m in SPEC["end_to_end"]} == {"wall_s", "cpu_s", "setup_s", "peak_rss_mb"}
    produced = set(layers.layer_metrics(_trace([]))) | RUN_LEVEL
    assert {m["name"] for m in SPEC["per_layer"]} <= produced
    assert {w.span for w in layers.WRAPPERS} == set().union(*EXPECTED_SPANS.values())


def test_self_time_subtracts_child_spans_and_coefficient_time():
    spans = [
        _span(0, "bsde_engine.sweep", 0.0, 10.0, node_paths=100, max_cond=3.0),
        _span(1, "bsde_engine.ridge", 1.0, 3.0, parent=0),
        _span(2, "bsde_engine.design", 4.0, 5.0, parent=0),
    ]
    agg = [{"parent": 0, "name": "coefficients.eval", "calls": 7, "seconds": 2.0}]
    m = layers.layer_metrics(_trace(spans, agg))
    assert m["bsde_engine.sweep_self_s"] == pytest.approx(5.0)
    assert m["bsde_engine.sweep_ns_per_node_path"] == pytest.approx(1e8)
    assert m["bsde_engine.sweeps"] == 1 and m["bsde_engine.ridge_solves"] == 1
    assert m["coefficients.eval_calls"] == 7 and m["bsde_engine.max_cond"] == 3.0


def test_nested_spans_of_one_name_are_timed_once():
    spans = [
        _span(0, "riccati.certificate", 0.0, 4.0),
        _span(1, "riccati.certificate", 1.0, 2.0, parent=0),
    ]
    m = layers.layer_metrics(_trace(spans))
    assert m["riccati.certificate_s"] == pytest.approx(4.0)
    assert m["riccati.certificate_calls"] == 2


def test_missing_wrapper_reports_none_not_zero():
    m = layers.layer_metrics(_trace([], missing=["ergolq.sde_engine.stream_fundamental"]))
    for name in ("sde_engine.fundamental_s", "sde_engine.fundamental_path_steps",
                 "sde_engine.fundamental_ns_per_path_step", "sde_engine.overflow_paths"):
        assert m[name] is None
    assert m["sde_engine.closed_loop_s"] == 0


def test_install_reports_a_vanished_function_as_missing(monkeypatch):
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    try:
        import ergolq.cli  # noqa: F401
        import ergolq.sde_engine as sde

        monkeypatch.delattr(sde, "stream_fundamental")
        tracer = layers.Tracer("t")
        monkeypatch.setattr(layers, "WRAPPERS", [
            w for w in layers.WRAPPERS if w.qualname == "stream_fundamental"
        ])
        layers.install(tracer)
        assert tracer.missing == ["ergolq.sde_engine.stream_fundamental"]
        assert tracer.attached == []
    finally:
        sys.path.remove(os.path.join(run.ROOT, "src"))


def test_classify_flags():
    base = [10.0, 10.1, 9.9, 10.0, 10.05]
    assert report.classify(base, [x * 1.3 for x in base], 0.1, "lower") == "regression"
    assert report.classify(base, [x * 0.7 for x in base], 0.1, "lower") == "improvement"
    assert report.classify(base, [x * 1.01 for x in base], 0.1, "lower") == "unchanged"
    noisy = [5.0, 15.0, 10.0, 7.0, 13.0]
    assert report.classify(base, noisy, 0.1, "lower") == "unresolved"


def test_high_percentile_needs_ten_samples_beyond():
    assert report.high_percentile(list(range(19))) is None
    assert report.high_percentile(list(range(20)))[0] == 50.0
    assert report.high_percentile(list(range(100)))[0] == 90.0


def test_gate_counts_every_failure_kind():
    w = WORKLOADS["ergodic-random"]
    good = {"gap_in_se": 0.5, "value": 0.2, "mc_cost": 0.201}
    assert gate(w, 0, good, None).passed
    assert not gate(w, 1, good, None).passed
    assert not gate(w, None, None, None).passed
    assert not gate(w, 0, None, None).passed
    assert not gate(w, 0, dict(good, gap_in_se=9.0), None).passed


def test_drift():
    assert drift({"a": 1.0, "b": 0.0}, {"a": 1.0, "b": 0.0}) == 0.0
    assert drift({"a": 1.1}, {"a": 1.0}) == pytest.approx(0.1)
    assert drift({"a": 1.0}, {"b": 1.0}) == float("inf")


def test_result_line_shape():
    record = {"trace": False, "failed": 0, "attempted": 1,
              "metrics": {"wall_s": 1.5, "cpu_s": 1.4, "setup_s": 0.9, "peak_rss_mb": 200.0}}
    line = run.result_line(record, SPEC)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["metrics"]["setup_s"] == {"value": 0.9, "unit": "s"}


def test_reference_fingerprints_cover_every_workload():
    with open(os.path.join(run.HERE, "reference.json"), encoding="utf-8") as fh:
        stored = json.load(fh)
    assert set(stored) == set(WORKLOADS)


def _traced(name, workdir):
    """One traced invocation of a workload with fewer paths; returns the trace."""
    w = WORKLOADS[name]
    trace_file = workdir / "trace.json"
    argv = [*w.argv, "--seed", "7", "--paths", str(SMALL_PATHS[name]), "--out", str(workdir / "out")]
    subprocess.run(
        [sys.executable, os.path.join(run.HERE, "child.py"), "run", str(workdir / "r.json"),
         "--trace", str(trace_file), "--run-id", "t", "--", *argv],
        env=run._child_env(), cwd=run.ROOT, check=True, capture_output=True, timeout=300,
    )
    return json.loads(trace_file.read_text())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_wrappers_attach_and_fire(name, tmp_path):
    data = _traced(name, tmp_path)
    assert data["missing"] == []
    assert sorted(data["attached"]) == sorted(wr.key for wr in layers.WRAPPERS)
    fired = {s["name"] for s in data["spans"]} | {a["name"] for a in data["aggregates"]}
    assert EXPECTED_SPANS[name] <= fired
    assert {s["run"] for s in data["spans"]} == {"t"}
    values = layers.layer_metrics(data)
    assert all(v is not None for v in values.values())


def test_layer_counts_repeat_exactly(tmp_path):
    counts = [m["name"] for m in SPEC["per_layer"]
              if m["unit"] == "count" and m["name"] not in RUN_LEVEL]
    runs = []
    for i in range(2):
        (tmp_path / str(i)).mkdir()
        values = layers.layer_metrics(_traced("riccati-planar", tmp_path / str(i)))
        runs.append({name: values[name] for name in counts})
    assert runs[0] == runs[1]
