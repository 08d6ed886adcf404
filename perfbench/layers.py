"""Outside-in layer trace: wrappers around ergolq's public functions.

The benchmark never edits ``src/``.  In a traced run the child interpreter
calls :func:`install` before ``ergolq.cli.main``; every function in
:data:`WRAPPERS` is replaced by a timing wrapper, and the replacement is
rebound in every ``ergolq`` module that imported the original by name (for
example ``stream_closed_loop`` inside ``ergolq.ergodic``).  Each call records
a span (name, start, end, parent, run id, attributes) in memory; the spans
are written once, when the run ends.

``CoefficientFn.eval_batch`` runs hundreds of thousands of times per run, so
its calls are not kept one by one: only outermost calls (composites recurse)
are counted and timed, and the totals are attached to the enclosing span.

:func:`layer_metrics` turns a written trace into the per-layer metrics named
in ``BENCHMARK.json``.  A metric whose wrapper could not attach, because the
function no longer exists, is reported as ``None`` (missing), never as 0.

This module imports only the standard library at import time, so the parent
benchmark process can read traces without importing numpy or ergolq.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional


# ---------------------------------------------------------------------------
# attribute extractors: (bound arguments, return value) -> span attributes


def _stream_attrs(args, result):
    bundle = args["bundle"]
    return {"path_steps": bundle.n_paths * bundle.n_steps, "overflow": int(result.sum())}


def _noise_attrs(args, result):
    return {"path_steps": result.n_paths * result.n_steps}


def _sweep_attrs(args, result):
    bundle = args["bundle"]
    return {
        "node_paths": bundle.steps_per_period * bundle.n_paths,
        "max_cond": float(result.max_cond),
    }


def _solve_attrs(args, result):
    return {
        "outer_iterations": result.trace.n_iterations,
        "floor_stop": int(result.trace.stop_reason == "statistical floor"),
    }


def _policy_attrs(args, result):
    _, gaps, _, _ = result
    return {"policies": len(gaps) + 1}


def _burn_in_attrs(args, result):
    return {"periods": int(result.k_burn)}


def _scan_attrs(args, result):
    # every grid point is burned in over the same k_burn periods
    return {"periods": int(result.k_burn) * int(result.eps.size)}


def _checks_attrs(args, result):
    return {"failed": sum(not o.passed for o in result)}


@dataclass(frozen=True)
class Wrapper:
    """One traced function: where it lives and the span it records."""

    module: str
    qualname: str           # "func" or "Class.method"
    span: str
    attrs: Optional[Callable] = None

    @property
    def key(self) -> str:
        return f"{self.module}.{self.qualname}"


WRAPPERS = [
    Wrapper("ergolq.coefficients", "CoefficientFn.eval_batch", "coefficients.eval"),
    Wrapper("ergolq.sde_engine", "PathBundle.generate", "sde_engine.noise", _noise_attrs),
    Wrapper("ergolq.sde_engine", "stream_closed_loop", "sde_engine.closed_loop", _stream_attrs),
    Wrapper("ergolq.sde_engine", "stream_fundamental", "sde_engine.fundamental", _stream_attrs),
    Wrapper(
        "ergolq.sde_engine", "_difference_step_stream", "sde_engine.difference", _stream_attrs
    ),
    Wrapper("ergolq.sde_engine", "contraction_check", "sde_engine.contraction"),
    Wrapper("ergolq.sde_engine", "estimate_gram_lower_bound", "sde_engine.gram"),
    Wrapper("ergolq.bsde_engine", "backward_sweep", "bsde_engine.sweep", _sweep_attrs),
    Wrapper("ergolq.bsde_engine", "ridge_solve", "bsde_engine.ridge"),
    Wrapper("ergolq.bsde_engine", "RegressionBasis.design", "bsde_engine.design"),
    Wrapper("ergolq.bsde_engine", "solve_linear_matrix_bsde", "bsde_engine.solve", _solve_attrs),
    Wrapper("ergolq.bsde_engine", "solve_vector_bsde", "bsde_engine.solve", _solve_attrs),
    Wrapper("ergolq.bsde_engine", "representation_check", "bsde_engine.representation"),
    Wrapper("ergolq.riccati", "kleinman_solve", "riccati.policy_iteration", _policy_attrs),
    Wrapper("ergolq.riccati", "stabilizer_check", "riccati.certificate"),
    Wrapper("ergolq.riccati", "default_stabilizer", "riccati.stabilizer_search"),
    Wrapper("ergolq.riccati", "riccati_residual", "riccati.residual"),
    Wrapper("ergolq.ergodic", "optimal_feedback", "ergodic.vector_solve"),
    Wrapper("ergolq.ergodic", "value_function", "ergodic.value"),
    Wrapper("ergolq.ergodic", "burn_in_state", "ergodic.burn_in", _burn_in_attrs),
    Wrapper("ergolq.ergodic", "single_period_cost", "ergodic.cost"),
    Wrapper("ergolq.ergodic", "optimality_scan", "ergodic.scan", _scan_attrs),
    Wrapper("ergolq.verify", "run_scenario_checks", "verify.scenario_checks", _checks_attrs),
    Wrapper("ergolq.verify", "run_acceptance", "verify.acceptance", _checks_attrs),
    Wrapper("ergolq.bsde_engine", "export_node_table_csv", "cli.export"),
    Wrapper("ergolq.ergodic", "export_scan_csv", "cli.export"),
    Wrapper("ergolq.cli", "_write_json", "cli.export"),
]

# spans that are counted and timed per enclosing span instead of recorded
AGGREGATED = {"coefficients.eval"}


# ---------------------------------------------------------------------------
# recording (child interpreter)


class Tracer:
    """In-memory span recorder for one workload run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []          # closed spans, as dicts
        self.aggregates = {}     # (parent id, name) -> [calls, seconds]
        self.attached = []       # wrapper keys that attached
        self.missing = []        # wrapper keys whose function was not found
        self._stack = []         # open span ids
        self._agg_depth = 0

    def wrap(self, fn: Callable, w: Wrapper) -> Callable:
        if w.span in AGGREGATED:
            return self._wrap_aggregated(fn, w.span)
        signature = inspect.signature(fn) if w.attrs is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(self.spans) + len(self._stack)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            record = {"id": span_id, "name": w.span, "fn": w.key, "parent": parent,
                      "run": self.run_id, "attrs": {}}
            record["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                record["attrs"]["error"] = type(exc).__name__
                raise
            else:
                if w.attrs is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    record["attrs"].update(w.attrs(bound.arguments, result))
                return result
            finally:
                record["end"] = time.perf_counter()
                self._stack.pop()
                self.spans.append(record)

        return traced

    def _wrap_aggregated(self, fn: Callable, name: str) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._agg_depth:
                return fn(*args, **kwargs)
            self._agg_depth += 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                self._agg_depth -= 1
                key = (self._stack[-1] if self._stack else None, name)
                slot = self.aggregates.setdefault(key, [0, 0.0])
                slot[0] += 1
                slot[1] += elapsed

        return traced

    def dump(self, path: str, wall_s: float) -> None:
        payload = {
            "run": self.run_id,
            "wall_s": wall_s,
            "attached": self.attached,
            "missing": self.missing,
            "spans": self.spans,
            "aggregates": [
                {"parent": parent, "name": name, "calls": calls, "seconds": secs}
                for (parent, name), (calls, secs) in self.aggregates.items()
            ],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


def install(tracer: Tracer) -> None:
    """Replace every wrapper target and rebind it wherever it was imported."""
    for w in WRAPPERS:
        try:
            module = importlib.import_module(w.module)
            owner_name, _, attr = w.qualname.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            raw = inspect.getattr_static(owner, attr)
        except (ImportError, AttributeError):
            tracer.missing.append(w.key)
            continue
        if owner_name:
            # methods live on the class, which every importer shares
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(tracer.wrap(raw.__func__, w)))
            else:
                setattr(owner, attr, tracer.wrap(raw, w))
        else:
            traced = tracer.wrap(raw, w)
            for name, mod in list(sys.modules.items()):
                if name == "ergolq" or name.startswith("ergolq."):
                    for key, val in list(vars(mod).items()):
                        if val is raw:
                            setattr(mod, key, traced)
        tracer.attached.append(w.key)


# ---------------------------------------------------------------------------
# per-layer metrics (parent process)


def _has_ancestor(span, by_id, name) -> bool:
    p = span["parent"]
    while p is not None:
        if by_id[p]["name"] == name:
            return True
        p = by_id[p]["parent"]
    return False


def _outermost(spans, by_id, name):
    """Spans called ``name`` that have no ancestor of the same name."""
    return [s for s in spans if s["name"] == name and not _has_ancestor(s, by_id, name)]


def _duration(span) -> float:
    return span["end"] - span["start"]


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    # a layer that did no work reports 0 per unit of work
    return scale * num / den if den else 0.0


# spans reported as <name>_s (outermost time) and <name>_calls
TIMED = (
    "sde_engine.closed_loop",
    "sde_engine.fundamental",
    "sde_engine.contraction",
    "sde_engine.gram",
    "sde_engine.noise",
    "bsde_engine.sweep",
    "bsde_engine.ridge",
    "bsde_engine.design",
    "bsde_engine.representation",
    "riccati.policy_iteration",
    "riccati.certificate",
    "riccati.stabilizer_search",
    "riccati.residual",
    "ergodic.vector_solve",
    "ergodic.value",
    "ergodic.burn_in",
    "ergodic.cost",
    "ergodic.scan",
    "verify.scenario_checks",
    "verify.acceptance",
    "cli.export",
)

# metrics computed from other span names than their own prefix, and the
# span names each depends on (for missing-wrapper reporting)
DERIVED_DEPS = {
    "coefficients.eval_calls": ["coefficients.eval"],
    "coefficients.eval_s": ["coefficients.eval"],
    "sde_engine.overflow_paths": [
        "sde_engine.closed_loop", "sde_engine.fundamental", "sde_engine.difference"
    ],
    "bsde_engine.sweeps": ["bsde_engine.sweep"],
    "bsde_engine.sweep_self_s": ["bsde_engine.sweep"],
    "bsde_engine.ridge_solves": ["bsde_engine.ridge"],
    "bsde_engine.max_cond": ["bsde_engine.sweep"],
    "bsde_engine.solves": ["bsde_engine.solve"],
    "bsde_engine.outer_iterations": ["bsde_engine.solve"],
    "bsde_engine.floor_stops": ["bsde_engine.solve"],
    "riccati.policies": ["riccati.policy_iteration"],
    "riccati.sweeps_per_policy": ["riccati.policy_iteration", "bsde_engine.sweep"],
    "ergodic.burn_in_periods": ["ergodic.burn_in", "ergodic.scan"],
    "verify.checks_failed": ["verify.scenario_checks", "verify.acceptance"],
}


def _deps(metric: str) -> list:
    if metric in DERIVED_DEPS:
        return DERIVED_DEPS[metric]
    for span in TIMED:
        if metric.startswith(span + "_"):
            return [span]
    return []


def layer_metrics(trace: dict) -> dict:
    """All per-layer values of one traced run, keyed by metric name.

    Values depending on a wrapper that did not attach are None.
    """
    spans = trace["spans"]
    by_id = {s["id"]: s for s in spans}
    m = {}

    def total(name, attr=None):
        group = _outermost(spans, by_id, name)
        if attr is None:
            return sum(_duration(s) for s in group)
        return sum(s["attrs"].get(attr, 0) for s in group)

    for name in TIMED:
        m[name + "_s"] = total(name)
        m[name + "_calls"] = len([s for s in spans if s["name"] == name])

    eval_aggs = [a for a in trace["aggregates"] if a["name"] == "coefficients.eval"]
    m["coefficients.eval_calls"] = sum(a["calls"] for a in eval_aggs)
    m["coefficients.eval_s"] = sum(a["seconds"] for a in eval_aggs)

    for layer in ("closed_loop", "fundamental", "noise"):
        steps = total(f"sde_engine.{layer}", "path_steps")
        m[f"sde_engine.{layer}_path_steps"] = steps
        m[f"sde_engine.{layer}_ns_per_path_step"] = _ratio(
            m[f"sde_engine.{layer}_s"], steps, 1e9
        )
    m["sde_engine.overflow_paths"] = sum(
        total(name, "overflow")
        for name in ("sde_engine.closed_loop", "sde_engine.fundamental", "sde_engine.difference")
    )

    sweeps = [s for s in spans if s["name"] == "bsde_engine.sweep"]
    child_s = {}
    for s in spans:
        if s["parent"] is not None:
            child_s[s["parent"]] = child_s.get(s["parent"], 0.0) + _duration(s)
    for a in trace["aggregates"]:
        if a["parent"] is not None:
            child_s[a["parent"]] = child_s.get(a["parent"], 0.0) + a["seconds"]
    m["bsde_engine.sweeps"] = m.pop("bsde_engine.sweep_calls")
    m["bsde_engine.sweep_self_s"] = sum(_duration(s) - child_s.get(s["id"], 0.0) for s in sweeps)
    m["bsde_engine.sweep_ns_per_node_path"] = _ratio(
        m["bsde_engine.sweep_s"], total("bsde_engine.sweep", "node_paths"), 1e9
    )
    m["bsde_engine.ridge_solves"] = m.pop("bsde_engine.ridge_calls")
    m["bsde_engine.max_cond"] = max((s["attrs"].get("max_cond", 0.0) for s in sweeps), default=0.0)
    m["bsde_engine.solves"] = len([s for s in spans if s["name"] == "bsde_engine.solve"])
    m["bsde_engine.outer_iterations"] = total("bsde_engine.solve", "outer_iterations")
    m["bsde_engine.floor_stops"] = total("bsde_engine.solve", "floor_stop")

    policies = total("riccati.policy_iteration", "policies")
    m["riccati.policies"] = policies
    in_policy = [s for s in sweeps if _has_ancestor(s, by_id, "riccati.policy_iteration")]
    m["riccati.sweeps_per_policy"] = _ratio(len(in_policy), policies)

    m["ergodic.burn_in_periods"] = total("ergodic.burn_in", "periods") + total(
        "ergodic.scan", "periods"
    )
    m["verify.checks_failed"] = total("verify.scenario_checks", "failed") + total(
        "verify.acceptance", "failed"
    )

    missing_spans = {w.span for w in WRAPPERS if w.key in trace["missing"]}
    for name in m:
        if missing_spans.intersection(_deps(name)):
            m[name] = None
    return m
