"""Summaries and comparisons of benchmark result sets.

A result set is the JSON file ``run.py`` writes: machine facts plus one
record per workload run (see ``run.py``).  Statistics are over the per-run
values of a metric, one value per run.
"""

from __future__ import annotations

import statistics

from workloads import drift

PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def high_percentile(values):
    """Highest listed percentile with at least ten samples beyond it, or None."""
    n = len(values)
    for p in PERCENTILES:
        if n * (100.0 - p) / 100.0 >= 10.0 - 1e-9:
            return p, statistics.quantiles(values, n=1000)[int(round(p * 10)) - 1]
    return None


def describe(values) -> str:
    q1, med, q3 = quartiles(values)
    text = f"median {med:.6g} (q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)})"
    hp = high_percentile(values)
    if hp is not None:
        text += f", p{hp[0]:g} {hp[1]:.6g}"
    return text


def by_workload(records, metric, key="metrics"):
    """{workload: [per-run values]} for one metric, skipping missing values."""
    out = {}
    for r in records:
        value = r[key].get(metric)
        if value is not None:
            out.setdefault(r["workload"], []).append(value)
    return out


def classify(a, b, bound: float, better: str) -> str:
    """Flag the change from run values ``a`` (parent) to ``b`` (change)."""
    sign = 1.0 if better == "lower" else -1.0
    qa1, ma, qa3 = quartiles(a)
    qb1, mb, qb3 = quartiles(b)
    worse = sign * (mb - ma) / abs(ma)
    spread = max((qa3 - qa1) / abs(ma), (qb3 - qb1) / abs(mb))
    every_better = max(sign * x for x in b) < min(sign * x for x in a)
    if spread > bound:
        return "improvement" if every_better else "unresolved"
    if worse > bound:
        return "regression"
    if -worse * abs(ma) > qa3 - qa1:
        return "improvement"
    return "unchanged"


def fingerprint_drift(a_records, b_records):
    """{workload: largest relative fingerprint change between matching seeds}."""
    ref = {(r["workload"], r["seed"]): r["fingerprints"] for r in a_records if r["fingerprints"]}
    out = {}
    for r in b_records:
        base = ref.get((r["workload"], r["seed"]))
        if base is not None and r["fingerprints"]:
            out[r["workload"]] = max(out.get(r["workload"], 0.0), drift(r["fingerprints"], base))
    return out


def compare(a: dict, b: dict, spec: dict) -> list:
    """Rows (workload, metric, unit, A text, B text, flag) for two result sets."""
    rows = []
    a_runs = [r for r in a["runs"] if not r["trace"]]
    b_runs = [r for r in b["runs"] if not r["trace"]]
    for m in spec["end_to_end"]:
        va, vb = by_workload(a_runs, m["name"]), by_workload(b_runs, m["name"])
        for w in sorted(set(va) | set(vb)):
            if w not in va or w not in vb:
                rows.append((w, m["name"], m["unit"], "-", "-", "unresolved"))
                continue
            flag = classify(va[w], vb[w], m["bound"], m["better"])
            rows.append((w, m["name"], m["unit"], describe(va[w]), describe(vb[w]), flag))
    fa, fb = by_workload(a_runs, "failed_share", "gates"), by_workload(b_runs, "failed_share", "gates")
    for w in sorted(set(fa) | set(fb)):
        sa, sb = statistics.mean(fa.get(w, [0.0])), statistics.mean(fb.get(w, [0.0]))
        flag = "regression" if sb > sa else "improvement" if sb < sa else "unchanged"
        rows.append((w, "failed_share", "share", f"{sa:.3g}", f"{sb:.3g}", flag))
    for w, d in sorted(fingerprint_drift(a_runs, b_runs).items()):
        flag = "drift" if d > 0 else "unchanged"
        rows.append((w, "fingerprint_rel_drift", "share", "-", f"{d:.3g}", flag))
    a_tr = [r for r in a["runs"] if r["trace"]]
    b_tr = [r for r in b["runs"] if r["trace"]]
    traced = {r["workload"] for r in a_tr} & {r["workload"] for r in b_tr}
    for m in spec["per_layer"]:
        va, vb = by_workload(a_tr, m["name"], "layers"), by_workload(b_tr, m["name"], "layers")
        for w in sorted(traced):
            if w not in va or w not in vb:
                ta, tb = ("missing" if w not in v else "present" for v in (va, vb))
                rows.append((w, m["name"], m["unit"], ta, tb, "missing"))
                continue
            ma, mb = statistics.median(va[w]), statistics.median(vb[w])
            # pure counts must repeat exactly; layer times carry no bound
            flag = "same" if ma == mb else "changed" if m["unit"] == "count" else "-"
            rows.append((w, m["name"], m["unit"], f"{ma:.6g}", f"{mb:.6g}", flag))
    return rows


def format_rows(rows, headers) -> str:
    widths = [max(len(str(x)) for x in col) for col in zip(headers, *rows)]
    lines = []
    for row in (headers, *rows):
        lines.append("  ".join(str(x).ljust(w) for x, w in zip(row, widths)).rstrip())
    return "\n".join(lines)
