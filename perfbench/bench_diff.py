#!/usr/bin/env python3
"""Report-only comparison of two perfbench result sets.

    python3 perfbench/bench_diff.py BASE.jsonl NEW.jsonl

Each file holds full records appended by `run.py --out FILE` (one JSON
object per line; several seeds and runs per workload). For every workload
and end-to-end metric it prints each side's median and quartiles and one
verdict:

  better        the new median is better by more than the base's own spread
  within bound  not worse than the base median by more than the bound
  worse         worse than the base median by more than the bound
  unresolved    the base runs spread wider than the bound, and not every new
                run beats every base run

Bounds come from BENCHMARK.json; the workload-named metrics the records
also carry (publish_s, max_qps_at_slo, ...) use 0.25, the largest bound
BENCHMARK.json may set, and failed_ratio any increase at all.
Per-layer rows (from --trace 1 records) print medians and the relative
delta only. The exit code is 0 whatever the verdicts: this is a report,
not a gate (2 on unreadable input).
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

# Direction and bound of the end-to-end rows that are not in
# BENCHMARK.json: the per-workload names the harness also reports.
ISSUE_METRICS = {
    "publish_s": ("lower", 0.25),
    "query_p50_ms": ("lower", 0.25),
    "query_p99_ms": ("lower", 0.25),
    "ttfb_ms": ("lower", 0.25),
    "max_qps_at_slo": ("higher", 0.25),
    "stream_rows_per_s": ("higher", 0.25),
    "failed_ratio": ("lower", 0.0),
}


def load_records(path):
    records = []
    with open(path) as f:
        for n, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except ValueError:
                raise SystemExit("%s:%d: not a JSON record" % (path, n))
    return records


def group(records, trace):
    """{workload: {metric: [values]}} over the records of one trace mode."""
    out = {}
    for r in records:
        meta = r.get("meta", {})
        if int(meta.get("trace", 0)) != trace:
            continue
        by_metric = out.setdefault(meta.get("workload", "?"), {})
        for name, m in r.get("metrics", {}).items():
            by_metric.setdefault(name, []).append(m["value"])
    return out


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base, new, better, bound):
    q1, bmed, q3 = quartiles(base)
    _, nmed, _ = quartiles(new)
    sign = 1 if better == "higher" else -1
    if bmed == 0:
        return "within bound" if sign * (nmed - bmed) >= 0 else "worse"
    change = sign * (nmed - bmed) / abs(bmed)  # > 0 means improved
    spread = (q3 - q1) / abs(bmed)
    if spread > bound:
        beats = all(sign * (n - b) > 0 for n in new for b in base)
        return "better" if beats else "unresolved"
    if change < -bound:
        return "worse"
    if change > spread and change > 0:
        return "better"
    return "within bound"


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    try:
        base = load_records(argv[1])
        new = load_records(argv[2])
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
            bench = json.load(f)
    except (OSError, ValueError) as e:
        print("bench_diff: %s" % e, file=sys.stderr)
        return 2

    e2e = {m["name"]: (m["better"], m["bound"]) for m in bench["end_to_end"]}
    e2e.update(ISSUE_METRICS)

    base_e2e, new_e2e = group(base, 0), group(new, 0)
    print("end-to-end (trace 0): median [q1, q3] per side, n = runs")
    for workload in sorted(set(base_e2e) | set(new_e2e)):
        b, n = base_e2e.get(workload, {}), new_e2e.get(workload, {})
        for name in sorted(set(b) & set(n)):
            if name not in e2e:
                continue
            better, bound = e2e[name]
            bq, nq = quartiles(b[name]), quartiles(n[name])
            print("  %-8s %-18s base %12.6g [%.6g, %.6g] n=%-2d  new %12.6g "
                  "[%.6g, %.6g] n=%-2d  bound %.2f  %s" % (
                      workload, name, bq[1], bq[0], bq[2], len(b[name]),
                      nq[1], nq[0], nq[2], len(n[name]), bound,
                      verdict(b[name], n[name], better, bound)))

    base_layer, new_layer = group(base, 1), group(new, 1)
    print("per-layer (trace 1): medians and relative delta")
    for workload in sorted(set(base_layer) | set(new_layer)):
        b, n = base_layer.get(workload, {}), new_layer.get(workload, {})
        for name in sorted(set(b) & set(n)):
            bm, nm = statistics.median(b[name]), statistics.median(n[name])
            delta = "%+.1f%%" % (100 * (nm - bm) / abs(bm)) if bm else "n/a"
            print("  %-8s %-36s %14.6g -> %-14.6g %s" % (workload, name, bm,
                                                        nm, delta))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
