#!/usr/bin/env python3
"""Smoke test of the benchmark itself (about two minutes after the build).

    python3 perfbench/smoke.py

For every workload, at a tiny size:
  * a --trace 0 run must print every BENCHMARK.json end_to_end metric with
    its unit, and its full record must carry the workload's own end-to-end
    rows (publish_s, query_p99_ms, ttfb_ms, ...) with sample counts;
  * a --trace 1 run must print every per_layer metric, and its record must
    carry the per-layer rows named for that workload;
  * a run with one planted wrong answer must report correct=false, count
    the failure and exit non-zero.
Finally run.py, copied into a directory with no SCube sources, must fail
without printing a result. Exit code 0 when all of that holds.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TINY = ["--seconds", "1", "--scale", "0.002", "--wide-rows", "2000"]

E2E = {
    "publish": ["publish_s"],
    "serve": ["query_p50_ms", "query_p99_ms", "max_qps_at_slo"],
    "stream": ["ttfb_ms", "stream_rows_per_s"],
    "scatter": ["query_p50_ms", "query_p99_ms", "max_qps_at_slo"],
}
COMMON_E2E = ["setup_s", "peak_rss_mb", "failed_ratio"]

VERBS = ["topk", "slice", "dice", "rollup", "drilldown", "surprises",
         "reversals"]
LAYERS = {
    "publish": [
        "graph.project_s", "graph.cluster_s", "graph.projected_edges",
        "graph.units", "etl.table_s", "etl.rows", "cube.encode_s",
        "fpm.mine_s", "cube.group_s", "cube.fill_s", "cube.seal_s",
        "fpm.itemsets", "cube.cells", "cube.cells_defined",
        "cube.defined_ratio", "cube.contexts_memoized", "fpm.mine_speedup",
        "cube.fill_speedup", "cube.seal_speedup", "publish.unaccounted_s",
        "query.first_answer_ms"],
    "serve": [
        "query.first_answer_ms", "query.publish_warm_ms", "query.warmed",
        "query.cache_hit_ratio", "query.shed", "query.service_us",
        "query.load_wait_us", "query.parse_us", "query.cells_scanned_per_row",
        "query.stream_execute_ms", "query.serialize_us", "net.rtt_floor_us",
        "server.overhead_us", "net.stream_peak_buffer_bytes", "cube.seal_s",
        "loadgen.lag_p99_ms"] + ["query.execute_us." + v for v in VERBS],
    "stream": [
        "query.json_write_ms", "query.csv_write_ms", "wire.bytes_per_row",
        "query.stream_execute_ms", "query.execute_us.slice",
        "net.stream_peak_buffer_bytes", "net.rtt_floor_us",
        "server.overhead_us"],
    "scatter": [
        "cluster.partition_s", "cluster.ghost_ratio", "cluster.preflight_us",
        "cluster.shard_rtt_us", "query.wire_decode_us",
        "cluster.router_overhead_us", "cluster.shard_requests_per_query",
        "query.load_wait_us", "server.overhead_us", "loadgen.lag_p99_ms"],
}
COMMON_LAYERS = ["trace.overhead_ratio"]


def run(args, out):
    cmd = [sys.executable, os.path.join(HERE, "run.py")] + args + [
        "--out", out]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    record = None
    if os.path.exists(out):
        with open(out) as f:
            records = [json.loads(l) for l in f if l.strip()]
        record = records[-1] if records else None
    return proc, result, record


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    scratch = os.path.join(ROOT, ".bench_build", "smoke")
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    problems = []

    def expect(cond, what):
        if not cond:
            problems.append(what)
            print("  FAIL " + what, flush=True)

    for w in [x["name"] for x in bench["workloads"]]:
        for trace in (0, 1):
            print("%s --trace %d" % (w, trace), flush=True)
            out = os.path.join(scratch, "%s-%d.jsonl" % (w, trace))
            proc, result, record = run(
                ["--workload", w, "--seed", "7", "--trace", str(trace)] + TINY,
                out)
            expect(proc.returncode == 0,
                   "%s trace %d exited %d: %s" % (w, trace, proc.returncode,
                                                  proc.stderr[-800:]))
            if result is None or record is None:
                expect(False, "%s trace %d printed no result" % (w, trace))
                continue
            expect(set(result) == {"correct", "attempted", "failed",
                                   "metrics"},
                   "%s result keys %s" % (w, sorted(result)))
            expect(result["correct"] and result["failed"] == 0 and
                   result["attempted"] >= 1,
                   "%s trace %d not correct: %s" % (w, trace, result))
            listed = bench["end_to_end"] if trace == 0 else bench["per_layer"]
            for spec in listed:
                m = result["metrics"].get(spec["name"])
                expect(m is not None and m["unit"] == spec["unit"] and
                       isinstance(m["value"], (int, float)),
                       "%s trace %d: %s missing or wrong unit" % (
                           w, trace, spec["name"]))
            named = (COMMON_E2E + E2E[w]) if trace == 0 else (
                COMMON_LAYERS + LAYERS[w])
            for name in named:
                m = record["metrics"].get(name)
                expect(m is not None and m.get("unit") and
                       "samples" in m,
                       "%s trace %d: record lacks %s" % (w, trace, name))
            meta = record.get("meta", {})
            for key in ("nproc", "compiler", "build_type", "git_sha", "seed",
                        "scale", "cube_cells"):
                expect(key in meta, "%s: record meta lacks %s" % (w, key))

        print("%s --plant-wrong" % w, flush=True)
        out = os.path.join(scratch, "%s-wrong.jsonl" % w)
        proc, result, _ = run(["--workload", w, "--seed", "7", "--trace", "0",
                               "--plant-wrong"] + TINY, out)
        expect(proc.returncode != 0, "%s: planted wrong answer exited 0" % w)
        expect(result is not None and not result["correct"] and
               result["failed"] >= 1,
               "%s: planted wrong answer not reported: %s" % (w, result))

    print("no sources", flush=True)
    bare = tempfile.mkdtemp(dir=scratch)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve", "--seed",
         "1", "--seconds", "1", "--trace", "0"], cwd=bare,
        capture_output=True, text=True, timeout=170,
        env=dict(os.environ, CARGO_TARGET_DIR=".bench_build"))
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           "run.py without sources: exit %d, stdout %r" % (
               proc.returncode, proc.stdout[-200:]))

    shutil.rmtree(scratch, ignore_errors=True)
    print("smoke %s" % ("OK" if not problems else
                        "FAILED (%d problems)" % len(problems)))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
