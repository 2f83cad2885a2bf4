#!/usr/bin/env python3
"""Runs one perfbench workload and prints its result.

    python3 perfbench/run.py --workload serve --seed 1 --seconds 10 --trace 0

Builds the harness (perfbench/CMakeLists.txt: the SCube libraries from
this checkout's sources plus perfbench/harness.cc) in Release mode, runs
the workload, and prints:

  * on stderr, progress and a table of every metric the harness measured
    (the end-to-end ones by their issue names, the generic driver aliases,
    and with --trace 1 every per-layer row), each with unit and sample count;
  * as the last line of stdout, one JSON object with exactly the keys
    correct, attempted, failed and metrics. The metrics are the ones
    BENCHMARK.json lists: end_to_end with --trace 0, per_layer with --trace 1.

--out FILE appends the harness's full record (metadata, every metric with
its sample count, check failures) as one JSON line, the input of
perfbench/bench_diff.py.

Exit codes: 0 when every answer checked out, 1 when a check failed (the
result line is still printed), 2 for a usage error or missing sources,
3 when the build fails, 4 when the harness failed or omitted a metric.
The build directory is $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), relative to the checkout root.
"""

import argparse
import glob
import hashlib
import json
import os
import re
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HARNESS_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out_dir):
    """Configures (once) and builds the harness; False on failure."""
    jobs = str(max(1, os.cpu_count() or 1))
    # Compiler temporaries stay inside the checkout too.
    tmp = os.path.join(out_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "--target",
                  "perfbench_harness", "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              env=env)
        if proc.returncode != 0:
            log("perfbench: build step failed: " + " ".join(cmd))
            return False
    return True


def compiler_id(out_dir):
    for path in glob.glob(os.path.join(out_dir, "CMakeFiles", "*",
                                       "CMakeCXXCompiler.cmake")):
        text = open(path).read()
        cid = re.search(r'set\(CMAKE_CXX_COMPILER_ID "([^"]*)"\)', text)
        ver = re.search(r'set\(CMAKE_CXX_COMPILER_VERSION "([^"]*)"\)', text)
        if cid and ver:
            return cid.group(1) + " " + ver.group(1)
    return "unknown"


def source_digest():
    """sha256 over the program's sources: identifies the code measured
    when the checkout carries no git metadata."""
    h = hashlib.sha256()
    files = [os.path.join(ROOT, "CMakeLists.txt")]
    for dirpath, _, names in os.walk(os.path.join(ROOT, "src")):
        files += [os.path.join(dirpath, n) for n in names]
    for path in sorted(files):
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    """HEAD of the checkout when it is itself a git work tree, else none."""
    try:
        proc = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none"
    lines = proc.stdout.split()
    if (proc.returncode != 0 or len(lines) != 2 or
            os.path.realpath(lines[0]) != os.path.realpath(ROOT)):
        return "none"
    return lines[1]


def print_table(record):
    meta = record.get("meta", {})
    log("perfbench %s seed %s trace %s | nproc %s | %s | %s | sha %s" % (
        meta.get("workload"), meta.get("seed"), meta.get("trace"),
        meta.get("nproc"), meta.get("compiler"), meta.get("build_type"),
        meta.get("git_sha")))
    for name, m in record["metrics"].items():
        kind = "layer" if m.get("layer") else "e2e"
        log("  %-5s %-36s %16.6g %-8s n=%d" % (kind, name, m["value"],
                                              m["unit"], m["samples"]))
    log("  correct=%s attempted=%d failed=%d" % (
        record["correct"], record["attempted"], record["failed"]))
    for err in record.get("errors", []):
        log("  check failed: " + err)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=None,
                    help="Italian registry scale (smoke tests shrink it)")
    ap.add_argument("--wide-rows", type=int, default=None)
    ap.add_argument("--plant-wrong", action="store_true",
                    help="corrupt one observed answer (checks must catch it)")
    ap.add_argument("--out", default=None,
                    help="append the full record to this JSON-lines file")
    args = ap.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) and
            os.path.isdir(os.path.join(ROOT, "src"))):
        log("perfbench: no SCube sources in %s; nothing to measure" % ROOT)
        return 2
    try:
        bench = load_benchmark()
    except (OSError, ValueError) as e:
        log("perfbench: cannot read BENCHMARK.json: %s" % e)
        return 2
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workload not in workloads:
        log("perfbench: unknown workload %r (have %s)" % (
            args.workload, ", ".join(workloads)))
        return 2
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]

    out_dir = build_dir()
    t = time.monotonic()
    if not build(out_dir):
        return 3
    log("perfbench: build ready in %.1f s" % (time.monotonic() - t))

    cmd = [os.path.join(out_dir, "perfbench_harness"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--trace", str(args.trace),
           "--git-sha", git_sha(), "--source-digest", source_digest(),
           "--compiler", compiler_id(out_dir)]
    if args.scale is not None:
        cmd += ["--scale", repr(args.scale)]
    if args.wide_rows is not None:
        cmd += ["--wide-rows", str(args.wide_rows)]
    if args.plant_wrong:
        cmd.append("--plant-wrong")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: harness exceeded %d s" % HARNESS_TIMEOUT_S)
        return 4
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        log("perfbench: harness exited %d" % proc.returncode)
        return 4
    try:
        record = json.loads(lines[-1])
    except ValueError:
        log("perfbench: harness printed no record")
        return 4
    print_table(record)

    wanted = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]
    metrics = {}
    for spec in wanted:
        m = record["metrics"].get(spec["name"])
        if m is None or m["unit"] != spec["unit"]:
            log("perfbench: %s metric %s missing or not in %s" % (
                args.workload, spec["name"], spec["unit"]))
            return 4
        metrics[spec["name"]] = {"value": m["value"], "unit": m["unit"]}

    if args.out:
        with open(args.out, "a") as f:
            f.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps({"correct": bool(record["correct"]),
                      "attempted": int(record["attempted"]),
                      "failed": int(record["failed"]),
                      "metrics": metrics}))
    sys.stdout.flush()
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
