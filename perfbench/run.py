#!/usr/bin/env python3
"""Build and run the perfbench program; print its metrics and one JSON line.

    python3 perfbench/run.py --workload kv-zipf --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root. The program is built from source (perfbench's
own CMake project over ../src) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that is unset. The last line of standard output
is the result: {"correct", "attempted", "failed", "metrics"}; with --trace 0
the metrics are BENCHMARK.json's end_to_end list, with --trace 1 its
per_layer list. `--workload all` runs the three workloads in turn, each
printing its own result line. Exit status is non-zero on any build failure,
correctness gate failure or metric mismatch.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("kv-zipf", "bank-hot", "server-open")
BUILD_TIMEOUT_S = 840
# A run measures for --seconds; set-up, checks and the traced run's extra
# instance come on top.
RUN_OVERHEAD_S = 60


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("runtime sources not found at %s" % os.path.join(ROOT, "src"))
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, base, "perfbench")
    env = clean_env()
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        run_build(cmd, env)
    jobs = str(min(4, os.cpu_count() or 1))
    run_build(["cmake", "--build", build_dir, "-j", jobs, "--target"] + targets,
              env)
    return build_dir


def run_build(cmd, env):
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out: " + " ".join(cmd))
    except OSError as e:
        fail("cannot run %s: %s" % (cmd[0], e))
    if r.returncode != 0:
        sys.stderr.write(r.stdout.decode(errors="replace")[-4000:])
        fail("build failed: " + " ".join(cmd))


def clean_env():
    # The runtime reads SEMLOCK_* knobs from the environment; the benchmark
    # measures the shipped defaults.
    return {k: v for k, v in os.environ.items() if not k.startswith("SEMLOCK_")}


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    a = ap.parse_args()

    if a.selftest:
        build_dir = build(["perfbench_selftest"])
        return subprocess.run([os.path.join(build_dir, "perfbench_selftest")],
                              cwd=ROOT, env=clean_env()).returncode
    if a.workload is None:
        fail("--workload is required")
    if a.seed < 0 or not 1 <= a.seconds <= 600:
        fail("--seed must be >= 0 and --seconds in 1..600")

    build_dir = build(["perfbench"])
    workloads = WORKLOADS if a.workload == "all" else (a.workload,)
    status = 0
    for w in workloads:
        if len(workloads) > 1:
            print("== " + w)
        status |= run_workload(build_dir, w, a)
    return status


def run_workload(build_dir, workload, a):
    cmd = [os.path.join(build_dir, "perfbench"), "--workload",
           workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", str(a.trace)]
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=clean_env(),
                           stdout=subprocess.PIPE,
                           timeout=a.seconds * 3 + RUN_OVERHEAD_S)
    except subprocess.TimeoutExpired:
        fail("perfbench timed out")
    lines = r.stdout.decode().strip().splitlines()
    if not lines:
        fail("perfbench printed nothing (exit %d)" % r.returncode)
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("last line is not JSON: " + lines[-1][:200])

    want = expected_metrics(a.trace)
    got = result.get("metrics", {})
    problems = []
    for name, unit in want.items():
        if name not in got:
            problems.append("missing metric " + name)
        elif got[name].get("unit") != unit:
            problems.append("unit of %s is %s, BENCHMARK.json says %s"
                            % (name, got[name].get("unit"), unit))
    problems += ["unlisted metric " + n for n in got if n not in want]
    if a.trace == 0:
        problems += ["end-to-end metric %s is 0" % n
                     for n in want if n in got and got[n]["value"] == 0]
    for p in problems:
        print("perfbench: " + p, file=sys.stderr)
    if problems:
        result["correct"] = False
    print(json.dumps(result), flush=True)
    return 0 if r.returncode == 0 and not problems and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
