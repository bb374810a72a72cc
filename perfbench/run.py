#!/usr/bin/env python3
"""Build and run one workload of the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first call configures and builds
perfbench/ (and the library it links from src/) into .bench_build/perfbench;
later calls rebuild only what changed. The workload runs in its own process
(bin qes_perfbench), whose stdout is passed through: its last line is the
result JSON. A traced run writes its spans to
.bench_build/perfbench/spans-<workload>.csv. --self-test builds and runs the
benchmark's own tests, then checks that each workload's result line holds
exactly BENCHMARK.json's metrics and that a deliberately violated check
makes each workload exit 1 without a result line. Exit codes: 0 ok, 1 a failed
check or run, 2 a missing source tree or bad arguments.
"""
import argparse
import fcntl
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("wire_ladder", "sim_diurnal", "cluster_trough")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(target):
    """Configures once, then builds `target`; build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no src/CMakeLists.txt under {ROOT}: run from a full checkout")
        return False
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        # Serializes concurrent builds of one checkout.
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "Makefile")):
            steps.append(["cmake", "-S", BENCH, "-B", BUILD, "-G",
                          "Unix Makefiles", "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        steps.append(["cmake", "--build", BUILD, "--target", target,
                      "-j", jobs])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
                log("build failed: " + " ".join(cmd))
                return False
    return True


def run(cmd):
    """Runs `cmd`, passing its stdout through; returns its exit code."""
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            log(f"timed out after {RUN_TIMEOUT_S} s")
            return 1
    sys.stdout.write(out)
    sys.stdout.flush()
    return proc.returncode


def results_match_manifest():
    """Each workload's smoke result line, untraced and traced, must hold
    exactly BENCHMARK.json's end_to_end and per_layer metrics, each in its
    unit."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        manifest = json.load(f)
    ok = True
    for w in WORKLOADS:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            proc = subprocess.run(
                [os.path.join(BUILD, "qes_perfbench"), "--workload", w,
                 "--seed", "3", "--seconds", "1", "--trace", trace,
                 "--smoke"],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                timeout=RUN_TIMEOUT_S)
            lines = proc.stdout.strip().splitlines()
            try:
                got = json.loads(lines[-1])["metrics"]
            except (IndexError, ValueError, KeyError):
                got = {}
            want = {m["name"]: m["unit"] for m in manifest[key]}
            units = {k: v.get("unit") for k, v in got.items()}
            passed = proc.returncode == 0 and units == want
            ok &= passed
            print(f"{w} --trace {trace}: exit {proc.returncode}, "
                  f"{len(got)} of {len(want)} {key} metrics: "
                  f"{'ok' if passed else 'FAIL'}")
    return ok


def violated_checks_fail():
    """A smoke run with a deliberately violated check must exit 1 and print
    no result line."""
    ok = True
    for w in WORKLOADS:
        proc = subprocess.run(
            [os.path.join(BUILD, "qes_perfbench"), "--workload", w, "--seed",
             "3", "--seconds", "1", "--trace", "0", "--smoke", "--violate"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            timeout=RUN_TIMEOUT_S)
        printed_result = '"correct"' in proc.stdout
        passed = proc.returncode == 1 and not printed_result
        ok &= passed
        print(f"violated check on {w}: exit {proc.returncode}, result line "
              f"{'printed' if printed_result else 'absent'}: "
              f"{'ok' if passed else 'FAIL'}")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", choices=("0", "1"), default="0")
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the benchmark's own tests")
    args = ap.parse_args()

    if args.self_test:
        if not (build("perfbench_tests") and build("qes_perfbench")):
            return 2
        if run([os.path.join(BUILD, "perfbench_tests")]) != 0:
            return 1
        matched = results_match_manifest()
        return 0 if violated_checks_fail() and matched else 1
    if args.workload is None:
        ap.error("--workload is required")
    if not build("qes_perfbench"):
        return 2
    cmd = [os.path.join(BUILD, "qes_perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace]
    if args.trace == "1":
        cmd += ["--trace-out", os.path.join(BUILD, f"spans-{args.workload}.csv")]
    code = run(cmd)
    if code != 0:
        log(f"{args.workload} exited {code}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
