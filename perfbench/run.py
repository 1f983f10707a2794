#!/usr/bin/env python3
"""Runs one workload of the push benchmark and prints its result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds pushbench (and the library, from this checkout's src/) in
Release mode under $CARGO_TARGET_DIR (default .bench_build), runs it, and
prints as the last line of standard output one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are the
end_to_end metrics of BENCHMARK.json, with --trace 1 its per_layer
metrics. The line before it carries the machine and build context; the
full record (context, every metric, sample counts and traffic shares) is
written to <build dir>/results/.

Exit code 0 when every outcome matched its known answer, 1 when some did
not, 2 when the benchmark could not build or run.
"""

import argparse
import fcntl
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
BUILD_TYPE = "Release"


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    """Configures and builds pushbench; returns its path."""
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    with open(os.path.join(out, "build.lock"), "w") as lock, open(log_path, "a") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            steps.append(configure)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        steps.append(["cmake", "--build", out, "-j", jobs])
        for step in steps:
            try:
                done = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                fail("build timed out: " + " ".join(step))
            if done.returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed: " + " ".join(step) + " (log: " + log_path + ")")
    return os.path.join(out, "pushbench")


def cpu_mhz():
    try:
        with open("/proc/cpuinfo") as f:
            values = [float(line.split(":")[1]) for line in f if line.startswith("cpu MHz")]
        if values:
            return round(sum(values) / len(values), 1)
    except OSError:
        pass
    try:
        with open("/sys/devices/system/cpu/cpu0/cpufreq/scaling_cur_freq") as f:
            return round(int(f.read()) / 1000.0, 1)
    except (OSError, ValueError):
        return None


def compiler(out):
    try:
        with open(os.path.join(out, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_CXX_COMPILER:"):
                    path = line.split("=", 1)[1].strip()
                    version = subprocess.run([path, "--version"], capture_output=True,
                                             text=True, timeout=10).stdout.splitlines()
                    return version[0] if version else path
    except (OSError, subprocess.SubprocessError):
        pass
    return None


def source_digest():
    """sha256 over the library and benchmark sources: names the code
    measured even where the checkout is not a git repository."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cpp", ".hpp", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return digest.hexdigest()


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")) or not shutil.which("git"):
        return None
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10)
    except subprocess.SubprocessError:
        return None
    return done.stdout.strip() or None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(os.path.join(ROOT, "src", "core", "interop.hpp")):
        fail("no library sources under " + os.path.join(ROOT, "src"))
    if not os.path.exists(spec_path):
        fail("no BENCHMARK.json at " + ROOT)
    with open(spec_path) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    out = build_dir()
    program = build(out)
    context = {
        "nproc": os.cpu_count(),
        "cpu_mhz": cpu_mhz(),
        "loadavg_before": list(os.getloadavg()),
        "build_type": BUILD_TYPE,
        "compiler": compiler(out),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }
    command = [program, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    started = time.time()
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("pushbench timed out after %d s" % RUN_TIMEOUT_S)
    context["loadavg_after"] = list(os.getloadavg())
    context["run_wall_s"] = round(time.time() - started, 3)
    if done.returncode not in (0, 1):
        fail("pushbench exited with code %d" % done.returncode)
    lines = [line for line in done.stdout.splitlines() if line.strip()]
    try:
        report = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("pushbench printed no report")

    metrics = {}
    for metric in wanted:
        got = report["metrics"].get(metric["name"])
        if got is None and args.trace:
            # A layer that is not on this workload's path reads 0 there.
            got = {"value": 0.0, "unit": metric["unit"]}
        if got is None or got["unit"] != metric["unit"] or not math.isfinite(got["value"]):
            fail("metric %s missing or malformed: %r" % (metric["name"], got))
        metrics[metric["name"]] = {"value": got["value"], "unit": got["unit"]}
    correct = bool(report["correct"]) and done.returncode == 0 and report["failed"] == 0
    result = {"correct": correct, "attempted": int(report["attempted"]),
              "failed": int(report["failed"]), "metrics": metrics}

    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, context=context, all_metrics=report["metrics"],
                  info=report.get("info", {}))
    results = os.path.join(out, "results")
    os.makedirs(results, exist_ok=True)
    name = "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    with open(os.path.join(results, name), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)

    print(json.dumps({"context": context, "info": report.get("info", {})}, sort_keys=True))
    print(json.dumps(result))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
