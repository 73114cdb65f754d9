#!/usr/bin/env python3
"""Runs one ANT-ACE benchmark workload and prints its result.

    python3 perfbench/run.py --workload linear|serve --seed N \
        --seconds S --trace 0|1

Run from the repository root. Builds the acebench program (perfbench/
CMakeLists.txt, on top of ../src) into $CARGO_TARGET_DIR or .bench_build,
runs the workload with the program's builtin defaults on a 2-thread pool
(1 thread for serve),
checks every decrypted output against the cleartext executor, and prints a
table of the metrics followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list; with
--trace 1 its per_layer list, and a Chrome trace is written next to the
result record. The full record (every metric, the exact op counts, the
resolved configuration and revision) goes to <build>/results/. Exits 1
when an output check, the op-count gate or the run itself fails, 2 when
the sources or arguments are missing.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Precision floor per workload, bits: an output whose max |encrypted -
# cleartext logit| exceeds 2^-floor fails the output check. Set two to
# four bits under the lowest precision measured over ten seeds.
WORKLOADS = {
    "linear": {"floor": 20.0},
    "serve": {"floor": 2.0},
    # Not in BENCHMARK.json: reproduces the nano-resnet-20 output defect
    # described in README.md ("Known defect").
    "resnet20": {"floor": 2.0},
}

BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 170

# compile_s is the mean over this many fresh processes, each timing the
# compile for COMPILE_SECONDS: one process's compiles ran either about
# 0.8 or about 1.05 ms (linear), whichever process it was, so a single
# process made compile_s spread by 35% over ten seeds.
COMPILE_PROCESSES = 6
COMPILE_SECONDS = 0.4


def die(message, code):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(code)


def revision():
    """The git revision when available, else a hash of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha1()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-" + digest.hexdigest()[:12]


def cpu_times():
    """(steal, total) jiffies of all CPUs, or None off Linux."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return fields[7] if len(fields) > 7 else 0, sum(fields)


def build(build_dir):
    """Configures (once) and builds acebench; returns its path."""
    cmake_dir = os.path.join(build_dir, "cmake")
    os.makedirs(cmake_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    steps = []
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", cmake_dir, "-j4", "--target",
                  "acebench"])
    with open(log_path, "w") as log:
        for step in steps:
            try:
                done = subprocess.run(step, stdout=log,
                                      stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                die("build timed out; see " + log_path, 1)
            if done.returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                die("build failed; see " + log_path, 1)
    return os.path.join(cmake_dir, "acebench")


def run_acebench(command, env, out, workload):
    """Runs acebench and returns the record it wrote to the file out."""
    try:
        done = subprocess.run(command, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("%s timed out after %d s" % (workload, RUN_TIMEOUT_S), 1)
    if done.returncode != 0 or not os.path.exists(out):
        die("acebench exited with %d" % done.returncode, 1)
    with open(out) as f:
        return json.load(f)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        die("--seconds must be positive and --seed non-negative", 2)

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("repository sources not found at " + os.path.join(ROOT, "src"),
            2)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build_dir = os.path.abspath(os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
    binary = build(build_dir)

    results = os.path.join(build_dir, "results")
    os.makedirs(results, exist_ok=True)
    stem = os.path.join(results, "%s-seed%d-trace%d" %
                        (args.workload, args.seed, args.trace))
    command = [binary, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--floor", str(WORKLOADS[args.workload]["floor"]),
               "--json", stem + ".json"]
    if args.trace:
        command += ["--chrome-trace", stem + ".trace.json"]
    # The builtin defaults: no pipeline, backend, budget, fault or
    # telemetry knob leaks in from the caller's environment.
    env = {k: v for k, v in os.environ.items() if not k.startswith("ACE_")}
    if os.path.exists(stem + ".json"):
        os.remove(stem + ".json")
    compile_runs = []
    if not args.trace:
        scratch = stem + ".compile.tmp"
        for _ in range(COMPILE_PROCESSES):
            part = run_acebench(command[:-1] + [scratch, "--compile-seconds",
                                                str(COMPILE_SECONDS)],
                                env, scratch, args.workload)
            os.remove(scratch)
            compile_runs.append(part)
    before = cpu_times()
    record = run_acebench(command, env, stem + ".json", args.workload)
    if compile_runs:
        values = [r["metrics"]["compile_s"]["value"] for r in compile_runs]
        record["metrics"]["compile_s"] = {"value": sum(values) / len(values),
                                          "unit": "s"}
        record["info"]["compile_s_per_process"] = values
        for r in compile_runs:
            record["attempted"] += r["attempted"]
            record["failed"] += r["failed"]
            record["errors"] += r["errors"]
    # Time the hypervisor gave this machine's CPUs to other guests while
    # the run measured: a run with a large share is a noisy one.
    after = cpu_times()
    steal = None
    if before and after and after[1] > before[1]:
        steal = (after[0] - before[0]) / (after[1] - before[1])
    record["info"].update({"workload": args.workload, "seed": args.seed,
                           "trace": args.trace, "seconds": args.seconds,
                           "revision": revision(),
                           "host_steal_share": steal})
    errors = list(record["errors"])
    metrics = {}
    for m in wanted:
        got = record["metrics"].get(m["name"])
        if got is None or not isinstance(got["value"], (int, float)) or \
                not math.isfinite(got["value"]):
            errors.append("metric %s missing or not finite" % m["name"])
            continue
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    record["errors"] = errors
    with open(stem + ".json", "w") as f:
        json.dump(record, f, indent=1)

    info = record["info"]
    print("%s seed %d trace %d  (%s, rescale=%s, packing=%s, backend=%s, "
          "threads=%d, host steal %s)" %
          (args.workload, args.seed, args.trace, info["revision"],
           info["rescale"], info["packing"], info["poly_backend"],
           info["threads"],
           "n/a" if steal is None else "%.1f%%" % (100 * steal)))
    for name, m in metrics.items():
        print("  %-28s %16.6g %s" % (name, m["value"], m["unit"]))
    for e in errors:
        print("  ERROR: " + e)
    print("  record: " + stem + ".json")
    correct = not errors and record["failed"] == 0
    print(json.dumps({"correct": correct,
                      "attempted": max(record["attempted"], 1),
                      "failed": max(record["failed"], len(errors)),
                      "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
