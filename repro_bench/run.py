#!/usr/bin/env python3
"""Build and run the reproduction benchmark.

Usage (from the repository root):
    python3 repro_bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Compiles repro_bench/ (which compiles the simulator from src/) into
.bench_build/repro_bench, runs the benchmark's self-checks, then runs one
measurement. Build output goes to stderr. The last stdout line is the result
object {"correct", "attempted", "failed", "metrics"}; the full record with its
provenance is also written to .bench_build/results/.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "repro_bench")
RESULTS = os.path.join(ROOT, ".bench_build", "results")
REFERENCE = os.path.join(HERE, "reference", "digests.tsv")
WORKLOADS = ["epidemic-droppers", "delegation-deviants", "vanilla-baselines", "figure-sweep"]
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
RUN_TIMEOUT_S = 170
# Each process lays out code and heap differently, which moves run CPU by a
# few percent per process; averaging two processes halves that variance.
END_TO_END_PROCESSES = 2


def fail(message, code=2):
    print("error: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources (src/CMakeLists.txt) not found next to " + HERE)
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build step failed: " + " ".join(cmd))


def check_result_line(line):
    """Parse a result line and check its shape; returns the object."""
    obj = json.loads(line)
    if set(obj) != RESULT_KEYS:
        raise ValueError("result keys %s" % sorted(obj))
    if not isinstance(obj["correct"], bool):
        raise ValueError("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(obj[key], int) or isinstance(obj[key], bool) or obj[key] < 0:
            raise ValueError(key + " is not a whole number")
    if obj["attempted"] < 1:
        raise ValueError("attempted < 1")
    for name, metric in obj["metrics"].items():
        if set(metric) != {"value", "unit"} or not isinstance(metric["value"], (int, float)):
            raise ValueError("malformed metric " + name)
    return obj


def self_check(binary):
    proc = subprocess.run([binary, "--self-check"], capture_output=True, text=True,
                          timeout=60)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    try:
        obj = check_result_line(lines[-1])
        ok = proc.returncode == 0 and obj["correct"] and obj["attempted"] == 3
        ok = ok and obj["metrics"]["proto.codec.frames_encoded"]["value"] == 243117
        ok = ok and obj["metrics"]["total_cpu_s"]["value"] == 2.0 / 3.0
    except (IndexError, KeyError, ValueError) as exc:
        sys.stderr.write("self-check output unreadable: %s\n" % exc)
        ok = False
    if not ok:
        fail("benchmark self-checks failed", 3)


def combine(results):
    """One result from several processes' results: counts add up, each metric
    is the mean of the processes' values."""
    metrics = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        value = sum(values) / len(values)
        if all(isinstance(v, int) for v in values) and value == int(value):
            value = int(value)
        metrics[name] = {"value": value, "unit": first["unit"]}
    return {"correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics}


def declared_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, if the file is present."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def revision():
    """git revision when the checkout is a repository, plus a hash of the sources."""
    try:
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10).stdout.strip() or "no-git"
    except OSError:
        rev = "no-git"
    digest = hashlib.sha256()
    for top in ("src", os.path.relpath(HERE, ROOT)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "%s+src:%s" % (rev, digest.hexdigest()[:12])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build()
    binary = os.path.join(BUILD, "g2g_repro_bench_traced" if args.trace else "g2g_repro_bench")
    self_check(binary)

    # The end-to-end pass runs in END_TO_END_PROCESSES processes, each with an
    # equal share of the time and its own cell order.
    processes = 1 if args.trace else END_TO_END_PROCESSES
    rev = revision()
    outputs = []
    for k in range(processes):
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed * processes + k),
               "--seconds", str(args.seconds / processes), "--trace", str(args.trace),
               "--reference", REFERENCE, "--rev", rev]
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                                  timeout=RUN_TIMEOUT_S / processes)
        except subprocess.TimeoutExpired:
            fail("benchmark run exceeded %d s" % (RUN_TIMEOUT_S / processes))
        lines = proc.stdout.strip().splitlines()
        if len(lines) < 2:
            fail("benchmark printed no result (exit %d)" % proc.returncode)
        try:
            result = check_result_line(lines[-1])
            provenance = json.loads(lines[-2])["provenance"]
        except (KeyError, ValueError) as exc:
            fail("unreadable benchmark output: %s" % exc)
        outputs.append((proc.returncode, provenance, result))

    result = combine([r for _, _, r in outputs])
    declared = declared_metrics(args.trace)
    if declared is not None and declared != set(result["metrics"]):
        fail("emitted metrics differ from BENCHMARK.json: %s"
             % sorted(declared ^ set(result["metrics"])))

    os.makedirs(RESULTS, exist_ok=True)
    record = os.path.join(RESULTS, "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    with open(record, "w") as f:
        json.dump({"processes": [{"provenance": p, "result": r} for _, p, r in outputs],
                   "result": result}, f, indent=1)
    print(json.dumps({"provenance": [p for _, p, _ in outputs]}))
    print(json.dumps(result))
    return max(code for code, _, _ in outputs)


if __name__ == "__main__":
    sys.exit(main())
