#!/usr/bin/env python3
"""Builds and runs the end-to-end + per-layer benchmark (see README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --compare BASE.json NEW.json

A run builds perfbench/ (and the library sources in src/) into .bench_build/,
runs one workload, forwards the benchmark's human-readable report, keeps the
full record (machine fingerprint, all metrics, spans) under
.bench_build/results/, and prints as its last line the result object with
the metrics BENCHMARK.json lists: end_to_end for --trace 0, per_layer for
--trace 1. It exits non-zero when any output check fails.

--compare prints the change of every metric between two records and
refuses (exit 3) when their fingerprints differ.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD = ROOT / ".bench_build"
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "src" / "sim" / "experiment.hpp").is_file():
        fail(f"library sources not found under {ROOT / 'src'}", 2)
    BUILD.mkdir(exist_ok=True)
    log = BUILD / "build.log"
    with open(BUILD / ".lock", "w") as lock, open(log, "w") as out:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD / "CMakeCache.txt").exists():
            configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD),
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            steps.append(configure)
        steps.append(["cmake", "--build", str(BUILD), "-j",
                      str(os.cpu_count() or 1)])
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              check=False).returncode != 0:
                out.flush()
                sys.stderr.write(log.read_text()[-4000:])
                fail("build failed")


def gbench_build_type():
    """google-benchmark's own build type, as its JSON context reports it."""
    probe = BUILD / "gbench_probe"
    if not probe.exists():
        return "absent"
    done = subprocess.run([str(probe), "--benchmark_format=json"],
                          capture_output=True, text=True, timeout=60,
                          check=False)
    try:
        return json.loads(done.stdout)["context"]["library_build_type"]
    except (ValueError, KeyError):
        return "unknown"


def contract_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def run(args):
    build()
    results = BUILD / "results"
    results.mkdir(exist_ok=True)
    record_path = results / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    record_path.unlink(missing_ok=True)
    cmd = [str(BUILD / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(record_path),
           "--gbench", gbench_build_type()]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stdout.write(done.stdout)
    if not record_path.exists() or done.returncode not in (0, 1):
        fail(f"benchmark exited with code {done.returncode}")
    record = json.loads(record_path.read_text())

    metrics = {}
    for m in contract_metrics(args.trace):
        got = record["metrics"].get(m["name"])
        if got is None or got["value"] is None:
            fail(f"benchmark did not report {m['name']}")
        if got["unit"] != m["unit"]:
            fail(f"{m['name']} is in {got['unit']}, BENCHMARK.json says "
                 f"{m['unit']}")
        metrics[m["name"]] = got
    print(json.dumps({"correct": record["correct"],
                      "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}),
          flush=True)
    return 0 if record["correct"] and done.returncode == 0 else 1


def compare(base_path, new_path):
    base = json.loads(Path(base_path).read_text())
    new = json.loads(Path(new_path).read_text())
    if base["fingerprint"] != new["fingerprint"]:
        for key in sorted(set(base["fingerprint"]) | set(new["fingerprint"])):
            a, b = base["fingerprint"].get(key), new["fingerprint"].get(key)
            if a != b:
                print(f"fingerprint differs: {key}: {a} vs {b}",
                      file=sys.stderr)
        fail("refusing to compare results from different fingerprints", 3)
    if (base["workload"], base["trace"]) != (new["workload"], new["trace"]):
        fail("refusing to compare different workloads or trace modes", 3)
    spec = {m["name"]: m for m in contract_metrics(base["trace"])}
    print(f"{'metric':34} {'base':>14} {'new':>14} {'change':>9}")
    for name, b in base["metrics"].items():
        n = new["metrics"].get(name)
        if n is None or b["value"] is None or n["value"] is None:
            continue
        change = (n["value"] - b["value"]) / b["value"] if b["value"] else 0.0
        note = ""
        m = spec.get(name)
        if m and "bound" in m:
            worse = change if m["better"] == "lower" else -change
            note = " REGRESSION" if worse > m["bound"] else ""
        print(f"{name:34} {b['value']:14.6g} {n['value']:14.6g} "
              f"{change:+9.2%} {b['unit']}{note}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    if not args.workload:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
