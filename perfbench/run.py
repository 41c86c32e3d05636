#!/usr/bin/env python3
"""Repository benchmark: build couchkv_perfbench from source and run one workload.

    python3 perfbench/run.py --workload kv_read_mostly --seed 1 --seconds 20 --trace 0

Run from the repository root. The binary is built (Release) under
.bench_build/perfbench on first use. Prints the host context and the
binary's full report, then, as the last stdout line, one JSON object with
the keys correct, attempted, failed and metrics: the end_to_end metrics of
BENCHMARK.json with --trace 0, the per_layer metrics with --trace 1.
Arguments after the four above (--docs, --setups, --idle-ms, --corrupt-read,
--corrupt-query, ...) go to the binary unchanged; the tests use them.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "couchkv_perfbench")
RUN_TIMEOUT_S = 150
LOAD_WAIT_S = 15


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures once, then builds incrementally. Output goes to stderr."""
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no couchkv sources (src/CMakeLists.txt) next to perfbench/")
        return False
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                  "--target", "couchkv_perfbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def source_digest():
    """Digest of the sources the binary is built from (the checkout the
    benchmark runs in is not necessarily a git repository)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "none"
    except OSError:
        return "none"


def cpu_mhz():
    mhz = []
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("cpu MHz"):
                    mhz.append(float(line.split(":")[1]))
    except OSError:
        pass
    return round(sum(mhz) / len(mhz), 1) if mhz else None


def run_binary(args, extra):
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans-out", os.path.join(
            OUT_DIR, f"spans-{args.workload}-{args.seed}.jsonl")]
    proc = subprocess.run(cmd + extra, stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"benchmark binary failed (exit {proc.returncode})")
        return None
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args, extra = parser.parse_known_args()

    spec = benchmark_spec()
    if not build():
        return 3
    os.makedirs(OUT_DIR, exist_ok=True)

    nproc = len(os.sched_getaffinity(0))
    # The host is shared. Give a busy host a short while to calm down; a run
    # that still starts with the load average above the core count is
    # flagged, and spread.py keeps flagged runs out of its results. The load
    # after the run is only recorded: this benchmark's own threads raise it.
    deadline = time.monotonic() + LOAD_WAIT_S
    while os.getloadavg()[0] > nproc and time.monotonic() < deadline:
        time.sleep(1)
    load_before = os.getloadavg()[0]
    report = run_binary(args, extra)
    if report is None:
        return 4
    load_after = os.getloadavg()[0]

    context = {
        "nproc": nproc,
        "cpu_mhz": cpu_mhz(),
        "load_before": load_before,
        "load_after": load_after,
        "overloaded": load_before > nproc,
        "build_type": "Release",
        "commit": git_commit(),
        "source_digest": source_digest(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    correct = report["failed"] == 0 and report["durable_lost"] == 0
    section = "per_layer" if args.trace else "end_to_end"
    result = {
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"] + report["durable_lost"],
        "metrics": {m["name"]: report["metrics"][m["name"]]
                    for m in spec[section]},
    }
    with open(os.path.join(OUT_DIR, "runs.jsonl"), "a") as f:
        f.write(json.dumps({"context": context, "report": report}) + "\n")
    print(json.dumps({"context": context}))
    print(json.dumps({"report": report}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
