#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload kv_read_mostly --seeds 1-10
    python3 perfbench/spread.py --workload kv_read_mostly --seeds 11-20 \\
        --compare .bench_out/spread-kv_read_mostly-1-10.json

Runs perfbench/run.py once per seed (one after another), skips runs flagged
as overloaded, and prints for each end_to_end metric of BENCHMARK.json the
median, the quartiles (statistics.quantiles, n=4) and the spread
(q3 - q1) / median against the metric's bound. setup_s has no spread gate.
With --compare, also checks that no median got worse than the earlier set's
by more than the bound. Exits 1 if a gate fails. The figures are saved to
.bench_out/spread-<workload>-<seeds>.json.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    if out.returncode != 0:
        sys.exit(f"seed {seed}: run.py exited {out.returncode}")
    lines = [json.loads(line) for line in out.stdout.strip().splitlines()]
    context = next(l["context"] for l in lines if "context" in l)
    return context, lines[-1]


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf")}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--compare")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in parse_seeds(args.seeds):
        context, result = run_once(args.workload, seed, seconds)
        if context["overloaded"]:
            print(f"seed {seed}: overloaded host, run left out")
            continue
        if not result["correct"]:
            print(f"seed {seed}: INCORRECT ({result['failed']} failed)")
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + " ".join(
            f"{n}={result['metrics'][n]['value']:.4g}" for n in values),
            flush=True)

    earlier = {}
    if args.compare:
        with open(args.compare) as f:
            earlier = json.load(f)["metrics"]
    ok = True
    summary = {}
    print(f"\n{'metric':<16}{'median':>12}{'q1':>12}{'q3':>12}"
          f"{'spread':>9}{'bound':>7}  verdict")
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        s = summarize(values[name])
        summary[name] = s
        verdict = []
        if name != "setup_s":
            if s["spread"] > bound:
                verdict.append("SPREAD OVER BOUND")
                ok = False
            elif s["spread"] > bound / 3:
                verdict.append("spread over bound/3")
        if name in earlier:
            base = earlier[name]["median"]
            worse = (s["median"] - base) / base
            if m["better"] == "higher":
                worse = -worse
            verdict.append(f"vs earlier {worse:+.3f}")
            if worse > bound:
                verdict.append("MEDIAN WORSE THAN BOUND")
                ok = False
        print(f"{name:<16}{s['median']:>12.4g}{s['q1']:>12.4g}{s['q3']:>12.4g}"
              f"{s['spread']:>9.3f}{bound:>7.2f}  {' '.join(verdict) or 'ok'}")

    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    path = os.path.join(ROOT, ".bench_out",
                        f"spread-{args.workload}-{args.seeds}.json")
    with open(path, "w") as f:
        json.dump({"workload": args.workload, "seeds": args.seeds,
                   "metrics": summary, "values": values}, f, indent=1)
    print(f"\nsaved {os.path.relpath(path, ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
