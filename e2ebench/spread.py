"""Seed-to-seed spread of the end-to-end metrics.

Run from the root of the tree:

    python3 e2ebench/spread.py WORKLOAD [SEED ...]

Runs the benchmark once per seed (default seeds 1-10) with tracing off
and BENCHMARK.json's run_seconds. For each end-to-end metric it prints
the median and the spread, (Q3 - Q1) / median as statistics.quantiles
gives them, next to the metric's bound. A spread above a third of its
bound is flagged; setup_s is exempt.
"""

import json
import statistics
import subprocess
import sys


def main():
    workload = sys.argv[1]
    seeds = sys.argv[2:] or [str(s) for s in range(1, 11)]
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    values = {m["name"]: [] for m in bench["end_to_end"]}
    incorrect = 0
    for seed in seeds:
        out = subprocess.run(
            bench["command"] + ["--workload", workload, "--seed", seed,
                                "--seconds", str(bench["run_seconds"]),
                                "--trace", "0"],
            capture_output=True, text=True, check=True)
        result = json.loads(out.stdout.strip().split("\n")[-1])
        incorrect += not result["correct"]
        for name, m in result["metrics"].items():
            values[name].append(m["value"])
        print(f"seed {seed}: correct={result['correct']} "
              + " ".join(f"{n}={m['value']:.4g}"
                         for n, m in result["metrics"].items()), flush=True)
    for m in bench["end_to_end"]:
        v = values[m["name"]]
        med = statistics.median(v)
        q = statistics.quantiles(v, n=4) if len(v) > 1 else [med, med, med]
        spread = (q[2] - q[0]) / med if med else float("nan")
        flag = ("" if m["name"] == "setup_s" or spread < m["bound"] / 3
                else "  <-- above bound/3")
        print(f"{m['name']:18} median {med:<12.6g} spread {spread:.4f} "
              f"bound {m['bound']}{flag}")
    print(f"incorrect runs: {incorrect}")


if __name__ == "__main__":
    main()
