"""Smoke-sized self-test of the end-to-end benchmark harness.

Run from the root of the tree:

    python3 e2ebench/selftest.py

For every workload, traced and untraced, it runs the harness on a tiny
batch and checks that the last stdout line carries exactly the metrics
BENCHMARK.json names for that mode, each finite and with its declared
unit, that the report line before it carries the provenance fields, and
that every operation passes its checks. Finally it feeds the harness a
deliberately wrong expected digest and checks that the operation is
counted as failed.
"""

import json
import math
import subprocess
import sys

PROVENANCE = ["commit", "nproc", "ocaml", "seed", "jobs", "loadavg_before",
              "loadavg_after", "metrics"]


def run(workload, trace, *extra):
    cmd = ["bash", "e2ebench/run.sh", "--workload", workload, "--seed", "1",
           "--seconds", "0.5", "--trace", str(trace), "--smoke", *extra]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        raise AssertionError(f"{cmd} exited {out.returncode}: {out.stderr[-2000:]}")
    lines = out.stdout.strip().split("\n")
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def check(cond, what):
    if not cond:
        raise AssertionError(what)


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    expected = {0: bench["end_to_end"], 1: bench["per_layer"]}
    for w in [wl["name"] for wl in bench["workloads"]]:
        for trace in (0, 1):
            report, result = run(w, trace)
            tag = f"{w} trace={trace}"
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{tag}: result keys {sorted(result)}")
            check(result["correct"] is True and result["failed"] == 0,
                  f"{tag}: {result['failed']} of {result['attempted']} failed")
            check(isinstance(result["attempted"], int) and result["attempted"] >= 1,
                  f"{tag}: attempted {result['attempted']}")
            metrics = result["metrics"]
            names = [m["name"] for m in expected[trace]]
            check(sorted(metrics) == sorted(names),
                  f"{tag}: metric names differ: {set(metrics) ^ set(names)}")
            for m in expected[trace]:
                got = metrics[m["name"]]
                check(isinstance(got["value"], (int, float))
                      and math.isfinite(got["value"]),
                      f"{tag}: {m['name']} = {got['value']}")
                check(got["unit"] == m["unit"],
                      f"{tag}: {m['name']} unit {got['unit']} != {m['unit']}")
            for key in PROVENANCE:
                check(key in report, f"{tag}: report lacks {key}")
            print(f"selftest: {tag} ok ({result['attempted']} operations)")
    report, result = run(bench["workloads"][0]["name"], 0, "--corrupt-pin")
    check(result["failed"] >= 1 and result["correct"] is False,
          f"wrong expected digest not counted: {result}")
    print(f"selftest: wrong digest counted as {result['failed']} failed operations")
    print("selftest: OK")


if __name__ == "__main__":
    try:
        main()
    except AssertionError as e:
        print(f"selftest: FAILED: {e}", file=sys.stderr)
        sys.exit(1)
