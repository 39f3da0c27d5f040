#!/usr/bin/env python3
"""Smoke-sized self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload on tiny inputs, untraced and traced, and asserts that
each run exits 0, that its last stdout line is the result object, that it
emits exactly the metrics BENCHMARK.json names (with the same units), that
every end-to-end metric is nonzero, that no operation failed, and that the
traced run wrote a parseable Chrome trace.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    assert p.returncode == 0, f"{workload} trace={trace}: exit {p.returncode}\n{p.stderr[-3000:]}"
    return json.loads(p.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for w in (x["name"] for x in spec["workloads"]):
        for trace in (0, 1):
            r = run(w, trace)
            assert set(r) == {"correct", "attempted", "failed", "metrics"}, r.keys()
            got = {k: v["unit"] for k, v in r["metrics"].items()}
            assert got == wanted[trace], (
                f"{w} trace={trace}: missing {sorted(set(wanted[trace]) - set(got))}, "
                f"extra {sorted(set(got) - set(wanted[trace]))}, or unit mismatch")
            assert r["correct"] is True and r["failed"] == 0 and r["attempted"] >= 1, r
            if trace == 0:
                zero = [k for k, v in r["metrics"].items() if v["value"] == 0]
                assert not zero, f"{w}: end-to-end metrics read 0: {zero}"
            else:
                assert r["metrics"]["bench.fail_frac"]["value"] == 0
                path = os.path.join(ROOT, ".bench_build", "out", f"trace_{w}_seed7.json")
                with open(path) as f:
                    events = json.load(f)["traceEvents"]
                assert events and all(e["ph"] == "X" for e in events)
            print(f"ok {w} trace={trace} attempted={r['attempted']}")
    print("selftest passed")


if __name__ == "__main__":
    main()
