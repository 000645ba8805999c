#!/usr/bin/env python3
"""Smoke check of the benchmark itself, on the small `tiny` workload.

Run from the root of a checkout:  python3 perfbench/smoke.py

For --trace 0 and --trace 1 it runs perfbench/run.py twice with the same
seed and checks that
  - the result line has exactly the keys correct/attempted/failed/metrics,
    with correct = true and failed = 0;
  - the metrics are exactly those BENCHMARK.json declares for that mode
    (end_to_end, resp. per_layer), each with the declared unit;
  - every count (unit "count") repeats exactly between the two runs.
Exits non-zero on the first violation.
"""
import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "tiny",
           "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"run.py --trace {trace} exited {out.returncode}:\n{out.stderr[-2000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def check(trace, declared):
    first, second = run(trace), run(trace)
    for res in (first, second):
        assert set(res) == {"correct", "attempted", "failed", "metrics"}, res.keys()
        assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1, res
        units = {name: m["unit"] for name, m in res["metrics"].items()}
        assert units == declared, f"trace {trace}: emitted {units}, declared {declared}"
    for name, unit in declared.items():
        if unit == "count":
            a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
            assert a == b, f"count {name} differs between runs: {a} vs {b}"
    print(f"trace {trace}: {len(declared)} metrics emitted; counts repeat exactly")


def main():
    check(0, {m["name"]: m["unit"] for m in SPEC["end_to_end"]})
    check(1, {m["name"]: m["unit"] for m in SPEC["per_layer"]})
    print("smoke check passed")


if __name__ == "__main__":
    main()
