"""Smoke check of the benchmark at its smallest size.

    python3 perfbench/smoke.py

Runs ``run.py --workload all`` for one second per workload, untraced and
traced, and checks that every metric BENCHMARK.json names is printed with
its unit for every workload, and that no request failed.  Exits 1 on the
first run that falls short.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def problems_of(spec: dict, trace: int) -> list:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all", "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=600,
    )
    if proc.returncode:
        return ["--trace %d exited with %d: %s" % (trace, proc.returncode, proc.stderr.strip())]
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    result, summaries = lines[-1], lines[:-1]
    problems = []
    if not result["correct"] or result["failed"]:
        problems.append("--trace %d: %d failed requests" % (trace, result["failed"]))
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    for workload in spec["workloads"]:
        name = workload["name"]
        summary = next((s for s in summaries if s.get("workload") == name), None)
        if summary is None or summary["failed_frac"] != {"value": 0.0, "unit": "fraction"}:
            problems.append("--trace %d %s: failed_frac missing or not 0" % (trace, name))
        printed = {k.split(".", 1)[1]: v for k, v in result["metrics"].items() if k.startswith(name + ".")}
        if set(printed) != set(expected):
            problems.append("--trace %d %s: metrics differ from BENCHMARK.json: %s"
                            % (trace, name, sorted(set(printed) ^ set(expected))))
        for metric, unit in expected.items():
            got = printed.get(metric, {})
            if got.get("unit") != unit:
                problems.append("--trace %d %s: %s printed without unit %s" % (trace, name, metric, unit))
            if not trace and not isinstance(got.get("value"), (int, float)):
                problems.append("--trace 0 %s: %s has no numeric value" % (name, metric))
    return problems


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    problems = problems_of(spec, 0) + problems_of(spec, 1)
    for line in problems:
        print(line)
    print("smoke: %s" % ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
