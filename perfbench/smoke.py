"""Fast smoke test of the benchmark itself (about 20 seconds).

    python3 perfbench/smoke.py

Runs every workload at the tiny scale, untraced and traced, and asserts
that each run passes its output checks and emits exactly the metrics
BENCHMARK.json declares for that mode, each with its declared unit, and
that every declared metric has a better-direction (end-to-end ones also a
bound). It then runs the benchmark in a directory holding only
BENCHMARK.json and perfbench/, where it must fail without printing a result.
Exits 0 when everything holds.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for mode in ("end_to_end", "per_layer"):
        for m in declared[mode]:
            if m.get("better") not in ("higher", "lower") or not m.get("unit"):
                problems.append(f"{mode} {m['name']}: needs a unit and a better-direction")
            if mode == "end_to_end" and not 0 < m.get("bound", 0) <= 0.25:
                problems.append(f"{m['name']}: bound must be in (0, 0.25]")
    if [w["name"] for w in declared["workloads"]] != list(workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")

    for workload in workloads.WORKLOADS:
        for trace, mode in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(ROOT, workload, trace)
            label = f"{workload} --trace {trace}"
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                problems.append(f"{label}: no result line (exit {proc.returncode})\n{proc.stderr}")
                continue
            if proc.returncode != 0 or not result["correct"] or result["failed"]:
                problems.append(f"{label}: exit {proc.returncode}, result {result}\n{proc.stderr}")
            units = {m["name"]: m["unit"] for m in declared[mode]}
            got = result["metrics"]
            if set(got) != set(units):
                problems.append(f"{label}: missing {sorted(set(units) - set(got))}, "
                                f"undeclared {sorted(set(got) - set(units))}")
            for name, metric in got.items():
                if metric.get("unit") != units.get(name) or not isinstance(metric.get("value"),
                                                                           (int, float)):
                    problems.append(f"{label}: {name} = {metric}")
            print(f"ok   {label}: {len(got)} metrics, {result['attempted']} jobs")

    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(bare, workloads.WORKLOADS[0], 0)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        problems.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    else:
        print(f"ok   bare directory: exit {proc.returncode}, no result")

    for p in problems:
        print(f"FAIL {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
