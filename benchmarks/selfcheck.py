"""Self-check of the benchmark harness.

    python3 benchmarks/selfcheck.py

Runs every workload at its smallest size (--seconds 1: one op untraced,
three ops traced) and asserts that

  * every metric named in BENCHMARK.json is printed, with its unit, and no
    other metric is;
  * every op passes its correctness gate;
  * the exact counts of the traced run repeat across two runs of one seed;
  * without the visc sources the benchmark exits nonzero and prints no result.

Takes about three minutes on two cores.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXACT = ["solver.steps", "solver.node_steps", "solver.theta", "solver.dt",
         "solver.map_back_gap", "jsonio.bytes", "hamiltonian.cp6_attempts",
         "hamiltonian.cp6_accepts", "hamiltonian.cp6_accept_ratio"]


def run(cwd: Path, workload: str, seed: int, trace: int):
    cmd = [sys.executable, "benchmarks/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def result(proc) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(res: dict, spec: list[dict], label: str) -> None:
    want = {m["name"]: m["unit"] for m in spec}
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    if got != want:
        raise AssertionError(f"{label}: metrics/units {got} != {want}")
    if not (res["correct"] and res["failed"] == 0 and res["attempted"] >= 1):
        raise AssertionError(f"{label}: {res['attempted']} ops, {res['failed']} failed")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in (w["name"] for w in bench["workloads"]):
        check_metrics(result(run(ROOT, w, 3, 0)), bench["end_to_end"], f"{w} untraced")
        a, b = (result(run(ROOT, w, 3, 1)) for _ in range(2))
        check_metrics(a, bench["per_layer"], f"{w} traced")
        for name in EXACT:
            va, vb = a["metrics"][name]["value"], b["metrics"][name]["value"]
            if va != vb:
                raise AssertionError(f"{w}: {name} differs across reruns: {va} != {vb}")
        print(f"ok {w}")

    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "benchmarks",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run(bare, "desk", 3, 0)
        if proc.returncode == 0 or proc.stdout.strip():
            raise AssertionError("benchmark ran without the visc sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok bare directory")
    return 0


if __name__ == "__main__":
    sys.exit(main())
