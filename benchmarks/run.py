"""The visc benchmark: one seeded workload, one caller, closed loop.

    python3 benchmarks/run.py --workload desk --seed 1 --seconds 24 --trace 0

Each op starts only after the previous one finished; ops run until
--seconds have passed.  With --trace 0 the last stdout line is the
end-to-end metrics; with --trace 1 it is the per-layer metrics from spans,
and ops alternate between traced and untraced so the tracing overhead is
measured in the same process.  Human-readable lines
(every metric with its unit, the environment) come before the JSON line.
See benchmarks/README.md for the workloads and the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# one BLAS thread: the machine has few cores and ops are single-caller
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 4          # fresh interpreters timed besides this one
TAIL_BEYOND = 10          # ops beyond the tail percentile

SPAN_TIMES = [
    "mbs.load_model", "mbs.barrier_pair", "mbs.validate_model",
    "mbs.barrier_residuals", "mbs.candidates", "solver.theta", "solver.march",
    "solver.transformed_march", "solver.map_back", "transform.build",
    "hamiltonian.ellipticity", "hamiltonian.gradient_modulus", "hamiltonian.cp6",
    "hamiltonian.cp7", "solver.mc_oracle", "jsonio.write",
]
MARCH_SPANS = ("solver.march", "solver.transformed_march")


def setup(workload: str, seed: int, work: Path):
    """Import the CLI and build the workload's inputs; the timed set-up."""
    t0 = time.perf_counter()
    import visc.cli  # noqa: F401

    t_import = time.perf_counter() - t0
    import workloads

    wl = workloads.WORKLOADS[workload](seed, work)
    return wl, t_import, time.perf_counter() - t0


def probe_setup(workload: str, seed: int) -> float:
    """Set-up time of a fresh interpreter, run as a child process."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])


def environment() -> dict:
    import numpy
    import platform
    import scipy

    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"],
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "cpu": "unknown",
    }
    try:
        with open("/proc/cpuinfo") as fh:
            env["cpu"] = next(ln.split(":", 1)[1].strip() for ln in fh
                              if ln.startswith("model name"))
        for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (idx / "level").read_text().strip()
            if level in ("2", "3"):
                env[f"L{level}"] = (idx / "size").read_text().strip()
    except (OSError, StopIteration):
        pass
    return env


def tail(lat: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with TAIL_BEYOND ops beyond it, and
    that percentile.  Below 2 * TAIL_BEYOND ops no percentile above the
    median is resolved, and the (lower) median is reported; the choice is
    continuous in the op count."""
    s = sorted(lat)
    n = len(s)
    k = max(n - 1 - TAIL_BEYOND, (n + 1) // 2 - 1)
    return s[k], 100.0 * (k + 1) / n


def run_loop(wl, seconds: float, trace: bool, tracer):
    from workloads import OpResult

    log = []
    # traced: op 0 (whose counts are reported) and 2, untraced op 1
    min_ops = 3 if trace else 1
    start = time.perf_counter()
    i = 0
    while i < min_ops or time.perf_counter() - start < seconds:
        tracer.enabled = trace and i % 2 == 0
        tracer.op_id = i
        t0 = time.perf_counter()
        with tracer.span("op"):
            try:
                res = wl.op(i, tracer)
            except Exception as exc:  # a crashing op is a failed op
                res = OpResult(ok=False, reason=f"{type(exc).__name__}: {exc}")
        log.append({"i": i, "lat": time.perf_counter() - t0,
                    "traced": tracer.enabled, "res": res})
        i += 1
    tracer.enabled = False
    return log, time.perf_counter() - start


def end_to_end(log, wall, setups, err) -> tuple[dict, dict]:
    lat = [e["lat"] for e in log]
    failed = sum(not e["res"].ok for e in log)
    tail_s, pct = tail(lat)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "op_p50_s": (statistics.median(lat), "s"),
        "op_tail_s": (tail_s, "s"),
        "ops_per_s": (len(log) / wall, "1/s"),
        "ok_ratio": ((len(log) - failed) / len(log), "1"),
        "err_max": (err, "1"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = {"op_tail_s": f"  (percentile {pct:.1f} of {len(log)} ops)",
             "ok_ratio": f"  (fail_ratio = {failed / len(log)!r})",
             "setup_s": f"  (median of {setups})"}
    return metrics, notes


def per_layer(log, tracer, t_import: float) -> tuple[dict, dict]:
    from spans import self_times

    selfs = self_times(tracer.spans)
    traced = [e for e in log if e["traced"]]
    first = log[0]["res"].counts   # op 0 is always traced

    def per_op(name):
        vals = [selfs[e["i"]][name] for e in traced if name in selfs[e["i"]]]
        return statistics.median(vals) if vals else 0.0

    def total(name):
        return sum(selfs[e["i"]].get(name, 0.0) for e in traced)

    def rate(key, spans):
        busy = sum(total(s) for s in spans)
        work = sum(e["res"].counts.get(key, 0) for e in traced)
        return work / busy if busy > 0.0 else 0.0

    m = {f"{name}_s": (per_op(name), "s") for name in SPAN_TIMES}
    m["cli.import_s"] = (t_import, "s")
    m["solver.theta"] = (first.get("theta", 0.0), "1")
    m["solver.dt"] = (first.get("dt", 0.0), "1")
    m["solver.steps"] = (first.get("steps", 0), "count")
    m["solver.node_steps"] = (first.get("node_steps", 0), "count")
    m["solver.node_steps_per_s"] = (rate("node_steps", MARCH_SPANS), "1/s")
    m["solver.map_back_gap"] = (first.get("gap", 0.0), "1")
    m["solver.mc_path_steps_per_s"] = (rate("path_steps", ["solver.mc_oracle"]), "1/s")
    ham_spans = [s for s in SPAN_TIMES if s.startswith("hamiltonian.")]
    m["hamiltonian.samples_per_s"] = (rate("ham_samples", ham_spans), "1/s")
    attempts, accepts = first.get("cp6_attempts", 0), first.get("cp6_accepts", 0)
    m["hamiltonian.cp6_attempts"] = (attempts, "count")
    m["hamiltonian.cp6_accepts"] = (accepts, "count")
    m["hamiltonian.cp6_accept_ratio"] = (accepts / attempts if attempts else 0.0, "1")
    m["jsonio.bytes"] = (first.get("bytes", 0), "count")

    # op 0 carries first-call costs (cached barriers, lazy imports)
    on = [e["lat"] for e in traced[1:]]
    off = [e["lat"] for e in log if not e["traced"]]
    m["trace.overhead_s"] = (statistics.median(on) - statistics.median(off), "s")
    m["trace.spans_per_op"] = (len(tracer.spans) / len(traced), "count")
    return m, {"self_times": {str(k): v for k, v in selfs.items()}}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["desk", "fine", "checks", "oracle"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=24.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()

    if not (SRC / "visc" / "__init__.py").is_file():
        print(f"benchmark: no visc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]

    tag = f"{args.workload}-s{args.seed}-p{os.getpid()}"
    work = OUT / tag
    try:
        if args.setup_probe:
            print(json.dumps({"setup_s": setup(args.workload, args.seed, work)[2]}))
            return 0
        return measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, work: Path) -> int:
    from spans import Tracer

    tracer = Tracer()
    wl, t_import, t_setup = setup(args.workload, args.seed, work)
    import workloads

    if not args.trace:
        setups = [t_setup] + [probe_setup(args.workload, args.seed)
                              for _ in range(SETUP_PROBES)]
    log, wall = run_loop(wl, args.seconds, bool(args.trace), tracer)
    failed = [e for e in log if not e["res"].ok]
    correct = not failed
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "ops": len(log), "rejected_draws": getattr(wl, "rejected", 0),
            **environment()}

    notes: dict = {}
    if args.trace:
        metrics, detail = per_layer(log, tracer, t_import)
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"trace-{args.workload}-s{args.seed}.json",
                    {"info": info, **detail,
                     "metrics": {k: v[0] for k, v in metrics.items()}})
    else:
        errs = [e["res"].err for e in log if e["res"].err is not None]
        if errs:
            err = max(errs)
        else:
            err = workloads.desk_probe_error()
            correct = correct and err <= workloads.ERR_TOL
        metrics, notes = end_to_end(log, wall, setups, err)

    for k, v in info.items():
        print(f"# {k} = {v}")
    for e in failed:
        print(f"# failed op {e['i']}: {e['res'].reason}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}{notes.get(name, '')}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(log),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
