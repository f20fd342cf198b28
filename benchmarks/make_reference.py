"""Regenerate the committed accuracy references of the benchmark.

    python3 benchmarks/make_reference.py

Each reference is the default desk model solved on a grid 4x finer in space
than the grid it checks (dt follows from the CFL bound), sampled back at the
coarse nodes:

    fine_reference.json   6401 nodes to t = 0.5, checks the 1601-node solve
    desk_reference.json    801 nodes to t = 0.9, checks the 201-node solve

The files record the commit they were made at and this command.  Takes about
half a minute on one core.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from visc import jsonio, mbs, solver  # noqa: E402

COMMAND = "python3 benchmarks/make_reference.py"


def _commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def reference(coarse_nodes: int, t_end: float) -> dict:
    fine_nodes = 4 * (coarse_nodes - 1) + 1
    model = mbs.default_model()
    grid = solver.GridSpec(box=((-4.0, 4.0),), nodes=(fine_nodes,))
    result = solver.solve(model, grid, t_end=t_end, seed=0)
    final = result.final()
    return {
        "model": "mbs.default_model()",
        "box": [[-4.0, 4.0]],
        "reference_nodes": fine_nodes,
        "nodes": coarse_nodes,
        "t": final.t,
        "theta": list(result.cfg.theta),
        "dt": result.cfg.dt,
        "steps": result.flags["steps"],
        "commit": _commit(),
        "command": COMMAND,
        "values": final.values[::4],
    }


def main() -> None:
    data = HERE / "data"
    data.mkdir(exist_ok=True)
    for name, nodes, t_end in (("desk_reference.json", 201, 0.9),
                               ("fine_reference.json", 1601, 0.5)):
        (data / name).write_text(jsonio.dumps(reference(nodes, t_end)))
        print(f"wrote {data / name}")


if __name__ == "__main__":
    main()
