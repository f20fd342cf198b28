"""In-process cost of one right-hand side, one bound explicit step, the
model set-up and the field table of one `visc solve`.

Prints one JSON line: microseconds per call, best of 7 repeats, of the
public `rhs` (which binds the field on every call) and of a bound
`_advance` (one step of a run whose field is bound once, as a march does),
for pricing at 401 and 1601 nodes, pricing on a 101x101 grid and the
straightened problem at 401 nodes, all on the desk model at the automatic
scheme; of `barrier_pair` on the desk model with its cache cleared, as
every `visc solve` process pays it (`barrier_pair_desk`); and of
`jsonio.write_csv` of the desk solve's `fields.csv` table, 201 nodes up to
t = 0.9 (`write_csv_desk`).  Timings depend on the host; compare them
within one session.

    python scripts/kernel_timing.py [--repeat 7]
"""

import argparse
import json
import os
import tempfile
import timeit

from visc import jsonio, mbs, solver, transform

BOX = (-4.0, 4.0)


def model_2d():
    """The desk model on two factors, diffusion on both axes."""
    cfg = mbs.default_model().to_dict()
    cfg.update({
        "N": 2, "d": 2,
        "sigma": {"form": "constant", "params": {"matrix": [[0.4, 0.0], [0.0, 0.3]]}},
        "mu": {"form": "sinusoid", "params": {
            "amplitude": [0.05, 0.05], "wavevector": [[1.0, 0.0], [0.0, 1.0]]}},
        "h": {"form": "gaussian-bump", "params": {
            "amplitude": 0.5, "center": [0.0, 0.0], "width": 1.0}},
        "U0": {"form": "gaussian-bump", "params": {
            "amplitude": 0.25, "center": [0.0, 0.0], "width": 1.5}},
    })
    return mbs.model_from_dict(cfg)


def problems():
    m = mbs.default_model()
    pair = mbs.barrier_pair(m)
    gauge = transform.affine_sq_gauge(2.0 / pair.m0, 1.0, (pair.m0, pair.M0))
    transf = transform.Transformation(gauge, margin=0.3 * pair.m0)
    return {
        "pricing_401": solver.PricingProblem(m, solver.GridSpec(box=(BOX,), nodes=(401,))),
        "pricing_1601": solver.PricingProblem(m, solver.GridSpec(box=(BOX,), nodes=(1601,))),
        "pricing_2d_101": solver.PricingProblem(
            model_2d(), solver.GridSpec(box=(BOX,) * 2, nodes=(101, 101))),
        "straightened_401": solver.StraightenedProblem(
            m, transf, solver.GridSpec(box=(BOX,), nodes=(401,))),
    }


def desk_fields_rows():
    """The rows `visc solve` writes to fields.csv for the desk grid."""
    grid = solver.GridSpec(box=(BOX,), nodes=(201,))
    result = solver.solve_problem(solver.PricingProblem(mbs.default_model(), grid), None, 0.9)
    pts = grid.points().reshape(-1, grid.dim)
    return [[f.t, *xk, uk] for f in result.fields for xk, uk in zip(pts, f.values.ravel())]


def best_us(fn, number: int, repeat: int) -> float:
    return min(timeit.repeat(fn, number=number, repeat=repeat)) / number * 1e6


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=7)
    args = ap.parse_args()
    out = {"unit": "us_per_call", "repeat": args.repeat}
    for name, problem in problems().items():
        cfg = solver.auto_config(problem)
        values = problem.initial_values()
        number = max(20, 400_000 // values.size)
        out[f"rhs_{name}"] = best_us(lambda: problem.rhs(values, 0.0, cfg.theta),
                                     number, args.repeat)
        run = problem._bind(values.copy(), cfg.theta)
        out[f"step_{name}"] = best_us(lambda: problem._advance(run, 0.0, cfg.dt),
                                      number, args.repeat)
    m = mbs.default_model()

    def barrier_pair():
        m._cache.clear()
        mbs.barrier_pair(m)

    out["barrier_pair_desk"] = best_us(barrier_pair, 20, args.repeat)
    rows = desk_fields_rows()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fields.csv")
        out["write_csv_desk"] = best_us(
            lambda: jsonio.write_csv(path, ["t", "x1", "U"], rows), 20, args.repeat)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
