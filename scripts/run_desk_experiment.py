"""Full desk experiment on the default MBS model.

Writes the model/grid configs, solves the pricing equation, tabulates the
barriers, and runs every sampled structural check.  Output lands in
results/desk/ unless overridden.

    python scripts/run_desk_experiment.py [--out results/desk] [--seed 7]
"""

import argparse
from pathlib import Path

from visc import jsonio, mbs, solver
from visc import hamiltonian as ham


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="results/desk")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--samples", type=int, default=10_000)
    args = ap.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    model = mbs.default_model()
    (out / "model.json").write_text(jsonio.dumps(model.to_dict()))

    grid = solver.GridSpec(box=((-4.0, 4.0),), nodes=(201,))
    result = solver.solve(model, grid, t_end=0.9)
    pts = grid.points()[:, 0]
    rows = []
    for f in result.fields:
        rows.extend([f.t, x, u] for x, u in zip(pts, f.values))
    jsonio.write_csv(out / "fields.csv", ["t", "x1", "U"], rows)
    print(f"solve: {result.flags['steps']} steps, "
          f"sandwich ok on all {len(result.fields)} snapshots: "
          f"{all(f.meta['sandwich_ok'] for f in result.fields)}")

    pair = mbs.barrier_pair(model)
    ts = [i * model.T * 0.999 / 999 for i in range(1000)]
    jsonio.write_csv(
        out / "barriers.csv",
        ["t", "k_lower", "k_upper"],
        ([t, pair.k_lower(t), pair.k_upper(t)] for t in ts),
    )

    H = mbs.dm2_hamiltonian(model)
    R = 2.0
    gamma, nu_hat, gauge = mbs.cp7_candidates(model, R)
    reports = [
        mbs.validate_model(model, args.samples, args.seed),
        mbs.barrier_residuals(model, args.samples, args.seed),
        ham.check_degenerate_ellipticity(H, args.samples, args.seed),
        ham.check_gradient_modulus(H, R, args.samples, args.seed),
        ham.check_structure_cp6(H, R, mbs.cp6_candidates(model), args.samples, args.seed),
        ham.check_osgood_structure_cp7(H, gauge, gamma, nu_hat, R, args.samples, args.seed),
    ]
    (out / "reports.json").write_text(jsonio.dumps([r.to_json_dict() for r in reports]))
    for r in reports:
        print(f"  {r.check}: {'pass' if r.passed else 'FAIL'} "
              f"(max violation {r.max_violation:.3e})")

    rd = mbs.regularity_constant(model)
    audit = solver.lipschitz_audit(result.fields, rd)
    print(f"  lipschitz-audit: {'pass' if audit.passed else 'FAIL'} (C = {rd.C:.4g})")
    print(f"artifacts in {out}/")


if __name__ == "__main__":
    main()
