"""Command-line front end.

Subcommands dispatch runs and checks and write CSV/JSON artifacts into an
output directory, together with a manifest listing every file written and a
hash of the resolved configuration.  Exit codes: 0 all checks pass, 1
configuration error, 2 scientific check failure or numerical blow-up.
"""

from __future__ import annotations

import hashlib
import json
import sys
from contextlib import contextmanager
from pathlib import Path

import click
import numpy as np

from . import jsonio, mbs, osgood, solver
from .errors import BlowUpError, ConfigurationError, ModelError, ViscError
from .forms import integer, parse_field, refuse_unknown
from .hamiltonian import (
    check_degenerate_ellipticity,
    check_gradient_modulus,
    check_osgood_structure_cp7,
    check_structure_cp6,
)
from .transform import Transformation, gauge_from_identifier

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_CHECK = 2


class Artifacts:
    """Collects output files for the manifest."""

    def __init__(self, out_dir: str, config: dict):
        self.dir = Path(out_dir)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.config = config
        self.files: list[str] = []

    def path(self, name: str) -> Path:
        self.files.append(name)
        return self.dir / name

    def write_json(self, name: str, obj) -> None:
        self.path(name).write_text(jsonio.dumps(obj))

    def finalize(self) -> None:
        text = jsonio.dumps(self.config)
        manifest = {
            "config": self.config,
            "config_sha256": hashlib.sha256(text.encode()).hexdigest(),
            "files": sorted(self.files),
        }
        (self.dir / "manifest.json").write_text(jsonio.dumps(manifest))


@contextmanager
def _parsing(what: str):
    """Turn a malformed outside input (a missing field, a value of the wrong
    type, text that is not JSON) into a ConfigurationError naming it; a
    ConfigurationError raised while parsing gets the same prefix."""
    try:
        yield
    except ConfigurationError as exc:
        raise ConfigurationError(f"{what}: {exc}") from exc
    except ViscError:
        raise
    except KeyError as exc:
        raise ConfigurationError(f"{what}: missing field {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{what}: not valid JSON ({exc})") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"{what}: {exc}") from exc


def _load_model(path: str) -> mbs.MbsModel:
    with _parsing(f"model file {path}"):
        return mbs.load_model(path)


def _load_grid(path: str) -> solver.GridSpec:
    with _parsing(f"grid file {path}"), open(path) as fh:
        cfg = json.load(fh)
        refuse_unknown(cfg, ("box", "nodes", "padding"))
        return solver.GridSpec(
            box=parse_field(cfg, "box", lambda box: tuple(tuple(map(float, b)) for b in box)),
            nodes=parse_field(cfg, "nodes", lambda nodes: tuple(map(integer, nodes))),
            padding=parse_field(cfg, "padding", integer, default=2),
        )


def _load_scheme(path: str, problem) -> solver.SchemeConfig:
    with _parsing(f"scheme file {path}"), open(path) as fh:
        cfg = json.load(fh)
        refuse_unknown(cfg, ("theta", "dt", "record_every"))
        theta, dt = cfg.get("theta", "auto"), cfg.get("dt", "auto")
        if theta != "auto":
            theta = parse_field(cfg, "theta", lambda th: tuple(map(float, th)))
        if dt != "auto":
            dt = parse_field(cfg, "dt")
        record_every = parse_field(cfg, "record_every", integer, default=100)
    if theta == "auto":
        theta = solver.estimate_theta(problem)
    with _parsing(f"scheme file {path}"):
        # stable_dt refuses a theta without one entry per grid axis
        dt = solver.stable_dt(problem, theta) if dt == "auto" else dt
        return solver.SchemeConfig(theta=tuple(theta), dt=float(dt), record_every=record_every)


def _guard(fn):
    """Map a numerical blow-up to exit code 2 and other package errors to
    exit code 1 with the offending field named; anything else is a bug and
    surfaces as a traceback."""
    import functools

    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except BlowUpError as exc:
            click.echo(f"numerical failure: {exc}", err=True)
            sys.exit(EXIT_CHECK)
        except ViscError as exc:
            click.echo(f"configuration error: {exc}", err=True)
            sys.exit(EXIT_CONFIG)

    return wrapped


@click.group()
def main():
    """Numerical engine and hypothesis checkers for the degenerate
    quasilinear pricing equation."""


@main.command("solve")
@click.option("--model", "model_path", required=True, type=click.Path(exists=True))
@click.option("--grid", "grid_path", required=True, type=click.Path(exists=True))
@click.option("--scheme", "scheme_path", default=None, type=click.Path(exists=True))
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--t-end", type=float, default=None)
@_guard
def cmd_solve(model_path, grid_path, scheme_path, out_dir, t_end):
    """March the pricing equation and write field snapshots and the
    barrier-sandwich report."""
    model = _load_model(model_path)
    grid = _load_grid(grid_path)
    problem = solver.PricingProblem(model, grid)
    cfg = None if scheme_path is None else _load_scheme(scheme_path, problem)
    result = solver.solve_problem(problem, cfg, t_end)
    config = {
        "command": "solve", "model": model.to_dict(), "grid": grid_path, "t_end": t_end,
    }
    art = Artifacts(out_dir, config)
    pts = grid.points().reshape(-1, grid.dim)
    rows = []
    for f in result.fields:
        for xk, uk in zip(pts, f.values.ravel()):
            rows.append([f.t, *xk, uk])
    jsonio.write_csv(
        art.path("fields.csv"),
        ["t"] + [f"x{i+1}" for i in range(grid.dim)] + ["U"],
        rows,
    )
    sandwich = [
        {k: f.meta[k] for k in ("k_lower", "k_upper", "sandwich_tol",
                                "sandwich_excess", "sandwich_ok")}
        | {"t": f.t}
        for f in result.fields
    ]
    ok = all(s["sandwich_ok"] for s in sandwich)
    art.write_json("sandwich.json", {"fields": sandwich, "flags": result.flags, "pass": ok})
    art.finalize()
    sys.exit(EXIT_OK if ok else EXIT_CHECK)


@main.command("check-conditions")
@click.option("--model", "model_path", required=True, type=click.Path(exists=True))
@click.option("--samples", type=int, default=10_000)
@click.option("--seed", type=int, default=7)
@click.option("--radius", "R", type=float, default=2.0)
@click.option("--out", "out_dir", default=None, type=click.Path())
@_guard
def cmd_check_conditions(model_path, samples, seed, R, out_dir):
    """Run every sampled structural check against one model."""
    model = _load_model(model_path)
    reports = [
        mbs.validate_model(model, samples, seed),
        mbs.barrier_residuals(model, samples, seed),
    ]
    try:
        H = mbs.dm2_hamiltonian(model)
    except ModelError as exc:
        # positivity failed; validate-model has already recorded why
        click.echo(f"structural checks skipped: {exc}", err=True)
        H = None
    if H is not None:
        reports.append(check_degenerate_ellipticity(H, samples, seed))
        reports.append(check_gradient_modulus(H, R, samples, seed))
        nu2, nu2R = mbs.cp6_candidates(model)
        reports.append(check_structure_cp6(H, R, (nu2, nu2R), samples, seed))
        if model.rho > 0.0:
            gamma, nu_hat, gauge = mbs.cp7_candidates(model, R)
            reports.append(
                check_osgood_structure_cp7(H, gauge, gamma, nu_hat, R, samples, seed)
            )
    payload = [r.to_json_dict() for r in reports]
    ok = all(r.passed for r in reports)
    if out_dir is not None:
        config = {"command": "check-conditions", "model": model.to_dict(),
                  "samples": samples, "seed": seed, "radius": R}
        art = Artifacts(out_dir, config)
        art.write_json("reports.json", payload)
        art.finalize()
    else:
        click.echo(jsonio.dumps(payload), nl=False)
    for r in reports:
        click.echo(f"[{'PASS' if r.passed else 'FAIL'}] {r.check}: "
                   f"max_violation={jsonio.fmt(r.max_violation)}", err=True)
    sys.exit(EXIT_OK if ok else EXIT_CHECK)


@main.command("barriers")
@click.option("--model", "model_path", required=True, type=click.Path(exists=True))
@click.option("--points", type=int, default=1000)
@click.option("--out", "out_dir", required=True, type=click.Path())
@_guard
def cmd_barriers(model_path, points, out_dir):
    """Tabulate the lower/upper barriers on a time grid."""
    if points < 1:  # a ConfigurationError exits 1; click's range check would exit 2
        raise ConfigurationError(f"--points must be at least 1, got {points}")
    model = _load_model(model_path)
    pair = mbs.barrier_pair(model)
    config = {"command": "barriers", "model": model.to_dict(), "points": points}
    art = Artifacts(out_dir, config)
    ts = np.linspace(0.0, model.T * (1.0 - 1e-9), points)
    rows = np.column_stack((ts, pair.k_lower(ts), pair.k_upper(ts)))
    jsonio.write_csv(art.path("barriers.csv"), ["t", "k_lower", "k_upper"], rows)
    art.write_json(
        "constants.json",
        {"K0": pair.K0, "c0": pair.c0, "m0": pair.m0, "M0": pair.M0},
    )
    art.finalize()
    sys.exit(EXIT_OK)


@main.command("osgood-demo")
@click.option("--gamma", "gamma_id", default="xlog")
@click.option("--f0", type=float, default=1e-3)
@click.option("--dt", type=float, default=1e-4)
@click.option("--T", "t_flow", type=float, default=1.0)
@click.option("--out", "out_dir", required=True, type=click.Path())
@_guard
def cmd_osgood_demo(gamma_id, f0, dt, t_flow, out_dir):
    """Euler flow of f' = Gamma(f) plus divergence scores of 1/Gamma."""
    with _parsing(f"--gamma {gamma_id!r}"):
        gamma = osgood.from_identifier(gamma_id)
    config = {"command": "osgood-demo", "gamma": gamma_id, "f0": f0, "dt": dt,
              "T": t_flow}
    art = Artifacts(out_dir, config)
    traj = osgood.ode_flow(gamma, f0, t_flow, dt)
    jsonio.write_csv(art.path("flow.csv"), ["t", "f"], zip(traj.times, traj.values))
    eps = [10.0 ** (-k) for k in range(2, 13)]
    eps = [e for e in eps if e < gamma.l]
    scores = osgood.divergence_score(gamma, eps)
    jsonio.write_csv(art.path("scores.csv"), ["eps", "score"], zip(eps, scores))
    art.write_json(
        "report.json",
        {
            "gamma": gamma.name,
            "tag": gamma.tag,
            "saturated": traj.saturated,
            "divergence_class": osgood.classify_divergence(scores),
        },
    )
    art.finalize()
    sys.exit(EXIT_OK)


@main.command("convergence")
@click.option("--model", "model_path", required=True, type=click.Path(exists=True))
@click.option("--grids", "grid_paths", required=True,
              help="comma-separated grid JSON paths, each refining the previous 2x")
@click.option("--t-end", type=float, required=True)
@click.option("--out", "out_dir", required=True, type=click.Path())
@_guard
def cmd_convergence(model_path, grid_paths, t_end, out_dir):
    """Refinement study: successive differences and empirical orders."""
    model = _load_model(model_path)
    grids = [_load_grid(p) for p in grid_paths.split(",")]
    config = {"command": "convergence", "model": model.to_dict(),
              "grids": grid_paths, "t_end": t_end}
    art = Artifacts(out_dir, config)
    rows = solver.refinement_study(model, grids, t_end)
    jsonio.write_csv(
        art.path("refinement.csv"),
        ["grid", "dx", "diff", "order"],
        [
            [r["grid"], r["dx"],
             "" if r["diff_to_next"] is None else r["diff_to_next"],
             "" if r["order"] is None else r["order"]]
            for r in rows
        ],
    )
    art.finalize()
    sys.exit(EXIT_OK)


@main.command("oracle-compare")
@click.option("--model", "model_path", required=True, type=click.Path(exists=True))
@click.option("--point", "point_str", required=True)
@click.option("--t", "t_probe", type=float, required=True)
@click.option("--paths", type=int, default=200_000)
@click.option("--steps", type=int, default=200,
              help="Euler steps per path when a state-dependent drift or a source h "
                   "reads the path before t; with h = 0 and a constant drift each "
                   "path takes one exact step and this is ignored.")
@click.option("--grid", "grid_path", default=None, type=click.Path(exists=True))
@click.option("--out", "out_dir", default=None, type=click.Path())
@click.option("--seed", type=int, default=0)
@_guard
def cmd_oracle_compare(model_path, point_str, t_probe, paths, steps, grid_path,
                       out_dir, seed):
    """Solve the linear (rho = 0) model and compare the grid value at a probe
    point against the probabilistic oracle; passes within 3 standard errors."""
    model = _load_model(model_path)
    with _parsing(f"--point {point_str!r}"):
        x = np.array([float(s) for s in point_str.split(",")])
    if grid_path is not None:
        grid = _load_grid(grid_path)
    else:
        box = tuple((float(xi) - 2.0 * np.pi, float(xi) + 2.0 * np.pi) for xi in x)
        grid = solver.GridSpec(box=box, nodes=(401,) * model.dim_state)
    result = solver.solve(model, grid, t_end=t_probe)
    field = result.final()
    axes = grid.axes()
    idx = tuple(int(np.argmin(np.abs(ax - xi))) for ax, xi in zip(axes, x))
    node = [float(ax[i]) for ax, i in zip(axes, idx)]
    solver_val = float(field.values[idx])
    est, stderr = solver.mc_oracle(model, np.array(node), t_probe, paths, steps, seed)
    gap = abs(solver_val - est)
    ok = gap <= 3.0 * stderr
    payload = {
        "point": node, "t": t_probe, "solver": solver_val, "mc_estimate": est,
        "mc_stderr": stderr, "gap": gap, "pass": ok, "seed": seed,
    }
    if out_dir is not None:
        config = {"command": "oracle-compare", "model": model.to_dict(),
                  "point": point_str, "t": t_probe, "paths": paths,
                  "steps": steps, "seed": seed}
        art = Artifacts(out_dir, config)
        art.write_json("oracle.json", payload)
        art.finalize()
    click.echo(jsonio.dumps(payload), nl=False)
    sys.exit(EXIT_OK if ok else EXIT_CHECK)


@main.command("transform-roundtrip")
@click.option("--gauge", "gauge_id", required=True)
@click.option("--domain", "domain_str", default=None,
              help="a,b working interval (not needed for mbs-exp)")
@click.option("--margin", type=float, default=0.0)
@click.option("--samples", type=int, default=200)
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--seed", type=int, default=0)
@_guard
def cmd_transform_roundtrip(gauge_id, domain_str, margin, samples, out_dir, seed):
    """Check Psi / inverse round trips and the derivative identity."""
    if samples < 1:
        raise ConfigurationError(f"--samples must be at least 1, got {samples}")
    with _parsing(f"--gauge {gauge_id!r} --domain {domain_str!r}"):
        domain = None
        if domain_str is not None:
            a, b = (float(s) for s in domain_str.split(","))
            domain = (a, b)
        gauge = gauge_from_identifier(gauge_id, domain)
    transf = Transformation(gauge, margin)
    rng = np.random.default_rng(seed)
    lo, hi = transf.u_range
    us = rng.uniform(lo, hi, samples)
    vs = transf.psi(us)
    back, ip, _ = transf.inverse_derivatives(vs)
    rt = np.abs(back - us)
    dv = np.abs(ip**2 - gauge.z(us))
    worst_rt, worst_deriv = float(rt.max(initial=0.0)), float(dv.max(initial=0.0))
    config = {"command": "transform-roundtrip", "gauge": gauge_id,
              "domain": domain_str, "margin": margin, "samples": samples,
              "seed": seed}
    art = Artifacts(out_dir, config)
    jsonio.write_csv(
        art.path("roundtrip.csv"), ["u", "psi", "roundtrip_error", "deriv_error"],
        np.column_stack((us, vs, rt, dv)),
    )
    ok = worst_rt <= 1e-8 and worst_deriv <= 1e-8 * (1.0 + gauge.Lambda0)
    art.write_json(
        "report.json",
        {"max_roundtrip_error": worst_rt, "max_derivative_error": worst_deriv,
         "pass": ok, "seed": seed},
    )
    art.finalize()
    sys.exit(EXIT_OK if ok else EXIT_CHECK)


if __name__ == "__main__":
    main()
