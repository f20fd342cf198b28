"""Seeded inputs and the operations ("ops") of the four benchmark workloads.

Each op calls the public library functions a `visc` subcommand calls, in the
same order, with a span around every call into a layer.  An op returns an
`OpResult`; a failed correctness gate is a failed op, never an exception.
Workload inputs depend only on the workload seed.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from visc import cli, jsonio, mbs, solver, transform
from visc import hamiltonian as ham

from spans import Tracer

DATA = Path(__file__).resolve().parent / "data"

R_CHECK = 2.0          # gradient radius of check-conditions (CLI default)
CHECK_SAMPLES = 2000   # samples per checker
DESK_NODES = 201
DESK_T_END = 0.9
FINE_T_END = 0.5
# accuracy gates: the 5e-3 sup-norm bound of acceptance criteria 4 and 5
ERR_TOL = 5e-3
# criterion 5 pins the u-vs-v gap at 5e-3 on 801 nodes; the scheme is first
# order in dx, so the same bound on the 401-node straightened solve is 1e-2
GAP_TOL_401 = 1e-2
MC_SIGMAS = 3.0
# the CLI's default --seed: one Monte-Carlo stream for every probe makes the
# solver-MC gap a smooth function of x (largest z over [-pi, pi]: 1.99), so
# the 3-sigma gate does not fail by chance on some probe
MC_SEED = 0
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
HAM_CHECKS = ("degenerate-ellipticity", "gradient-modulus", "structure-cp6",
              "osgood-structure-cp7")


@dataclass
class OpResult:
    ok: bool = True
    reason: str = ""
    counts: dict = field(default_factory=dict)
    err: float | None = None

    def gate(self, cond: bool, reason: str) -> None:
        if not cond and self.ok:
            self.ok, self.reason = False, reason


def _desk_box(n_dim: int) -> tuple:
    return ((-4.0, 4.0),) * n_dim


# ---------------------------------------------------------------------------
# seeded desk-family models

# Ranges bracket the desk defaults (README model) so every draw stays a
# realistic pool; r and tau overlap so that roughly a third of the draws have
# r > tau, the branch of _inf_source that takes sup h instead of inf h.
DESK_RANGES = {
    "u0_amplitude": (0.1, 0.4),
    "u0_width": (1.0, 2.0),
    "h_amplitude": (0.2, 0.8),
    "h_width": (0.7, 1.4),
    "sigma": (0.3, 0.5),
    "r": (0.01, 0.08),
    "tau": (0.02, 0.08),
    "rho": (0.2, 1.0),
}


def desk_positive(cfg: dict) -> bool:
    """The positivity condition m0 = inf_t (k_lower + inf h + xi) > 0, in
    closed form for the desk family (constant r, tau, xi = 1, bump h and U0
    with inf 0): k_lower(t) = min(0, (tau - r) A_h) (1 - e^{-rt}) / r."""
    r, tau, T = cfg["r"]["params"]["value"], cfg["tau"], cfg["T"]
    a_h = cfg["h"]["params"]["amplitude"]
    k_min = min(0.0, (tau - r) * a_h) * (1.0 - math.exp(-r * T)) / r
    return 1.0 + k_min > 0.0


def desk_family(rng: np.random.Generator) -> dict:
    d = {k: float(rng.uniform(lo, hi)) for k, (lo, hi) in DESK_RANGES.items()}
    cfg = mbs.default_model().to_dict()
    cfg.update({
        "sigma": {"form": "constant", "params": {"matrix": [[d["sigma"]]]}},
        "r": {"form": "constant", "params": {"value": d["r"]}},
        "h": {"form": "gaussian-bump", "params": {
            "amplitude": d["h_amplitude"], "center": [0.0], "width": d["h_width"]}},
        "U0": {"form": "gaussian-bump", "params": {
            "amplitude": d["u0_amplitude"], "center": [0.0], "width": d["u0_width"]}},
        "rho": d["rho"],
        "tau": d["tau"],
    })
    return cfg


def draw_models(rng: np.random.Generator, n: int) -> tuple[list[dict], int]:
    """n positive desk-family models and the number of rejected draws."""
    models, rejected = [], 0
    while len(models) < n:
        cfg = desk_family(rng)
        if desk_positive(cfg):
            models.append(cfg)
        else:
            rejected += 1
    return models, rejected


def fine_model_2d() -> mbs.MbsModel:
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


def load_reference(name: str) -> np.ndarray:
    with open(DATA / name) as fh:
        return np.asarray(json.load(fh)["values"], dtype=float)


def _write(path: Path, obj) -> str:
    path.write_text(jsonio.dumps(obj))
    return str(path)


# ---------------------------------------------------------------------------
# shared op pieces


def _scheme(tr, problem) -> solver.SchemeConfig:
    # the "theta": "auto", "dt": "auto" branch of the CLI's scheme loader
    with tr.span("solver.theta"):
        theta = solver.estimate_theta(problem)
    with tr.span("solver.dt"):
        dt = solver.stable_dt(problem, theta)
    return solver.SchemeConfig(theta=tuple(theta), dt=float(dt), record_every=100)


def _solve(tr, model, grid, t_end, res: OpResult, seed: int = 0) -> solver.SolveResult:
    """solve with an auto scheme file: barriers, problem, theta, dt, march."""
    with tr.span("mbs.barrier_pair"):
        mbs.barrier_pair(model)
    with tr.span("solver.problem"):
        problem = solver.PricingProblem(model, grid)
    cfg = _scheme(tr, problem)
    with tr.span("solver.march"):
        result = solver.solve(model, grid, cfg=cfg, t_end=t_end, seed=seed)
    _count_steps(res, result, grid)
    res.counts.setdefault("theta", cfg.theta[0])
    res.counts.setdefault("dt", cfg.dt)
    return result


def _count_steps(res: OpResult, result: solver.SolveResult, grid) -> None:
    steps = result.flags["steps"]
    c = res.counts
    c["steps"] = c.get("steps", 0) + steps
    c["node_steps"] = c.get("node_steps", 0) + steps * int(np.prod([n - 2 for n in grid.nodes]))


def desk_probe_error() -> float:
    """Sup-norm error of the desk grid (201 nodes, t = 0.9) on the fixed
    default model against its committed 4x-finer reference."""
    grid = solver.GridSpec(box=_desk_box(1), nodes=(DESK_NODES,))
    res = _solve(Tracer(), mbs.default_model(), grid, DESK_T_END, OpResult())
    ref = load_reference("desk_reference.json")
    return float(np.abs(res.final().values - ref).max())


# ---------------------------------------------------------------------------
# workloads


class Desk:
    """`visc solve --scheme auto.json` on a freshly loaded desk-family model."""

    n_models = 64

    def __init__(self, seed: int, work: Path):
        rng = np.random.default_rng([seed, 1])
        cfgs, self.rejected = draw_models(rng, self.n_models)
        inputs = work / "inputs"
        inputs.mkdir(parents=True, exist_ok=True)
        self.models = [_write(inputs / f"model{k}.json", c) for k, c in enumerate(cfgs)]
        self.grid_path = _write(inputs / "grid.json",
                                {"box": [[-4.0, 4.0]], "nodes": [DESK_NODES]})
        self.out = work / "artifacts"
        self.seed = seed

    def op(self, i: int, tr) -> OpResult:
        res = OpResult()
        with tr.span("mbs.load_model"):
            model = mbs.load_model(self.models[i % self.n_models])
        with tr.span("cli.load_grid"):
            grid = cli._load_grid(self.grid_path)
        result = _solve(tr, model, grid, DESK_T_END, res, seed=self.seed)
        with tr.span("cli.rows"):
            art = cli.Artifacts(self.out, {
                "command": "solve", "model": model.to_dict(), "grid": "grid.json",
                "t_end": DESK_T_END, "seed": self.seed})
            pts = grid.points().reshape(-1, grid.dim)
            rows = [[f.t, *xk, uk] for f in result.fields
                    for xk, uk in zip(pts, f.values.ravel())]
            sandwich = [
                {k: f.meta[k] for k in ("k_lower", "k_upper", "sandwich_tol",
                                        "sandwich_excess", "sandwich_ok")} | {"t": f.t}
                for f in result.fields
            ]
            ok = all(s["sandwich_ok"] for s in sandwich)
        with tr.span("jsonio.write"):
            jsonio.write_csv(art.path("fields.csv"), ["t", "x1", "U"], rows)
            art.write_json("sandwich.json", {"fields": sandwich, "flags": result.flags,
                                             "pass": ok, "seed": self.seed})
            art.finalize()
        res.counts["bytes"] = sum(os.path.getsize(self.out / f)
                                  for f in art.files + ["manifest.json"])
        res.gate(ok, "sandwich_ok false on a recorded field")
        return res


class Fine:
    """Large solves of one fixed nonlinear desk model; one op is one round
    of the three solve kinds."""


    def __init__(self, seed: int, work: Path):
        self.model = mbs.default_model()
        self.model2 = fine_model_2d()
        self.grid1 = solver.GridSpec(box=_desk_box(1), nodes=(1601,))
        self.grid2 = solver.GridSpec(box=_desk_box(2), nodes=(101, 101))
        self.grid_v = solver.GridSpec(box=_desk_box(1), nodes=(401,))
        self.ref = load_reference("fine_reference.json")
        # u = U + h + xi of the reference on the 401 nodes of the straightened solve
        pts = self.grid_v.points()
        self.ref_u = (self.ref[::4] + self.model.h.value(pts, FINE_T_END)
                      + float(self.model.xi(FINE_T_END)))

    def op(self, i: int, tr) -> OpResult:
        res = OpResult()
        result = _solve(tr, self.model, self.grid1, FINE_T_END, res)
        res.err = float(np.abs(result.final().values - self.ref).max())
        res.gate(res.err <= ERR_TOL, f"1601-node error {res.err:.3e} > {ERR_TOL}")

        result = _solve(tr, self.model2, self.grid2, FINE_T_END, res)
        res.gate(all(f.meta["sandwich_ok"] for f in result.fields),
                 "2D sandwich_ok false on a recorded field")

        with tr.span("mbs.barrier_pair"):
            pair = mbs.barrier_pair(self.model)
        with tr.span("transform.build"):
            gauge = transform.affine_sq_gauge(2.0 / pair.m0, 1.0, (pair.m0, pair.M0))
            transf = transform.Transformation(gauge, margin=0.3 * pair.m0)
            transf.inverse_interpolant()
        with tr.span("solver.transformed_march"):
            result = solver.solve_transformed(
                self.model, transf, self.grid_v, t_end=FINE_T_END, seed=0)
        with tr.span("solver.map_back"):
            u_mapped = solver.map_back(result, transf)[-1].values
        _count_steps(res, result, self.grid_v)
        gap = float(np.abs(u_mapped - self.ref_u).max())
        res.counts["gap"] = gap
        res.gate(gap <= GAP_TOL_401, f"mapped-back gap {gap:.3e} > {GAP_TOL_401}")
        return res


class Checks:
    """`visc check-conditions` on a seeded desk-family model, then example1
    and gauge-transformed example1: one op is one round over the three
    targets.  Every round repeats the same inputs, and a repeat must
    serialize bit-identically to the first."""

    # six model checks, four example1 checks, the sign-flipped negative
    # control (expected to fail) and three transformed-example1 checks
    expected = [True] * 10 + [False] + [True] * 3

    def __init__(self, seed: int, work: Path):
        rng = np.random.default_rng([seed, 3])
        (cfg,), self.rejected = draw_models(rng, 1)
        inputs = work / "inputs"
        inputs.mkdir(parents=True, exist_ok=True)
        self.model_path = _write(inputs / "model.json", cfg)
        self.sample_seed = int(rng.integers(0, 2**31))
        self.first_bytes: str | None = None

    def _model_sweep(self, tr) -> list:
        n, s, R = CHECK_SAMPLES, self.sample_seed, R_CHECK
        with tr.span("mbs.load_model"):
            model = mbs.load_model(self.model_path)
        with tr.span("mbs.barrier_pair"):
            mbs.barrier_pair(model)
        with tr.span("mbs.validate_model"):
            reports = [mbs.validate_model(model, n, s)]
        with tr.span("mbs.barrier_residuals"):
            reports.append(mbs.barrier_residuals(model, n, s))
        with tr.span("mbs.dm2_hamiltonian"):
            H = mbs.dm2_hamiltonian(model)
        with tr.span("hamiltonian.ellipticity"):
            reports.append(ham.check_degenerate_ellipticity(H, n, s))
        with tr.span("hamiltonian.gradient_modulus"):
            reports.append(ham.check_gradient_modulus(H, R, n, s))
        with tr.span("mbs.candidates"):
            cand6 = mbs.cp6_candidates(model)
        with tr.span("hamiltonian.cp6"):
            reports.append(ham.check_structure_cp6(H, R, cand6, n, s))
        with tr.span("mbs.candidates"):
            gamma, nu_hat, gauge = mbs.cp7_candidates(model, R)
        with tr.span("hamiltonian.cp7"):
            reports.append(
                ham.check_osgood_structure_cp7(H, gauge, gamma, nu_hat, R, n, s))
        return reports

    def _example1(self, tr, transformed: bool) -> list:
        n, s, R = CHECK_SAMPLES, self.sample_seed, R_CHECK
        H1 = ham.example1()
        cand6 = (ham.ModulusFamily("linear", 0.0), ham.ModulusFamily("linear", 1.0))
        if transformed:
            with tr.span("transform.build"):
                H1 = ham.transform_hamiltonian(H1, transform.shift_sq_gauge(H1.u_domain))
        with tr.span("hamiltonian.ellipticity"):
            reports = [ham.check_degenerate_ellipticity(H1, n, s)]
        with tr.span("hamiltonian.gradient_modulus"):
            reports.append(ham.check_gradient_modulus(H1, R, n, s))
        with tr.span("hamiltonian.cp6"):
            reports.append(ham.check_structure_cp6(H1, R, cand6, n, s))
        if transformed:
            return reports
        with tr.span("hamiltonian.cp7"):
            gamma, nu_hat = ham.example1_cp7_candidates(R)
            reports.append(ham.check_osgood_structure_cp7(
                H1, transform.shift_sq_gauge(H1.u_domain), gamma, nu_hat, R, n, s))
        # negative control: a sign-flipped trace is not degenerate elliptic
        flipped = ham.HamiltonianSpec(
            "pos-trace", 1, (-1.0, 1.0), 0.5, lambda x, t, u, p, X: float(np.trace(X)))
        with tr.span("hamiltonian.ellipticity"):
            reports.append(ham.check_degenerate_ellipticity(flipped, n, s))
        return reports

    def op(self, i: int, tr) -> OpResult:
        res = OpResult()
        targets = [self._model_sweep(tr), self._example1(tr, False),
                   self._example1(tr, True)]
        with tr.span("jsonio.write"):
            text = "".join(jsonio.dumps([r.to_json_dict() for r in t]) for t in targets)
        reports = [r for t in targets for r in t]
        cp6 = [r.details for r in reports if r.check == "structure-cp6"]
        res.counts.update(
            ham_samples=sum(r.samples_tested for r in reports if r.check in HAM_CHECKS),
            cp6_attempts=sum(d["attempts"] for d in cp6),
            cp6_accepts=sum(d["accepts"] for d in cp6),
        )
        bad = [r.check for r, e in zip(reports, self.expected) if r.passed != e]
        res.gate(not bad, f"unexpected verdict on {bad}")
        if self.first_bytes is None:
            self.first_bytes = text
        res.gate(text == self.first_bytes, "rerun of the same seed changed the report bytes")
        return res


class Oracle:
    """`visc oracle-compare` on the heat fixture at seeded probe points."""

    n_probes = 64
    paths, mc_steps, t = 200_000, 200, 0.5

    def __init__(self, seed: int, work: Path):
        rng = np.random.default_rng([seed, 4])
        inputs = work / "inputs"
        inputs.mkdir(parents=True, exist_ok=True)
        self.model_path = _write(inputs / "heat.json", mbs.heat_model().to_dict())
        # a seeded golden-ratio sequence: any run's first probes spread evenly
        # over [-pi, pi], so the largest error is taken over the whole interval
        k = np.arange(self.n_probes)
        self.probes = -math.pi + 2.0 * math.pi * ((rng.uniform() + k * GOLDEN) % 1.0)

    def op(self, i: int, tr) -> OpResult:
        res = OpResult()
        k = i % self.n_probes
        x0 = float(self.probes[k])
        with tr.span("mbs.load_model"):
            model = mbs.load_model(self.model_path)
        # the grid file of `--grid`: padding keeps the wall layer of the
        # constant extrapolation out of the audited slice (as in criterion 4)
        grid = solver.GridSpec(box=((x0 - 2.0 * math.pi, x0 + 2.0 * math.pi),),
                               nodes=(401,), padding=90)
        with tr.span("solver.march"):
            result = solver.solve(model, grid, t_end=self.t, seed=0)
        final = result.final()
        xs = grid.axes()[0]
        idx = int(np.argmin(np.abs(xs - x0)))
        with tr.span("solver.mc_oracle"):
            est, se = solver.mc_oracle(model, np.array([xs[idx]]), self.t,
                                       self.paths, self.mc_steps, MC_SEED)
        _count_steps(res, result, grid)
        res.counts["path_steps"] = self.paths * self.mc_steps
        exact = math.exp(-final.t) * np.cos(xs)
        res.err = float(np.abs(final.values - exact)[grid.audited_slice()].max())
        gap = abs(float(final.values[idx]) - est)
        res.gate(res.err <= ERR_TOL, f"solver error {res.err:.3e} > {ERR_TOL}")
        res.gate(gap <= MC_SIGMAS * se,
                 f"solver-MC gap {gap:.3e} > {MC_SIGMAS} stderr ({se:.3e})")
        return res


WORKLOADS = {"desk": Desk, "fine": Fine, "checks": Checks, "oracle": Oracle}
