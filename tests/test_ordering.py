"""Ordered coefficients give ordered prices: the discrete comparison
principle across the model's rho and tau.

The quadratic term -rho |sigma^T DU|^2 / (U + h + xi) falls as rho grows,
since u = U + h + xi stays positive by the barriers, and the source tau h
grows with tau, since h >= 0.  So the run at the smaller rho is a
supersolution of the equation at the larger one, and a monotone scheme that
shares one dt and one theta across the runs orders them node by node:
prices fall in rho and rise in tau.  Each sweep runs the one SchemeConfig
auto_config gives its problems, the largest theta and for it the smallest
CFL dt, and every recorded field must be ordered to discrete_comparison's
1e-12.
"""

from dataclasses import replace

import numpy as np
import pytest

from visc import mbs, solver, transform

RHOS = (0.0, 0.25, 0.5, 1.0)
TAUS = (0.02, 0.05, 0.08)
SEEDS = (1, 2, 3)
T_END = 0.9
BOX = (-4.0, 4.0)


def desk_family(seed: int, dim: int) -> dict:
    """A seeded desk-family model on dim factors: sigma, r and the bumps of
    h and U0 drawn around the desk defaults."""
    rng = np.random.default_rng([seed, dim])
    sig = rng.uniform(0.3, 0.5, dim)
    cfg = mbs.default_model().to_dict()
    cfg.update({
        "N": dim, "d": dim,
        "sigma": {"form": "constant", "params": {"matrix": np.diag(sig).tolist()}},
        "mu": {"form": "sinusoid", "params": {
            "amplitude": [0.05] * dim, "wavevector": np.eye(dim).tolist()}},
        "r": {"form": "constant", "params": {"value": float(rng.uniform(0.01, 0.08))}},
        "h": {"form": "gaussian-bump", "params": {
            "amplitude": float(rng.uniform(0.2, 0.8)), "center": [0.0] * dim,
            "width": float(rng.uniform(0.7, 1.4))}},
        "U0": {"form": "gaussian-bump", "params": {
            "amplitude": float(rng.uniform(0.1, 0.4)), "center": [0.0] * dim,
            "width": float(rng.uniform(1.0, 2.0))}},
    })
    return cfg


def pricing_sweep(models, nodes):
    grid = solver.GridSpec(box=(BOX,) * len(nodes), nodes=nodes)
    problems = [solver.PricingProblem(m, grid) for m in models]
    cfg = replace(solver.auto_config(*problems), record_every=1)
    results = [solver.solve_problem(p, cfg, T_END) for p in problems]
    return results, [r.fields for r in results]


def straightened_sweep(models, n):
    """The straightened runs on one gauge covering every model's barriers,
    mapped back to the u-scale."""
    pairs = [mbs.barrier_pair(m) for m in models]
    m0, M0 = min(p.m0 for p in pairs), max(p.M0 for p in pairs)
    transf = transform.Transformation(transform.affine_sq_gauge(2.0 / m0, 1.0, (m0, M0)),
                                      margin=0.3 * m0)
    grid = solver.GridSpec(box=(BOX,), nodes=(n,))
    problems = [solver.StraightenedProblem(m, transf, grid) for m in models]
    cfg = replace(solver.auto_config(*problems), record_every=1)
    results = [solver.solve_transformed(m, transf, grid, cfg, T_END) for m in models]
    return results, [solver.map_back(r, transf) for r in results]


def sweep(kind, cfg, key, values):
    models = [mbs.model_from_dict({**cfg, key: v}) for v in values]
    if kind == "straightened":
        return straightened_sweep(models, 201)
    return pricing_sweep(models, (201,) if kind == "pricing-1d" else (41, 41))


KINDS = ["pricing-1d", "pricing-2d", "straightened"]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("kind", KINDS)
def test_prices_fall_in_rho(kind, seed):
    cfg = desk_family(seed, 2 if kind == "pricing-2d" else 1)
    results, runs = sweep(kind, cfg, "rho", RHOS)
    assert all(r.flags["monotone_margin"] >= 0.0 for r in results)
    for lower, higher in zip(runs[1:], runs):
        rep = solver.discrete_comparison(lower, higher)
        assert rep.passed, rep
    # the sweep moves the price, so the ordering is not a tie
    assert np.max(runs[0][-1].values - runs[-1][-1].values) > 1e-6


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("kind", KINDS)
def test_prices_rise_in_tau(kind, seed):
    cfg = desk_family(seed, 2 if kind == "pricing-2d" else 1)
    results, runs = sweep(kind, cfg, "tau", TAUS)
    assert all(r.flags["monotone_margin"] >= 0.0 for r in results)
    for lower, higher in zip(runs, runs[1:]):
        rep = solver.discrete_comparison(lower, higher)
        assert rep.passed, rep
    assert np.max(runs[-1][-1].values - runs[0][-1].values) > 1e-6
