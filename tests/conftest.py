"""Shared fixtures: the expensive solver runs are built once per session and
reused by the unit tests and the acceptance suite (which asserts on the
recorded wall time of the underlying computation)."""

import time
from dataclasses import dataclass

import numpy as np
import pytest

from visc import mbs, solver, transform


@dataclass
class TimedRun:
    model: object
    grid: solver.GridSpec
    result: solver.SolveResult
    elapsed: float


@pytest.fixture(scope="session")
def heat_run():
    """401-node run of the rho = 0 heat fixture to t = 0.5."""
    model = mbs.heat_model()
    # padding: two diffusive influence lengths 2 sqrt(2 a t_end) of the
    # constant-extrapolation wall, excluded from accuracy audits
    grid = solver.GridSpec(box=((-2.0 * np.pi, 2.0 * np.pi),), nodes=(401,), padding=90)
    t0 = time.perf_counter()
    result = solver.solve(model, grid, t_end=0.5)
    return TimedRun(model, grid, result, time.perf_counter() - t0)


@pytest.fixture(scope="session")
def desk_run():
    """Full MBS desk run (Gaussian-bump cash-flow) on 201 nodes to t = 0.9."""
    model = mbs.default_model()
    grid = solver.GridSpec(box=((-4.0, 4.0),), nodes=(201,))
    t0 = time.perf_counter()
    result = solver.solve(model, grid, t_end=0.9)
    return TimedRun(model, grid, result, time.perf_counter() - t0)


@dataclass
class ChangeOfVariableStudy:
    model: object
    grids: list
    gaps: list
    elapsed: float


@pytest.fixture(scope="session")
def change_of_variable_study():
    """u-solve vs straightened v-solve mapped back, on a 3-grid refinement."""
    model = mbs.default_model()
    pair = mbs.barrier_pair(model)
    gauge = transform.affine_sq_gauge(2.0 / pair.m0, 1.0, (pair.m0, pair.M0))
    transf = transform.Transformation(gauge, margin=0.3 * pair.m0)
    base = solver.GridSpec(box=((-4.0, 4.0),), nodes=(201,))
    grids = [base, base.refined(), base.refined().refined()]
    t_end = 0.5
    t0 = time.perf_counter()
    gaps = []
    for g in grids:
        res_u = solver.solve(model, g, t_end=t_end)
        res_v = solver.solve_transformed(model, transf, g, t_end=t_end)
        u_field = res_u.final()
        pts = g.points()
        u_direct = u_field.values + model.h.value(pts, u_field.t) + float(
            model.xi(u_field.t)
        )
        u_mapped = solver.map_back(res_v, transf)[-1].values
        gaps.append(float(np.abs(u_direct - u_mapped).max()))
    elapsed = time.perf_counter() - t0
    return ChangeOfVariableStudy(model, grids, gaps, elapsed)
