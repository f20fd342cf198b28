"""Numerical engine and verification toolkit for a degenerate quasilinear
pricing equation: monotone finite differences, analytic barriers, gauge
transformations and sampled checks of the comparison-theorem hypotheses."""

from . import forms, jsonio, mbs, osgood, solver, transform
from .errors import (
    BlowUpError,
    ConfigurationError,
    DomainError,
    ModelError,
    PreconditionError,
    RangeError,
    SamplingError,
    ViscError,
)
from .hamiltonian import (
    CheckReport,
    HamiltonianSpec,
    ModulusFamily,
    check_degenerate_ellipticity,
    check_gradient_modulus,
    check_osgood_structure_cp7,
    check_structure_cp6,
    eval_hamiltonian,
    transform_hamiltonian,
)
from .osgood import FlowTrajectory, OsgoodFunction, divergence_score, ode_flow, sup_formula
from .transform import GaugeFunction, Transformation, gauge_from_identifier

__version__ = "0.1.0"
