"""Exception types shared across the package."""


class ViscError(Exception):
    """Base class for all package errors."""


class DomainError(ViscError, ValueError):
    """An argument lies outside the interval a function is defined on."""


class RangeError(ViscError, ValueError):
    """A value lies outside the range of an invertible map."""


class ConfigurationError(ViscError, ValueError):
    """Inconsistent or invalid configuration (grids, gauges, schemes, files)."""


class PreconditionError(ViscError, ValueError):
    """A documented precondition of an operation is violated."""


class ModelError(ViscError, ValueError):
    """A financial model violates a structural requirement (e.g. positivity)."""


class SamplingError(ViscError, RuntimeError):
    """A rejection sampler failed to produce admissible samples."""


class QuadratureError(ViscError, ArithmeticError):
    """An integrand is singular or undefined inside the integration range."""


class BlowUpError(ViscError, ArithmeticError):
    """A march produced non-finite values; step is the index of the first
    recorded step found with them, t its time and node the grid index of
    the first non-finite value in that field."""

    def __init__(self, step: int, t: float, node: tuple[int, ...]):
        super().__init__(f"non-finite field values at step {step} (t = {t!r}), node {node}")
        self.step = step
        self.t = t
        self.node = node
