"""Exception and warning types shared by the solvers and the CLI."""


class VarintError(Exception):
    """Base class for all errors raised by this package."""


class NoConvergence(VarintError):
    """An iterative solver failed to reach its tolerance."""

    def __init__(self, message, iterations=None, residual_norm=None, step_index=None):
        super().__init__(message)
        self.iterations = iterations
        self.residual_norm = residual_norm
        self.step_index = step_index


class SingularHessian(VarintError):
    """The acceleration Hessian of a Lagrangian is (numerically) singular."""


class SingularWd(VarintError):
    """The cross-derivative block matrix of a discrete Lagrangian is singular."""


class SingularKKT(VarintError):
    """The stacked boundary-value Newton system is singular."""


class ConfigError(VarintError):
    """A scenario configuration failed validation."""


class UnsettledSubsteps(RuntimeWarning):
    """A substep-doubling solver reached its substep cap before two successive
    resolutions agreed to its tolerance; the finest answer is returned."""
