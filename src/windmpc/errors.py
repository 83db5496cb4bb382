"""Exception types shared across the package."""


class DomainError(ValueError):
    """An input lies outside the physical or mathematical domain of an operation."""


class IntegrationError(RuntimeError):
    """The fixed-step integrator produced a non-finite state."""


class InfeasibleQpError(RuntimeError):
    """The QP constraint set admits no solution. ``worst_row`` is the row the
    solver's path stalled on, not a property of the program."""

    def __init__(self, message, worst_row=None):
        super().__init__(message)
        self.worst_row = worst_row


class QpIterationError(RuntimeError):
    """The active-set loop hit its iteration cap or failed KKT verification."""


class ConfigError(ValueError):
    """A configuration file or CLI value could not be interpreted."""


class SimulationError(RuntimeError):
    """A closed-loop run aborted; carries the failing step index."""

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step
