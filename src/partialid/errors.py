"""Exception types shared across the toolkit."""


class PartialIdError(Exception):
    """Base class for all toolkit errors."""


class DataError(PartialIdError):
    """Malformed or inconsistent input data."""


class ConfigError(PartialIdError):
    """Invalid configuration or tuning parameters."""


class WeakIdentificationError(PartialIdError):
    """An estimated complier mass fell below the identification floor.

    Carries the offending mass so callers (and the CLI) can report it.
    """

    def __init__(self, message, mass=None):
        super().__init__(message)
        self.mass = mass


class InternalConsistencyError(PartialIdError):
    """A computation found no answer where the model guarantees one.

    Raised only through its subclasses ``simplex.InfeasibleError`` and
    ``simplex.UnboundedError``, when a linear program has no optimum.
    """
