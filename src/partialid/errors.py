"""Exception types shared across the toolkit, and the UTF-8 opener whose
decoding errors become :class:`DataError`."""

import contextlib


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


@contextlib.contextmanager
def open_utf8(path):
    """Open ``path`` as UTF-8 text, with the ``newline=""`` that ``csv``
    needs.  A leading byte-order mark, as in Excel's "CSV UTF-8", is
    dropped.  A byte that is not UTF-8 raises :class:`DataError` wherever
    in the file the reader meets it."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from exc
