"""Exception types shared across the package.

The CLI maps these onto exit codes: ConfigError -> 1, DataError -> 2,
NumericError -> 3.
"""
from contextlib import contextmanager


class ConfigError(ValueError):
    """Invalid configuration value or command usage."""


class DataError(ValueError):
    """Malformed or inconsistent input data."""


class NumericError(ArithmeticError):
    """An op made a non-finite value, trapped by ``autodiff.numeric_context``."""


@contextmanager
def reading(path):
    """Put ``path`` in front of the message of a DataError or ConfigError
    raised while reading it, keeping its type; a decoding error becomes a
    DataError that names the path."""
    try:
        yield
    except UnicodeDecodeError as err:
        raise DataError(f"{path}: not utf-8 text ({err.reason})") from None
    except (DataError, ConfigError) as err:
        raise type(err)(f"{path}: {err}") from None
