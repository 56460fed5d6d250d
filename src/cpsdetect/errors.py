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
    """Non-finite values appeared where finite math was required."""


@contextmanager
def reading(path):
    """Turn a DataError or a decoding error raised while reading ``path``
    into a DataError whose message begins with the path."""
    try:
        yield
    except UnicodeDecodeError as err:
        raise DataError(f"{path}: not utf-8 text ({err.reason})") from None
    except DataError as err:
        raise DataError(f"{path}: {err}") from None
