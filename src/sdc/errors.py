"""Exception types shared across the package, and the readers of JSON
config values that reject a malformed one.

The CLI maps these onto exit codes: usage errors are handled by the
argument parser, ``DataFormatError`` exits with 2, anything else with 3.
A config value that a reader below rejects with ``ValueError`` becomes
a ``DataFormatError`` where the config is loaded.
"""

import math


class SdcError(Exception):
    """Base class for errors raised by this package."""


class DataFormatError(SdcError):
    """Malformed or inconsistent input data (corpus files, embedding
    files, score tables, stores, reports)."""


def json_flag(data: dict, key: str, default: bool) -> bool:
    """``data[key]`` when it is a JSON ``true``/``false``, ``default``
    when it is absent; any other value is a ``ValueError``."""
    value = data.get(key, default)
    if not isinstance(value, bool):
        raise ValueError(f"{key} must be true or false, not {value!r}")
    return value


def json_int(data: dict, key: str, default: int) -> int:
    """``data[key]`` when it is a JSON integer, ``default`` when it is
    absent; any other value (``true``, ``2.7``, ``"3"``) is a
    ``ValueError``."""
    value = data.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{key} must be an integer, not {value!r}")
    return value


def json_number(data: dict, key: str, default: float) -> float:
    """``data[key]`` as a float when it is a JSON number, ``default``
    when it is absent; any other value (``true``, ``"0.1"``, ``null``,
    and the ``NaN`` and ``Infinity`` that Python's ``json`` reads) is a
    ``ValueError``."""
    value = data.get(key, default)
    finite = isinstance(value, (int, float)) and math.isfinite(value)
    if isinstance(value, bool) or not finite:
        raise ValueError(f"{key} must be a number, not {value!r}")
    return float(value)
