"""Exception types shared across the package, and the readers of JSON
values that reject a malformed one.

The CLI maps these onto exit codes: usage errors are handled by the
argument parser, ``DataFormatError`` exits with 2, anything else with 3.
A value that a reader below rejects with ``ValueError`` becomes a
``DataFormatError`` where its file is read.
"""

import math
from typing import Optional


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


def json_int(data: dict, key: str, default: Optional[int] = None) -> int:
    """``data[key]`` when it is a JSON integer, ``default`` when it is
    absent (without a default the key is required); any other value
    (``true``, ``2.7``, ``"3"``) is a ``ValueError``."""
    value = data.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{key} must be an integer, not {value!r}")
    return value


def json_str(data: dict, key: str) -> str:
    """``data[key]`` when it is a JSON string, else a ``ValueError``."""
    value = data.get(key)
    if not isinstance(value, str):
        raise ValueError(f"{key} must be a string, not {value!r}")
    return value


def json_ints(data: dict, key: str) -> list[int]:
    """``data[key]`` when it is a list of JSON integers, else a ``ValueError``."""
    value = data.get(key)
    if not isinstance(value, list) or not all(type(x) is int for x in value):
        raise ValueError(f"{key} must be a list of integers, not {value!r}")
    return value


def json_number(data: dict, key: str, default: Optional[float] = None,
                finite: bool = True) -> float:
    """``data[key]`` as a float when it is a JSON number, ``default``
    when it is absent (without a default the key is required); any other
    value (``true``, ``"0.1"``, ``null``, an integer beyond the float
    range) is a ``ValueError``. So are the ``NaN`` and ``Infinity`` that
    Python's ``json`` reads, unless ``finite`` is false."""
    value = data.get(key, default)
    try:  # a bool is no JSON number; an int may lie beyond the float range
        number = float(value) if type(value) in (int, float) else None
    except OverflowError:
        number = None
    if number is None or (finite and not math.isfinite(number)):
        raise ValueError(f"{key} must be a number, not {value!r}")
    return number
