"""Exception types shared across the package, the readers of JSON
values that reject a malformed one, and ``read_settings``, which reads
every config section through them.

The CLI maps these onto exit codes: usage errors are handled by the
argument parser, ``DataFormatError`` exits with 2, anything else with 3.
A value that a reader below rejects with ``ValueError`` becomes a
``DataFormatError`` where its file is read.
"""

import math
import typing
from dataclasses import MISSING, fields, is_dataclass
from typing import Optional


class SdcError(Exception):
    """Base class for errors raised by this package."""


class DataFormatError(SdcError):
    """Malformed or inconsistent input data (corpus files, embedding
    files, score tables, stores, reports)."""


def json_flag(data: dict, key: str) -> bool:
    """``data[key]`` when it is a JSON ``true``/``false``, else a ``ValueError``."""
    value = data.get(key)
    if not isinstance(value, bool):
        raise ValueError(f"{key} must be true or false, not {value!r}")
    return value


def json_int(data: dict, key: str) -> int:
    """``data[key]`` when it is a JSON integer; any other value (``true``,
    ``2.7``, ``"3"``, none) is a ``ValueError``."""
    value = data.get(key)
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


# Metadata of a dataclass field that the program sets and no config key names.
NOT_A_SETTING = {"setting": False}


def read_settings(kind, data, section: str):
    """``data`` read as the type ``kind`` says: a dataclass from a JSON
    object, each key as its field's type and each absent key left at its
    default; a list entry by entry; ``bool``, ``int``, ``float`` and
    ``str`` by the readers above. An unknown key, a missing required one
    and a malformed value are ``ValueError``s that name where in
    ``section`` they are."""
    if is_dataclass(kind):
        if not isinstance(data, dict):
            raise ValueError(f"{section} must be a JSON object, not {data!r}")
        known = {f.name: f for f in fields(kind) if f.metadata.get("setting", True)}
        for key in data:
            if key not in known:
                raise ValueError(f"unknown key {key!r} in {section}")
        for name, f in known.items():
            if name not in data and f.default is MISSING and f.default_factory is MISSING:
                raise ValueError(f"{section} needs {name}")
        hints = typing.get_type_hints(kind)
        return kind(**{key: read_settings(hints[key], value, f"{section}.{key}")
                       for key, value in data.items()})
    if typing.get_origin(kind) is list:
        if not isinstance(data, list):
            raise ValueError(f"{section} must be a list, not {data!r}")
        (item,) = typing.get_args(kind)
        return [read_settings(item, x, f"{section}[{i}]") for i, x in enumerate(data)]
    return _SCALAR_READERS[kind]({section: data}, section)


_SCALAR_READERS = {bool: json_flag, int: json_int, float: json_number, str: json_str,
                   Optional[str]: json_str}
