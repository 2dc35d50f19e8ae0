"""Internal helpers: typed, bounded fields for the config dataclasses."""

from __future__ import annotations

from dataclasses import field, fields
from numbers import Integral, Real

_TYPE_CHECKS = {  # bool is an Integral but not a count or a measure
    "int": lambda value: isinstance(value, Integral) and not isinstance(value, bool),
    "float": lambda value: isinstance(value, Real) and not isinstance(value, bool),
}
_TYPE_CHECKS["int | None"] = lambda value: value is None or _TYPE_CHECKS["int"](value)
_TYPE_CHECKS["tuple[int, ...]"] = lambda value: all(map(_TYPE_CHECKS["int"], value))
# A non-tuple passes here; the dataclass rejects all but a tuple of 3 with a ValueError.
_TYPE_CHECKS["tuple[float, float, float]"] = lambda value: (
    not isinstance(value, tuple) or all(map(_TYPE_CHECKS["float"], value)))


def within(default, interval: str):
    """A field whose numbers must lie in interval, written like "[0, 1)" or "(0, inf)".

    A callable default is the field's default factory.  The numbers of a
    tuple are its items, those of a schedule its start and end.
    """
    if callable(default):
        return field(default_factory=default, metadata={"interval": interval})
    return field(default=default, metadata={"interval": interval})


def _in_interval(interval: str, value) -> bool:
    low, high = (float(end) for end in interval[1:-1].split(","))
    above = low <= value if interval[0] == "[" else low < value
    return above and (value <= high if interval[-1] == "]" else value < high)


def check_fields(config) -> None:
    """TypeError for a number field of another type; ValueError for a number out of its interval."""
    for f in fields(config):
        value = getattr(config, f.name)
        if f.type in _TYPE_CHECKS and not _TYPE_CHECKS[f.type](value):
            raise TypeError(f"{f.name} must be {f.type}, got {value!r}")
        numbers = (value if isinstance(value, tuple)
                   else (value.start, value.end) if hasattr(value, "end") else (value,))
        if "interval" in f.metadata and not all(_in_interval(f.metadata["interval"], x)
                                                for x in numbers):
            raise ValueError(f"{f.name} must lie in {f.metadata['interval']}, got {value!r}")
