"""Value checks shared by the constructors and the run-config reader.

A check is a (predicate, what a value must be) pair, and a keys table maps
each key a component reads to its (check, default).  Bools are not numbers.
"""

from __future__ import annotations

import math
import numbers

REQUIRED = object()  # the default of a key that must be given
NUMBER = (lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool), "a number")
INTEGER = (lambda v: NUMBER[0](v) and isinstance(v, numbers.Integral), "an integer")
NAMES = (lambda v: isinstance(v, (list, tuple)) and len(v) > 0
         and all(isinstance(n, str) for n in v), "a non-empty list of names")


def is_finite(v) -> bool:
    return NUMBER[0](v) and -math.inf < v < math.inf


POSITIVE = (lambda v: is_finite(v) and v > 0, "a finite positive number")
AT_LEAST_ZERO = (lambda v: is_finite(v) and v >= 0, "a finite number of at least 0")


def at_least(floor):
    return lambda v: INTEGER[0](v) and v >= floor, f"an integer of at least {floor}"


def one_of(*choices):
    return lambda v: v in choices, f"one of {', '.join(choices)}"


def check_value(name, value, check):
    if not check[0](value):
        raise ValueError(f"{name} must be {check[1]}, got {value!r}")


class Section:
    """One mapping at dotted key ``path``, read key by key.  A None value
    reads as absent, :meth:`done` rejects the keys nothing read, and each
    rejection raises ``error`` naming the dotted key."""

    def __init__(self, doc, path, error=ValueError):
        if not isinstance(doc, dict):
            raise error(f"{path or 'config root'} must be a mapping, got {doc!r}")
        self.doc, self.path, self.error, self.read = doc, path, error, set()

    def key(self, name) -> str:
        return f"{self.path}.{name}" if self.path else str(name)

    def get(self, name, default=REQUIRED, check=None):
        self.read.add(name)
        value = self.doc.get(name)
        if value is None:
            if default is REQUIRED:
                raise self.error(f"missing {self.key(name)!r}")
            return default
        if check and not check[0](value):
            raise self.error(f"{self.key(name)} must be {check[1]}, got {value!r}")
        return value

    def section(self, name, optional=False) -> Section:
        return Section(self.get(name, {} if optional else REQUIRED), self.key(name), self.error)

    def table(self, keys) -> dict:
        """Each key of a keys table, read with its check and default."""
        return {name: self.get(name, default, check) for name, (check, default) in keys.items()}

    def done(self):
        unknown = sorted(self.key(name) for name in set(self.doc) - self.read)
        if unknown:
            raise self.error(f"unknown keys: {', '.join(unknown)}")


def checked(keys: dict, params, owner: str) -> dict:
    """``params`` with every key of ``keys``, an absent one at its default;
    a rejected key raises ValueError naming ``owner.key``."""
    section = Section(dict(params), owner)
    values = section.table(keys)
    section.done()
    return values
