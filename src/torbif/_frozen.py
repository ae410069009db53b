"""The immutable base of the package's public value types.

A subclass names its fields in `_fields` and stores them in its own
`__init__` with `vars(self).update(...)`, after its checks.  The base
compares, hashes and prints those fields as a frozen dataclass would:
`==` holds only between instances of the same class with equal fields,
`hash` is the hash of the tuple of fields, and `repr` reads
`Name(field=value, ...)`.  Assigning or deleting an attribute raises
AttributeError.  Instances keep their `__dict__`, so `vars`, `pickle` and
`copy` work on them.  The package does not use `dataclasses`, whose
import pulls in `inspect` and `ast` and whose decorator compiles methods
for each class, both at every start of the command line.

The subclasses' constructors share a range check, `_at_least`, and a
multiset merge, `_merged`.  `_trusted` is the one constructor for values
already known to pass those checks, such as a problem file's fields after
`problem_io` has read them: it stores the fields and runs no `__init__`.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping


def _at_least(value: int, what: str, least: int) -> int:
    """`value` if it is an int, not a bool, of at least `least` (0 or 1);
    otherwise ValueError."""
    if not isinstance(value, int) or isinstance(value, bool) or value < least:
        kind = "positive" if least else "nonnegative"
        raise ValueError(f"{what} must be a {kind} int, got {value!r}")
    return value


def _merged(items: Iterable | Mapping, key: Callable, check: Callable) -> dict:
    """The pairs (k, v) of a mapping or an iterable as a dict from key(k)
    to the sum of check(v); key runs first on each pair."""
    merged: dict = {}
    for k, v in items.items() if isinstance(items, Mapping) else items:
        k = key(k)
        merged[k] = merged.get(k, 0) + check(v)
    return merged


def _trusted(cls: type, **fields: object):
    """An instance of `cls` with these fields, which must already be what
    its constructor would store: nothing is checked, merged or sorted."""
    instance = object.__new__(cls)
    vars(instance).update(fields)
    return instance


class Frozen:
    """Equality, hashing and repr over the fields named in `_fields`, and
    no assignment after `__init__`."""

    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
