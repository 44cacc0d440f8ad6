"""The base of the immutable term, value, property and record classes.

Each subclass lists its fields in __slots__ and in __match_args__ and sets
them once in its constructor.  By default it compares and hashes as the
tuple of those fields, as a frozen dataclass does.  The term, value and
property classes define their own __eq__ and __hash__, since their hash is
computed once: a subclass of several fields stores it at construction,
from its fields' own stored or cached hashes, and one whose only field is
a str, int, float or bool hashes as that field, which costs O(1) since a
str caches its hash.  So hashing never recurses into embedded triples.
"""

from __future__ import annotations

# Sets a field from a constructor, past Frozen.__setattr__.
set_field = object.__setattr__


class Frozen:
    """Assignment and deletion raise FrozenInstanceError, as on a frozen
    dataclass, and repr, equality and hash treat the fields the same way.
    Pickling and copying call the constructor again, so every check runs
    again and a stored hash never crosses into another process, whose str
    hashes differ.  The dataclasses module is imported only to raise, so
    importing the package does not load it."""

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def __setattr__(self, name: str, value: object) -> None:
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def _fields(self) -> tuple:
        return tuple(getattr(self, f) for f in self.__match_args__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __reduce__(self):
        return type(self), self._fields()

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"
