"""The base of the immutable term, value and property classes.

Each subclass lists its fields in __slots__ and in __match_args__, sets
them once in its constructor, and defines __eq__ and __hash__.  A hash is
computed once: a subclass of several fields stores it at construction,
from its fields' own stored or cached hashes, and one whose only field is
a str, int, float or bool hashes as that field, which costs O(1) since a
str caches its hash.  So hashing never recurses into embedded triples.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError

# Sets a field from a constructor, past Frozen.__setattr__.
set_field = object.__setattr__


class Frozen:
    """Assignment and deletion raise FrozenInstanceError, as on a frozen
    dataclass, and repr lists the fields the same way.  Pickling and
    copying call the constructor again, so every check runs again and a
    stored hash never crosses into another process, whose str hashes
    differ."""

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self.__match_args__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"
