"""The base of the engine's value types: frozen records with no generated code."""

from __future__ import annotations


class Frozen:
    """A frozen value.  ``_fields`` names the fields, in constructor order,
    that equality, the hash and the repr read; ``_shown``, when a class sets
    it, the attributes the repr reads instead.  A subclass's ``__init__`` stores
    its fields through ``self.__dict__``, where ``cached_property`` keeps
    its values too; assigning or deleting an attribute raises AttributeError."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _shown: tuple[str, ...] | None = None

    def _values(self) -> tuple:
        d = self.__dict__
        return tuple([d[f] for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join([f"{f}={getattr(self, f)!r}" for f in self._shown or self._fields])
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name: str, value: object):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str):
        raise AttributeError(f"cannot delete field {name!r}")
