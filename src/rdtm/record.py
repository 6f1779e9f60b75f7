"""Immutable value classes, without ``dataclasses``.

Importing ``dataclasses`` (and the ``inspect`` it pulls in) and building
classes through it took longer than many commands spend computing.  A value
class here lists its fields in ``__slots__`` and sets them in its own
``__init__`` (``_assign``), and keeps what rdtm relies on of a frozen
dataclass:

- equality only between instances of the same class, on the tuple of fields;
- ``hash`` of that tuple, so sets and dicts iterate in the same order;
- ``Name(field=value, ...)`` as its repr;
- assigning or deleting an attribute raises ``AttributeError``;
- ``copy`` and ``pickle`` rebuild an instance from its fields.

The expression nodes, which every kernel operation builds, compares and
hashes, get those methods written out for their one or two fields by
``fast_fields``.
"""

from __future__ import annotations

__all__ = ["Record", "fast_fields"]

_set = object.__setattr__


class Record:
    """Base of an immutable value class whose fields are its ``__slots__``."""

    __slots__ = ()

    def _assign(self, **fields):
        for name, value in fields.items():
            _set(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values()


_FAST_METHODS = {
    1: """
def __init__(self, {0}):
    _set(self, "{0}", {0})

def __eq__(self, other):
    if other.__class__ is self.__class__:
        return self.{0} == other.{0}
    return NotImplemented

def __hash__(self):
    return hash((self.{0},))
""",
    2: """
def __init__(self, {0}, {1}):
    _set(self, "{0}", {0})
    _set(self, "{1}", {1})

def __eq__(self, other):
    if other.__class__ is self.__class__:
        return (self.{0}, self.{1}) == (other.{0}, other.{1})
    return NotImplemented

def __hash__(self):
    return hash((self.{0}, self.{1}))
""",
}


def fast_fields(cls):
    """Class decorator for a Record with one or two fields: ``__init__``,
    ``__eq__`` and ``__hash__`` that name the fields, in place of Record's
    loops over ``__slots__``.  A method the class defines itself is kept."""
    namespace = {"_set": _set, "__name__": cls.__module__}
    exec(_FAST_METHODS[len(cls.__slots__)].format(*cls.__slots__), namespace)
    for name in ("__init__", "__eq__", "__hash__"):
        if name not in cls.__dict__:
            method = namespace[name]
            method.__qualname__ = f"{cls.__qualname__}.{name}"
            setattr(cls, name, method)
    return cls
