"""Immutable records without the import cost of `dataclasses`.

A subclass lists its fields in `__slots__` and stores them in its own
`__init__` through `_set`.  Fields cannot be assigned afterwards; `==`
compares the class and the fields, so a record never equals another
class's record or a plain tuple; `hash` is the hash of the field tuple;
`repr` shows every field whose name does not start with an underscore.
"""

from __future__ import annotations

_set = object.__setattr__


class Record:
    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}"
                          for name in self.__slots__
                          if not name.startswith("_"))
        return f"{type(self).__qualname__}({shown})"
