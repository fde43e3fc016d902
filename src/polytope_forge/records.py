"""Value records: tuples with named, read-only fields.

`record(name, fields, defaults)` makes the class that
`collections.namedtuple` would make, with the parts the package uses:
`_fields`, `_field_defaults`, `_make` (which `_replace` builds through, so
a subclass that validates there validates both), namedtuple's `repr`,
`__getnewargs__` for copy and pickle, and `__slots__ = ()`.  It compiles no
source: each field is a `property` over an `itemgetter`, and one shared
`__new__` binds positional, keyword and default arguments.
"""

from __future__ import annotations

import sys
from operator import itemgetter

__all__ = ["record"]


class _Record(tuple):
    """What every record class shares; `record` adds the fields."""

    __slots__ = ()

    def __new__(cls, /, *args, **kwargs):
        fields = cls._fields
        if len(args) > len(fields):
            raise TypeError(f"{cls.__name__}() takes {len(fields)} arguments, "
                            f"{len(args)} were given")
        if kwargs or len(args) < len(fields):
            values = list(args)
            for name in fields[len(args):]:
                if name in kwargs:
                    values.append(kwargs.pop(name))
                elif name in cls._field_defaults:
                    values.append(cls._field_defaults[name])
                else:
                    raise TypeError(f"{cls.__name__}() missing argument {name!r}")
            if kwargs:
                raise TypeError(f"{cls.__name__}() got unexpected or repeated "
                                f"arguments {sorted(kwargs)}")
            args = values
        return tuple.__new__(cls, args)

    @classmethod
    def _make(cls, iterable):
        """The record of iterable's values, one per field."""
        result = tuple.__new__(cls, iterable)
        if len(result) != len(cls._fields):
            raise TypeError(f"Expected {len(cls._fields)} arguments, got {len(result)}")
        return result

    def _replace(self, /, **changes):
        """A copy with the named fields changed, built by `_make`."""
        result = self._make(map(changes.pop, self._fields, self))
        if changes:
            raise ValueError(f"Got unexpected field names: {list(changes)!r}")
        return result

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self))
        return f"{type(self).__name__}({fields})"

    def __getnewargs__(self) -> tuple:
        """What copy and pickle pass back to __new__."""
        return tuple(self)


def record(name: str, fields: str, defaults: tuple = ()) -> type:
    """The record class `name` with the space-separated `fields`; the last
    len(defaults) fields default to `defaults`.  Like a namedtuple, the
    class belongs to the caller's module, where pickle finds it."""
    fields = tuple(fields.split())
    namespace = {
        "__slots__": (),
        "__module__": sys._getframe(1).f_globals["__name__"],
        "_fields": fields,
        "_field_defaults": dict(zip(fields[len(fields) - len(defaults):], defaults)),
    }
    for i, field in enumerate(fields):
        namespace[field] = property(itemgetter(i))
    return type(name, (_Record,), namespace)
