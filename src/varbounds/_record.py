"""Repr, equality and hashing for the package's record types, from a ``_fields`` tuple.

The records (:class:`~varbounds.moments.MomentSet`,
:class:`~varbounds.lower_bounds.BoundResult`, :class:`~varbounds.sweep.SweepSpec`,
...) are plain classes with an explicit ``__init__``, so importing the
package generates no code.  The standard library's record decorator writes
and compiles the source of ``__init__``, ``__repr__`` and ``__eq__`` for
each class on every import: about 0.4 ms per class and 0.8 ms per frozen
one on Python 3.11, most of the import of a bytecode-cached package.

:class:`lazy` is the attribute computed on first read that
:class:`~varbounds.moments.Instance` and ``MomentSet`` use.  Unlike
``functools.cached_property`` on Python 3.10 and 3.11, it takes no lock.
"""

from __future__ import annotations


class Record:
    """Repr and equality over the attributes named in ``_fields``, in that order.

    Records are equal when they are of one class and their field tuples are
    equal.  A record's fields can be reassigned, so it is not hashable.
    """

    _fields: tuple = ()
    __hash__ = None

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __repr__(self) -> str:
        args = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({args})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()


class FrozenRecord(Record):
    """A record whose fields are set once, by ``__init__`` through ``self.__dict__``; hashable.

    Assignment and deletion raise ``AttributeError``.  A :class:`lazy`
    attribute still works, as it writes to the instance dict directly.
    """

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash(self._values())


class lazy:
    """A method read as an attribute: computed on first read and stored in the instance dict.

    A non-data descriptor, so the stored value shadows it on later reads.
    It takes no lock: two threads reading first may both compute, and the
    value is a function of the instance alone.
    """

    def __init__(self, func):
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value
