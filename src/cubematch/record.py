"""The frozen-record base of the package's value classes.

A record is a `__slots__` class whose fields are named, in constructor
order, by `__match_args__`.  After construction, assignment and deletion
raise `AttributeError`.  `repr` prints `Name(field=value, ...)`, and
`copy`, `deepcopy` and `pickle` rebuild a record through its constructor,
so derived state is recomputed, never copied.

A record is built in one of two ways:

- By default through `Record.__init__`, which binds positional and
  keyword arguments to the fields, fills the missing ones from the
  class's `_defaults`, stores them and then calls the `_check` hook that
  validates them.  Most records are built a handful of times per
  command, so this one loop serves them all.
- The records built per binder or per candidate (term nodes, `QDecl`,
  `QContext`, `SubstTriple`, `Substitution`) write their own
  `__init__`, which stores each field through the slot's own setter
  (`slot_setters`): through the shared loop, `QDecl`, `QContext` and
  `SubstTriple` cost about 7 % of the `solve-small` verdicts/s.

`==` and `hash` compare the tuple `_key` returns, by default every field;
a class whose display names do not count overrides `_key`.  Records of
different classes are never equal.
"""

from __future__ import annotations

from collections.abc import Callable

_store = object.__setattr__


class Record:
    __slots__ = ()
    __match_args__: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}

    def __init__(self, *args: object, **kwargs: object) -> None:
        cls = type(self)
        fields = cls.__match_args__
        if len(args) > len(fields):
            names = ", ".join(fields)
            raise TypeError(f"{cls.__name__}() got {len(args)} arguments for its fields ({names})")
        for name, value in zip(fields, args):
            if name in kwargs:
                raise TypeError(f"{cls.__name__}() got multiple values for argument {name!r}")
            _store(self, name, value)
        defaults = cls._defaults
        for name in fields[len(args) :]:
            if name in kwargs:
                _store(self, name, kwargs.pop(name))
            elif name in defaults:
                _store(self, name, defaults[name])
            else:
                raise TypeError(f"{cls.__name__}() missing required argument {name!r}")
        if kwargs:
            name = next(iter(kwargs))
            raise TypeError(f"{cls.__name__}() got an unexpected keyword argument {name!r}")
        self._check()

    def _check(self) -> None:
        """Validate the stored fields; raise ValueError if they are not."""

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        return tuple([getattr(self, f) for f in self.__match_args__])

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self is other or self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __reduce__(self) -> tuple:
        return type(self), tuple([getattr(self, f) for f in self.__match_args__])

    def __repr__(self) -> str:
        fields = ", ".join([f"{f}={getattr(self, f)!r}" for f in self.__match_args__])
        return f"{type(self).__name__}({fields})"


def slot_setters(cls: type, *names: str) -> tuple[Callable[[object, object], None], ...]:
    """The setters of cls's slots `names` (default: its fields), in order.

    `__setattr__` refuses every assignment; these store a field without
    the lookup that `object.__setattr__` would make."""
    return tuple([getattr(cls, n).__set__ for n in names or cls.__match_args__])
