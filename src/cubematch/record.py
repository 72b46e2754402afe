"""The frozen-record base of the package's value classes.

A record is a `__slots__` class whose fields are named, in constructor
order, by `__match_args__`.  Each class writes its one `__init__`, which
checks its arguments and stores them through the slots' own setters
(`slot_setters`); after that, assignment and deletion raise
`AttributeError`.  `repr` prints `Name(field=value, ...)`, and `copy`,
`deepcopy` and `pickle` rebuild a record through its constructor, so
derived state is recomputed, never copied.

`==` and `hash` compare the tuple `_key` returns, by default every field;
a class whose display names do not count overrides `_key`.  Records of
different classes are never equal.
"""

from __future__ import annotations

from typing import Callable


class Record:
    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

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
