"""The immutable value base of the package's record types. A subclass
annotates its fields, in order, and its `__init__` sets them in one
`self.__dict__.update(...)`. Its instances compare, hash and show as a
frozen dataclass of those fields would, and refuse assignment and deletion.
Attributes it does not annotate take no part in `==`, `hash` or `repr`."""
from __future__ import annotations


class FrozenInstanceError(AttributeError):
    """An assignment to, or a deletion of, an attribute of a `Frozen`."""


class Frozen:
    _fields: tuple[str, ...] = ()  # a subclass's annotated names, in order

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(cls.__annotations__)

    def __setattr__(self, name: str, *value: object) -> None:
        raise FrozenInstanceError(f"cannot {'assign to' if value else 'delete'} field {name!r}")

    __delattr__ = __setattr__

    def _key(self) -> tuple[object, ...]:
        return tuple([self.__dict__[name] for name in self._fields])

    def __eq__(self, other: object) -> bool:
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        shown = ", ".join([f"{name}={self.__dict__[name]!r}" for name in self._fields])
        return f"{type(self).__qualname__}({shown})"

    def replace(self, **changes: object) -> Frozen:
        """A copy with `changes`, built by the constructor, so its checks run.
        Not for `Expr`, whose constructor takes its fields by position."""
        code = type(self).__init__.__code__
        names = code.co_varnames[1:code.co_argcount]
        return type(self)(**{name: self.__dict__[name] for name in names} | changes)
