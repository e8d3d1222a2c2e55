"""Immutable records, the base of the package's value types.

A record names its fields in ``__slots__``; its ``__init__`` takes them
positionally in slot order and sets each once with ``set_field``.
"""

set_field = object.__setattr__


class Record:
    """Read-only fields; equality, hash, ``repr``, ``to_dict``, copies and pickles by field, in slot order."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def to_dict(self) -> dict:
        """The fields by name, in slot order, for ``json.dumps``."""
        return {name: getattr(self, name) for name in self.__slots__}

    def __reduce__(self) -> tuple:
        # copy, deepcopy and pickle rebuild through __init__, since __setattr__ refuses them
        return type(self), tuple(getattr(self, name) for name in self.__slots__)
