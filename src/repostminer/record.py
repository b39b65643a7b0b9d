"""Value records: the base of the package's checked value classes."""

from __future__ import annotations


class Record:
    """Value equality, a field-tuple hash and a keyword ``repr`` over the
    attribute names a subclass lists in ``_fields``.

    A subclass sets ``__slots__ = _fields = (...)`` and checks its values in
    its ``__init__``.  Records of different classes are never equal.  A
    subclass that holds dicts or lists sets ``__hash__ = None``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        return "{}({})".format(self.__class__.__name__, ", ".join(
            f"{name}={value!r}" for name, value in zip(self._fields, self._values())))
