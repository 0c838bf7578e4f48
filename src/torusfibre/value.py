"""The base of the package's value classes: plain data compared, hashed and
shown by its fields."""

__all__ = ["Value"]


class Value:
    """Equality, hashing and repr by fields.  A subclass names its fields in
    ``_fields``, in repr order, and reads them with
    ``_key = operator.attrgetter(*_fields)``: objects of one class with equal
    fields are equal, and hash alike.  A mutable subclass sets
    ``__hash__ = None``."""

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__name__}({fields})"
