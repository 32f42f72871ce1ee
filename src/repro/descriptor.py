"""Descriptors and the literal constants of Table V (paper section III-C).

A descriptor is "a lightweight object [that] pairs a set of flags
representing the possible modifiers with each mask, vector, or matrix
argument of a GraphBLAS method".  Fields name the method argument
(``OUTP``/``MASK``/``INP0``/``INP1``); values select the modifier
(``REPLACE``/``SCMP``/``TRAN``, plus the ``STRUCTURE`` mask extension).

An operation reads its descriptor once, at the call (:func:`effective`), and
keeps that value; the predefined ``DESC_*`` descriptors are read-only.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from .info import InvalidValue, NullPointer, UninitializedObject

__all__ = [
    "Field",
    "Value",
    "Descriptor",
    "Flags",
    "descriptor_new",
    "descriptor_set",
    "OUTP",
    "MASK",
    "INP0",
    "INP1",
    "REPLACE",
    "SCMP",
    "TRAN",
    "STRUCTURE",
    "ALL",
    "NULL",
    "DESC_T0",
    "DESC_T1",
    "DESC_T0T1",
    "DESC_R",
    "DESC_SC",
    "DESC_RSC",
    "DESC_TSR",
]


class Field(enum.Enum):
    """Descriptor field: which argument of the method the value modifies."""

    OUTP = "GrB_OUTP"
    MASK = "GrB_MASK"
    INP0 = "GrB_INP0"
    INP1 = "GrB_INP1"


class Value(enum.Enum):
    """Descriptor values (Table V)."""

    #: clear the output object before the masked result is stored (replace mode)
    REPLACE = "GrB_REPLACE"
    #: use the structural complement of the mask
    SCMP = "GrB_SCMP"
    #: use the transpose of the corresponding input matrix
    TRAN = "GrB_TRAN"
    #: (extension) use only the mask's structure, ignoring stored values
    STRUCTURE = "GrB_STRUCTURE"


OUTP = Field.OUTP
MASK = Field.MASK
INP0 = Field.INP0
INP1 = Field.INP1
REPLACE = Value.REPLACE
SCMP = Value.SCMP
TRAN = Value.TRAN
STRUCTURE = Value.STRUCTURE

#: ``GrB_ALL`` — "all of an object's indices in order" (Table V).
ALL = type("GrB_ALL", (), {"__repr__": lambda self: "GrB_ALL"})()

#: ``GrB_NULL`` — "null value used to indicate when a parameter is not
#: provided and a default behavior should be used" (Table V).  Python's
#: ``None`` plays the same role; this alias keeps transliterated C code
#: readable.
NULL = None


class Flags(NamedTuple):
    """The five modifier bits a call reads: a descriptor's value at the
    call, which a deferred operation keeps whatever later happens to the
    descriptor itself."""

    replace: bool = False
    mask_complement: bool = False
    mask_structure: bool = False
    transpose0: bool = False
    transpose1: bool = False


#: the valid (field, value) pairs, one behind each :class:`Flags` bit
_BITS = (
    (OUTP, REPLACE), (MASK, SCMP), (MASK, STRUCTURE), (INP0, TRAN), (INP1, TRAN)
)


class Descriptor:
    """An opaque set of (field, value) modifier pairs.

    Multiple values may be set on the MASK field (``SCMP`` and ``STRUCTURE``
    compose); the other fields hold at most their single valid value.
    """

    __slots__ = ("_flags", "_valid", "_readonly")

    def __init__(self):
        self._flags = Flags()
        self._valid = True
        self._readonly = False

    def set(self, field: Field, value: Value) -> "Descriptor":
        """``GrB_Descriptor_set`` (Table VI).  Returns self for chaining."""
        self.flags()  # a freed descriptor raises
        if self._readonly:
            raise InvalidValue("a predefined descriptor cannot be modified")
        if not isinstance(field, Field):
            raise InvalidValue(f"{field!r} is not a descriptor field")
        if not isinstance(value, Value):
            raise InvalidValue(f"{value!r} is not a descriptor value")
        if (field, value) not in _BITS:
            raise InvalidValue(
                f"value {value.value} is not valid for field {field.value}"
            )
        bit = Flags._fields[_BITS.index((field, value))]
        self._flags = self._flags._replace(**{bit: True})
        return self

    def flags(self) -> Flags:
        """The descriptor's current value; a freed one raises
        ``UninitializedObject``."""
        if not self._valid:
            raise UninitializedObject("descriptor has been freed")
        return self._flags

    # convenience accessors
    replace = property(lambda self: self.flags().replace)
    mask_complement = property(lambda self: self.flags().mask_complement)
    mask_structure = property(lambda self: self.flags().mask_structure)
    transpose0 = property(lambda self: self.flags().transpose0)
    transpose1 = property(lambda self: self.flags().transpose1)

    def free(self) -> None:
        """``GrB_free``; the predefined descriptors are never freed."""
        if not self._readonly:
            self._valid = False

    def __repr__(self) -> str:
        parts = [
            f"{f.value}={v.value}"
            for (f, v), on in zip(_BITS, self._flags)
            if on
        ]
        return f"Descriptor({', '.join(parts) or 'default'})"


def descriptor_new() -> Descriptor:
    """``GrB_Descriptor_new`` (Table VI): create an empty descriptor."""
    return Descriptor()


def descriptor_set(desc: Descriptor, field: Field, value: Value) -> None:
    """``GrB_Descriptor_set`` free-function form, as in Fig. 3 lines 16-18."""
    if desc is None:
        raise NullPointer("descriptor is GrB_NULL")
    desc.set(field, value)


def _preset(*pairs: tuple[Field, Value]) -> Descriptor:
    d = Descriptor()
    for f, v in pairs:
        d.set(f, v)
    d._readonly = True
    return d


# The predefined descriptors (the C API's GrB_DESC_* constants): read-only.
DESC_T0 = _preset((INP0, TRAN))
DESC_T1 = _preset((INP1, TRAN))
DESC_T0T1 = _preset((INP0, TRAN), (INP1, TRAN))
DESC_R = _preset((OUTP, REPLACE))
DESC_SC = _preset((MASK, SCMP))
DESC_RSC = _preset((OUTP, REPLACE), (MASK, SCMP))
#: The BC example's ``desc_tsr`` (Fig. 3 lines 14-18): transpose INP0,
#: complement the mask, replace the output.
DESC_TSR = _preset((INP0, TRAN), (MASK, SCMP), (OUTP, REPLACE))


def effective(desc: Descriptor | None) -> Flags:
    """A call's descriptor resolved at the call: ``GrB_NULL`` is the default
    (no flags set), and a freed descriptor raises ``UninitializedObject``
    — an API error, so it changes nothing."""
    return _DEFAULT if desc is None else desc.flags()


_DEFAULT = Flags()
