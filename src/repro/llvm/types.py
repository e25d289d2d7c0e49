"""LLVM type system subset with byte layout.

The paper's memory model ignores alignment, so composite layout here is
*packed*: a struct's size is the sum of its field sizes and field offsets
are cumulative.  Integer types of any positive bit width are supported
(``i96`` appears in one of the paper's reintroduced bugs); their byte size
is the width rounded up to whole bytes.
"""

from __future__ import annotations

from dataclasses import dataclass


class Type:
    """Base class for LLVM types."""

    __slots__ = ()


@dataclass(frozen=True)
class VoidType(Type):
    def __str__(self) -> str:
        return "void"


@dataclass(frozen=True)
class IntType(Type):
    width: int

    def __post_init__(self):
        if self.width <= 0:
            raise ValueError(f"integer width must be positive, got {self.width}")

    def __str__(self) -> str:
        return f"i{self.width}"


@dataclass(frozen=True)
class PointerType(Type):
    pointee: Type

    def __str__(self) -> str:
        return f"{self.pointee}*"


@dataclass(frozen=True)
class ArrayType(Type):
    element: Type
    count: int

    def __str__(self) -> str:
        return f"[{self.count} x {self.element}]"


@dataclass(frozen=True)
class StructType(Type):
    fields: tuple[Type, ...]

    def __str__(self) -> str:
        inner = ", ".join(str(field) for field in self.fields)
        return "{ " + inner + " }"


void = VoidType()
i1 = IntType(1)
i8 = IntType(8)
i16 = IntType(16)
i32 = IntType(32)
i64 = IntType(64)

#: Pointers are 64-bit on x86-64.
POINTER_BYTES = 8


def sizeof(type_: Type) -> int:
    """Byte size under the packed (alignment-free) layout."""
    if isinstance(type_, IntType):
        return (type_.width + 7) // 8
    if isinstance(type_, PointerType):
        return POINTER_BYTES
    if isinstance(type_, ArrayType):
        return type_.count * sizeof(type_.element)
    if isinstance(type_, StructType):
        return sum(sizeof(field) for field in type_.fields)
    raise TypeError(f"type {type_} has no size")


def field_offset(struct: StructType, index: int) -> int:
    """Byte offset of field ``index`` in the packed layout."""
    if not (0 <= index < len(struct.fields)):
        raise IndexError(f"struct field {index} out of range")
    return sum(sizeof(field) for field in struct.fields[:index])


def bit_width(type_: Type) -> int:
    """Bit width of a first-class value of this type as held in a register."""
    if isinstance(type_, IntType):
        return type_.width
    if isinstance(type_, PointerType):
        return POINTER_BYTES * 8
    raise TypeError(f"type {type_} is not a first-class scalar")
