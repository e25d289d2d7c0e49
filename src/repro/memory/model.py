"""Object-based, byte-addressable, sequentially consistent symbolic memory.

Reproduces the paper's common memory model (``common.k``, Section 4.4):

- memory is a finite map from *objects* (globals, allocas/frame slots) to
  byte contents;
- both language semantics use the same model, so "memories are equal" is a
  single structural check in the acceptability relation;
- bounds are known per object, so out-of-bounds accesses are detected and
  surfaced as conditional *error branches* (Section 4.6) rather than being
  silently allowed;
- alignment is not modelled, exactly as in the paper ("our memory
  abstraction does not yet take alignment requirements into consideration").

Pointers are pairs ``(object, offset-term)``.  A pointer materialized into a
plain bitvector (``ptrtoint``, or a pointer stored to memory) becomes
``__addr_<object> + offset``; :func:`interpret_pointer` recognizes that shape
again (``inttoptr``, pointer loads).

Values are stored little-endian, matching x86-64.

The structures here are *persistent*: every update returns a new value and
shares unchanged parts, so symbolic execution can branch cheaply.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator

from repro.smt import terms as t
from repro.smt.terms import Term

POINTER_BITS = 64

#: Write chains longer than this are compacted into the byte map when every
#: entry has a concrete offset.
_COMPACT_THRESHOLD = 32


class AccessError(Exception):
    """Raised for accesses the model cannot express (not for OOB, which is a
    semantic error *branch*, not a Python error)."""


def object_base_var(object_name: str) -> Term:
    """The symbolic base address of a memory object (for ptrtoint etc.)."""
    return t.bv_var(f"__addr_{object_name}", POINTER_BITS)


@dataclass(frozen=True)
class PointerValue:
    """A pointer: an object plus a 64-bit byte offset into it."""

    object: str
    offset: Term

    def moved(self, delta: Term) -> "PointerValue":
        return PointerValue(self.object, t.add(self.offset, delta))

    def materialize(self) -> Term:
        """The pointer as a plain 64-bit term (base variable + offset)."""
        return t.add(object_base_var(self.object), self.offset)

    def __repr__(self) -> str:
        return f"&{self.object}[{self.offset!r}]"


def interpret_pointer(term: Term) -> PointerValue | None:
    """Recognize ``__addr_<obj> (+ offset)`` and rebuild the pointer."""
    prefix = "__addr_"
    if term.op == "bvvar" and term.name.startswith(prefix):
        return PointerValue(term.name[len(prefix) :], t.zero(POINTER_BITS))
    if term.op == "add":
        lhs, rhs = term.args
        if lhs.op == "bvvar" and lhs.name.startswith(prefix):
            return PointerValue(lhs.name[len(prefix) :], rhs)
        if rhs.op == "bvvar" and rhs.name.startswith(prefix):
            return PointerValue(rhs.name[len(prefix) :], lhs)
    return None


@dataclass(frozen=True)
class MemoryObject:
    """Static description of an allocation."""

    name: str
    size: int  # bytes
    kind: str = "global"  # "global" | "stack" | "external"
    symbolic_init: bool = True  # initial contents unknown (fresh symbols)


def _initial_byte(object_name: str, offset: int) -> Term:
    """The symbolic initial contents of one byte.

    Represented as a ``select`` at a constant offset — the same operator a
    read at a *symbolic* offset bottoms out in — so the solver's Ackermann
    congruence pass links the two ("if the symbolic index equals 3, the
    symbolic read equals byte 3").  Deterministic per (object, offset), so
    the LLVM state and the x86 state observe the same unknown."""
    return t.select(object_name, t.bv_const(offset, POINTER_BITS))


_WriteEntry = tuple[object, tuple[Term, ...]]  # (offset: int | Term, bytes)


@dataclass(frozen=True)
class ObjectMemory:
    """Contents of a single object: a base byte map plus a write chain.

    ``base`` maps concrete offsets to byte terms; ``writes`` is a tuple of
    ``(offset, bytes)`` entries, newest last, where ``offset`` is an ``int``
    (fast path) or a 64-bit :class:`Term`.  Reads walk the chain newest
    first.  When the chain grows long and is all-concrete it is folded into
    ``base``.
    """

    descriptor: MemoryObject
    base: dict[int, Term]
    writes: tuple[_WriteEntry, ...] = ()

    @staticmethod
    def fresh(descriptor: MemoryObject) -> "ObjectMemory":
        base: dict[int, Term] = {}
        if not descriptor.symbolic_init:
            base = {i: t.zero(8) for i in range(descriptor.size)}
        return ObjectMemory(descriptor, base)

    # -- writes ---------------------------------------------------------------

    def store_bytes(self, offset: object, data: tuple[Term, ...]) -> "ObjectMemory":
        if isinstance(offset, Term) and offset.is_const():
            offset = offset.value
        writes = self.writes + ((offset, data),)
        memory = replace(self, writes=writes)
        if len(writes) > _COMPACT_THRESHOLD:
            memory = memory._compact()
        return memory

    def _compact(self) -> "ObjectMemory":
        if any(not isinstance(off, int) for off, _ in self.writes):
            return self
        base = dict(self.base)
        for off, data in self.writes:
            for index, byte in enumerate(data):
                base[off + index] = byte
        return ObjectMemory(self.descriptor, base, ())

    # -- reads ----------------------------------------------------------------

    def _base_byte(self, offset: int) -> Term:
        byte = self.base.get(offset)
        if byte is not None:
            return byte
        return _initial_byte(self.descriptor.name, offset)

    def load_byte(self, offset: object) -> Term:
        """Read one byte at a concrete or symbolic offset."""
        if isinstance(offset, Term) and offset.is_const():
            offset = offset.value
        if isinstance(offset, int):
            return self._load_concrete(offset)
        return self._load_symbolic(offset)

    def _load_concrete(self, offset: int) -> Term:
        result: Term | None = None
        pending_symbolic: list[tuple[Term, Term]] = []  # (cond, value), oldest last
        for write_offset, data in reversed(self.writes):
            if isinstance(write_offset, int):
                if write_offset <= offset < write_offset + len(data):
                    result = data[offset - write_offset]
                    break
                continue
            # Symbolic write: might or might not cover this byte.
            concrete = t.bv_const(offset, POINTER_BITS)
            for index, byte in enumerate(data):
                covers = t.eq(
                    t.add(write_offset, t.bv_const(index, POINTER_BITS)), concrete
                )
                pending_symbolic.append((covers, byte))
        if result is None:
            result = self._base_byte(offset)
        for covers, byte in reversed(pending_symbolic):
            result = t.ite(covers, byte, result)
        return result

    def _load_symbolic(self, offset: Term) -> Term:
        result = t.select(self.descriptor.name, offset)
        # Fold the whole write history into an ite chain, oldest first so
        # the newest write ends up outermost.
        for write_offset, data in self.writes:
            base_term = (
                t.bv_const(write_offset, POINTER_BITS)
                if isinstance(write_offset, int)
                else write_offset
            )
            for index, byte in enumerate(data):
                covers = t.eq(
                    t.add(base_term, t.bv_const(index, POINTER_BITS)), offset
                )
                result = t.ite(covers, byte, result)
        # Initial bytes under a symbolic read also need the base map merged in
        # (writes may have been compacted into it).
        for concrete_offset, byte in self.base.items():
            covers = t.eq(t.bv_const(concrete_offset, POINTER_BITS), offset)
            result = t.ite(covers, byte, result)
        return result

    def equal_term(self, other: "ObjectMemory") -> Term:
        """A formula stating that two object contents are equal, byte-wise.

        Only offsets that either side wrote or holds in its base map are
        compared: a byte neither side touched reads the same interned
        :func:`_initial_byte` on both sides, so its equality is ``TRUE``
        and drops out of the conjunction.  The result is the very term the
        byte-by-byte comparison builds.  A write at a symbolic offset, or
        two different descriptors, take that full comparison.
        """
        if self is other:
            return t.TRUE
        size = self.descriptor.size
        touched = self._touched_offsets(other)
        offsets = (
            range(size)
            if touched is None
            else sorted(i for i in touched if 0 <= i < size)
        )
        return t.conj(
            t.eq(self.load_byte(i), other.load_byte(i)) for i in offsets
        )

    def _touched_offsets(self, other: "ObjectMemory") -> set[int] | None:
        """Every concrete offset either side wrote or holds in its base map,
        or None when only a full comparison is exact."""
        if self.descriptor != other.descriptor:
            return None
        touched = set(self.base)
        touched.update(other.base)
        for write_offset, data in self.writes + other.writes:
            if not isinstance(write_offset, int):
                return None
            touched.update(range(write_offset, write_offset + len(data)))
        return touched


@dataclass(frozen=True)
class Memory:
    """The full memory: an immutable map from object names to contents."""

    objects: tuple[tuple[str, ObjectMemory], ...] = ()

    @staticmethod
    def create(descriptors: Iterator[MemoryObject] | list[MemoryObject]) -> "Memory":
        return Memory(
            tuple(
                (descriptor.name, ObjectMemory.fresh(descriptor))
                for descriptor in descriptors
            )
        )

    def object(self, name: str) -> ObjectMemory:
        for key, contents in self.objects:
            if key == name:
                return contents
        raise AccessError(f"unknown memory object {name!r}")

    def has_object(self, name: str) -> bool:
        return any(key == name for key, _ in self.objects)

    def with_object(self, contents: ObjectMemory) -> "Memory":
        name = contents.descriptor.name
        updated = tuple(
            (key, contents if key == name else value) for key, value in self.objects
        )
        if not self.has_object(name):
            updated = self.objects + ((name, contents),)
        return Memory(updated)

    def add_object(self, descriptor: MemoryObject) -> "Memory":
        if self.has_object(descriptor.name):
            raise AccessError(f"memory object {descriptor.name!r} already exists")
        return Memory(self.objects + ((descriptor.name, ObjectMemory.fresh(descriptor)),))

    # -- typed access ------------------------------------------------------------

    def in_bounds_condition(self, pointer: PointerValue, width_bytes: int) -> Term:
        """A formula: the access ``[offset, offset+width)`` stays in bounds.

        Offsets are unsigned 64-bit; the check is ``offset <= size - width``
        which is overflow-safe because sizes are small concrete ints.
        """
        size = self.object(pointer.object).descriptor.size
        if width_bytes > size:
            return t.FALSE
        limit = t.bv_const(size - width_bytes, POINTER_BITS)
        return t.ule(pointer.offset, limit)

    def load(self, pointer: PointerValue, width_bytes: int) -> Term:
        """Load ``width_bytes`` little-endian; bounds NOT checked here (the
        semantics emits the error branch using :meth:`in_bounds_condition`)."""
        contents = self.object(pointer.object)
        offset = pointer.offset
        byte_terms = []
        for index in range(width_bytes):
            byte_offset = (
                offset.value + index
                if offset.is_const()
                else t.add(offset, t.bv_const(index, POINTER_BITS))
            )
            byte_terms.append(contents.load_byte(byte_offset))
        result = byte_terms[0]
        for byte in byte_terms[1:]:
            result = t.concat(byte, result)
        return result

    def store(
        self, pointer: PointerValue, value: Term, width_bytes: int
    ) -> "Memory":
        """Store ``width_bytes`` of ``value`` little-endian."""
        if value.width != width_bytes * 8:
            raise AccessError(
                f"store width mismatch: {value.width} bits into {width_bytes} bytes"
            )
        data = tuple(
            t.extract(value, index * 8 + 7, index * 8) for index in range(width_bytes)
        )
        contents = self.object(pointer.object)
        offset = pointer.offset
        key = offset.value if offset.is_const() else offset
        return self.with_object(contents.store_bytes(key, data))

    def equal_term(self, other: "Memory", objects: list[str] | None = None) -> Term:
        """Formula: both memories agree on the given objects (default: all
        objects present in *either* memory — the paper's "whole memory"
        equality constraint)."""
        if objects is None:
            names = [name for name, _ in self.objects]
            names += [
                name for name, _ in other.objects if not self.has_object(name)
            ]
        else:
            names = objects
        clauses = []
        for name in names:
            if not (self.has_object(name) and other.has_object(name)):
                return t.FALSE
            clauses.append(self.object(name).equal_term(other.object(name)))
        return t.conj(clauses)
