"""Property-based tests of the common memory model (store/load axioms)."""

import dataclasses

from hypothesis import assume, given, settings, strategies as st

from repro.memory import Memory, MemoryObject, PointerValue
from repro.memory.model import _COMPACT_THRESHOLD, ObjectMemory
from repro.smt import Solver, simplify, t
from repro.smt.eval import evaluate

SIZE = 16

offsets = st.integers(0, SIZE - 1)
widths = st.sampled_from([1, 2, 4, 8])
values = st.integers(0, 2**64 - 1)


def fresh() -> Memory:
    return Memory.create([MemoryObject("obj", SIZE)])


def ptr(offset: int) -> PointerValue:
    return PointerValue("obj", t.bv_const(offset, 64))


@st.composite
def store_sequences(draw):
    count = draw(st.integers(0, 6))
    sequence = []
    for _ in range(count):
        width = draw(widths)
        offset = draw(st.integers(0, SIZE - width))
        value = draw(values)
        sequence.append((offset, width, value))
    return sequence


def python_model(sequence):
    """Reference byte array semantics."""
    memory = [None] * SIZE
    for offset, width, value in sequence:
        for i in range(width):
            memory[offset + i] = (value >> (8 * i)) & 0xFF
    return memory


class TestStoreLoadAxioms:
    @given(sequence=store_sequences())
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_reference_bytes(self, sequence):
        memory = fresh()
        for offset, width, value in sequence:
            memory = memory.store(
                ptr(offset), t.bv_const(value, width * 8), width
            )
        reference = python_model(sequence)
        for index, expected in enumerate(reference):
            loaded = memory.load(ptr(index), 1)
            if expected is None:
                assert not loaded.is_const()  # still the initial symbol
            else:
                assert loaded.is_const() and loaded.value == expected

    @given(sequence=store_sequences(), offset=offsets, width=widths)
    @settings(max_examples=150, deadline=None)
    def test_wide_load_composes_bytes(self, sequence, offset, width):
        assume(offset + width <= SIZE)
        memory = fresh()
        for off, w, value in sequence:
            memory = memory.store(ptr(off), t.bv_const(value, w * 8), w)
        reference = python_model(sequence)
        loaded = memory.load(ptr(offset), width)
        if all(reference[offset + i] is not None for i in range(width)):
            expected = int.from_bytes(
                bytes(reference[offset + i] for i in range(width)), "little"
            )
            assert loaded.is_const() and loaded.value == expected

    @given(offset=st.integers(0, SIZE - 4), value=values)
    @settings(max_examples=100, deadline=None)
    def test_store_then_load_identity(self, offset, value):
        memory = fresh().store(ptr(offset), t.bv_const(value, 32), 4)
        assert memory.load(ptr(offset), 4).value == value & 0xFFFFFFFF

    @given(
        offset_a=st.integers(0, SIZE - 4),
        offset_b=st.integers(0, SIZE - 4),
        value=values,
    )
    @settings(max_examples=100, deadline=None)
    def test_disjoint_store_preserves(self, offset_a, offset_b, value):
        assume(abs(offset_a - offset_b) >= 4)
        first = t.bv_var("v0", 32)
        memory = fresh().store(ptr(offset_a), first, 4)
        memory = memory.store(ptr(offset_b), t.bv_const(value, 32), 4)
        assert memory.load(ptr(offset_a), 4) is first


class TestSymbolicOffsetSoundness:
    @given(
        store_offset=st.integers(0, SIZE - 1),
        read_offset=st.integers(0, SIZE - 1),
        value=st.integers(0, 255),
    )
    @settings(max_examples=40, deadline=None)
    def test_symbolic_read_matches_concrete(self, store_offset, read_offset, value):
        """A load at a symbolic offset, pinned by the solver to a concrete
        offset, must equal the direct concrete load."""
        memory = fresh().store(
            ptr(store_offset), t.bv_const(value, 8), 1
        )
        index = t.bv_var("idx", 64)
        symbolic = memory.load(PointerValue("obj", index), 1)
        concrete = memory.load(ptr(read_offset), 1)
        solver = Solver()
        pinned = t.implies(
            t.eq(index, t.bv_const(read_offset, 64)),
            t.eq(symbolic, concrete),
        )
        assert solver.prove(pinned)


# -- memory equality over the touched bytes ----------------------------------

EQ_SIZE = 12
KEY = t.bv_var("eq_key", 64)


def byte_by_byte(left: ObjectMemory, right: ObjectMemory) -> t.Term:
    """The equality as one conjunct per byte of the whole object."""
    return t.conj(
        t.eq(left.load_byte(i), right.load_byte(i))
        for i in range(left.descriptor.size)
    )


#: Stored bytes: constants, variables, slices of a word, and a zero-extended
#: boolean (an ``eq`` against a constant folds to its condition).
BYTES = [t.bv_const(value, 8) for value in (0, 1, 0x80, 0xFF)]
BYTES += [t.bv_var(f"eq_b{index}", 8) for index in range(3)]
BYTES += [t.extract(t.bv_var("eq_w", 32), low + 7, low) for low in (0, 8, 24)]
BYTES += [t.bool_to_bv(t.bool_var(f"eq_c{index}"), 8) for index in range(2)]

#: Concrete store offsets: in range, past the end, at the top of memory,
#: and a constant term (which the store folds to its int).
OFFSETS = list(range(EQ_SIZE)) + [EQ_SIZE, EQ_SIZE + 5, 2**64 - 2]
OFFSETS.append(t.bv_const(3, 64))

writes = st.tuples(
    st.sampled_from(OFFSETS),
    st.lists(st.sampled_from(BYTES), min_size=1, max_size=4).map(tuple),
)


@st.composite
def write_histories(draw):
    """A store history: short, or long enough to compact into the base map,
    with at most one write at a symbolic offset (which blocks compaction)."""
    long = _COMPACT_THRESHOLD - 2
    history = draw(
        st.lists(writes, max_size=4)
        | st.lists(writes, min_size=long, max_size=long + 6)
    )
    symbolic_at = draw(st.none() | st.integers(0, len(history)))
    if symbolic_at is not None:
        offset = t.add(KEY, t.bv_const(draw(st.integers(0, 3)), 64))
        history.insert(symbolic_at, (offset, (draw(st.sampled_from(BYTES)),)))
    return history


def replay(descriptor: MemoryObject, history) -> ObjectMemory:
    memory = ObjectMemory.fresh(descriptor)
    for offset, data in history:
        memory = memory.store_bytes(offset, data)
    return memory


class TestEqualTermOverTouchedBytes:
    @given(
        symbolic_init=st.booleans(),
        difference=st.sampled_from(["none", "name", "size", "symbolic_init"]),
        left=write_histories(),
        right=write_histories(),
        share=st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_same_term_as_byte_by_byte(
        self, symbolic_init, difference, left, right, share
    ):
        """Equal descriptors are the case the touched-byte path serves;
        ``share`` starts both sides from the same history so most bytes
        agree."""
        descriptor = MemoryObject("eq_obj", EQ_SIZE, symbolic_init=symbolic_init)
        right_descriptor = dataclasses.replace(
            descriptor,
            **{
                "none": {},
                "name": {"name": "eq_other"},
                "size": {"size": EQ_SIZE - 4},
                "symbolic_init": {"symbolic_init": not symbolic_init},
            }[difference],
        )
        left_memory = replay(descriptor, left)
        right_memory = replay(right_descriptor, left + right if share else right)
        expected = byte_by_byte(left_memory, right_memory)
        assert left_memory.equal_term(right_memory) is expected
        assert right_memory.equal_term(left_memory) is byte_by_byte(
            right_memory, left_memory
        )
        assert left_memory.equal_term(left_memory) is t.TRUE

    def test_compaction_folds_the_history_into_the_base_map(self):
        descriptor = MemoryObject("eq_obj", EQ_SIZE)
        history = [
            (i % EQ_SIZE, (t.bv_const(i, 8),))
            for i in range(_COMPACT_THRESHOLD + 1)
        ]
        compacted = replay(descriptor, history)
        assert compacted.writes == () and compacted.base
        fresh = ObjectMemory.fresh(descriptor)
        assert compacted.equal_term(fresh) is byte_by_byte(compacted, fresh)

    def test_symbolic_write_takes_the_full_comparison(self):
        """A write at a symbolic offset may cover any byte."""
        fresh = ObjectMemory.fresh(MemoryObject("eq_obj", EQ_SIZE))
        written = fresh.store_bytes(t.add(KEY, t.bv_const(1, 64)), (BYTES[4],))
        equal = written.equal_term(fresh)
        assert equal is byte_by_byte(written, fresh)
        assert len(equal.args) == EQ_SIZE

    def test_differently_named_objects_compare_every_byte(self):
        """Untouched bytes of two objects are two different unknowns."""
        left = ObjectMemory.fresh(MemoryObject("eq_obj", EQ_SIZE))
        right = ObjectMemory.fresh(MemoryObject("eq_other", EQ_SIZE))
        equal = left.equal_term(right)
        assert equal is byte_by_byte(left, right)
        assert len(equal.args) == EQ_SIZE

    def test_untouched_objects_intern_no_term(self):
        descriptor = MemoryObject("eq_page", 4096)
        before = t.interned_count()
        left = Memory.create([descriptor])
        right = Memory.create([MemoryObject("eq_page", 4096)])
        assert left.object("eq_page").equal_term(right.object("eq_page")) is t.TRUE
        assert left.equal_term(right) is t.TRUE
        assert t.interned_count() == before

    def test_one_written_word_compares_only_its_bytes(self):
        descriptor = MemoryObject("eq_page", 4096)
        left = Memory.create([descriptor])
        right = left.store(
            PointerValue("eq_page", t.bv_const(100, 64)),
            t.bv_var("eq_word", 32),
            4,
        )
        equal = left.equal_term(right)
        assert equal.op == "and" and len(equal.args) == 4
        assert equal is byte_by_byte(
            left.object("eq_page"), right.object("eq_page")
        )
