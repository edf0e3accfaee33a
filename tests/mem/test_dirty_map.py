"""Differential test: the bytearray dirty map against the NumPy reference.

Both buffers are driven with the same op sequences; after every op the
visible and durable images, the dirty line set, the return value (or
error) and the counters must agree, and a crash must leave both RNGs in
the same state.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import MemoryAccessError
from repro.mem.buffer import ATOMIC_WORD, CACHELINE, PersistentBuffer
from tests.mem.reference_buffer import NumpyPersistentBuffer

#: Buffer sizes: whole lines, and sizes whose last line is partial.
SIZES = (4 * CACHELINE, 16 * CACHELINE, 16 * CACHELINE + 17, 1000, 130)


def dirty_set(buf) -> set[int]:
    if isinstance(buf, NumpyPersistentBuffer):
        return set(np.flatnonzero(buf._dirty).tolist())
    return {i for i, b in enumerate(buf._dirty) if b}


def assert_same(buf, ref) -> None:
    assert bytes(buf.visible) == bytes(ref.visible)
    assert bytes(buf.durable) == bytes(ref.durable)
    assert dirty_set(buf) == dirty_set(ref)
    assert buf.stats.as_dict() == ref.stats.as_dict()
    assert buf.dirty_line_count() == ref.dirty_line_count()


def outcome(fn, *args, **kw):
    try:
        return ("ok", fn(*args, **kw))
    except MemoryAccessError as exc:
        return ("err", str(exc))


@st.composite
def range_in(draw, size):
    """An ``(addr, length)`` range: one line, a long range, the partial
    tail of the buffer, or anything (occasionally out of bounds)."""
    shape = draw(st.sampled_from(["line", "long", "tail", "any"]))
    n_lines = (size + CACHELINE - 1) // CACHELINE
    if shape == "line":
        line = draw(st.integers(0, n_lines - 1))
        addr = line * CACHELINE + draw(st.integers(0, CACHELINE - 1))
        addr = min(addr, size - 1)
        return addr, draw(st.integers(1, min(CACHELINE, size - addr)))
    if shape == "long":
        addr = draw(st.integers(0, size // 4))
        return addr, draw(st.integers(size // 2, size - addr))
    if shape == "tail":
        k = draw(st.integers(0, min(size, 2 * CACHELINE)))
        return size - k, k
    return draw(st.integers(-2, size + 2)), draw(st.integers(0, size + 2))


@st.composite
def scenario(draw):
    size = draw(st.sampled_from(SIZES))
    ops = []
    for _ in range(draw(st.integers(0, 40))):
        kind = draw(
            st.sampled_from(
                [
                    "write",
                    "write",
                    "write",
                    "atomic",
                    "flush",
                    "flush",
                    "flush_all",
                    "flush_torn",
                    "corrupt",
                    "is_persistent",
                    "dirty_lines_in",
                ]
            )
        )
        if kind == "write":
            addr, length = draw(range_in(size))
            if length <= 256:
                data = draw(st.binary(min_size=length, max_size=length))
            else:
                data = bytes([draw(st.integers(0, 255))]) * length
            ops.append((kind, addr, data))
        elif kind == "atomic":
            word = draw(st.integers(0, size // ATOMIC_WORD - 1))
            ops.append((kind, word * ATOMIC_WORD, draw(st.binary(min_size=8, max_size=8))))
        elif kind == "flush_all":
            ops.append((kind,))
        elif kind == "corrupt":
            ops.append(
                (
                    kind,
                    draw(st.integers(0, size - 1)),
                    draw(st.sampled_from(["bitflip", "zero_line"])),
                    draw(st.one_of(st.none(), st.integers(0, 2**32 - 1))),
                )
            )
        elif kind == "flush_torn":
            addr, length = draw(range_in(size))
            ops.append((kind, addr, length, draw(st.integers(0, 2**32 - 1))))
        else:
            ops.append((kind, *draw(range_in(size))))
    crash = draw(
        st.one_of(
            st.none(),
            st.tuples(
                st.sampled_from([0.0, 0.3, 0.5, 1.0]),
                st.booleans(),
                st.integers(0, 2**32 - 1),
            ),
        )
    )
    return size, ops, crash


def apply(buf, op):
    kind = op[0]
    if kind == "write":
        return outcome(buf.write, op[1], op[2])
    if kind == "atomic":
        return outcome(buf.write_atomic64, op[1], op[2])
    if kind == "flush":
        return outcome(buf.flush, op[1], op[2])
    if kind == "flush_all":
        return outcome(buf.flush_all)
    if kind == "is_persistent":
        return outcome(buf.is_persistent, op[1], op[2])
    if kind == "dirty_lines_in":
        return outcome(buf.dirty_lines_in, op[1], op[2])
    if kind == "flush_torn":
        rng = np.random.default_rng(op[3])
        return outcome(buf.flush_torn, op[1], op[2], rng), rng.bit_generator.state
    _, addr, corruption, seed = op
    rng = None if seed is None else np.random.default_rng(seed)
    res = outcome(buf.corrupt, addr, corruption, rng=rng)
    return res, None if rng is None else rng.bit_generator.state


@settings(max_examples=300, deadline=None)
@given(scenario())
def test_bytearray_map_matches_numpy_reference(case):
    size, ops, crash = case
    buf, ref = PersistentBuffer(size), NumpyPersistentBuffer(size)
    for op in ops:
        assert apply(buf, op) == apply(ref, op), op
        assert_same(buf, ref)
    if crash is not None:
        p, tear, seed = crash
        rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
        assert buf.crash(rng_a, p, tear_words=tear) == ref.crash(
            rng_b, p, tear_words=tear
        )
        assert rng_a.bit_generator.state == rng_b.bit_generator.state
        assert_same(buf, ref)


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("tear", [False, True])
def test_flush_of_several_runs_then_crash(size, tear):
    """A long flush over several separated dirty runs, including the
    partial last line, then a crash over the runs left dirty."""
    buf, ref = PersistentBuffer(size), NumpyPersistentBuffer(size)
    n_lines = (size + CACHELINE - 1) // CACHELINE
    for b in (buf, ref):
        for line in range(0, n_lines, 3):
            start = line * CACHELINE
            b.write(start, bytes([line + 1]) * min(2 * CACHELINE, size - start))
        b.write(size - 3, b"end")
    assert_same(buf, ref)
    assert buf.flush(CACHELINE, size - 2 * CACHELINE) == ref.flush(
        CACHELINE, size - 2 * CACHELINE
    )
    assert_same(buf, ref)
    assert buf.dirty_lines_in(0, size) == ref.dirty_lines_in(0, size) > 0
    rng_a, rng_b = np.random.default_rng(5), np.random.default_rng(5)
    assert buf.crash(rng_a, 0.5, tear_words=tear) == ref.crash(
        rng_b, 0.5, tear_words=tear
    )
    assert rng_a.bit_generator.state == rng_b.bit_generator.state
    assert_same(buf, ref)


def test_write_span_is_uncapped():
    """One write can dirty every line of a large buffer."""
    size = (1 << 20) + 5
    buf = PersistentBuffer(size)
    buf.write(0, bytes(range(256)) * (size // 256) + b"tail!")
    n_lines = (size + CACHELINE - 1) // CACHELINE
    assert buf.dirty_line_count() == n_lines
    assert buf.flush_all() == n_lines
    assert buf.visible == buf.durable
    assert buf.dirty_line_count() == 0
