"""CRC-32 implementations and the cost model."""

import zlib

import pytest
from hypothesis import given, strategies as st

from repro.crc.cost import CrcCostModel
from repro.crc.crc32 import crc32, crc32_combine, crc32_fast
from repro.errors import ConfigError


class TestReferenceImplementation:
    def test_known_vectors(self):
        # published CRC-32 (IEEE) check values
        assert crc32(b"") == 0
        assert crc32(b"123456789") == 0xCBF43926
        assert crc32(b"The quick brown fox jumps over the lazy dog") == 0x414FA339

    def test_matches_zlib(self):
        for data in (b"", b"a", b"ab" * 1000, bytes(range(256))):
            assert crc32(data) == zlib.crc32(data)

    def test_chaining(self):
        whole = crc32(b"hello world")
        chained = crc32(b" world", crc32(b"hello"))
        assert whole == chained

    @given(st.binary(max_size=512))
    def test_fast_matches_reference(self, data):
        assert crc32_fast(data) == crc32(data)

    @given(st.binary(max_size=512), st.integers(0, 2**32 - 1))
    def test_fast_accepts_every_buffer_type(self, data, seed):
        """bytes, bytearray and memoryview (also a slice of a larger
        buffer) give the same CRC, chained or not."""
        expected = crc32(data, seed)
        padded = memoryview(b"<" + data + b">")[1:-1]
        for buf in (data, bytearray(data), memoryview(data), padded):
            assert crc32_fast(buf, seed) == expected

    @given(st.binary(max_size=256), st.binary(max_size=256))
    def test_chaining_property(self, a, b):
        assert crc32(a + b) == crc32(b, crc32(a))

    @given(st.binary(min_size=1, max_size=128), st.integers(0, 127))
    def test_detects_single_bit_flip(self, data, pos):
        pos %= len(data)
        corrupted = bytearray(data)
        corrupted[pos] ^= 0x01
        assert crc32(data) != crc32(bytes(corrupted))


class TestCombine:
    @given(st.binary(max_size=200), st.binary(max_size=200))
    def test_combine_equals_concatenation(self, a, b):
        assert crc32_combine(crc32(a), crc32(b), len(b)) == crc32(a + b)

    def test_zero_length_b(self):
        assert crc32_combine(0x1234, 0, 0) == 0x1234

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            crc32_combine(0, 0, -1)


class TestCostModel:
    def test_paper_calibration_point(self):
        """§3: verifying a 4 KiB object costs about 4.4 µs."""
        cost = CrcCostModel().cost_ns(4096)
        assert 4300 <= cost <= 4500

    def test_affine(self):
        m = CrcCostModel(base_ns=100, ns_per_byte=2)
        assert m.cost_ns(0) == 100
        assert m.cost_ns(50) == 200

    def test_validation(self):
        with pytest.raises(ConfigError):
            CrcCostModel(base_ns=-1)
        with pytest.raises(ConfigError):
            CrcCostModel().cost_ns(-5)
