"""Reference :class:`~repro.mem.buffer.PersistentBuffer` with a NumPy
boolean dirty map — a test oracle only.

Its ``flush`` finds dirty lines with ``np.flatnonzero`` and copies them
back one line at a time, the plainest statement of the write-back
semantics. ``tests/mem/test_dirty_map.py`` drives it and the
production buffer with the same op sequences and demands identical
images, dirty sets, return values, counters and post-crash RNG state.
"""

from __future__ import annotations

import numpy as np

from repro.errors import MemoryAccessError
from repro.mem.buffer import (
    ATOMIC_WORD,
    CACHELINE,
    CORRUPTION_KINDS,
    BufferStats,
)

__all__ = ["NumpyPersistentBuffer"]


class NumpyPersistentBuffer:
    """PersistentBuffer semantics over a NumPy boolean dirty map."""

    __slots__ = ("size", "visible", "durable", "_dirty", "stats")

    def __init__(self, size: int) -> None:
        if size <= 0:
            raise MemoryAccessError(f"buffer size must be positive, got {size}")
        self.size = size
        self.visible = bytearray(size)
        self.durable = bytearray(size)
        n_lines = (size + CACHELINE - 1) // CACHELINE
        self._dirty = np.zeros(n_lines, dtype=bool)
        self.stats = BufferStats()

    # -- bounds ------------------------------------------------------------
    def _check(self, addr: int, length: int) -> None:
        if addr < 0 or length < 0 or addr + length > self.size:
            raise MemoryAccessError(
                f"access [{addr}, {addr + length}) outside buffer of size {self.size}"
            )

    def _line_span(self, addr: int, length: int) -> tuple[int, int]:
        """First and one-past-last line index covering ``[addr, addr+length)``."""
        if length == 0:
            return 0, 0
        return addr // CACHELINE, (addr + length - 1) // CACHELINE + 1

    # -- access ------------------------------------------------------------
    def write(self, addr: int, data: bytes | bytearray | memoryview) -> None:
        """Store ``data`` at ``addr`` (visible immediately, not durable)."""
        n = len(data)
        self._check(addr, n)
        if n == 0:
            return
        self.visible[addr : addr + n] = data
        lo, hi = self._line_span(addr, n)
        self._dirty[lo:hi] = True
        self.stats.bytes_written += n

    def write_atomic64(self, addr: int, data: bytes) -> None:
        """An aligned 8-byte store — the failure-atomicity unit of NVM."""
        if len(data) != 8:
            raise MemoryAccessError(f"atomic64 write needs 8 bytes, got {len(data)}")
        if addr % 8 != 0:
            raise MemoryAccessError(f"atomic64 write to unaligned address {addr}")
        self.write(addr, data)

    def read(self, addr: int, length: int) -> bytes:
        """Load from the *visible* image (what RDMA READ returns)."""
        self._check(addr, length)
        self.stats.bytes_read += length
        return bytes(self.visible[addr : addr + length])

    def read_durable(self, addr: int, length: int) -> bytes:
        """Load from the media image (post-crash contents)."""
        self._check(addr, length)
        return bytes(self.durable[addr : addr + length])

    # -- persistence -------------------------------------------------------
    def flush(self, addr: int, length: int) -> int:
        """Write back all lines covering the range; returns #lines flushed.

        Clean lines in the range are skipped (CLWB semantics on an
        already-clean line are free at the state level; the *timing*
        model in :mod:`repro.nvm.device` still charges for issuing the
        instruction over the full range, as real code does).
        """
        self._check(addr, length)
        self.stats.flush_calls += 1
        if length == 0:
            return 0
        lo, hi = self._line_span(addr, length)
        dirty_idx = np.flatnonzero(self._dirty[lo:hi]) + lo
        for line in dirty_idx:
            start = int(line) * CACHELINE
            end = min(start + CACHELINE, self.size)
            self.durable[start:end] = self.visible[start:end]
        self._dirty[lo:hi] = False
        n = int(dirty_idx.size)
        self.stats.lines_flushed += n
        return n

    def flush_all(self) -> int:
        """Write back every dirty line (used at clean shutdown)."""
        return self.flush(0, self.size)

    def is_persistent(self, addr: int, length: int) -> bool:
        """True when no line covering the range is dirty *and* the visible
        and durable images agree on the exact byte range.

        The byte-level comparison matters: a line may have been re-dirtied
        by a neighbouring object after this range was flushed, in which
        case the range itself is still durable.
        """
        self._check(addr, length)
        if length == 0:
            return True
        lo, hi = self._line_span(addr, length)
        if not self._dirty[lo:hi].any():
            return True
        return self.visible[addr : addr + length] == self.durable[addr : addr + length]

    def dirty_line_count(self) -> int:
        return int(self._dirty.sum())

    def dirty_lines_in(self, addr: int, length: int) -> int:
        """Number of dirty lines covering the range (flush-cost input)."""
        self._check(addr, length)
        if length == 0:
            return 0
        lo, hi = self._line_span(addr, length)
        return int(self._dirty[lo:hi].sum())

    # -- crash semantics -----------------------------------------------------
    def crash(
        self,
        rng: np.random.Generator,
        evict_probability: float = 0.5,
        *,
        tear_words: bool = False,
    ) -> dict:
        """Power failure: resolve every dirty line, then expose the media.

        Each dirty line is independently *naturally evicted* (survives)
        with ``evict_probability``, else its volatile contents are lost.
        With ``tear_words=True`` the coin is flipped per aligned 8-byte
        word instead, so a line can land *partially* — tearing any store
        wider than the hardware's failure-atomicity unit — while aligned
        8-byte stores (one word) still resolve atomically.
        Afterwards ``visible == durable`` and nothing is dirty.

        Returns a summary dict (``evicted``, ``lost``, ``torn`` line
        counts; ``torn`` only ever non-zero with ``tear_words``).
        """
        if not 0.0 <= evict_probability <= 1.0:
            raise MemoryAccessError(
                f"evict_probability must be in [0,1], got {evict_probability}"
            )
        dirty_idx = np.flatnonzero(self._dirty)
        evicted = lost = torn = 0
        words_per_line = CACHELINE // ATOMIC_WORD
        for line in dirty_idx:
            start = int(line) * CACHELINE
            end = min(start + CACHELINE, self.size)
            if tear_words:
                n_words = (end - start + ATOMIC_WORD - 1) // ATOMIC_WORD
                survives = rng.random(n_words) < evict_probability
                n_live = int(survives.sum())
                if n_live == n_words:
                    self.durable[start:end] = self.visible[start:end]
                    evicted += 1
                elif n_live == 0:
                    lost += 1
                    self.stats.words_lost_on_crash += n_words
                else:
                    for w in np.flatnonzero(survives):
                        ws = start + int(w) * ATOMIC_WORD
                        we = min(ws + ATOMIC_WORD, end)
                        self.durable[ws:we] = self.visible[ws:we]
                    torn += 1
                    self.stats.words_lost_on_crash += n_words - n_live
            else:
                if rng.random() < evict_probability:
                    self.durable[start:end] = self.visible[start:end]
                    evicted += 1
                else:
                    lost += 1
                    self.stats.words_lost_on_crash += words_per_line
        self.visible[:] = self.durable
        self._dirty[:] = False
        self.stats.crashes += 1
        self.stats.lines_evicted_on_crash += evicted
        self.stats.lines_lost_on_crash += lost
        self.stats.lines_torn_on_crash += torn
        return {"evicted": evicted, "lost": lost, "torn": torn}

    # -- media faults --------------------------------------------------------
    def corrupt(
        self,
        addr: int,
        kind: str = "bitflip",
        *,
        rng: np.random.Generator | None = None,
    ) -> dict:
        """Seeded latent media corruption at ``addr`` (Pangolin's threat
        model: errors the DIMM develops *after* a successful write).

        ``bitflip`` flips one bit of the byte at ``addr`` (bit chosen by
        ``rng``, bit 0 without one); ``zero_line`` zeroes the whole
        cacheline containing ``addr`` (an uncorrectable stuck line).

        The *durable* image is always mutated. The *visible* image
        follows only where the covered line is clean — a dirty line
        means the cache still holds the good data and masks the media
        until the next writeback.

        Returns a summary dict (``kind``, ``addr``, ``bit``, ``masked``).
        """
        self._check(addr, 1)
        if kind not in CORRUPTION_KINDS:
            raise MemoryAccessError(
                f"unknown corruption kind {kind!r}; known: {CORRUPTION_KINDS}"
            )
        line = addr // CACHELINE
        start = line * CACHELINE
        end = min(start + CACHELINE, self.size)
        bit = None
        if kind == "bitflip":
            bit = int(rng.integers(8)) if rng is not None else 0
            self.durable[addr] ^= 1 << bit
        else:  # zero_line
            self.durable[start:end] = bytes(end - start)
        masked = bool(self._dirty[line])
        if not masked:
            self.visible[start:end] = self.durable[start:end]
        self.stats.corruptions += 1
        return {"kind": kind, "addr": addr, "bit": bit, "masked": masked}

    def flush_torn(
        self, addr: int, length: int, rng: np.random.Generator
    ) -> int:
        """Flush the range but leave one aligned 8-byte word behind — a
        torn store: the CLWB for that word's line was issued but the
        write-back was dropped before the ADR domain (a modelled media
        write fault on the persist path).

        The un-persisted word's line is re-marked dirty, so a later
        flush honestly repairs it; only a crash before that exposes the
        tear. Returns #lines written back (like :meth:`flush`).
        """
        self._check(addr, length)
        if length < ATOMIC_WORD:
            return self.flush(addr, length)
        first = (addr + ATOMIC_WORD - 1) // ATOMIC_WORD
        last = (addr + length) // ATOMIC_WORD  # one-past-last full word
        if last <= first:
            return self.flush(addr, length)
        word = int(rng.integers(first, last))
        ws = word * ATOMIC_WORD
        saved = bytes(self.durable[ws : ws + ATOMIC_WORD])
        n = self.flush(addr, length)
        self.durable[ws : ws + ATOMIC_WORD] = saved
        self._dirty[ws // CACHELINE] = True
        self.stats.torn_stores += 1
        return n
