"""NVM-resident bucketized hash table (eFactory-style index, §4.2.2).

The table lives in registered NVM so that clients can fetch hash entries
with one-sided RDMA READs (GET step 1–2). Both sides therefore share a
single binary layout and the same deterministic hash (FNV-1a 64).

Entry layout (32 bytes)::

    fp   u64   key fingerprint (FNV-1a 64); 0 = empty entry
    cur  u64   packed slot: the latest version in the *working* pool
    alt  u64   packed slot: the copy in the *new* pool during log cleaning
    rsv  u64   reserved

A packed slot encodes ``valid(1) | pool(1) | size(22) | offset(40)`` so a
hash-entry update is a single 8-byte atomic NVM store — the property all
the paper's schemes rely on for metadata atomicity. ``size`` is the total
object footprint, letting a client fetch the object with exactly one
READ.

Buckets hold ``slots_per_bucket`` entries; inserts linear-probe whole
buckets up to ``probe_limit``. A client that misses in the home bucket
falls back to the RPC read path (the server probes further) — with the
load factors used in the experiments this is rare.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from repro.errors import StoreError
from repro.mem.layout import StructLayout
from repro.nvm.device import NVMDevice
from repro.sim.rng import fnv1a_64

__all__ = [
    "ENTRY_LAYOUT",
    "ENTRY_SIZE",
    "Slot",
    "HashTableGeometry",
    "NvmHashTable",
    "key_fingerprint",
    "partition_of_fp",
    "client_lookup_bucket",
]

ENTRY_LAYOUT = StructLayout(
    "hash_entry",
    [("fp", "Q"), ("cur", "Q"), ("alt", "Q"), ("rsv", "Q")],
)
ENTRY_SIZE = ENTRY_LAYOUT.size  # 32

_OFF_BITS = 40
_SIZE_BITS = 22
_OFF_MASK = (1 << _OFF_BITS) - 1
_SIZE_MASK = (1 << _SIZE_BITS) - 1


@dataclass(frozen=True, slots=True)
class Slot:
    """Decoded form of a packed 8-byte slot."""

    pool: int
    size: int
    offset: int

    def pack(self) -> int:
        if self.pool not in (0, 1):
            raise StoreError(f"slot pool must be 0/1, got {self.pool}")
        if not 0 <= self.size <= _SIZE_MASK:
            raise StoreError(f"slot size {self.size} out of range")
        if not 0 <= self.offset <= _OFF_MASK:
            raise StoreError(f"slot offset {self.offset} out of range")
        return (
            (1 << 63)
            | (self.pool << 62)
            | (self.size << _OFF_BITS)
            | self.offset
        )

    @staticmethod
    def unpack(word: int) -> Optional["Slot"]:
        """Decode a packed slot; ``None`` when the valid bit is clear."""
        if not word >> 63:
            return None
        return Slot(
            pool=(word >> 62) & 1,
            size=(word >> _OFF_BITS) & _SIZE_MASK,
            offset=word & _OFF_MASK,
        )


@dataclass(frozen=True)
class HashTableGeometry:
    """Shape of the table — identical on server and clients."""

    n_buckets: int
    slots_per_bucket: int = 4
    probe_limit: int = 4

    def __post_init__(self) -> None:
        if self.n_buckets <= 0 or self.slots_per_bucket <= 0:
            raise StoreError("hash table geometry must be positive")
        if self.probe_limit < 1:
            raise StoreError("probe_limit must be >= 1")

    @property
    def bucket_bytes(self) -> int:
        return self.slots_per_bucket * ENTRY_SIZE

    @property
    def table_bytes(self) -> int:
        return self.n_buckets * self.bucket_bytes

    def bucket_of(self, fp: int) -> int:
        return fp % self.n_buckets

    def bucket_offset(self, bucket: int) -> int:
        """Table-relative byte offset of a bucket (what a client READs)."""
        return (bucket % self.n_buckets) * self.bucket_bytes

    def entry_offset(self, bucket: int, slot_idx: int) -> int:
        return self.bucket_offset(bucket) + slot_idx * ENTRY_SIZE


#: Entries the fingerprint memo holds before it is cleared (bounds RSS).
FP_MEMO_MAX = 1 << 16

#: ``bytes`` key -> fingerprint. Every op fingerprints its key several
#: times (client route, server lookup, verifier, scrubber), and FNV-1a
#: is a byte-at-a-time Python loop.
_fp_memo: dict[bytes, int] = {}


def key_fingerprint(key: bytes) -> int:
    """Fingerprint shared by server and clients; never 0 (0 = empty).

    Fingerprints of ``bytes`` keys are memoised; mutable or view keys
    (``bytearray``, ``memoryview``) are hashed afresh every time.
    """
    if type(key) is not bytes:
        return fnv1a_64(key) or 1
    fp = _fp_memo.get(key)
    if fp is None:
        if len(_fp_memo) >= FP_MEMO_MAX:
            _fp_memo.clear()
        fp = _fp_memo[key] = fnv1a_64(key) or 1
    return fp


def partition_of_fp(fp: int, n_partitions: int) -> int:
    """Deterministic key→partition route, computed identically on server
    and clients (so the pure one-sided READ path needs no extra round
    trip to locate a key's shard).

    Uses the *high* fingerprint bits: ``bucket_of`` consumes the low
    bits (``fp % n_buckets``), so high-bit routing keeps the per-
    partition bucket distribution as uniform as the unpartitioned one.
    """
    if n_partitions <= 1:
        return 0
    return (fp >> 48) % n_partitions


class NvmHashTable:
    """Server-side operations on the table bytes.

    All methods are instant state transitions; the *time* for index
    work is charged by the request handlers (store configs name the
    constants) so that different schemes can model different index
    costs.
    """

    __slots__ = ("device", "base", "geom")

    def __init__(self, device: NVMDevice, base: int, geom: HashTableGeometry) -> None:
        self.device = device
        self.base = base
        self.geom = geom

    # -- entry access -------------------------------------------------------
    def _entry_addr(self, entry_off: int) -> int:
        return self.base + entry_off

    def read_entry(self, entry_off: int):
        raw = self.device.read(self._entry_addr(entry_off), ENTRY_SIZE)
        return ENTRY_LAYOUT.unpack(raw)

    def _probe(self, fp: int) -> Iterator[int]:
        """Entry offsets to examine for ``fp``, in probe order."""
        g = self.geom
        home = g.bucket_of(fp)
        for b in range(g.probe_limit):
            for s in range(g.slots_per_bucket):
                yield g.entry_offset(home + b, s)

    def find(self, fp: int) -> Optional[int]:
        """Entry offset holding ``fp``, or None."""
        for off in self._probe(fp):
            entry = self.read_entry(off)
            if entry.fp == fp:
                return off
        return None

    def find_or_create(self, fp: int) -> int:
        """Entry offset for ``fp``, claiming an empty entry if new.

        The fingerprint is written (and ordered) before any slot becomes
        valid, so a torn insert leaves an entry with fp set and no valid
        slot — recovery treats that as absent.
        """
        free: Optional[int] = None
        for off in self._probe(fp):
            entry = self.read_entry(off)
            if entry.fp == fp:
                return off
            if entry.fp == 0 and free is None:
                free = off
        if free is None:
            raise StoreError(
                f"hash table overflow in bucket {self.geom.bucket_of(fp)} "
                f"(raise n_buckets or probe_limit)"
            )
        self.device.write_atomic64(
            self._entry_addr(free), ENTRY_LAYOUT.pack_field("fp", fp)
        )
        return free

    # -- slot words ----------------------------------------------------------
    def _write_word(self, entry_off: int, field: str, word: int) -> None:
        addr = self._entry_addr(entry_off) + ENTRY_LAYOUT.offset_of(field)
        self.device.write_atomic64(addr, ENTRY_LAYOUT.pack_field(field, word))

    def read_cur(self, entry_off: int) -> Optional[Slot]:
        return Slot.unpack(self.read_entry(entry_off).cur)

    def read_alt(self, entry_off: int) -> Optional[Slot]:
        return Slot.unpack(self.read_entry(entry_off).alt)

    def set_cur(self, entry_off: int, slot: Slot) -> None:
        self._write_word(entry_off, "cur", slot.pack())

    def set_alt(self, entry_off: int, slot: Slot) -> None:
        self._write_word(entry_off, "alt", slot.pack())

    def clear_cur(self, entry_off: int) -> None:
        self._write_word(entry_off, "cur", 0)

    def clear_alt(self, entry_off: int) -> None:
        self._write_word(entry_off, "alt", 0)

    def promote_alt(self, entry_off: int) -> None:
        """End of log cleaning: make the new-pool copy current.

        Equivalent to the paper's mark-bit flip + old-offset clear: two
        ordered 8-byte atomic stores (cur := alt, then alt := 0); a crash
        between them leaves both valid pointing at identical object
        contents, which recovery deduplicates.
        """
        entry = self.read_entry(entry_off)
        self._write_word(entry_off, "cur", entry.alt)
        self._write_word(entry_off, "alt", 0)

    def persist_entry(self, entry_off: int) -> None:
        """State-level flush of one entry (timing charged by caller)."""
        self.device.flush(self._entry_addr(entry_off), ENTRY_SIZE)

    # -- iteration (cleaning / recovery) -----------------------------------------
    def iter_entries(self) -> Iterator[tuple[int, object]]:
        """Yield ``(entry_off, entry)`` for every non-empty entry."""
        total = self.geom.n_buckets * self.geom.slots_per_bucket
        for i in range(total):
            off = i * ENTRY_SIZE
            entry = self.read_entry(off)
            if entry.fp != 0:
                yield off, entry


def client_lookup_bucket(
    bucket_raw: bytes, fp: int, geom: HashTableGeometry
) -> Optional[tuple[Optional[Slot], Optional[Slot]]]:
    """Client-side parse of a fetched home bucket.

    Returns ``(cur, alt)`` for the entry matching ``fp`` (either may be
    None if invalid), or ``None`` when the fingerprint is not in this
    bucket (the client then falls back to the RPC read path, which
    probes further).
    """
    if len(bucket_raw) != geom.bucket_bytes:
        raise StoreError(
            f"bucket read returned {len(bucket_raw)} bytes, "
            f"expected {geom.bucket_bytes}"
        )
    for s in range(geom.slots_per_bucket):
        entry = ENTRY_LAYOUT.unpack_from(bucket_raw, s * ENTRY_SIZE)
        if entry.fp == fp:
            return Slot.unpack(entry.cur), Slot.unpack(entry.alt)
    return None
