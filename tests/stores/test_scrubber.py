"""The online scrubber: latent media rot on a durable-flagged head is
found by CRC re-verification and repaired by version-list rollback —
the hole eFactory's durability-flag shortcut leaves open."""

import pytest

from repro.errors import StoreError
from repro.kv.hashtable import ENTRY_LAYOUT, ENTRY_SIZE, Slot, key_fingerprint
from repro.kv.objects import HEADER_SIZE
from tests.conftest import run1, small_store

SCRUB = {"scrub_interval_ns": 2_000.0}


def _key(i):
    return f"scrub-{i:010d}".encode()


def _head_value_addr(setup, key):
    """Device address of the first value byte of ``key``'s head object."""
    part = setup.server.partitions[0]
    entry_off = part.table.find(key_fingerprint(key))
    assert entry_off is not None
    cur = part.table.read_cur(entry_off)
    assert cur is not None
    return part.pools[cur.pool].abs_addr(cur.offset) + HEADER_SIZE + len(key)


def _settle(env, setup, ns=800_000):
    env.run(until=env.now + ns)


def _wait_for_scrub(env, setup, field, deadline_ns=80_000_000):
    scrubber = setup.server.scrubber
    deadline = env.now + deadline_ns
    while env.now < deadline and scrubber.stats()[field] == 0:
        env.run(until=env.now + 1_000_000)
    return scrubber.stats()


class TestRepair:
    def test_bitrot_on_head_rolls_back_to_previous_version(self, env):
        setup = small_store("efactory", env, **SCRUB)
        c = setup.client()
        v1, v2 = b"A" * 64, b"B" * 64

        run1(env, c.put(_key(0), v1))
        _settle(env, setup)  # v1 durable
        run1(env, c.put(_key(0), v2))
        _settle(env, setup)  # v2 durable — the trusted head

        setup.server.device.corrupt(_head_value_addr(setup, _key(0)), "bitflip")
        stats = _wait_for_scrub(env, setup, "repaired")
        assert stats["corrupt_found"] >= 1
        assert stats["repaired"] >= 1
        assert stats["unrepairable"] == 0

        got = run1(env, c.get(_key(0), size_hint=64))
        assert got == v1  # rolled back — never the torn bytes

    def test_rot_with_no_intact_version_clears_the_key(self, env):
        setup = small_store("efactory", env, **SCRUB)
        c = setup.client()

        run1(env, c.put(_key(1), b"C" * 64))
        _settle(env, setup)

        setup.server.device.corrupt(_head_value_addr(setup, _key(1)), "bitflip")
        stats = _wait_for_scrub(env, setup, "unrepairable")
        assert stats["unrepairable"] >= 1
        # a cleared key is a loud miss, not silently served rot
        with pytest.raises(StoreError):
            run1(env, c.get(_key(1), size_hint=64))

    def test_intact_store_scrubs_clean(self, env):
        setup = small_store("efactory", env, **SCRUB)
        c = setup.client()

        def work():
            for i in range(8):
                yield from c.put(_key(10 + i), bytes([i]) * 64)

        run1(env, work())
        _settle(env, setup)
        _wait_for_scrub(env, setup, "scrubbed")
        stats = setup.server.scrubber.stats()
        assert stats["scrubbed"] >= 1
        assert stats["corrupt_found"] == 0


class TestWiring:
    def test_disabled_by_default(self, env):
        setup = small_store("efactory", env)
        assert setup.server.config.scrub_interval_ns == 0.0
        assert not setup.server.scrubber.active

    def test_metrics_expose_scrub_counters(self, env):
        setup = small_store("efactory", env, **SCRUB)
        metrics = setup.server.metrics()
        assert set(metrics["scrubber"]) == {
            "scrubbed", "corrupt_found", "repaired", "unrepairable",
            "reconstructed", "parity_stale", "replica_fetched",
        }
        assert "verifier" in metrics and "cleaner" in metrics

    def test_partitioned_scrubbers_cover_all_partitions(self, env):
        setup = small_store("efactory", env, num_partitions=4, **SCRUB)
        c = setup.client()

        def work():
            for i in range(16):
                yield from c.put(_key(30 + i), bytes([i]) * 64)

        run1(env, work())
        _settle(env, setup)
        _wait_for_scrub(env, setup, "scrubbed")
        assert setup.server.scrubber.active
        assert len(setup.server.scrubber.scrubbers) == 4


def _ref_seek(table, cursor):
    """Reference seek: the slot-by-slot walk, one ``read_entry`` each.
    Returns the live entry it stops at (or None) and the new cursor."""
    total = table.geom.n_buckets * table.geom.slots_per_bucket
    for _ in range(total):
        entry_off = (cursor % total) * ENTRY_SIZE
        cursor += 1
        entry = table.read_entry(entry_off)
        if entry.fp != 0 and Slot.unpack(entry.cur) is not None:
            return entry_off, cursor
    return None, cursor


class TestChunkedSeek:
    """The scrubber's chunked media seek visits exactly the entries, in
    exactly the order, with exactly the cursor of the reference walk."""

    def _setup(self, env, part_id=1):
        # Two partitions: partition 1's segment starts past partition
        # 0's, so table-relative and device addresses differ.
        setup = small_store("efactory", env, num_partitions=2)
        part = setup.server.partitions[part_id]
        scrubber = part.scrubber
        visited = []

        def record(entry_off, fp, cur):
            visited.append(entry_off)
            yield env.timeout(0)

        scrubber._scrub_entry = record
        return part.table, scrubber, visited

    @staticmethod
    def _put(table, idx, *, torn=False):
        off = idx * ENTRY_SIZE
        table.device.write_atomic64(
            table.base + off, ENTRY_LAYOUT.pack_field("fp", 0x5EED + idx)
        )
        if not torn:
            table.set_cur(off, Slot(pool=0, size=64, offset=idx * 64))

    def _steps_match_reference(self, env, table, scrubber, visited, steps):
        for _ in range(steps):
            want_off, want_cursor = _ref_seek(table, scrubber._cursor)
            before = len(visited)
            run1(env, scrubber._scrub_next())
            got = visited[before] if len(visited) > before else None
            assert (got, scrubber._cursor) == (want_off, want_cursor)

    @pytest.mark.parametrize("last_live", [True, False])
    def test_chunk_boundaries_and_wraparound(self, env, last_live):
        table, scrubber, visited = self._setup(env)
        total = table.geom.n_buckets * table.geom.slots_per_bucket
        assert total > 3 * 64
        live = [0, 63, 64, 65, 127, 128, 191, total - 70]
        if last_live:
            live.append(total - 1)
        for idx in live:
            self._put(table, idx)
        # Start just short of the segment end so the first step wraps
        # (with or without a live entry before the end).
        scrubber._cursor = total - 3
        self._steps_match_reference(env, table, scrubber, visited, 2 * len(live) + 1)
        head = [(total - 1) * ENTRY_SIZE] if last_live else []
        assert visited[: len(head) + 3] == head + [0, 63 * ENTRY_SIZE, 64 * ENTRY_SIZE]
        assert scrubber.laps == 3

    def test_torn_insert_is_skipped(self, env):
        table, scrubber, visited = self._setup(env)
        for idx in (5, 64, 70):
            self._put(table, idx, torn=True)  # fp claimed, cur never set
        self._put(table, 66)
        self._steps_match_reference(env, table, scrubber, visited, 3)
        assert visited == [66 * ENTRY_SIZE] * 3

    def test_empty_table_is_an_idle_tick(self, env):
        table, scrubber, visited = self._setup(env)
        total = table.geom.n_buckets * table.geom.slots_per_bucket
        scrubber._cursor = 100
        self._steps_match_reference(env, table, scrubber, visited, 2)
        assert visited == [] and scrubber.scrubbed == 0
        # Each idle step scans the segment once, as the reference walk
        # does: the cursor ends where it began, one lap on.
        assert scrubber._cursor == 100 + 2 * total
