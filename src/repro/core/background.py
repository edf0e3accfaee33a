"""Background verification and durability (paper §4.3.2).

A server-side thread walks newly allocated objects in log order: for
each one it recomputes the CRC over the value, compares against the CRC
recorded at allocation, and on a match persists the object and sets the
durability flag. A mismatch means the client's one-sided WRITE has not
(fully) arrived: the object is revisited later, and once the configured
timeout elapses it is marked invalid (space reclaimed by log cleaning).

The thread runs on its *own* core — "the background thread and the
request processing thread run independently, i.e., there is no need for
inter-thread synchronization" — so none of this work contends with the
request CPU. Coordination with the GET handler is exactly the paper's:
the durability flag lets each side skip objects the other already
persisted.

With a partitioned server every partition runs its own verifier over
its own log pools (the same range-sharding Pangolin applies to its
checksum workers); :class:`VerifierGroup` aggregates them behind the
single-verifier interface.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Generator
from typing import Any, Optional, TYPE_CHECKING

from repro.baselines.base import ObjectLocation, Partition
from repro.kv.objects import FLAG_VALID
from repro.sim.kernel import Event, Interrupt, Process

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.server import EFactoryServer

__all__ = ["BackgroundVerifier", "VerifierGroup"]

#: The counters ``stats()`` reports, per verifier and summed per group.
STAT_KEYS = ("verified", "persisted", "invalidated", "skipped", "requeued", "backlog")


class BackgroundVerifier:
    """One partition's background verify-and-persist thread."""

    def __init__(
        self, server: "EFactoryServer", partition: Optional[Partition] = None
    ) -> None:
        self.server = server
        self.part = partition if partition is not None else server.partitions[0]
        self.env = server.env
        #: Freshly allocated objects in log order.
        self.queue: deque[ObjectLocation] = deque()
        #: Objects whose WRITE had not landed yet: (due_time, loc).
        self.retry: deque[tuple[float, ObjectLocation]] = deque()
        self._proc: Process | None = None
        # statistics
        self.verified = 0
        self.persisted = 0
        self.invalidated = 0
        self.skipped = 0
        self.requeued = 0

    # -- feeding ------------------------------------------------------------
    def enqueue(self, loc: ObjectLocation) -> None:
        self.queue.append(loc)

    @property
    def backlog(self) -> int:
        return len(self.queue) + len(self.retry)

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> Process:
        name = (
            "bg-verifier"
            if self.server.num_partitions == 1
            else f"bg-verifier-p{self.part.part_id}"
        )
        self._proc = self.env.process(self._loop(), name=name)
        return self._proc

    def stop(self) -> None:
        if (
            self._proc is not None
            and self._proc.is_alive
            and self._proc is not self.env.active_process
        ):
            self._proc.interrupt("stop")

    # -- the thread ------------------------------------------------------------
    def _loop(self) -> Generator[Event, Any, None]:
        cfg = self.server.config
        try:
            while True:
                inj = self.server.fabric.injector
                if inj is not None:
                    act = inj.fire("bg.verifier", partition=self.part.part_id)
                    if act is not None and act.kind == "pause":
                        yield self.env.timeout(act.delay_ns)
                loc = self._next_due()
                if loc is None:
                    yield self.env.timeout(cfg.bg_idle_poll_ns)
                    continue
                yield from self._process_one(loc)
        except Interrupt:
            return

    def _next_due(self) -> ObjectLocation | None:
        if self.queue:
            return self.queue.popleft()
        if self.retry and self.retry[0][0] <= self.env.now:
            return self.retry.popleft()[1]
        return None

    def _process_one(self, loc: ObjectLocation) -> Generator[Event, Any, None]:
        part = self.part
        cfg = self.server.config
        yield self.env.timeout(cfg.peek_ns)
        img = part.read_object(loc)

        if not img.well_formed:
            # Header unreadable (should not happen: metadata was persisted
            # at allocation) — treat as pending until timeout.
            yield from self._retry_or_invalidate(loc, None)
            return
        if img.durable or not img.valid:
            # The GET handler beat us to it, or a timeout invalidated it.
            self.skipped += 1
            return

        # Integrity verification: CRC over the value.
        yield self.env.timeout(cfg.crc_cost.cost_ns(img.vlen))
        self.verified += 1
        if part.object_value_ok(img):
            raw = (
                bytes(part.pools[loc.pool].read(loc.offset, loc.size))
                if part.integrity is not None
                else None
            )
            yield from part.persist_object(loc)
            part.mark_durable(loc, img)
            self.persisted += 1
            if part.integrity is not None:
                yield from part.integrity.settle(loc, raw)
            return
        yield from self._retry_or_invalidate(loc, img)

    def _retry_or_invalidate(
        self, loc: ObjectLocation, img
    ) -> Generator[Event, Any, None]:
        cfg = self.server.config
        ts = img.ts if img is not None and img.well_formed else 0
        if self.env.now - ts > cfg.verify_timeout_ns:
            # The write never completed: mark invalid (§4.3.2); log
            # cleaning reclaims the space.
            if img is not None:
                self.part.set_object_flags(loc, img.flags & ~FLAG_VALID)
                self.server.device.flush(
                    self.part.pools[loc.pool].abs_addr(loc.offset), 8
                )
            self.invalidated += 1
            yield self.env.timeout(cfg.nvm_timing.store_ns)
            return
        self.requeued += 1
        self.retry.append((self.env.now + cfg.bg_retry_delay_ns, loc))
        yield self.env.timeout(0)

    def stats(self) -> dict[str, int]:
        return {key: getattr(self, key) for key in STAT_KEYS}


class VerifierGroup:
    """The partitioned server's verifiers behind the monolith interface."""

    def __init__(self, verifiers: list[BackgroundVerifier]) -> None:
        self.verifiers = list(verifiers)

    @property
    def backlog(self) -> int:
        return sum(v.backlog for v in self.verifiers)

    def start(self) -> None:
        for v in self.verifiers:
            v.start()

    def stop(self) -> None:
        for v in self.verifiers:
            v.stop()

    def stats(self) -> dict[str, int]:
        out = dict.fromkeys(STAT_KEYS, 0)
        for v in self.verifiers:
            for key, value in v.stats().items():
                out[key] += value
        return out
