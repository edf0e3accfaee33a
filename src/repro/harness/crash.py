"""Crash injection and the consistency oracle.

This harness turns the paper's consistency *claims* into checkable
facts. Values are self-describing (:mod:`repro.workloads.keyspace`), so
after a crash we can audit, per key, exactly which write survived:

* **integrity/atomicity** — a store that promises consistent reads must
  never expose a torn value after recovery (every recovered value parses
  and matches its key);
* **durability** — a store whose PUT ack means durable (RPC/SAW/IMM)
  must recover every acknowledged write (or something newer);
* **monotonic reads** — a store that guarantees reads never travel
  backwards across crashes (eFactory, §5.3: "refrains from
  non-monotonic reads") must recover, for every key, a version at least
  as new as any version a completed GET returned before the crash. Erda
  has no such guarantee — dirty data reaches NVM only by natural
  eviction — and the oracle quantifies exactly how often it loses
  already-read data (§7's criticism, reproduced).

The oracle distinguishes *violations* (a store breaking its own
advertised guarantee — always a bug) from *expected weaknesses* (CA
exposing torn data, Erda non-monotonicity), which it reports as counts.
"""

from __future__ import annotations

from collections.abc import Generator
from dataclasses import dataclass
from typing import Any, Optional

from repro.core.recovery import RecoveryReport, recover_bucketized, recover_erda
from repro.errors import MemoryAccessError, QPError, RDMAError, StoreError
from repro.harness.chaos import settle
from repro.kv.hopscotch import HopscotchTable
from repro.kv.objects import HEADER_SIZE, object_size, parse_header, parse_object
from repro.rdma.rpc import RpcFault
from repro.sim.kernel import Environment, Event
from repro.sim.rng import RngRegistry
from repro.stores import STORES, build_store
from repro.workloads.keyspace import make_key, make_value, parse_value

__all__ = [
    "CrashSpec",
    "KeyAudit",
    "CrashReport",
    "run_crash_experiment",
    "read_value_state",
]


@dataclass(frozen=True)
class CrashSpec:
    """One crash experiment."""

    store: str
    n_clients: int = 4
    key_count: int = 48
    key_len: int = 16
    value_len: int = 256
    #: Total completed operations across clients before the plug is pulled.
    ops_before_crash: int = 240
    read_fraction: float = 0.3
    seed: int = 7
    #: Probability each dirty cacheline survives by natural eviction.
    evict_probability: float = 0.5
    #: Tear non-atomic in-flight stores at 8-byte granularity instead of
    #: whole cachelines (the stricter, more realistic media model).
    tear_words: bool = False
    recover: bool = True


@dataclass
class KeyAudit:
    """Post-crash fate of one key."""

    key_id: int
    recovered_version: Optional[int]  # None = lost / absent
    torn: bool  # a value was present but failed the pattern check
    max_acked: int  # newest version whose PUT was acknowledged (-1: none)
    max_read: int  # newest version a completed GET returned (-1: none)


@dataclass
class CrashReport:
    spec: CrashSpec
    recovery: Optional[RecoveryReport]
    audits: list[KeyAudit]
    pre_crash_torn_reads: int
    completed_ops: int

    # guarantee checks --------------------------------------------------------
    @property
    def torn_exposed(self) -> int:
        return sum(1 for a in self.audits if a.torn)

    @property
    def durability_losses(self) -> int:
        """Keys whose newest *acknowledged* write did not survive."""
        return sum(
            1
            for a in self.audits
            if a.max_acked >= 0
            and (a.recovered_version is None or a.recovered_version < a.max_acked)
        )

    @property
    def monotonicity_losses(self) -> int:
        """Keys where recovery went behind a value a GET had returned."""
        return sum(
            1
            for a in self.audits
            if a.max_read >= 0
            and (a.recovered_version is None or a.recovered_version < a.max_read)
        )

    @property
    def violations(self) -> list[str]:
        """Breaches of the store's *advertised* guarantees."""
        spec = STORES[self.spec.store]
        out: list[str] = []
        if spec.consistent_get and self.torn_exposed:
            out.append(f"{self.torn_exposed} torn value(s) exposed after recovery")
        if spec.durable_put and self.durability_losses:
            out.append(f"{self.durability_losses} acknowledged write(s) lost")
        if self.spec.store.startswith("efactory") and self.monotonicity_losses:
            out.append(
                f"{self.monotonicity_losses} non-monotonic read(s) across the crash"
            )
        return out

    @property
    def ok(self) -> bool:
        return not self.violations


def run_crash_experiment(spec: CrashSpec) -> CrashReport:
    env = Environment()
    rngs = RngRegistry(spec.seed)
    obj = 64 + spec.key_len + spec.value_len
    overrides: dict[str, Any] = {
        "pool_size": max(
            8 << 20, (spec.key_count + spec.ops_before_crash * 2) * obj * 2
        )
    }
    if spec.store.startswith("efactory"):
        overrides["auto_clean"] = False
    setup = build_store(
        spec.store, env, config_overrides=overrides, n_clients=spec.n_clients
    ).start()
    # crash_node() consumes the crash RNG per in-flight write it finds;
    # the analytic fast path registers in-flight payloads on a slightly
    # different schedule, so keep this experiment on the full event path
    # to preserve the seed's bit-exact crash outcomes.
    setup.fabric.fastpath = False
    server = setup.server

    keys = [make_key(k, spec.key_len) for k in range(spec.key_count)]
    next_version = [0] * spec.key_count
    acked = [0] * spec.key_count  # preload counts as acked v0
    max_read = [-1] * spec.key_count
    state = {"completed": 0, "torn_reads": 0, "crashed": False}

    # -- preload + settle ------------------------------------------------------
    def preload() -> Generator[Event, Any, None]:
        c = setup.client(0)
        for kid in range(spec.key_count):
            yield from c.put(keys[kid], make_value(kid, 0, spec.value_len))

    env.run(env.process(preload(), name="preload"))
    settle(env, setup, 2_000_000.0)

    # -- concurrent clients until the crash ---------------------------------------
    def client_proc(i: int) -> Generator[Event, Any, None]:
        client = setup.client(i)
        rng = rngs.stream(f"crash-client{i}")
        while not state["crashed"]:
            kid = int(rng.integers(0, spec.key_count))
            is_read = rng.random() < spec.read_fraction
            try:
                if is_read:
                    value = yield from client.get(
                        keys[kid], size_hint=spec.value_len
                    )
                    parsed = parse_value(value)
                    if parsed is None or parsed[0] != kid:
                        state["torn_reads"] += 1
                    else:
                        max_read[kid] = max(max_read[kid], parsed[1])
                else:
                    next_version[kid] += 1
                    ver = next_version[kid]
                    yield from client.put(
                        keys[kid], make_value(kid, ver, spec.value_len)
                    )
                    acked[kid] = max(acked[kid], ver)
            except (StoreError, RpcFault, QPError, RDMAError):
                if state["crashed"]:
                    return
                continue
            state["completed"] += 1

    procs = [
        env.process(client_proc(i), name=f"crash-client{i}")
        for i in range(spec.n_clients)
    ]

    def controller() -> Generator[Event, Any, None]:
        while state["completed"] < spec.ops_before_crash:
            yield env.timeout(5_000.0)
        state["crashed"] = True
        server.stop()
        setup.fabric.crash_node(
            server.node,
            rngs.stream("crash"),
            spec.evict_probability,
            tear_words=spec.tear_words,
        )
        for p in procs:
            if p.is_alive:
                p.interrupt("crash")

    env.run(env.process(controller(), name="crash-controller"))
    env.run(until=env.now + 1.0)  # drain interrupt deliveries

    # -- recovery -------------------------------------------------------------------
    recovery: Optional[RecoveryReport] = None
    if spec.recover and spec.store != "ca":
        setup.fabric.restart_node(server.node)
        if spec.store == "erda":
            recovery = env.run(env.process(recover_erda(server)))
        else:
            recovery = env.run(env.process(recover_bucketized(server)))

    # -- audit (direct durable-state reads; no timing) ---------------------------------
    audits = []
    for kid in range(spec.key_count):
        value = read_value_state(server, keys[kid])
        torn = False
        recovered: Optional[int] = None
        if value is not None:
            parsed = parse_value(value)
            if parsed is None or parsed[0] != kid:
                torn = True
            else:
                recovered = parsed[1]
        audits.append(
            KeyAudit(
                key_id=kid,
                recovered_version=recovered,
                torn=torn,
                max_acked=acked[kid],
                max_read=max_read[kid],
            )
        )
    return CrashReport(
        spec=spec,
        recovery=recovery,
        audits=audits,
        pre_crash_torn_reads=state["torn_reads"],
        completed_ops=state["completed"],
    )


def read_value_state(server, key: bytes) -> Optional[bytes]:
    """What a fresh post-crash client would be served for ``key``.

    ``None`` means the key is absent. A malformed on-media object is
    returned as its raw bytes (not a synthetic sentinel) so the caller's
    pattern check audits it as exactly the torn value a client would
    see. Shared with the crash-point matrix
    (:mod:`repro.harness.crashmatrix`).
    """
    if isinstance(server.table, HopscotchTable):
        from repro.kv.hashtable import key_fingerprint

        found = server.table.lookup(key_fingerprint(key))
        if found is None or found[1].off1 is None:
            return None
        off = found[1].off1
        hdr = parse_header(server.pools[0].read(off, HEADER_SIZE))
        if hdr is None:
            return None
        raw = server.pools[0].read(off, object_size(hdr.klen, hdr.vlen))
        img = parse_object(raw)
        return img.value if img.well_formed else raw
    part = server.partition_for_key(key)
    found = part.lookup_slot(key)
    if found is None:
        return None
    _entry, cur, alt = found
    slot = cur or alt
    if slot is None:
        return None
    try:
        raw = part.pools[slot.pool].read(slot.offset, slot.size)
    except MemoryAccessError:
        return None  # rotten slot bits point outside the pool
    img = parse_object(raw)
    return img.value if img.well_formed else raw
