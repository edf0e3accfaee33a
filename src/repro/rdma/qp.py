"""Queue-pair endpoints: the verb API used by clients and servers.

An :class:`Endpoint` is one side of a reliable connection. Its verb
methods are generators designed for ``yield from`` composition inside
simulated processes::

    data = yield from ep.read(rkey, offset, 4096)
    yield from ep.write(rkey, offset, payload)
    rid  = yield from ep.send({"op": "put"}, wire_bytes=64)
    msg  = yield from ep.recv_response(rid)

Timing composition per verb (see :mod:`repro.rdma.latency`):

* ``write``  — TX engine (nic_tx + serialize) → wire (propagation) →
  target DMA (into DDIO/LLC, i.e. *volatile*) → ACK (propagation +
  nic_rx). The payload is tracked in-flight for crash tearing.
* ``read``   — request out → target NIC DMA-reads memory → response
  occupies the *target's* TX engine for the payload → back.
* ``send``   — TX engine → wire → target NIC recv processing
  (``two_sided_rx_ns``) → delivered to the target node's SRQ.
* ``write_with_imm`` — ``write`` whose arrival also consumes a recv WQE
  and delivers an imm-tagged message (the server notices immediately —
  the property IMM-style durability relies on).
* ``cas``/``faa`` — 8-byte target-NIC read-modify-write.

Analytic fast path (see DESIGN.md §11)
--------------------------------------
When the fabric allows it (:meth:`Fabric.fastpath_ok`) and the TX
engine(s) a verb needs are idle, the verb charges its latency in closed
form: the same :class:`FabricTiming` terms and the same ``jitter()``
draws as the event path, coalesced into two scheduled wake-ups (one at
the instant the verb's remote side effect happens — DMA apply, memory
snapshot, SRQ delivery — and one at the ACK) instead of the five-to-nine
events of the fully simulated path. The engine is claimed by bumping
``Node.tx_reserved_until``; the event path honours outstanding
reservations, so mixed executions keep exact FIFO engine semantics. Any
armed injector, QP error state, or busy engine falls back to the full
event simulation mid-verb, which keeps contended timing (and therefore
fig1/fig2 and the crash matrix) bit-identical to the pre-fast-path
simulator.
"""

from __future__ import annotations

from collections.abc import Generator
from typing import Any, Optional

from repro.errors import MemoryAccessError, QPError
from repro.rdma.fabric import Fabric, Node
from repro.rdma.verbs import Message, Opcode, WorkCompletion, next_wr_id
from repro.sim.kernel import Event

__all__ = ["Endpoint"]

# Pre-resolved stats keys (the per-op `.value` attribute lookups on the
# Opcode enum showed up in profiles).
_OP_WRITE = Opcode.WRITE.value
_OP_READ = Opcode.READ.value
_OP_CAS = Opcode.CAS.value
_OP_FAA = Opcode.FAA.value
_OP_SEND = Opcode.SEND.value
_OP_WRITE_IMM = Opcode.WRITE_WITH_IMM.value


def _tx_engine(fabric, node, nbytes: int) -> Generator[Event, Any, None]:
    t = fabric.timing
    env = node.env
    req = yield from node.tx.acquire()
    try:
        # Wait out any analytic fast-path reservation first: the fast
        # path claimed the engine without holding the Resource, so the
        # grant can arrive while the engine is still (logically) busy.
        # Jitter is sampled after the wait, at the time the engine
        # actually starts serving this WR — exactly when the pure event
        # path would have sampled it.
        reserved = node.tx_reserved_until - env.now
        if reserved > 0:
            yield env.timeout(reserved)
        yield env.timeout(
            t.nic_tx_occupancy_ns + t.serialize_ns(nbytes) + fabric.jitter()
        )
    finally:
        node.tx.release(req)
    pipelined = t.nic_tx_ns - t.nic_tx_occupancy_ns
    if pipelined > 0:
        yield env.timeout(pipelined)


class Endpoint:
    """One side of a reliable connection (see module docstring)."""

    __slots__ = ("fabric", "local", "remote", "peer", "stats", "_error", "fastpath_ops")

    def __init__(self, fabric: Fabric, local: Node, remote: Node) -> None:
        self.fabric = fabric
        self.local = local
        self.remote = remote
        #: The opposite endpoint (set by Fabric.connect).
        self.peer: Optional["Endpoint"] = None
        #: Per-opcode counters.
        self.stats: dict[str, int] = {}
        #: Verbs this endpoint completed via the analytic fast path.
        self.fastpath_ops = 0
        #: True while the QP sits in the error state (after an injected
        #: qp_error / completion_drop fault): every verb fails until
        #: :meth:`reset` re-establishes the connection.
        self._error = False

    # -- QP state (fault injection / resilience) ----------------------------
    @property
    def in_error(self) -> bool:
        return self._error

    def reset(self) -> None:
        """Re-establish the connection: both directions leave the error
        state (models tearing down the QP pair and reconnecting)."""
        self._error = False
        if self.peer is not None:
            self.peer._error = False

    def _check_usable(self) -> None:
        if self._error:
            raise QPError(
                f"QP {self.local.name}->{self.remote.name} is in the error state",
                code="qp_error",
            )

    def _inject(self, site: str) -> Generator[Event, Any, None]:
        """Fault-injection point at the head of every verb. Only called
        when an injector is armed; an empty plan yields nothing, so
        timings are untouched."""
        inj = self.fabric.injector
        act = inj.fire(site, partition=inj.pop_context_partition())
        if act is None:
            return
        env = self.local.env
        if act.kind == "completion_delay":
            yield env.timeout(act.delay_ns)
        elif act.kind == "qp_error":
            self._error = True
            raise QPError(
                f"QP {self.local.name}->{self.remote.name} transitioned to "
                f"error state (injected: {act.rule})",
                code="qp_error",
            )
        elif act.kind == "completion_drop":
            # The WR is lost; the initiator spends the detection time in
            # transport retries before the QP gives up and errors out.
            if act.delay_ns > 0:
                yield env.timeout(act.delay_ns)
            self._error = True
            raise QPError(
                f"completion lost on {self.local.name}->{self.remote.name} "
                f"(injected: {act.rule})",
                code="completion_lost",
            )

    # -- internals ---------------------------------------------------------
    def _bump(self, key: str) -> None:
        stats = self.stats
        stats[key] = stats.get(key, 0) + 1

    def _count(self, opcode: Opcode) -> None:
        self._bump(opcode.value)

    def _tx(self, nbytes: int) -> Generator[Event, Any, None]:
        """Pass one WR through the local TX engine.

        The engine is *occupied* for ``nic_tx_occupancy_ns`` plus the
        payload serialization (this bounds message rate and bandwidth);
        the remaining per-WR processing latency is pipelined and charged
        without holding the engine.
        """
        yield from _tx_engine(self.fabric, self.local, nbytes)

    def _remote_tx(self, nbytes: int) -> Generator[Event, Any, None]:
        """Pass a response WR through the remote TX engine."""
        yield from _tx_engine(self.fabric, self.remote, nbytes)

    def _tx_idle(self, node: Node) -> bool:
        """True when ``node``'s TX engine can be claimed analytically:
        nobody holds or awaits the Resource and no fast-path reservation
        is outstanding."""
        tx = node.tx
        return (
            not tx._users
            and not tx._waiting
            and node.tx_reserved_until <= node.env.now
        )

    def _fast_done(self) -> None:
        self.fastpath_ops += 1
        self.fabric.fastpath_ops += 1

    # -- one-sided verbs ------------------------------------------------------
    def write(
        self, rkey: int, offset: int, data: bytes | bytearray | memoryview
    ) -> Generator[Event, Any, WorkCompletion]:
        """One-sided RDMA WRITE; completes when the ACK returns.

        On completion the payload is *visible* at the target but NOT
        durable (DDIO lands it in the LLC) — the central hazard of §3.
        """
        env = self.local.env
        fabric = self.fabric
        t = fabric.timing
        self._check_usable()
        if fabric.injector is not None:
            yield from self._inject("qp.write")
        fabric.check_target(self.remote)
        mr = self.remote.pd.lookup(rkey)
        data = bytes(data)
        addr = mr.check(offset, len(data), write=True)
        wr_id = next_wr_id()
        self._bump(_OP_WRITE)

        fast = fabric.fastpath and fabric.injector is None
        if fast and self._tx_idle(self.local):
            # Analytic fast path: identical cost terms, two wake-ups.
            # Absolute times accumulate in the event path's exact float
            # association order, so the result is bit-identical.
            t_done = env.now + (
                t.nic_tx_occupancy_ns + t.serialize_ns(len(data)) + fabric.jitter()
            )
            self.local.tx_reserved_until = t_done
            pipelined = t.nic_tx_ns - t.nic_tx_occupancy_ns
            if pipelined > 0:
                t_done = t_done + pipelined
            fl = fabric.register_inflight(
                self.remote, addr, data,
                apply_at=t_done + t.propagation_ns + t.dma_ns,
                t_start=t_done,
            )
            yield env.timeout_at(t_done + (t.propagation_ns + t.dma_ns))
            if not fabric.apply_inflight(fl):
                raise QPError(
                    f"WRITE to {self.remote.name} flushed (target down)",
                    code="target_down",
                )
            yield env.timeout(t.propagation_ns + t.nic_rx_ns)
            self._fast_done()
            return WorkCompletion(wr_id, Opcode.WRITE, completed_at=env.now)
        if fast:
            fabric.fallback_ops += 1

        yield from self._tx(len(data))
        apply_at = env.now + t.propagation_ns + t.dma_ns
        fl = fabric.register_inflight(self.remote, addr, data, apply_at)
        yield env.timeout(t.propagation_ns + t.dma_ns)
        if not fabric.apply_inflight(fl):
            raise QPError(
                f"WRITE to {self.remote.name} flushed (target down)",
                code="target_down",
            )
        yield env.timeout(t.propagation_ns + t.nic_rx_ns)
        return WorkCompletion(wr_id, Opcode.WRITE, completed_at=env.now)

    def write_async(self, cq, rkey: int, offset: int, data, wr_id: int) -> bool:
        """Analytic fast path for a *posted* WRITE: the completion lands
        on ``cq`` via two scheduled callback events — no driver process,
        no generator resumes.

        Returns False (with no side effects) when the fast path is
        ineligible or validation would raise; the caller then falls back
        to the generator driver, which reproduces event-path behaviour
        (including the exception captured in an ``ok=False`` CQE).
        """
        fabric = self.fabric
        if (
            self._error
            or not fabric.fastpath
            or fabric.injector is not None
            or not self._tx_idle(self.local)
            or not self.remote.alive
        ):
            return False
        try:
            mr = self.remote.pd.lookup(rkey)
            payload = bytes(data)
            addr = mr.check(offset, len(payload), write=True)
        except (MemoryAccessError, TypeError):
            # bad rkey/range (ProtectionError et al.) or an un-bytes-able
            # payload: fall back to the slow path, which raises properly
            return False
        env = self.local.env
        t = fabric.timing
        self._bump(_OP_WRITE)
        t_done = env.now + (
            t.nic_tx_occupancy_ns + t.serialize_ns(len(payload)) + fabric.jitter()
        )
        self.local.tx_reserved_until = t_done
        pipelined = t.nic_tx_ns - t.nic_tx_occupancy_ns
        if pipelined > 0:
            t_done = t_done + pipelined
        fl = fabric.register_inflight(
            self.remote, addr, payload,
            apply_at=t_done + t.propagation_ns + t.dma_ns,
            t_start=t_done,
        )
        ack_delay = t.propagation_ns + t.nic_rx_ns

        def _at_ack(_ev: Event) -> None:
            self._fast_done()
            cq._push(WorkCompletion(wr_id, Opcode.WRITE, completed_at=env.now))

        def _at_apply(_ev: Event) -> None:
            if not fabric.apply_inflight(fl):
                cq._push(
                    WorkCompletion(
                        wr_id, Opcode.WRITE, ok=False,
                        result=QPError(
                            f"WRITE to {self.remote.name} flushed (target down)",
                            code="target_down",
                        ),
                        completed_at=env.now,
                    )
                )
                return
            ack = Event(env)
            ack._value = None
            ack.callbacks.append(_at_ack)
            env.schedule_at(ack, env.now + ack_delay)

        apply_ev = Event(env)
        apply_ev._value = None
        apply_ev.callbacks.append(_at_apply)
        env.schedule_at(apply_ev, t_done + (t.propagation_ns + t.dma_ns))
        return True

    def write_many(
        self, writes: "list[tuple[int, int, bytes | bytearray | memoryview]]"
    ) -> Generator[Event, Any, WorkCompletion]:
        """Doorbell-batched one-sided WRITEs with selective signaling.

        ``writes`` is a list of ``(rkey, offset, data)`` work requests
        posted as one chain: a single MMIO doorbell rings the NIC, the
        WQEs are fetched in one go, and only the *last* WR is signaled —
        so the per-WR initiator latency (``nic_tx_ns``) and the
        completion path (ACK propagation + ``nic_rx_ns``) are paid once
        per batch instead of once per WRITE. Each WR still occupies the
        TX engine for its serialization time (bandwidth is conserved)
        and every payload is tracked in-flight for crash tearing,
        exactly like :meth:`write`.

        Completes when the final WR's ACK returns. A batch of one is
        timing-identical to a plain :meth:`write`.
        """
        env = self.local.env
        fabric = self.fabric
        t = fabric.timing
        self._check_usable()
        if not writes:
            raise QPError("write_many needs at least one work request")
        if fabric.injector is not None:
            yield from self._inject("qp.write_many")
        fabric.check_target(self.remote)
        # Validate the whole chain before posting anything: a doorbell
        # batch is all-or-nothing at the WQE level.
        pinned = []
        for rkey, offset, data in writes:
            mr = self.remote.pd.lookup(rkey)
            data = bytes(data)
            pinned.append((mr.check(offset, len(data), write=True), data))
        wr_id = next_wr_id()
        for _ in writes:
            self._bump(_OP_WRITE)
        self._bump("doorbell_batches")

        fast = fabric.fastpath and fabric.injector is None
        if fast and self._tx_idle(self.local):
            # One engine claim covers the chain; the doorbell/WQE-fetch
            # latency and jitter are charged on the first WR only, like
            # the event path below. Per-WR times accumulate stepwise so
            # the floats match the event path's sequential timeouts.
            t_done = env.now
            for i, (_addr, data) in enumerate(pinned):
                per_wr = t.nic_tx_occupancy_ns if i == 0 else t.doorbell_wr_ns
                jitter = fabric.jitter() if i == 0 else 0.0
                t_done = t_done + (per_wr + t.serialize_ns(len(data)) + jitter)
            self.local.tx_reserved_until = t_done
            pipelined = t.nic_tx_ns - t.nic_tx_occupancy_ns
            if pipelined > 0:
                t_done = t_done + pipelined
            apply_at = t_done + t.propagation_ns + t.dma_ns
            inflight = [
                fabric.register_inflight(
                    self.remote, addr, data, apply_at=apply_at, t_start=t_done
                )
                for addr, data in pinned
            ]
            yield env.timeout_at(t_done + (t.propagation_ns + t.dma_ns))
            for fl in inflight:
                if not fabric.apply_inflight(fl):
                    raise QPError(
                        f"doorbell WRITE to {self.remote.name} flushed (target down)",
                        code="target_down",
                    )
            yield env.timeout(t.propagation_ns + t.nic_rx_ns)
            self._fast_done()
            return WorkCompletion(wr_id, Opcode.WRITE, completed_at=env.now)
        if fast:
            fabric.fallback_ops += 1

        # TX engine: serialization per WR; the doorbell/WQE-fetch
        # latency is charged on the first WR only, later WRs pay the
        # (much smaller) per-WQE decode cost.
        req = yield from self.local.tx.acquire()
        try:
            reserved = self.local.tx_reserved_until - env.now
            if reserved > 0:
                yield env.timeout(reserved)
            for i, (_addr, data) in enumerate(pinned):
                per_wr = t.nic_tx_occupancy_ns if i == 0 else t.doorbell_wr_ns
                jitter = fabric.jitter() if i == 0 else 0.0
                yield env.timeout(per_wr + t.serialize_ns(len(data)) + jitter)
        finally:
            self.local.tx.release(req)
        pipelined = t.nic_tx_ns - t.nic_tx_occupancy_ns
        if pipelined > 0:
            yield env.timeout(pipelined)

        apply_at = env.now + t.propagation_ns + t.dma_ns
        inflight = [
            fabric.register_inflight(self.remote, addr, data, apply_at)
            for addr, data in pinned
        ]
        yield env.timeout(t.propagation_ns + t.dma_ns)
        for fl in inflight:
            if not fabric.apply_inflight(fl):
                raise QPError(
                    f"doorbell WRITE to {self.remote.name} flushed (target down)",
                    code="target_down",
                )
        # Selective signaling: one ACK/CQE for the whole chain.
        yield env.timeout(t.propagation_ns + t.nic_rx_ns)
        return WorkCompletion(wr_id, Opcode.WRITE, completed_at=env.now)

    def read(
        self, rkey: int, offset: int, length: int
    ) -> Generator[Event, Any, bytes]:
        """One-sided RDMA READ; returns the bytes (visible image)."""
        env = self.local.env
        fabric = self.fabric
        t = fabric.timing
        self._check_usable()
        if fabric.injector is not None:
            yield from self._inject("qp.read")
        fabric.check_target(self.remote)
        mr = self.remote.pd.lookup(rkey)
        addr = mr.check(offset, length, write=False)
        self._bump(_OP_READ)

        pipelined = t.nic_tx_ns - t.nic_tx_occupancy_ns
        fast = fabric.fastpath and fabric.injector is None
        if fast and self._tx_idle(self.local):
            # Request leg: header-only WR through the local engine.
            t_req = env.now + (
                t.nic_tx_occupancy_ns + t.serialize_ns(0) + fabric.jitter()
            )
            self.local.tx_reserved_until = t_req
            if pipelined > 0:
                t_req = t_req + pipelined
            yield env.timeout_at(t_req + (t.propagation_ns + t.dma_ns))
            fabric.check_target(self.remote)
            # Target NIC snapshots memory now, then streams the response.
            data = mr.device.read(addr, length)
            # Response leg: claimed at arrival time (never in advance, so
            # FIFO order on the remote engine is preserved); a busy
            # engine falls back to the event path for the remainder.
            if self._tx_idle(self.remote):
                t_resp = env.now + (
                    t.nic_tx_occupancy_ns + t.serialize_ns(length) + fabric.jitter()
                )
                self.remote.tx_reserved_until = t_resp
                if pipelined > 0:
                    t_resp = t_resp + pipelined
                yield env.timeout_at(t_resp + (t.propagation_ns + t.nic_rx_ns))
                self._fast_done()
                return data
            fabric.fallback_ops += 1
            yield from self._remote_tx(length)
            yield env.timeout(t.propagation_ns + t.nic_rx_ns)
            return data
        if fast:
            fabric.fallback_ops += 1

        yield from self._tx(0)  # request header only
        yield env.timeout(t.propagation_ns + t.dma_ns)
        fabric.check_target(self.remote)
        # Target NIC snapshots memory now, then streams the response.
        data = mr.device.read(addr, length)
        yield from self._remote_tx(length)
        yield env.timeout(t.propagation_ns + t.nic_rx_ns)
        return data

    def cas(
        self, rkey: int, offset: int, expected: bytes, desired: bytes
    ) -> Generator[Event, Any, bytes]:
        """8-byte compare-and-swap at the target; returns the old value."""
        if len(expected) != 8 or len(desired) != 8:
            raise QPError("CAS operands must be 8 bytes")
        env = self.local.env
        fabric = self.fabric
        t = fabric.timing
        self._check_usable()
        if fabric.injector is not None:
            yield from self._inject("qp.cas")
        fabric.check_target(self.remote)
        mr = self.remote.pd.lookup(rkey)
        addr = mr.check(offset, 8, write=True)
        self._bump(_OP_CAS)

        fast = fabric.fastpath and fabric.injector is None
        if fast and self._tx_idle(self.local):
            t_done = env.now + (
                t.nic_tx_occupancy_ns + t.serialize_ns(16) + fabric.jitter()
            )
            self.local.tx_reserved_until = t_done
            pipelined = t.nic_tx_ns - t.nic_tx_occupancy_ns
            if pipelined > 0:
                t_done = t_done + pipelined
            yield env.timeout_at(
                t_done + (t.propagation_ns + t.dma_ns + t.atomic_extra_ns)
            )
            fabric.check_target(self.remote)
            old = mr.device.read(addr, 8)
            if old == expected:
                mr.device.write_atomic64(addr, desired)
            yield env.timeout(t.propagation_ns + t.nic_rx_ns)
            self._fast_done()
            return old
        if fast:
            fabric.fallback_ops += 1

        yield from self._tx(16)
        yield env.timeout(t.propagation_ns + t.dma_ns + t.atomic_extra_ns)
        fabric.check_target(self.remote)
        old = mr.device.read(addr, 8)
        if old == expected:
            mr.device.write_atomic64(addr, desired)
        yield env.timeout(t.propagation_ns + t.nic_rx_ns)
        return old

    def faa(
        self, rkey: int, offset: int, delta: int
    ) -> Generator[Event, Any, int]:
        """8-byte fetch-and-add; returns the prior value."""
        env = self.local.env
        fabric = self.fabric
        t = fabric.timing
        self._check_usable()
        if fabric.injector is not None:
            yield from self._inject("qp.faa")
        fabric.check_target(self.remote)
        mr = self.remote.pd.lookup(rkey)
        addr = mr.check(offset, 8, write=True)
        self._bump(_OP_FAA)

        fast = fabric.fastpath and fabric.injector is None
        if fast and self._tx_idle(self.local):
            t_done = env.now + (
                t.nic_tx_occupancy_ns + t.serialize_ns(16) + fabric.jitter()
            )
            self.local.tx_reserved_until = t_done
            pipelined = t.nic_tx_ns - t.nic_tx_occupancy_ns
            if pipelined > 0:
                t_done = t_done + pipelined
            yield env.timeout_at(
                t_done + (t.propagation_ns + t.dma_ns + t.atomic_extra_ns)
            )
            fabric.check_target(self.remote)
            old = int.from_bytes(mr.device.read(addr, 8), "little")
            new = (old + delta) & 0xFFFFFFFFFFFFFFFF
            mr.device.write_atomic64(addr, new.to_bytes(8, "little"))
            yield env.timeout(t.propagation_ns + t.nic_rx_ns)
            self._fast_done()
            return old
        if fast:
            fabric.fallback_ops += 1

        yield from self._tx(16)
        yield env.timeout(t.propagation_ns + t.dma_ns + t.atomic_extra_ns)
        fabric.check_target(self.remote)
        old = int.from_bytes(mr.device.read(addr, 8), "little")
        new = (old + delta) & 0xFFFFFFFFFFFFFFFF
        mr.device.write_atomic64(addr, new.to_bytes(8, "little"))
        yield env.timeout(t.propagation_ns + t.nic_rx_ns)
        return old

    # -- two-sided verbs ----------------------------------------------------------
    def send(
        self,
        payload: Any,
        wire_bytes: int,
        *,
        imm: Optional[int] = None,
        in_reply_to: Optional[int] = None,
    ) -> Generator[Event, Any, int]:
        """SEND a message; returns its req_id once delivered to the
        target's receive queue."""
        env = self.local.env
        fabric = self.fabric
        t = fabric.timing
        self._check_usable()
        if fabric.injector is not None:
            yield from self._inject("qp.send")
        fabric.check_target(self.remote)
        self._bump(_OP_SEND)

        fast = fabric.fastpath and fabric.injector is None
        if fast and self._tx_idle(self.local):
            t_done = env.now + (
                t.nic_tx_occupancy_ns + t.serialize_ns(wire_bytes) + fabric.jitter()
            )
            self.local.tx_reserved_until = t_done
            pipelined = t.nic_tx_ns - t.nic_tx_occupancy_ns
            if pipelined > 0:
                t_done = t_done + pipelined
            yield env.timeout_at(
                t_done
                + (t.propagation_ns + t.nic_rx_ns + t.two_sided_rx_cost(wire_bytes))
            )
            fabric.check_target(self.remote)
            msg = Message(
                Opcode.SEND,
                payload,
                wire_bytes,
                imm=imm,
                reply_to=self.peer,
                in_reply_to=in_reply_to,
                arrived_at=env.now,
            )
            self.remote.srq.put(msg)
            self._fast_done()
            return msg.req_id
        if fast:
            fabric.fallback_ops += 1

        yield from self._tx(wire_bytes)
        yield env.timeout(t.propagation_ns + t.nic_rx_ns + t.two_sided_rx_cost(wire_bytes))
        fabric.check_target(self.remote)
        msg = Message(
            Opcode.SEND,
            payload,
            wire_bytes,
            imm=imm,
            reply_to=self.peer,
            in_reply_to=in_reply_to,
            arrived_at=env.now,
        )
        self.remote.srq.put(msg)
        return msg.req_id

    def write_with_imm(
        self,
        rkey: int,
        offset: int,
        data: bytes | bytearray | memoryview,
        imm: int,
        payload: Any = None,
    ) -> Generator[Event, Any, WorkCompletion]:
        """RDMA WRITE_WITH_IMM: data lands like a WRITE *and* the target
        application is notified immediately with ``imm``."""
        env = self.local.env
        fabric = self.fabric
        t = fabric.timing
        self._check_usable()
        if fabric.injector is not None:
            yield from self._inject("qp.write_imm")
        fabric.check_target(self.remote)
        mr = self.remote.pd.lookup(rkey)
        data = bytes(data)
        addr = mr.check(offset, len(data), write=True)
        wr_id = next_wr_id()
        self._bump(_OP_WRITE_IMM)

        fast = fabric.fastpath and fabric.injector is None
        if fast and self._tx_idle(self.local):
            t_done = env.now + (
                t.nic_tx_occupancy_ns + t.serialize_ns(len(data)) + fabric.jitter()
            )
            self.local.tx_reserved_until = t_done
            pipelined = t.nic_tx_ns - t.nic_tx_occupancy_ns
            if pipelined > 0:
                t_done = t_done + pipelined
            fl = fabric.register_inflight(
                self.remote, addr, data,
                apply_at=t_done + t.propagation_ns + t.dma_ns,
                t_start=t_done,
            )
            # imm notification only; data went one-sided
            yield env.timeout_at(
                t_done + (t.propagation_ns + t.dma_ns + t.two_sided_rx_ns)
            )
            if not fabric.apply_inflight(fl):
                raise QPError(
                    f"WRITE_WITH_IMM to {self.remote.name} flushed", code="target_down"
                )
            msg = Message(
                Opcode.WRITE_WITH_IMM,
                payload,
                len(data),
                imm=imm,
                reply_to=self.peer,
                arrived_at=env.now,
            )
            self.remote.srq.put(msg)
            yield env.timeout(t.propagation_ns + t.nic_rx_ns)
            self._fast_done()
            return WorkCompletion(wr_id, Opcode.WRITE_WITH_IMM, completed_at=env.now)
        if fast:
            fabric.fallback_ops += 1

        yield from self._tx(len(data))
        apply_at = env.now + t.propagation_ns + t.dma_ns
        fl = fabric.register_inflight(self.remote, addr, data, apply_at)
        yield env.timeout(t.propagation_ns + t.dma_ns + t.two_sided_rx_ns)  # imm notification only; data went one-sided
        if not fabric.apply_inflight(fl):
            raise QPError(
                f"WRITE_WITH_IMM to {self.remote.name} flushed", code="target_down"
            )
        msg = Message(
            Opcode.WRITE_WITH_IMM,
            payload,
            len(data),
            imm=imm,
            reply_to=self.peer,
            arrived_at=env.now,
        )
        self.remote.srq.put(msg)
        yield env.timeout(t.propagation_ns + t.nic_rx_ns)
        return WorkCompletion(wr_id, Opcode.WRITE_WITH_IMM, completed_at=env.now)

    # -- receive helpers --------------------------------------------------------
    def recv_response(self, req_id: int) -> Generator[Event, Any, Message]:
        """Wait for the response to a request this endpoint sent."""
        msg = yield self.local.srq.get(lambda m: m.in_reply_to == req_id)
        return msg

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Endpoint {self.local.name}->{self.remote.name}>"
