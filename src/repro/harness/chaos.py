"""Chaos harness: run a store under an armed fault plan and audit it.

One chaos run = one fresh simulation: deploy a store, preload its keys,
arm a :class:`~repro.faults.plan.FaultPlan`, drive a mixed closed-loop
workload through clients carrying a
:class:`~repro.faults.policy.RetryPolicy`, then disarm, let the
background machinery settle, and audit the surviving state through real
client GETs — the consistency oracle for the no-crash fault regime.

The oracle's invariants (per key, single writer per key):

* **intact** — the returned value parses as one of ours (stores that
  advertise consistent GETs must never serve torn bytes);
* **no lost acks** — the version read is at least the last *acknowledged*
  write (no crash happened, so every acked write must survive);
* **no phantoms** — the version read is at most the last *issued* write
  (an unacked attempt may land — at-least-once — but nothing the
  workload never wrote may appear).

Determinism: the whole run — fault schedule, retry counts, oracle
verdict — is a pure function of ``(store, plan, seed, workload shape)``;
:func:`run_chaos_experiment` is bit-reproducible.
"""

from __future__ import annotations

from collections.abc import Generator
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.errors import OperationTimeout, RDMAError, StoreError
from repro.faults.injector import arm_store, disarm_store
from repro.faults.plan import FaultPlan
from repro.faults.plans import shipped_plan
from repro.faults.policy import RetryPolicy
from repro.rdma.rpc import ERR_NOT_FOUND, RpcFault
from repro.sim.kernel import Environment, Event
from repro.sim.rng import RngRegistry
from repro.sim.trace import Tracer
from repro.stores import STORES, build_store
from repro.workloads.keyspace import make_key, make_value, parse_value

__all__ = ["ChaosSpec", "ChaosReport", "run_chaos_experiment", "settle"]

#: Fault kinds that corrupt the media itself (latent errors), as
#: opposed to transient transport/CPU faults. They change the audit
#: contract: acked data may be destroyed outright, so the advertised
#: behavior is a loud miss or an intact older version — never
#: silently-served rot.
MEDIA_FAULT_KINDS = frozenset({"nvm_bitrot", "nvm_torn_store"})


@dataclass(frozen=True)
class ChaosSpec:
    """Everything needed to reproduce one chaos run."""

    store: str = "efactory"
    plan: str = "qp-flap"  # shipped plan name (ignored when a plan object is passed)
    seed: int = 42
    n_clients: int = 2
    ops_per_client: int = 80
    key_count: int = 24
    key_len: int = 16
    value_len: int = 128
    put_fraction: float = 0.5
    settle_ns: float = 30_000_000.0
    policy: RetryPolicy = field(default_factory=RetryPolicy)
    config_overrides: dict = field(default_factory=dict)
    plan_overrides: dict = field(default_factory=dict)
    trace: bool = False
    #: Arm the self-healing integrity tier (per-stripe parity + checksum
    #: ledger + integrity tree) with the shipped defaults. Explicit
    #: ``config_overrides`` keys still win.
    parity: bool = False
    #: Cluster shape. ``nodes=1, replication=1`` (the default) runs the
    #: classic single-server harness with bit-identical event order.
    nodes: int = 1
    replication: int = 1
    cluster_overrides: dict = field(default_factory=dict)
    #: Optional live migration racing the faulted window:
    #: ``(part_id, dst_node, at_ns)`` with ``at_ns`` relative to arming.
    migration: Optional[tuple] = None


@dataclass
class ChaosReport:
    """Outcome of one chaos run."""

    spec: ChaosSpec
    plan_name: str
    attempted_ops: int
    completed_ops: int
    failed_ops: int
    #: The injected fault schedule, in firing order (comparable tuples:
    #: time, site, kind, rule, op-index, partition).
    fault_schedule: list[tuple]
    fault_counts: dict[str, int]
    #: Aggregated client resilience counters (retries, timeouts, ...).
    resilience: dict[str, int]
    #: Advertised-guarantee violations found by the post-run audit.
    violations: list[str]
    #: Observed weaknesses that the store never promised to avoid.
    weaknesses: list[str]
    audited_keys: int
    degraded_reads: int
    wall_ns: float
    trace_counts: dict[str, int] = field(default_factory=dict)
    #: Online-scrubber counters (empty when the store has no scrubber).
    scrub: dict[str, int] = field(default_factory=dict)
    #: Repair-outcome accounting under media faults: how each detected
    #: corruption was resolved (reconstructed from parity, fetched from
    #: a replica, rolled back to an older version, or cleared), plus the
    #: number of media faults actually injected.
    repair: dict[str, int] = field(default_factory=dict)
    #: Integrity-tier counters (parity/ledger maintenance; empty when
    #: the tier is off).
    integrity: dict[str, int] = field(default_factory=dict)
    #: Cluster metrics (failovers, promotions, shipping; empty when the
    #: run was single-node).
    cluster: dict[str, Any] = field(default_factory=dict)
    #: Stats of the migration raced against the faults, if any.
    migration: dict[str, Any] = field(default_factory=dict)

    @property
    def availability(self) -> float:
        if self.attempted_ops == 0:
            return 1.0
        return self.completed_ops / self.attempted_ops

    @property
    def ok(self) -> bool:
        return not self.violations

    def as_dict(self) -> dict[str, Any]:
        return {
            "store": self.spec.store,
            "plan": self.plan_name,
            "seed": self.spec.seed,
            "attempted_ops": self.attempted_ops,
            "completed_ops": self.completed_ops,
            "failed_ops": self.failed_ops,
            "availability": self.availability,
            "faults_injected": len(self.fault_schedule),
            "fault_counts": dict(self.fault_counts),
            "resilience": dict(self.resilience),
            "violations": list(self.violations),
            "weaknesses": list(self.weaknesses),
            "audited_keys": self.audited_keys,
            "degraded_reads": self.degraded_reads,
            "wall_ns": self.wall_ns,
            "scrub": dict(self.scrub),
            "repair": dict(self.repair),
            "integrity": dict(self.integrity),
            "cluster": dict(self.cluster),
            "migration": dict(self.migration),
        }


def _pool_size_for(spec: ChaosSpec) -> int:
    obj = 64 + spec.key_len + spec.value_len
    total_puts = spec.key_count + spec.n_clients * spec.ops_per_client
    if spec.nodes > 1:
        # A cluster allocates nodes x partitions x 2 pools; keep each
        # small (every key fits many times over — the floor below is
        # already 4x the worst-case append volume).
        return max(2 << 20, int(total_puts * obj * 4))
    # retries can allocate more than once per PUT; leave ample headroom
    return max(32 << 20, int(total_puts * obj * 4))


def run_chaos_experiment(
    spec: ChaosSpec, plan: Optional[FaultPlan] = None
) -> ChaosReport:
    """Execute one chaos run in a fresh simulation environment."""
    env = Environment()
    rngs = RngRegistry(spec.seed)
    tracer = Tracer(env) if spec.trace else None
    plan = plan if plan is not None else shipped_plan(spec.plan, **spec.plan_overrides)
    media_plan = any(rule.kind in MEDIA_FAULT_KINDS for rule in plan.rules)

    cluster_mode = spec.nodes > 1 or spec.replication > 1
    if cluster_mode and spec.store != "efactory":
        raise StoreError("cluster chaos runs require the efactory store")

    overrides: dict[str, Any] = {"pool_size": _pool_size_for(spec)}
    if spec.store.startswith("efactory"):
        overrides["auto_clean"] = False
        if media_plan:
            # Media faults need the online scrubber: without it the
            # durability-flag shortcut would serve rot forever.
            overrides["scrub_interval_ns"] = 2_000.0
    if spec.parity:
        from repro.core.config import integrity_overrides

        overrides.update(integrity_overrides())
    overrides.update(spec.config_overrides)
    if cluster_mode:
        from repro.cluster import build_cluster

        setup = build_cluster(
            env,
            nodes=spec.nodes,
            replication=spec.replication,
            config_overrides=overrides,
            cluster_overrides=dict(spec.cluster_overrides),
            n_clients=spec.n_clients,
        ).start()
    else:
        setup = build_store(
            spec.store, env, config_overrides=overrides, n_clients=spec.n_clients
        ).start()
    for client in setup.clients:
        client.enable_resilience(
            spec.policy, rngs.stream(f"resilience.{client.name}"), tracer=tracer
        )

    keys = [make_key(k, spec.key_len) for k in range(spec.key_count)]
    # Single writer per key: key k belongs to client k % n_clients, so
    # "last acked version" is well-defined without cross-client ordering.
    issued = [0] * spec.key_count
    acked = [0] * spec.key_count

    # -- preload (faults not armed yet: the baseline state is healthy) ------
    def preload() -> Generator[Event, Any, None]:
        client = setup.client(0)
        for kid in range(spec.key_count):
            yield from client.put(keys[kid], make_value(kid, 0, spec.value_len))

    env.run(env.process(preload(), name="chaos-preload"))
    settle(env, setup, spec.settle_ns)

    # -- the faulted window --------------------------------------------------
    injector = arm_store(setup, plan, rngs=rngs, tracer=tracer)
    stats = {"attempted": 0, "completed": 0, "failed": 0}
    t_armed = env.now

    def client_proc(i: int) -> Generator[Event, Any, None]:
        client = setup.client(i)
        rng = rngs.stream(f"chaos.client{i}")
        my_keys = [k for k in range(spec.key_count) if k % spec.n_clients == i]
        for _ in range(spec.ops_per_client):
            yield from client.poll_notifications()
            do_put = bool(my_keys) and rng.random() < spec.put_fraction
            stats["attempted"] += 1
            try:
                if do_put:
                    kid = int(my_keys[int(rng.integers(len(my_keys)))])
                    issued[kid] += 1
                    ver = issued[kid]
                    yield from client.put(
                        keys[kid], make_value(kid, ver, spec.value_len)
                    )
                    acked[kid] = max(acked[kid], ver)
                else:
                    kid = int(rng.integers(spec.key_count))
                    yield from client.get(keys[kid], size_hint=spec.value_len)
            except (StoreError, RDMAError, OperationTimeout):
                stats["failed"] += 1
                continue
            stats["completed"] += 1

    procs = [
        env.process(client_proc(i), name=f"chaos-client{i}")
        for i in range(spec.n_clients)
    ]
    migration_stats: dict[str, Any] = {}
    if spec.migration is not None and cluster_mode:
        mig_part, mig_dst, mig_at = spec.migration

        def migration_proc() -> Generator[Event, Any, None]:
            yield env.timeout(mig_at)
            stats = yield from setup.cluster.migrate(int(mig_part), int(mig_dst))
            migration_stats.update(stats)

        procs.append(env.process(migration_proc(), name="chaos-migration"))
    env.run(env.all_of(procs))
    wall_ns = env.now - t_armed

    # -- disarm, heal, settle -------------------------------------------------
    disarm_store(setup)
    for client in setup.clients:
        if hasattr(client, "reset_endpoints"):
            client.reset_endpoints()  # every per-node QP
        else:
            client.ep.reset()  # clear any residual QP error state
    if cluster_mode:
        # Let in-flight promotions/migrations resolve before auditing.
        env.run(
            env.process(
                setup.cluster.await_stable(spec.settle_ns or 5_000_000.0),
                name="chaos-await-stable",
            )
        )
    # Under a media plan, also wait for two full scrubber laps so every
    # entry has provably been examined *after* the last rot landed.
    settle(env, setup, spec.settle_ns, scrub_laps=2 if media_plan else 0)

    # -- audit through real client GETs --------------------------------------
    # Raw slot reads would misreport legitimately-invalidated versions
    # (publish-on-alloc indexes not-yet-durable objects); the advertised
    # guarantee is about what GET *returns*, so that is what we check.
    consistent = STORES[spec.store].consistent_get
    scrubber = getattr(setup.server, "scrubber", None)
    scrub_active = scrubber is not None and getattr(scrubber, "active", False)
    violations: list[str] = []
    weaknesses: list[str] = []

    def audit() -> Generator[Event, Any, None]:
        client = setup.client(0)
        for kid in range(spec.key_count):
            try:
                value = yield from client.get(keys[kid], size_hint=spec.value_len)
            except (RpcFault, StoreError, RDMAError) as exc:
                code = getattr(exc, "code", "")
                problem = f"key {kid}: GET failed after faults cleared ({code or exc})"
                if isinstance(exc, RpcFault) and code == ERR_NOT_FOUND:
                    problem = f"key {kid}: lost (not found after faults cleared)"
                # Media rot can destroy every version of a key; the
                # advertised behavior is then exactly this loud miss.
                (weaknesses if media_plan else violations).append(problem)
                continue
            parsed = parse_value(value)
            if parsed is None or parsed[0] != kid:
                msg = f"key {kid}: torn or foreign value returned"
                # With a scrubber the store claims rot is repaired or
                # surfaced, never served — so torn bytes stay a
                # violation. Stores without one never promised that.
                strict = consistent and (not media_plan or scrub_active)
                (violations if strict else weaknesses).append(msg)
                continue
            ver = parsed[1]
            if ver < acked[kid]:
                msg = f"key {kid}: acked version {acked[kid]} lost (read {ver})"
                # Rolling back to an intact older version *is* the
                # scrubber's advertised repair under media faults.
                (weaknesses if media_plan else violations).append(msg)
            elif ver > issued[kid]:
                violations.append(
                    f"key {kid}: phantom version {ver} (> issued {issued[kid]})"
                )

    env.run(env.process(audit(), name="chaos-audit"))
    cluster_metrics: dict[str, Any] = {}
    if cluster_mode:
        cluster_metrics = setup.cluster.metrics()
        setup.stop()
    else:
        setup.server.stop()

    resilience: dict[str, int] = {}
    for client in setup.clients:
        for name, count in client.resilience.snapshot().items():
            resilience[name] = resilience.get(name, 0) + count
    degraded = sum(getattr(c, "degraded_reads", 0) for c in setup.clients)

    # -- repair-outcome accounting (every node's scrubber + device) -----------
    all_servers = list(getattr(setup, "servers", None) or [setup.server])
    repair: dict[str, int] = {}
    integrity: dict[str, int] = {}
    if media_plan:
        totals: dict[str, int] = {}
        for srv in all_servers:
            sc = getattr(srv, "scrubber", None)
            if sc is None:
                continue
            for name, count in sc.stats().items():
                totals[name] = totals.get(name, 0) + count
        repair = {
            "media_faults": sum(s.device.media_faults for s in all_servers),
            "detected": totals.get("corrupt_found", 0),
            "reconstructed": totals.get("reconstructed", 0),
            "replica_fetched": totals.get("replica_fetched", 0),
            "rolled_back": totals.get("repaired", 0),
            "cleared": totals.get("unrepairable", 0),
            "parity_stale": totals.get("parity_stale", 0),
            "tree_rejects": sum(
                getattr(c, "tree_rejects", 0) for c in setup.clients
            ),
        }
    for srv in all_servers:
        for part in getattr(srv, "partitions", ()):
            if getattr(part, "integrity", None) is None:
                continue
            for name, count in part.integrity.stats().items():
                integrity[name] = integrity.get(name, 0) + count

    return ChaosReport(
        spec=spec,
        plan_name=plan.name,
        attempted_ops=stats["attempted"],
        completed_ops=stats["completed"],
        failed_ops=stats["failed"],
        fault_schedule=injector.schedule(),
        fault_counts=injector.counts(),
        resilience=resilience,
        violations=violations,
        weaknesses=weaknesses,
        audited_keys=spec.key_count,
        degraded_reads=degraded,
        wall_ns=wall_ns,
        trace_counts=tracer.counts() if tracer is not None else {},
        scrub=dict(scrubber.stats()) if scrubber is not None else {},
        repair=repair,
        integrity=integrity,
        cluster=cluster_metrics,
        migration=migration_stats,
    )


def settle(
    env: Environment, setup: Any, settle_ns: float, *, scrub_laps: int = 0
) -> None:
    """Let asynchronous machinery (verifier, scrubber) drain.

    Runs the simulation in 50 µs steps until every live server's
    background-verifier backlog is 0, or ``settle_ns`` has elapsed.
    Every driver (runner, load engine, bench, crash, crash matrix,
    chaos) settles through this one function.

    ``scrub_laps`` additionally requires the scrubber (when running) to
    complete that many further passes over the table before settling.
    """
    if settle_ns <= 0:
        return
    deadline = env.now + settle_ns
    # Cluster setups expose every node's server; settle against the live
    # ones only (a killed node's verifier backlog can never drain).
    servers = [
        s
        for s in (getattr(setup, "servers", None) or [setup.server])
        if getattr(s.node, "alive", True)
    ]
    backgrounds = [
        b for s in servers if (b := getattr(s, "background", None)) is not None
    ]
    scrubbers = [
        sc
        for s in servers
        if (sc := getattr(s, "scrubber", None)) is not None
        and getattr(sc, "active", False)
    ]
    want_laps = None
    if scrub_laps and scrubbers:
        want_laps = [sc.laps + scrub_laps for sc in scrubbers]
    while env.now < deadline:
        env.run(until=min(deadline, env.now + 50_000.0))
        if any(b.backlog for b in backgrounds):
            continue
        if want_laps is not None and any(
            sc.laps < want for sc, want in zip(scrubbers, want_laps)
        ):
            continue
        break
