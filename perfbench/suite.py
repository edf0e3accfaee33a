"""The benchmark's three workloads.

Each workload sets only workload properties (mix, clients, offered
rate, key count, value size, SLO, and the opt-in features a user turns
on). Every mechanism knob (completion batching and its bucket,
``bg_batch``, the location cache, admission, the analytic fast path)
stays at the program default, so a later change that removes one of
them shows its effect here without an edit to the benchmark.

Why each workload exists is recorded in ``WHY`` and in README.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

#: Latency limit for ``slo_frac`` on every workload (simulated ns).
SLO_NS = 25_000.0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: ``"open"`` drives :func:`repro.loadgen.run_load`, ``"closed"``
    #: drives :func:`repro.harness.runner.run_experiment`.
    loop: str
    #: Builds the program's spec (``LoadSpec`` or ``RunSpec``) from the
    #: workload seed.
    build: Callable[[int], object]
    #: Whether the workload turns the integrity tier on (so a missing
    #: integrity counter means "removed", not "not armed").
    integrity: bool = False


def _open_ycsb_a_1k(seed: int):
    from repro.loadgen import LoadSpec, TenantSpec
    from repro.workloads import WORKLOADS

    tenant = TenantSpec(
        name="ycsb-a",
        workload=WORKLOADS["YCSB-A"](key_count=1024, value_len=128),
        clients=1000,
        # 10 ops x 1000 clients = 10k measured ops, ~5k of each kind:
        # the pooled p99.9 has 10 samples beyond it.
        ops_per_client=10,
        rate_ops_s=2_000_000.0,
        slo_ns=SLO_NS,
    )
    return LoadSpec(tenants=(tenant,), seed=seed)


def _closed_ycsb_b_8(seed: int):
    from repro.harness.runner import RunSpec
    from repro.workloads import WORKLOADS

    return RunSpec(
        store="efactory",
        workload=WORKLOADS["YCSB-B"](key_count=4096, value_len=256),
        n_clients=8,
        # 24k measured ops: ~1.2k PUTs at 5%, so the PUT p99 has 10
        # samples beyond it.
        ops_per_client=3000,
        seed=seed,
    )


#: Log pool size for the maintenance workload: 768 KiB per pool against
#: 1,024 live objects of 320 B (~320 KiB), so cleaning triggers after
#: about 1,200 PUTs and two or more cycles complete in the measured
#: phase. PUTs that find the pool exhausted while cleaning runs fail;
#: they are counted, not hidden.
MAINT_POOL_BYTES = 768 << 10


def _maint_ycsb_a_8(seed: int):
    from repro.core.config import integrity_overrides
    from repro.harness.runner import RunSpec
    from repro.workloads import WORKLOADS

    overrides = dict(integrity_overrides())
    overrides.update(
        scrub_interval_ns=2_000.0,
        auto_clean=True,
        pool_size=MAINT_POOL_BYTES,
    )
    return RunSpec(
        store="efactory",
        workload=WORKLOADS["YCSB-A"](key_count=1024, value_len=256),
        n_clients=8,
        # 15k attempted ops; about a fifth fail on the exhausted pool,
        # and the ~11.5k completed still put 10 samples beyond p99.9.
        ops_per_client=1875,
        seed=seed,
        config_overrides=overrides,
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "open-ycsb-a-1k",
            "open loop, 1k clients, YCSB-A at 2M ops/s: kernel fan-in and the "
            "completion batcher carry the host time; hot keys exercise the "
            "verifier and fallback reads",
            "open",
            _open_ycsb_a_1k,
        ),
        Workload(
            "closed-ycsb-b-8",
            "closed loop, 8 clients, YCSB-B (paper Fig 9 method): uncontended "
            "verbs take the analytic fast path, reads are pure one-sided, "
            "the batcher is never armed",
            "closed",
            _closed_ycsb_b_8,
        ),
        Workload(
            "maint-ycsb-a-8",
            "closed loop, 8 clients, YCSB-A with integrity tier, scrubber and "
            "auto log cleaning on a small pool: background maintenance "
            "layers do the work",
            "closed",
            _maint_ycsb_a_8,
            integrity=True,
        ),
    )
}
