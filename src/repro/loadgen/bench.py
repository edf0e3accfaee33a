"""`bench --suite load`: thousand-client open-loop cells (BENCH_pr10.json).

Cells:

* one 1k-client single-tenant cell per mix (default YCSB-A/B/C) on a
  constant arrival curve, admission armed;
* one multi-tenant burst cell — a latency-sensitive ``gold`` tenant on
  a constant curve sharing the store with a ``bulk`` tenant driving
  periodic 4× bursts — reporting per-tenant goodput under distinct SLOs.

Simulated percentiles/goodput are deterministic; wall-clock fields
(``wall_s``, ``wall_ops_per_s``) vary run to run and are informational.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.loadgen.arrivals import ArrivalCurve
from repro.loadgen.engine import LoadReport, LoadSpec, run_load
from repro.loadgen.tenants import TenantSpec
from repro.workloads.ycsb import WORKLOADS

__all__ = ["run_load_bench_suite", "load_cell_spec"]

#: Mean rate per client (ops/s) — at 1k clients this offers 2M ops/s,
#: comfortably inside the store's capacity (queueing stays bounded, the
#: SLO is meetable).
_RATE_PER_CLIENT_OPS_S = 2_000.0
_SLO_NS = 25_000.0


def load_cell_spec(
    mix: str,
    clients: int,
    ops_per_client: int,
    seed: int,
    *,
    value_len: int = 128,
    key_count: int = 1024,
    curve: Optional[ArrivalCurve] = None,
    admission_watermark: int = 64,
) -> LoadSpec:
    """The canonical single-tenant cell used by the load suite."""
    w = WORKLOADS[mix](key_count=key_count, value_len=value_len)
    tenant = TenantSpec(
        name=mix,
        workload=w,
        clients=clients,
        ops_per_client=ops_per_client,
        rate_ops_s=_RATE_PER_CLIENT_OPS_S * clients,
        slo_ns=_SLO_NS,
        curve=curve or ArrivalCurve(),
    )
    return LoadSpec(
        tenants=(tenant,),
        seed=seed,
        admission_watermark=admission_watermark,
    )


def _timed(spec: LoadSpec) -> dict:
    t0 = time.perf_counter()
    report = run_load(spec)
    wall = time.perf_counter() - t0
    d = report.as_dict()
    d["wall_s"] = wall
    d["wall_ops_per_s"] = (report.total_ops / wall) if wall > 0 else 0.0
    return d


def run_load_bench_suite(
    clients: int = 1000,
    ops_per_client: int = 40,
    seed: int = 42,
    mixes: tuple[str, ...] = ("YCSB-A", "YCSB-B", "YCSB-C"),
) -> dict:
    """Run every load cell; returns the BENCH_pr10.json payload."""
    cells: dict[str, dict] = {}
    for mix in mixes:
        cells[mix] = _timed(
            load_cell_spec(mix, clients, ops_per_client, seed)
        )

    # -- multi-tenant burst cell ---------------------------------------------
    gold_clients = max(1, clients // 4)
    bulk_clients = max(1, clients - gold_clients)
    gold = TenantSpec(
        name="gold",
        workload=WORKLOADS["YCSB-B"](key_count=1024, value_len=128),
        clients=gold_clients,
        ops_per_client=ops_per_client,
        rate_ops_s=_RATE_PER_CLIENT_OPS_S * gold_clients,
        slo_ns=15_000.0,
    )
    bulk = TenantSpec(
        name="bulk",
        workload=WORKLOADS["YCSB-A"](key_count=1024, value_len=128),
        clients=bulk_clients,
        ops_per_client=ops_per_client,
        rate_ops_s=_RATE_PER_CLIENT_OPS_S * bulk_clients,
        slo_ns=100_000.0,
        curve=ArrivalCurve(kind="burst", burst_factor=4.0),
    )
    cells["burst-multitenant"] = _timed(
        LoadSpec(
            tenants=(gold, bulk),
            seed=seed,
            admission_watermark=64,
        )
    )

    return {
        "suite": "load",
        "clients": clients,
        "ops_per_client": ops_per_client,
        "seed": seed,
        "cells": cells,
    }


def summarize_report(report: LoadReport) -> dict:
    """Compact digest for CLI table rendering."""
    return report.as_dict()
