#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload open-ycsb-a-1k --seed 1 --seconds 30 --trace 0

``--trace 0`` repeats whole runs of the workload (fresh deployment each
time, same seed) until ``--seconds`` host seconds have passed, sets up
at least three times, and prints every end-to-end metric. ``--trace 1`` makes one
untraced and one traced run and prints the per-layer metrics; it also
writes the spans and the absent-metric list to ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The program is
imported from ``src/`` next to this directory; without it the script
exits with an error and prints no result. See README.md for the
workloads, the metrics and the layer map.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
#: Set-ups per untraced run; ``setup_s`` is their median.
MIN_SETUPS = 3


def import_program() -> Path:
    """Put the checkout's ``src/`` first on the path and import the
    program from there, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no program source at {src}")
    sys.path.insert(0, str(src))
    import repro

    pkg = Path(repro.__file__).resolve().parent
    if pkg != (src / "repro").resolve():
        raise SystemExit(f"error: imported repro from {pkg}, not {src}")
    return pkg


@dataclass
class Rep:
    """One whole run of a workload."""

    setup_s: float
    measured_s: float
    attempted: int
    completed: int
    latencies: dict
    sim_kops: float
    counters: dict
    ops_after: int
    puts_after: int
    put_bytes_after: int
    check_failures: int
    check_failures_setup: int
    accounting_ok: bool

    def digest(self) -> str:
        """Hash of every simulated outcome: equal for equal seeds."""
        h = hashlib.sha256()
        for kind in sorted(self.latencies):
            h.update(kind.encode())
            h.update(self.latencies[kind].tobytes())
        h.update(repr((self.sim_kops, self.attempted, self.completed)).encode())
        h.update(repr(sorted(self.counters.items())).encode())
        return h.hexdigest()


def run_rep(workload, seed: int, probe, *, setup_only: bool = False):
    """One run; returns a :class:`Rep`, or the set-up seconds alone
    when ``setup_only``."""
    from probe import SetupDone, counter_delta, read_counters
    from repro.harness.runner import run_experiment
    from repro.loadgen import run_load

    spec = workload.build(seed)
    probe.new_rep(
        warmup_ops=spec.warmup_ops if workload.loop == "closed" else 0,
        setup_only=setup_only,
    )
    gc.collect()
    t0 = time.perf_counter()
    try:
        if workload.loop == "open":
            out = run_load(spec)
        else:
            out = run_experiment(spec, post_setup=lambda env, setup: probe.arm())
    except SetupDone:
        return probe.t_boundary - t0
    t_end = time.perf_counter()
    counters = counter_delta(probe.before, read_counters(probe.setup))

    if workload.loop == "open":
        (rec,) = probe.recorders  # one tenant
        attempted = sum(t.total_ops for t in spec.tenants)
        completed = rec.count()
        ok = (
            out.total_ops == completed
            and out.total_ops + out.total_errors == attempted
            and probe.ops_after == attempted
        )
    else:
        rec = out.latency
        attempted = spec.total_measured_ops
        completed = out.measured_ops
        ok = completed <= attempted
    return Rep(
        setup_s=probe.t_boundary - t0,
        measured_s=t_end - probe.t_boundary,
        attempted=attempted,
        completed=completed,
        latencies={k: rec.array(k) for k in rec.kinds()},
        sim_kops=middle_kops(probe.done_at),
        counters=counters,
        ops_after=probe.ops_after,
        puts_after=probe.puts_after,
        put_bytes_after=probe.put_bytes_after,
        check_failures=probe.check_failures,
        check_failures_setup=probe.check_failures_setup,
        accounting_ok=ok,
    )


def middle_kops(done_at: list[float]) -> float:
    """Thousands of completions per simulated second between the 10th
    and the 90th percentile completion. The open loop's first and last
    arrivals are ramp-up and drain, whose length swings with the seed."""
    t = sorted(done_at)
    lo, hi = int(0.1 * len(t)), int(0.9 * len(t))
    return (hi - lo) / (t[hi] - t[lo]) * 1e6


def self_test(probe) -> list[str]:
    """Negative test of the read check: a tiny closed run whose GET
    results are corrupted (torn, wrong key, unissued version) must count
    every corrupted GET as a failed op and nothing else."""
    from repro.harness.runner import RunSpec, run_experiment
    from repro.workloads import WORKLOADS, make_value, parse_value

    injected = {"torn": 0, "wrong_key": 0, "unissued": 0}
    calls = [0]

    def corrupt(value):
        calls[0] += 1
        key_id, version = parse_value(bytes(value))
        kind = ("torn", "wrong_key", "unissued", None, None)[calls[0] % 5]
        if kind is None:
            return value
        injected[kind] += 1
        if kind == "torn":
            half = len(value) // 2
            return bytes(value[:half]) + bytes(len(value) - half)
        if kind == "wrong_key":
            return make_value(key_id + 1, version, len(value))
        return make_value(key_id, version + 10**6, len(value))

    spec = RunSpec(
        store="efactory",
        workload=WORKLOADS["YCSB-A"](key_count=32, value_len=64),
        n_clients=2,
        ops_per_client=40,
        warmup_ops=0,
        seed=7,
    )
    probe.new_rep()
    probe.corrupt = corrupt
    try:
        result = run_experiment(spec, post_setup=lambda env, setup: probe.arm())
    finally:
        probe.corrupt = None
    bad = sum(injected.values())
    errors = []
    if min(injected.values()) == 0:
        errors.append(f"self-test did not inject every corruption kind: {injected}")
    if probe.check_failures != bad:
        errors.append(f"read check counted {probe.check_failures} of {bad} corrupted GETs")
    if spec.total_measured_ops - result.measured_ops != bad:
        errors.append(
            f"harness counted {spec.total_measured_ops - result.measured_ops} "
            f"failed ops for {bad} corrupted GETs"
        )
    return errors


# -- metrics --------------------------------------------------------------------

def _pct(arr, q: float) -> float:
    import numpy as np

    return float(np.percentile(arr, q)) if arr is not None and arr.size else 0.0


def end_to_end(reps: list[Rep], setups: list[float], slo_ns: float) -> tuple[dict, list[str]]:
    import numpy as np

    r = reps[0]
    pooled = np.concatenate(list(r.latencies.values()))
    m: dict = {}
    notes: list[str] = []

    def put(name, value, unit, samples=None, q=None):
        m[name] = {"value": value, "unit": unit}
        if samples is not None:
            beyond = samples - math.ceil(round(samples * q / 100.0, 6))
            notes.append(f"{name}: n={samples}, {beyond} beyond")

    put("wall_ops_per_s", sum(x.ops_after for x in reps) / sum(x.measured_s for x in reps),
        "op/s")
    put("setup_s", statistics.median(setups), "s")
    put("peak_rss_mib", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB")
    put("sim_kops", r.sim_kops, "kop/s")
    for kind in ("get", "put"):
        arr = r.latencies.get(kind, np.empty(0))
        for q, tag in ((50.0, "p50"), (99.0, "p99")):
            put(f"sim_{kind}_{tag}_us", _pct(arr, q) / 1e3, "us", arr.size, q)
    put("sim_op_p999_us", _pct(pooled, 99.9) / 1e3, "us", pooled.size, 99.9)
    put("slo_frac", int((pooled <= slo_ns).sum()) / r.attempted, "frac")
    put("completed_frac", r.completed / r.attempted, "frac")
    notes.append(f"reps={len(reps)} setups={len(setups)} "
                 f"measured_s={[round(x.measured_s, 3) for x in reps]}")
    notes.append(f"measured-phase counters: cleaning cycles={r.counters.get('cleaner.cycles')} "
                 f"scrubbed={r.counters.get('scrubber.scrubbed')}")
    return m, notes


def _ratio(num, den) -> Optional[float]:
    if num is None or den is None or den == 0:
        return None
    return num / den


def per_layer(untraced: Rep, traced: Rep, prof, spans, workload) -> dict:
    """Per-layer metrics; a value of None means absent."""
    from tracing import LAYERS, MODULES

    c = traced.counters
    ops = traced.ops_after
    meas = prof.self_seconds(prof.measured)
    setup = prof.self_seconds(prof.setup)
    us = lambda layer: meas.get(layer, 0.0) * 1e6 / ops  # noqa: E731
    m: dict[str, tuple[Optional[float], str]] = {}

    reads = [c.get(k) for k in ("pure_reads", "fallback_reads", "rpc_only_reads")]
    flushes = c.get("integrity.flushes")
    if flushes is None and not workload.integrity:
        flushes = 0  # tier not turned on: no integrity flushes happen
    m["sim.events_per_op"] = (_ratio(c.get("events"), ops), "events/op")
    m["sim.host_ns_per_event"] = (
        _ratio(untraced.measured_s * 1e9, untraced.counters.get("events")), "ns")
    m["rdma.verbs_per_op"] = (_ratio(c.get("verbs"), ops), "verbs/op")
    fp, fb = c.get("fastpath_ops"), c.get("fallback_ops")
    m["rdma.fastpath_frac"] = (_ratio(fp, None if fp is None or fb is None else fp + fb), "frac")
    m["rdma.rpc_per_op"] = (_ratio(sum(p[5] for p in spans.parts), len(spans.parts)), "rpc/op")
    m["rdma.batch.waits_per_batch"] = (_ratio(c.get("batched_waits"), c.get("batches")), "waits/batch")
    m["core.pure_read_frac"] = (
        _ratio(reads[0], None if None in reads else sum(reads)), "frac")
    m["core.verifier.requeue_frac"] = (
        _ratio(c.get("verifier.requeued"), c.get("verifier.verified")), "frac")
    m["core.scrub.scrubbed"] = (c.get("scrubber.scrubbed"), "count")
    m["host.core.scrub.us_per_scrubbed"] = (
        _ratio(meas.get("core.scrub", 0.0) * 1e6, c.get("scrubber.scrubbed")), "us")
    m["core.cleaner.cycles"] = (c.get("cleaner.cycles"), "count")
    m["core.cleaner.copy_bytes_per_user_byte"] = (
        _ratio(c.get("cleaner.bytes_copied"), traced.put_bytes_after), "B/B")
    m["integrity.flushes_per_put"] = (_ratio(flushes, traced.puts_after), "flushes/put")
    m["mem.flush_calls_per_op"] = (_ratio(c.get("mem.flush_calls"), ops), "flushes/op")
    m["mem.lines_flushed_per_put"] = (_ratio(c.get("mem.lines_flushed"), traced.puts_after), "lines/put")
    m["mem.bytes_written_per_user_byte"] = (
        _ratio(c.get("mem.bytes_written"), traced.put_bytes_after), "B/B")
    for layer in LAYERS + MODULES:
        m[f"host.{layer}.us_per_op"] = (us(layer), "us")
    m["host.other.us_per_op"] = (
        (meas["total"] - sum(meas.get(x, 0.0) for x in LAYERS)) * 1e6 / ops, "us")
    m["host.bench.us_per_op"] = (us("bench"), "us")
    m["host.total.us_per_op"] = (us("total"), "us")
    for layer in LAYERS:
        m[f"host.setup.{layer}_s"] = (setup.get(layer, 0.0), "s")
    m["host.setup.other_s"] = (setup["total"] - sum(setup.get(x, 0.0) for x in LAYERS), "s")
    for kind in ("get", "put"):
        rows = [p for p in spans.parts if p[0] == kind]
        for i, part in ((1, "verb_ns"), (2, "rpc_wait_ns"), (3, "client_ns")):
            m[f"simtime.{kind}.{part}"] = (
                _ratio(sum(p[i] for p in rows), len(rows)), "ns")
    m["simtime.late_ns"] = (_ratio(sum(p[4] for p in spans.parts), len(spans.parts)), "ns")
    m["trace.overhead_frac"] = (traced.measured_s / untraced.measured_s - 1.0, "frac")
    return m


# -- driver ----------------------------------------------------------------------

def main(argv: Optional[list[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    repro_dir = import_program()
    sys.path.insert(0, str(HERE))
    from probe import Probe
    from suite import SLO_NS, WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        raise SystemExit(f"error: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}")

    probe = Probe()
    problems: list[str] = []
    with probe.installed():
        problems += self_test(probe)

    if args.trace:
        rep, metrics = run_traced(workload, args.seed, probe, repro_dir, problems)
    else:
        with probe.installed():
            reps, setups = run_untraced(workload, args.seed, probe, args.seconds)
        rep = reps[0]
        metrics, notes = end_to_end(reps, setups, SLO_NS)
        if len({r.digest() for r in reps}) != 1:
            problems.append("simulated results differ between runs of one seed")
        for line in notes:
            print(f"# {line}")

    if not rep.accounting_ok:
        problems.append("harness op accounting does not add up")
    if rep.check_failures or rep.check_failures_setup:
        problems.append(
            f"read check failed on {rep.check_failures} measured and "
            f"{rep.check_failures_setup} set-up GETs"
        )
    for name, entry in metrics.items():
        print(f"{name:44s} {entry['value']:.6g} {entry['unit']}")
    for p in problems:
        print(f"# PROBLEM: {p}")
    print(json.dumps({
        "correct": not problems,
        "attempted": rep.attempted,
        "failed": rep.attempted - rep.completed,
        "metrics": metrics,
    }))
    return 0


def run_untraced(workload, seed: int, probe, seconds: float):
    reps: list[Rep] = []
    t_start = time.perf_counter()
    while not reps or time.perf_counter() - t_start < seconds:
        reps.append(run_rep(workload, seed, probe))
    setups = [r.setup_s for r in reps]
    while len(setups) < MIN_SETUPS:
        setups.append(run_rep(workload, seed, probe, setup_only=True))
    return reps, setups


def run_traced(workload, seed: int, probe, repro_dir: Path, problems: list[str]):
    from tracing import HostProfile, SpanRecorder, span_wrappers

    with probe.installed():
        untraced = run_rep(workload, seed, probe)
    prof = HostProfile(str(repro_dir), str(HERE))
    spans = SpanRecorder(open_loop=workload.loop == "open")

    def boundary() -> None:
        prof.boundary()
        spans.begin(probe.setup.env)

    probe.on_boundary.append(boundary)
    with span_wrappers(spans), probe.installed():
        prof.start()
        try:
            traced = run_rep(workload, seed, probe)
        finally:
            prof.stop()
    probe.on_boundary.remove(boundary)
    spans.split()

    if traced.digest() != untraced.digest():
        problems.append("tracing changed the simulated results")
    if len(spans.parts) != traced.completed:
        problems.append(f"split {len(spans.parts)} of {traced.completed} measured ops")
    if spans.errors:
        problems.append(f"{len(spans.errors)} span-split errors, first: {spans.errors[0]}")
    layer = per_layer(untraced, traced, prof, spans, workload)
    absent = sorted(k for k, (v, _u) in layer.items() if v is None)
    metrics = {k: {"value": 0.0 if v is None else v, "unit": u} for k, (v, u) in layer.items()}
    for name in absent:
        print(f"# absent: {name}")
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{workload.name}-seed{seed}-trace.json"
    out.write_text(json.dumps({
        "workload": workload.name,
        "seed": seed,
        "metrics": metrics,
        "absent": absent,
        "ops": spans.export(),
    }))
    print(f"# spans: {out.relative_to(ROOT)}")
    return traced, metrics


if __name__ == "__main__":
    sys.exit(main())
