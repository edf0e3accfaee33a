"""Analytic fast path: eligibility/fallback matrix, exact equivalence
with the event path, and determinism under the heap scheduler."""

import numpy as np
import pytest

from repro.errors import QPError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.harness.chaos import ChaosSpec, run_chaos_experiment
from repro.harness.kernelbench import _bench_verbs, run_equivalence_check
from repro.harness.runner import RunSpec, run_experiment
from repro.nvm.device import NVMDevice
from repro.rdma.cq import CompletionQueue, post_write
from repro.rdma.fabric import Fabric
from repro.sim.kernel import Environment
from repro.sim.rng import RngRegistry
from repro.workloads.ycsb import update_only, ycsb_c


@pytest.fixture
def net(env):
    fabric = Fabric(env)
    server = fabric.create_node("server", device=NVMDevice(env, 1 << 20))
    client = fabric.create_node("client")
    ep = fabric.connect(client, server)
    mr = server.register_memory(0, 1 << 20)
    return fabric, server, client, ep, mr


def run(env, gen):
    return env.run(env.process(gen))


class TestFallbackMatrix:
    def test_uncontended_write_takes_fast_path(self, env, net):
        fabric, _server, _client, ep, mr = net

        def proc():
            yield from ep.write(mr.rkey, 0, b"x" * 64)

        run(env, proc())
        assert fabric.fastpath_ops == 1
        assert ep.fastpath_ops == 1
        assert fabric.fallback_ops == 0

    def test_disabled_flag_forces_event_path(self, env, net):
        fabric, _server, _client, ep, mr = net
        fabric.fastpath = False

        def proc():
            yield from ep.write(mr.rkey, 0, b"x" * 64)

        run(env, proc())
        assert fabric.fastpath_ops == 0

    def test_armed_injector_forces_event_path(self, env, net):
        fabric, _server, _client, ep, mr = net
        # Even an *empty* plan must force the event path: injectors make
        # timing observable (rule indices count verb visits).
        fabric.injector = FaultInjector(env, FaultPlan("noop"), RngRegistry(1))

        def proc():
            yield from ep.write(mr.rkey, 0, b"x" * 64)
            _ = yield from ep.read(mr.rkey, 0, 64)
            yield from ep.cas(mr.rkey, 0, b"\0" * 8, b"\1" * 8)

        run(env, proc())
        assert fabric.fastpath_ops == 0
        assert not fabric.fastpath_ok()

    def test_qp_error_state_fails_without_fast_path(self, env, net):
        fabric, _server, _client, ep, mr = net
        ep._error = True

        def proc():
            yield from ep.write(mr.rkey, 0, b"x" * 64)

        with pytest.raises(QPError):
            run(env, proc())
        assert fabric.fastpath_ops == 0

    def test_contended_engine_falls_back(self, env, net):
        fabric, _server, _client, ep, mr = net

        def writer(off):
            yield from ep.write(mr.rkey, off, b"y" * 4096)

        env.process(writer(0))
        env.process(writer(8192))
        env.run()
        # First write reserves the engine analytically; the overlapping
        # second write must queue on the full event path.
        assert fabric.fastpath_ops >= 1
        assert fabric.fallback_ops >= 1

    def test_contended_timing_equals_event_path(self, env, net):
        """Mixed fast/fallback execution completes at the same instants
        as a pure event-path run."""

        def drive(fastpath):
            e = Environment()
            fab = Fabric(e)
            fab.fastpath = fastpath
            server = fab.create_node("s", device=NVMDevice(e, 1 << 20))
            client = fab.create_node("c")
            endpoint = fab.connect(client, server)
            mr = server.register_memory(0, 1 << 20)
            done = []

            def writer(off, size):
                yield from endpoint.write(mr.rkey, off, b"z" * size)
                done.append((off, e.now))

            for k in range(6):
                e.process(writer(k * 8192, 2048 + 512 * k))
            e.run()
            return done

        assert drive(True) == drive(False)

    def test_posted_write_async_fallback_on_bad_rkey(self, env, net):
        _fabric, _server, _client, ep, mr = net
        cq = CompletionQueue(env)

        def proc():
            post_write(ep, cq, 999999, 0, b"x")  # unknown rkey
            (wc,) = yield from cq.wait(1)
            return wc

        wc = run(env, proc())
        assert not wc.ok


class TestExactEquivalence:
    def test_fig1_fig2_bit_identical(self):
        """Fast path vs event path: identical ns on the fig1/fig2 cells
        (subset here; the full sweep runs in CI via bench-kernel)."""
        report = run_equivalence_check(ops=12)
        assert report["identical"]
        assert report["fastpath_engaged"]

    def test_macro_cell_same_ns_fewer_events(self):
        """The posted-WRITE macro pattern simulates identical time with
        less than half the events per op."""
        base = _bench_verbs(300, fastpath=False)
        fast = _bench_verbs(300, fastpath=True)
        assert fast["sim_ns"] == base["sim_ns"]
        assert fast["fastpath_ops"] == 300
        assert fast["events_per_op"] < base["events_per_op"] / 2


class TestDeterminism:
    @pytest.mark.parametrize(
        "store,workload",
        [("saw", update_only), ("erda", ycsb_c)],
    )
    def test_same_spec_same_latencies(self, store, workload):
        spec = RunSpec(
            store=store,
            workload=workload(value_len=64, key_count=32),
            n_clients=2,
            ops_per_client=15,
            warmup_ops=3,
            seed=9,
        )
        a = run_experiment(spec)
        b = run_experiment(spec)
        assert a.window_ns == b.window_ns
        for kind in a.latency.kinds():
            assert np.array_equal(a.latency.array(kind), b.latency.array(kind))

    def test_seeded_chaos_plan_repeats_exactly(self):
        spec = ChaosSpec(
            store="efactory",
            plan="qp-flap",
            seed=31,
            n_clients=2,
            ops_per_client=25,
            key_count=12,
            value_len=64,
        )
        a = run_chaos_experiment(spec)
        b = run_chaos_experiment(spec)
        assert a.fault_schedule == b.fault_schedule
        assert a.wall_ns == b.wall_ns
        assert a.completed_ops == b.completed_ops
        assert a.resilience == b.resilience
