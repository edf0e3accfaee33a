"""Kernel semantics: events, processes, time, ordering, interrupts."""

import pytest

from repro.errors import SimulationError
from repro.sim.kernel import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupt,
    PRIORITY_LOW,
    PRIORITY_NORMAL,
    PRIORITY_URGENT,
    Timeout,
)


class TestEvent:
    def test_untriggered_state(self, env):
        ev = env.event()
        assert not ev.triggered
        assert not ev.processed
        with pytest.raises(SimulationError):
            _ = ev.value
        with pytest.raises(SimulationError):
            _ = ev.ok

    def test_succeed_delivers_value(self, env):
        ev = env.event()
        ev.succeed(41)
        assert ev.triggered and ev.ok and ev.value == 41
        env.run()
        assert ev.processed

    def test_double_trigger_rejected(self, env):
        ev = env.event()
        ev.succeed(1)
        with pytest.raises(SimulationError):
            ev.succeed(2)
        with pytest.raises(SimulationError):
            ev.fail(ValueError("x"))

    def test_fail_requires_exception(self, env):
        ev = env.event()
        with pytest.raises(TypeError):
            ev.fail("not an exception")

    def test_unhandled_failure_escalates(self, env):
        ev = env.event()
        ev.fail(ValueError("boom"))
        with pytest.raises(ValueError, match="boom"):
            env.run()

    def test_defused_failure_is_silent(self, env):
        ev = env.event()
        ev.fail(ValueError("boom"))
        ev.defused()
        env.run()  # no raise


class TestTimeout:
    def test_advances_clock(self, env):
        env.timeout(125.0)
        env.run()
        assert env.now == 125.0

    def test_negative_delay_rejected(self, env):
        with pytest.raises(SimulationError):
            env.timeout(-1.0)

    def test_carries_value(self, env):
        def proc():
            got = yield env.timeout(5, value="hello")
            return got

        assert env.run(env.process(proc())) == "hello"


class TestProcess:
    def test_return_value(self, env):
        def proc():
            yield env.timeout(1)
            return 99

        assert env.run(env.process(proc())) == 99

    def test_sequential_timeouts_accumulate(self, env):
        def proc():
            yield env.timeout(10)
            yield env.timeout(5)
            return env.now

        assert env.run(env.process(proc())) == 15.0

    def test_requires_generator(self, env):
        with pytest.raises(SimulationError):
            env.process(lambda: None)  # type: ignore[arg-type]

    def test_yield_non_event_rejected(self, env):
        def proc():
            yield 42

        env.process(proc())
        with pytest.raises(SimulationError, match="non-event"):
            env.run()

    def test_exception_propagates_to_waiter(self, env):
        def failing():
            yield env.timeout(1)
            raise RuntimeError("inner")

        def waiter():
            try:
                yield env.process(failing())
            except RuntimeError as exc:
                return f"caught {exc}"

        assert env.run(env.process(waiter())) == "caught inner"

    def test_unwaited_failure_escalates(self, env):
        def failing():
            yield env.timeout(1)
            raise RuntimeError("lonely")

        env.process(failing())
        with pytest.raises(RuntimeError, match="lonely"):
            env.run()

    def test_wait_on_already_processed_event(self, env):
        ev = env.event()
        ev.succeed("early")
        env.run()
        assert ev.processed

        def proc():
            got = yield ev
            return got

        assert env.run(env.process(proc())) == "early"

    def test_processes_communicate_via_events(self, env):
        box = env.event()

        def producer():
            yield env.timeout(7)
            box.succeed("payload")

        def consumer():
            got = yield box
            return (env.now, got)

        env.process(producer())
        assert env.run(env.process(consumer())) == (7.0, "payload")

    def test_is_alive(self, env):
        def proc():
            yield env.timeout(10)

        p = env.process(proc())
        assert p.is_alive
        env.run()
        assert not p.is_alive


class TestInterrupt:
    def test_interrupt_wakes_sleeper(self, env):
        def sleeper():
            try:
                yield env.timeout(1000)
            except Interrupt as i:
                return ("interrupted", i.cause, env.now)

        p = env.process(sleeper())

        def interrupter():
            yield env.timeout(10)
            p.interrupt("wake up")

        env.process(interrupter())
        assert env.run(p) == ("interrupted", "wake up", 10.0)

    def test_interrupted_process_can_continue(self, env):
        def sleeper():
            try:
                yield env.timeout(1000)
            except Interrupt:
                pass
            yield env.timeout(5)
            return env.now

        p = env.process(sleeper())

        def interrupter():
            yield env.timeout(10)
            p.interrupt()

        env.process(interrupter())
        assert env.run(p) == 15.0

    def test_uncaught_interrupt_fails_process_quietly(self, env):
        def sleeper():
            yield env.timeout(1000)

        p = env.process(sleeper())

        def interrupter():
            yield env.timeout(1)
            p.interrupt("die")

        env.process(interrupter())
        env.run()  # must not escalate
        assert p.triggered and not p.ok

    def test_interrupt_finished_process_rejected(self, env):
        def quick():
            yield env.timeout(1)

        p = env.process(quick())
        env.run()
        with pytest.raises(SimulationError):
            p.interrupt()

    def test_interrupt_does_not_consume_target_event(self, env):
        """The event the process waited on still fires for others."""
        shared = env.timeout(50, value="tick")

        def victim():
            try:
                yield shared
            except Interrupt:
                return "out"

        def other():
            got = yield shared
            return got

        v = env.process(victim())

        def interrupter():
            yield env.timeout(1)
            v.interrupt()

        env.process(interrupter())
        o = env.process(other())
        assert env.run(o) == "tick"


class TestConditions:
    def test_all_of_waits_for_all(self, env):
        def proc():
            result = yield AllOf(env, [env.timeout(5, "a"), env.timeout(9, "b")])
            return (env.now, result.values())

        now, values = env.run(env.process(proc()))
        assert now == 9.0
        assert values == ["a", "b"]

    def test_any_of_returns_first(self, env):
        def proc():
            result = yield AnyOf(env, [env.timeout(5, "fast"), env.timeout(9, "slow")])
            return (env.now, result.values())

        now, values = env.run(env.process(proc()))
        assert now == 5.0
        assert values == ["fast"]

    def test_operator_sugar(self, env):
        def proc():
            yield env.timeout(3) & env.timeout(4)
            t_and = env.now
            yield env.timeout(10) | env.timeout(2)
            return (t_and, env.now)

        assert env.run(env.process(proc())) == (4.0, 6.0)

    def test_all_of_fails_fast(self, env):
        bad = env.event()

        def proc():
            try:
                yield AllOf(env, [env.timeout(100), bad])
            except ValueError:
                return env.now

        def failer():
            yield env.timeout(2)
            bad.fail(ValueError("nope"))

        env.process(failer())
        assert env.run(env.process(proc())) == 2.0

    def test_empty_all_of_succeeds_immediately(self, env):
        def proc():
            result = yield AllOf(env, [])
            return len(result)

        assert env.run(env.process(proc())) == 0


class TestRun:
    def test_run_until_time(self, env):
        env.timeout(10)
        env.timeout(100)
        env.run(until=50)
        assert env.now == 50.0

    def test_run_until_past_rejected(self, env):
        env.timeout(10)
        env.run(until=20)
        with pytest.raises(SimulationError):
            env.run(until=5)

    def test_run_drains_queue(self, env):
        env.timeout(10)
        env.timeout(30)
        env.run()
        assert env.now == 30.0
        assert env.peek() == float("inf")

    def test_run_until_never_triggering_event(self, env):
        ev = env.event()
        env.timeout(5)
        with pytest.raises(SimulationError, match="ran out of events"):
            env.run(until=ev)

    def test_step_empty_queue_rejected(self, env):
        with pytest.raises(SimulationError):
            env.step()


class TestDeterminism:
    def test_same_time_events_process_in_schedule_order(self, env):
        order = []
        for tag in "abc":
            env.timeout(5).callbacks.append(lambda _e, t=tag: order.append(t))
        env.run()
        assert order == ["a", "b", "c"]

    def test_urgent_priority_wins(self, env):
        order = []
        t = env.timeout(5)
        t.callbacks.append(lambda _e: order.append("normal"))
        ev = Event(env)
        ev._ok = True
        ev._value = None
        ev.callbacks.append(lambda _e: order.append("urgent"))

        def scheduler():
            yield env.timeout(5 - 5)  # schedule at t=0
            env.schedule(ev, delay=5, priority=PRIORITY_URGENT)

        env.process(scheduler())
        env.run()
        assert order == ["urgent", "normal"]

    def test_full_simulation_repeatable(self):
        def world(env):
            results = []

            def worker(i):
                yield env.timeout(i * 3.7)
                results.append((env.now, i))
                yield env.timeout(1.1)
                results.append((env.now, -i))

            for i in range(10):
                env.process(worker(i))
            env.run()
            return results

        assert world(Environment()) == world(Environment())


def _dispatch_order(schedule):
    """Schedule ``(delay, priority, tag)`` entries, return dispatch order."""
    env = Environment()
    order = []
    for delay, priority, tag in schedule:
        ev = env.event()
        ev.callbacks.append(lambda _e, t=tag: order.append(t))
        env.schedule(ev, delay=delay, priority=priority)
    env.run()
    return order


class TestDispatchOrder:
    def test_dispatch_order_is_sorted_by_time_priority_seq(self):
        """Mixed-priority same-timestamp groups spread over ~393 us
        dispatch in exactly ``sorted`` (time, priority, seq) order, in
        whatever order they were scheduled."""
        window = 1024 * 128.0
        sched = []
        stamps = (0.0, 100.0, window - 1.0, window, window + 1.0, window * 3)
        for i, base in enumerate(stamps):
            sched.append((base, PRIORITY_NORMAL, f"n{i}"))
            sched.append((base, PRIORITY_URGENT, f"u{i}"))
            sched.append((base, PRIORITY_NORMAL, f"n{i}b"))
            sched.append((base, PRIORITY_LOW, f"l{i}"))
        for entries in (sched, sched[::-1]):
            expected = [
                tag
                for _t, _p, _seq, tag in sorted(
                    (delay, prio, seq, tag)
                    for seq, (delay, prio, tag) in enumerate(entries)
                )
            ]
            assert _dispatch_order(entries) == expected
        assert _dispatch_order(sched)[:4] == ["u0", "n0", "n0b", "l0"]

    def test_schedule_at_now_after_run_until_dispatches_first(self):
        """A schedule at ``now`` right after run(until=T) moved the clock
        past the last event must still dispatch, and first."""
        env = Environment()
        env.timeout(300_000.0)
        env.run(until=320_000.0)
        order = []
        ev = env.event()
        ev.callbacks.append(lambda _e: order.append("now"))
        env.schedule(ev, delay=0.0)
        later = env.timeout(1.0)
        later.callbacks.append(lambda _e: order.append("later"))
        env.run()
        assert order == ["now", "later"]


class TestTimeoutFreelist:
    def test_plain_timeout_recycled(self):
        env = Environment()

        def proc():
            t1 = env.timeout(5.0)
            yield t1
            # t1 is recycled only after our resume returns to dispatch
            # (the resumed frame may still inspect it), so reuse shows
            # up one allocation later.
            t2 = env.timeout(7.0)
            assert t2 is not t1
            yield t2
            t3 = env.timeout(3.0)
            assert t3 is t1  # recycled through the freelist
            assert t3.delay == 3.0
            yield t3

        env.run(env.process(proc()))

    def test_subscribed_timeout_not_recycled(self):
        env = Environment()
        seen = []

        def proc():
            t1 = env.timeout(5.0)
            t1.callbacks.append(seen.append)
            yield t1
            t2 = env.timeout(5.0)
            assert t2 is not t1
            yield t2

        env.run(env.process(proc()))
        assert len(seen) == 1

    def test_directly_constructed_timeout_never_pooled(self):
        env = Environment()

        def proc():
            t1 = Timeout(env, 5.0)
            assert not t1._pooled
            yield t1
            assert t1 not in env._free_timeouts

        env.run(env.process(proc()))


class TestAbsoluteScheduling:
    def test_timeout_at_fires_at_absolute_time(self):
        env = Environment()

        def proc():
            yield env.timeout(3.0)
            yield env.timeout_at(10.5)
            assert env.now == 10.5

        env.run(env.process(proc()))

    def test_timeout_at_exact_float(self):
        """timeout_at(when) wakes at exactly ``when`` — no now + delta
        float round-trip (the property the analytic fast path needs)."""
        env = Environment()
        target = 0.1 + 0.2  # not exactly representable as 0.3

        def proc():
            yield env.timeout(1e-3)
            yield env.timeout_at(target)
            assert env.now == target

        env.run(env.process(proc()))

    def test_timeout_at_past_raises(self):
        env = Environment()

        def proc():
            yield env.timeout(5.0)
            env.timeout_at(1.0)

        with pytest.raises(SimulationError):
            env.run(env.process(proc()))


class TestCounters:
    def test_events_counters_track(self):
        env = Environment()

        def proc():
            for _ in range(10):
                yield env.timeout(1.0)

        env.run(env.process(proc()))
        # 10 timeouts + the Initialize event + the process-completion event.
        assert env.events_scheduled == 12
        assert env.events_processed == 12
