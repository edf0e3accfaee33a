"""Probes the benchmark installs around the program's public surface.

Nothing under ``src/`` changes. For the duration of a run the probe
wraps, at class level:

* every store client's ``get``: the returned bytes must pass
  :func:`repro.workloads.parse_value` with the requested key id and a
  version some PUT issued, or the GET fails with :class:`ReadCheckError`
  (a :class:`~repro.errors.StoreError`, so the driving harness counts
  the op as failed);
* every store client's ``put`` / ``put_many``: records the issued
  ``(key id, version)`` pairs the read check accepts, and counts user
  bytes;
* ``StoreSetup.start``: captures the deployed store, whose public
  counters are read at the set-up/measured boundary and at the end;
* ``repro.loadgen.engine.LatencyRecorder``: its creation marks the start
  of the open loop's measured phase.

The closed loop's boundary is armed by ``run_experiment``'s
``post_setup`` hook and falls on the first op a client issues after its
warm-up ops, so stream generation and warm-up count as set-up.
"""

from __future__ import annotations

import functools
import inspect
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Optional

from repro.errors import StoreError
from repro.workloads import make_key, parse_value


class ReadCheckError(StoreError):
    """A GET returned bytes that are not an issued version of its key."""


class SetupDone(BaseException):
    """Raised at the boundary to end a set-up-only repetition.

    A ``BaseException`` so that no handler in the program mistakes it
    for a store failure on its way out of the simulation.
    """


def key_id_of(key: bytes) -> Optional[int]:
    """The id a ``make_key`` key encodes, or None for a foreign key."""
    try:
        kid = int(key[4:])
    except ValueError:
        return None
    return kid if make_key(kid, len(key)) == bytes(key) else None


# -- counters ---------------------------------------------------------------

def _num(obj: Any, *path: str) -> Optional[float]:
    """Follow attributes / dict keys; None when any step is missing, so a
    counter a later change deletes reads as absent instead of failing."""
    for name in path:
        if obj is None:
            return None
        obj = obj.get(name) if isinstance(obj, dict) else getattr(obj, name, None)
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        return None
    return obj


def _sum(values) -> Optional[float]:
    values = list(values)
    if not values or any(v is None for v in values):
        return None
    return sum(values)


def _verbs(endpoints) -> Optional[int]:
    """Verbs posted on both ends of the client connections."""
    total = 0
    for ep in endpoints:
        stats = getattr(ep, "stats", None)
        if not isinstance(stats, dict):
            return None
        total += sum(v for v in stats.values() if isinstance(v, int))
    return total


def read_counters(setup) -> dict[str, Optional[float]]:
    """Snapshot the deployed store's public counters."""
    server, fabric, clients = setup.server, setup.fabric, setup.clients
    metrics = getattr(server, "metrics", None)
    m = metrics() if callable(metrics) else {}
    buf = getattr(getattr(server, "device", None), "buffer", None)
    bat = getattr(fabric, "batcher", None)
    eps = [c.ep for c in clients] + [c.ep.peer for c in clients]
    out = {
        "events": _num(setup.env, "events_processed"),
        "fastpath_ops": _num(fabric, "fastpath_ops"),
        "fallback_ops": _num(fabric, "fallback_ops"),
        "batches": _num(bat, "batches"),
        "batched_waits": _num(bat, "batched_waits"),
        "verbs": _verbs(eps),
        "verifier.verified": _num(m, "verifier", "verified"),
        "verifier.requeued": _num(m, "verifier", "requeued"),
        "cleaner.cycles": _num(m, "cleaner", "cycles"),
        "cleaner.bytes_copied": _num(m, "cleaner", "bytes_copied"),
        "scrubber.scrubbed": _num(m, "scrubber", "scrubbed"),
        "integrity.flushes": _num(m, "integrity", "flushes"),
        "mem.flush_calls": _num(buf, "stats", "flush_calls"),
        "mem.lines_flushed": _num(buf, "stats", "lines_flushed"),
        "mem.bytes_written": _num(buf, "stats", "bytes_written"),
    }
    for name in ("pure_reads", "fallback_reads", "rpc_only_reads"):
        out[name] = _sum(_num(c, name) for c in clients)
    return out


def counter_delta(before: dict, after: dict) -> dict[str, Optional[float]]:
    return {
        k: (after[k] - before[k])
        if after.get(k) is not None and before.get(k) is not None
        else None
        for k in after
    }


# -- the probe ----------------------------------------------------------------

class Probe:
    """Per-repetition state shared by the installed wrappers."""

    def __init__(self) -> None:
        #: Callbacks run at the boundary (the tracer switches profiles).
        self.on_boundary: list[Callable[[], None]] = []
        #: Self-test seam: applied to every GET result before the check.
        self.corrupt: Optional[Callable[[bytes], bytes]] = None
        self.new_rep()

    def new_rep(self, warmup_ops: int = 0, setup_only: bool = False) -> None:
        self.warmup_ops = warmup_ops
        self.setup_only = setup_only
        self.issued: dict[int, set[int]] = {}
        self.setup = None
        self.recorders: list = []
        self.armed = False
        self.t_boundary: Optional[float] = None
        self.before: dict = {}
        self._calls: dict[int, int] = {}
        #: Application ops issued after the boundary.
        self.ops_after = 0
        #: Simulated completion time of every op that returned after
        #: the boundary.
        self.done_at: list[float] = []
        self.puts_after = 0
        self.put_bytes_after = 0
        self.check_failures_setup = 0
        self.check_failures = 0

    @property
    def measuring(self) -> bool:
        return self.t_boundary is not None

    def arm(self) -> None:
        """Start watching for the boundary: the first op a client issues
        after its ``warmup_ops`` (at once when there are none)."""
        self.armed = True
        if self.warmup_ops == 0:
            self._boundary()

    def _boundary(self) -> None:
        self.t_boundary = time.perf_counter()
        self.before = read_counters(self.setup)
        for cb in self.on_boundary:
            cb()
        if self.setup_only:
            raise SetupDone

    def note_op(self, client) -> None:
        if self.t_boundary is None and self.armed:
            n = self._calls.get(id(client), 0)
            self._calls[id(client)] = n + 1
            if n == self.warmup_ops:
                self._boundary()
        if self.t_boundary is not None:
            self.ops_after += 1

    def issue(self, value: bytes) -> None:
        parsed = parse_value(bytes(value))
        if parsed is not None:
            self.issued.setdefault(parsed[0], set()).add(parsed[1])

    def value_ok(self, key: bytes, value) -> bool:
        kid = key_id_of(key)
        parsed = parse_value(bytes(value)) if value is not None else None
        return (
            kid is not None
            and parsed is not None
            and parsed[0] == kid
            and parsed[1] in self.issued.get(kid, ())
        )

    # -- wrappers --------------------------------------------------------------
    def _wrap_get(self, orig):
        probe = self

        @functools.wraps(orig)
        def get(client, key, *args, **kwargs):
            probe.note_op(client)
            value = yield from orig(client, key, *args, **kwargs)
            if probe.corrupt is not None:
                value = probe.corrupt(value)
            if not probe.value_ok(key, value):
                if probe.measuring:
                    probe.check_failures += 1
                else:
                    probe.check_failures_setup += 1
                raise ReadCheckError(f"GET {bytes(key)!r} returned an unissued value")
            if probe.measuring:
                probe.done_at.append(client.env.now)
            return value

        return get

    def _wrap_put(self, orig):
        probe = self

        @functools.wraps(orig)
        def put(client, key, value, *args, **kwargs):
            probe.note_op(client)
            probe.issue(value)
            result = yield from orig(client, key, value, *args, **kwargs)
            if probe.measuring:
                probe.done_at.append(client.env.now)
                probe.puts_after += 1
                probe.put_bytes_after += len(value)
            return result

        return put

    def _wrap_put_many(self, orig):
        probe = self

        @functools.wraps(orig)
        def put_many(client, items, *args, **kwargs):
            for _key, value in items:
                probe.issue(value)
            return (yield from orig(client, items, *args, **kwargs))

        return put_many

    @contextmanager
    def installed(self) -> Iterator["Probe"]:
        import repro.loadgen.engine as engine
        from repro.stores import StoreSetup

        probe = self
        orig_start = StoreSetup.start

        def start(setup):
            probe.setup = setup
            return orig_start(setup)

        base_recorder = engine.LatencyRecorder

        class MeasuredRecorder(base_recorder):
            """The open loop creates its recorders as the measured
            phase starts: that is the boundary."""

            def __init__(self) -> None:
                super().__init__()
                probe.recorders.append(self)
                if not probe.armed:
                    probe.arm()

        with patching() as patch:
            wrap_client_methods(patch, "get", self._wrap_get)
            wrap_client_methods(patch, "put", self._wrap_put)
            wrap_client_methods(patch, "put_many", self._wrap_put_many)
            patch(StoreSetup, "start", start)
            patch(engine, "LatencyRecorder", MeasuredRecorder)
            yield self


@contextmanager
def patching() -> Iterator[Callable[[Any, str, Any], None]]:
    """Yield ``patch(owner, name, value)``, which replaces a class or
    module attribute; every replaced attribute is restored on exit."""
    saved: list[tuple[Any, str, Any]] = []

    def patch(owner: Any, name: str, value: Any) -> None:
        saved.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    try:
        yield patch
    finally:
        for owner, name, orig in reversed(saved):
            setattr(owner, name, orig)


def wrap_client_methods(patch, name: str, wrap) -> None:
    """Wrap method ``name`` of every store client class, once in each
    class that defines it. Only generator methods (the simulated
    operations) are wrapped."""
    from repro.stores import STORES

    for klass in owners_of({s.client_cls for s in STORES.values()}, name):
        orig = vars(klass)[name]
        if inspect.isgeneratorfunction(orig):
            patch(klass, name, wrap(orig))


def owners_of(classes, name: str) -> list:
    """The classes whose own ``__dict__`` defines ``name`` for each of
    ``classes`` (each defining class once)."""
    owners: list = []
    for cls in classes:
        for klass in cls.__mro__:
            if name in klass.__dict__:
                if klass not in owners:
                    owners.append(klass)
                break
    return owners
