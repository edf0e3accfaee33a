"""The traced run: host self time by layer and simulated-time spans.

Host self time comes from stdlib :mod:`cProfile`: one profile covers
set-up, another the measured phase, and both are aggregated by
``repro/<subpackage>[/<module>]``. A C builtin (``struct``, ``zlib``,
``sorted``, ...) has no file of its own, so its time is credited to the
layer of each caller by the per-caller time cProfile records; builtins
called from outside ``repro`` and all non-``repro`` Python code land in
``other``.

Simulated-time spans are recorded from here, by wrapping the public
``get``/``put`` of every store client class (one op span each),
``RpcClient.call`` and ``Endpoint.send`` (the RPC span and its send),
and the data verbs of ``Endpoint``. A span is ``[name, start, end,
parent]`` inside its op; only spans issued by a process while it runs a
measured op are kept, so server-side and background verbs are not
charged to ops. Each recorded latency is split into:

* ``verb_ns``: data verbs issued directly by the op;
* ``rpc_wait_ns``: each RPC span minus its send (dispatch queueing plus
  the handler);
* ``client_ns``: the rest (client CPU, sends, and in the open loop the
  time the op was late against its schedule).

The split is checked per op, in exact rational arithmetic: a
closed-loop op's recorded latency must equal its span, an open-loop
op's may only exceed it, no part may be negative, and the three parts,
with ``client_ns`` taken from the gaps between spans rather than as a
remainder, must sum exactly to the op's latency. Overlapping spans, or
spans that escape their op, break the sum.
"""

from __future__ import annotations

import cProfile
import functools
import pstats
from collections import defaultdict
from contextlib import contextmanager
from fractions import Fraction
from typing import Any, Iterator, Optional

from probe import patching, wrap_client_methods

#: ``Endpoint`` methods that move data (one span each).
DATA_VERBS = ("read", "write", "write_many", "cas", "faa", "write_with_imm")

#: Layers reported as ``host.<layer>.us_per_op``; ``other`` is the rest.
LAYERS = (
    "sim", "rdma", "core", "integrity", "crc", "mem", "nvm", "kv",
    "baselines", "loadgen", "workloads", "harness",
)
#: Modules reported on their own (their time is also in their package).
MODULES = ("rdma.batch", "core.client", "core.background", "core.scrub",
           "core.log_cleaning")


# -- host self time -------------------------------------------------------------

class HostProfile:
    """Two cProfile profiles split at the set-up/measured boundary."""

    def __init__(self, repro_dir: str, bench_dir: str) -> None:
        self.prefix = repro_dir.rstrip("/") + "/"
        self.bench_prefix = bench_dir.rstrip("/") + "/"
        self.setup = cProfile.Profile()
        self.measured = cProfile.Profile()

    def start(self) -> None:
        self.setup.enable()

    def boundary(self) -> None:
        self.setup.disable()
        self.measured.enable()

    def stop(self) -> None:
        self.measured.disable()

    def _layer(self, filename: str) -> Optional[tuple[str, Optional[str]]]:
        if filename.startswith(self.bench_prefix):
            return "bench", None
        if not filename.startswith(self.prefix):
            return None
        parts = filename[len(self.prefix):].split("/")
        pkg = parts[0].removesuffix(".py")
        mod = parts[1].removesuffix(".py") if len(parts) > 1 else None
        return pkg, mod

    def self_seconds(self, prof: cProfile.Profile) -> dict[str, float]:
        """Self seconds per layer and module, plus ``total``. The
        benchmark's own wrappers are ``bench``, outside ``total``."""
        out: dict[str, float] = defaultdict(float)

        def credit(layer, seconds: float) -> None:
            pkg, mod = layer
            out[pkg] += seconds
            if mod is not None:
                out[f"{pkg}.{mod}"] += seconds

        stats = pstats.Stats(prof).stats  # type: ignore[attr-defined]
        for (filename, _line, _name), (_cc, _nc, tt, _ct, callers) in stats.items():
            layer = self._layer(filename)
            if layer is not None:
                credit(layer, tt)
            elif filename == "~":
                for (caller_file, _l, _n), edge in callers.items():
                    caller = self._layer(caller_file)
                    if caller is not None:
                        credit(caller, edge[2])
        out["total"] = sum(tt for *_x, tt, _ct, _c in stats.values()) - out["bench"]
        return out


# -- simulated spans --------------------------------------------------------------

class _Op:
    __slots__ = ("kind", "start", "end", "spans", "stack")

    def __init__(self, kind: str, start: float) -> None:
        self.kind = kind
        self.start = start
        self.end = start
        self.spans: list[list] = []
        self.stack: list[int] = []


class SpanRecorder:
    """Per-op simulated spans, kept in memory and written at the end."""

    def __init__(self, open_loop: bool) -> None:
        self.open_loop = open_loop
        self.active = False
        self.env = None
        self._running: dict[Any, _Op] = {}
        self._finished: dict[Any, _Op] = {}
        #: (kind, verb_ns, rpc_wait_ns, client_ns, late_ns, rpc_calls)
        self.parts: list[tuple[str, float, float, float, float, int]] = []
        self.ops: list[tuple[_Op, float]] = []
        self.errors: list[str] = []

    def begin(self, env) -> None:
        self.env = env
        self.active = True

    # wrappers
    def wrap_op(self, orig, kind: str):
        rec = self

        @functools.wraps(orig)
        def op(client, *args, **kwargs):
            if not rec.active:
                return (yield from orig(client, *args, **kwargs))
            env = client.env
            proc = env.active_process
            if proc is None or proc in rec._running:
                return (yield from orig(client, *args, **kwargs))
            span = _Op(kind, env.now)
            rec._running[proc] = span
            try:
                result = yield from orig(client, *args, **kwargs)
            finally:
                del rec._running[proc]
            span.end = env.now
            rec._finished[proc] = span
            return result

        return op

    def wrap_span(self, orig, name: str, env_of):
        rec = self

        @functools.wraps(orig)
        def span(obj, *args, **kwargs):
            if not rec.active:
                return (yield from orig(obj, *args, **kwargs))
            env = env_of(obj)
            op = rec._running.get(env.active_process)
            if op is None:
                return (yield from orig(obj, *args, **kwargs))
            idx = len(op.spans)
            op.spans.append([name, env.now, None, op.stack[-1] if op.stack else -1])
            op.stack.append(idx)
            try:
                return (yield from orig(obj, *args, **kwargs))
            finally:
                op.stack.pop()
                op.spans[idx][2] = env.now

        return span

    def on_record(self, kind: str, latency_ns: float) -> None:
        """Called as the harness records a measured op's latency, in the
        op's own process, right after the op returned."""
        if not self.active:
            return
        op = self._finished.pop(self.env.active_process, None)
        if op is None or op.kind != kind:
            self.errors.append(f"{kind} latency recorded without a matching op span")
            return
        self.ops.append((op, latency_ns))

    def split(self) -> None:
        """Split every recorded op's latency (after the run, so the
        rational arithmetic stays out of the profile)."""
        for op, latency_ns in self.ops:
            self._split(op, latency_ns)

    def _split(self, op: _Op, latency_ns: float) -> None:
        """Split one op. ``client_ns`` is computed from the timeline (gaps
        between the op's child spans, sends, lateness), independently of
        the other two parts, so the exact sum check fails on overlapping
        or escaping spans."""
        F = Fraction
        start, end = F(op.start), F(op.end)
        if any(s[2] is None for s in op.spans):
            self.errors.append(f"{op.kind} op has an unfinished span")
            return

        def children(parent: int) -> list[tuple[int, Fraction, Fraction, str]]:
            return sorted(
                (i, F(s[1]), F(s[2]), s[0])
                for i, s in enumerate(op.spans) if s[3] == parent
            )

        verb = rpc_wait = client = F(0)
        rpcs = 0
        cursor = start
        for idx, s0, s1, name in sorted(children(-1), key=lambda c: c[1]):
            client += max(F(0), s0 - cursor)
            cursor = max(cursor, s1)
            if name in DATA_VERBS:
                verb += s1 - s0
            elif name == "rpc":
                rpcs += 1
                sent = sum((c[2] - c[1] for c in children(idx)), F(0))
                rpc_wait += s1 - s0 - sent
                client += sent
            else:
                client += s1 - s0
        client += max(F(0), end - cursor)

        if op.end - op.start == latency_ns:
            total = end - start  # the harness timed exactly this span
        elif self.open_loop:
            total = F(latency_ns)  # measured from the due time
        else:
            self.errors.append(
                f"{op.kind} recorded latency {latency_ns!r} is not its span "
                f"{op.end - op.start!r}"
            )
            return
        late = total - (end - start)
        client += late
        if min(verb, rpc_wait, late) < 0 or verb + rpc_wait + client != total:
            self.errors.append(
                f"{op.kind} parts {float(verb)}+{float(rpc_wait)}+{float(client)} "
                f"do not sum to its latency {float(total)}"
            )
            return
        self.parts.append(
            (op.kind, float(verb), float(rpc_wait), float(client), float(late), rpcs)
        )

    def export(self) -> list[dict]:
        return [
            {"kind": op.kind, "latency": latency, "start": op.start, "end": op.end,
             "spans": op.spans}
            for op, latency in self.ops
        ]


@contextmanager
def span_wrappers(rec: SpanRecorder) -> Iterator[None]:
    """Install the span wrappers for the duration of one traced run."""
    from repro.harness.metrics import LatencyRecorder
    from repro.rdma.qp import Endpoint
    from repro.rdma.rpc import RpcClient

    orig_record = LatencyRecorder.record

    def record(self, kind, latency_ns):
        orig_record(self, kind, latency_ns)
        rec.on_record(kind, latency_ns)

    def ep_env(ep):
        return ep.local.env

    with patching() as patch:
        for kind in ("get", "put"):
            wrap_client_methods(patch, kind, lambda orig, k=kind: rec.wrap_op(orig, k))
        for verb in DATA_VERBS + ("send",):
            if verb in vars(Endpoint):
                patch(Endpoint, verb, rec.wrap_span(vars(Endpoint)[verb], verb, ep_env))
        patch(RpcClient, "call",
              rec.wrap_span(RpcClient.call, "rpc", lambda c: c.ep.local.env))
        patch(LatencyRecorder, "record", record)
        yield
