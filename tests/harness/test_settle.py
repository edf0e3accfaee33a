"""The shared ``settle`` every driver drains background work through.

Stand-in servers expose only what ``settle`` reads (``node.alive``,
``background.backlog``, ``scrubber.active`` / ``laps``), each a pure
function of simulated time, so every expected stop time is exact.
"""

from types import SimpleNamespace

import pytest

from repro.harness.chaos import settle
from repro.sim.kernel import Environment

STEP = 50_000.0  # settle's polling step (ns)
BUDGET = 1_000_000.0
NEVER = float("inf")


class _Verifier:
    """Backlog of one object until ``drains_at``."""

    def __init__(self, env: Environment, drains_at: float) -> None:
        self.env, self.drains_at = env, drains_at

    @property
    def backlog(self) -> int:
        return int(self.env.now < self.drains_at)


class _Scrubber:
    """Completes one lap every ``lap_ns``."""

    active = True

    def __init__(self, env: Environment, lap_ns: float) -> None:
        self.env, self.lap_ns = env, lap_ns

    @property
    def laps(self) -> int:
        return int(self.env.now // self.lap_ns)


def _server(env, drains_at, *, alive=True, lap_ns=None):
    return SimpleNamespace(
        node=SimpleNamespace(alive=alive),
        background=_Verifier(env, drains_at),
        scrubber=_Scrubber(env, lap_ns) if lap_ns is not None else None,
    )


@pytest.mark.parametrize(
    "case, expected_ns",
    [
        # Backlog hits 0 at 120 µs: stop at the first step after it.
        ("drains", 3 * STEP),
        # Backlog never drains: stop exactly at the deadline.
        ("stuck", BUDGET),
        # The killed node's backlog is stuck; the live node's is empty.
        ("killed-node", STEP),
        # Backlog empty, but two more 80 µs scrubber laps are wanted.
        ("scrub-laps", 4 * STEP),
    ],
)
def test_settle_stops_when_live_work_drains(case, expected_ns):
    env = Environment()
    if case == "drains":
        setup = SimpleNamespace(server=_server(env, 120_000.0))
    elif case == "stuck":
        setup = SimpleNamespace(server=_server(env, NEVER))
    elif case == "killed-node":
        setup = SimpleNamespace(
            servers=[_server(env, 0.0), _server(env, NEVER, alive=False)]
        )
    else:
        setup = SimpleNamespace(server=_server(env, 0.0, lap_ns=80_000.0))
    settle(env, setup, BUDGET, scrub_laps=2 if case == "scrub-laps" else 0)
    assert env.now == expected_ns
