"""The benchmark's workloads and their seeded schedules.

Everything here is pure: a schedule is a function of the workload, the
seed and the run length, with no clock and no I/O, so the same seed
always offers the same load.  Times are offsets in seconds from the
start of the timed window.

Every workload is an open loop: a list of ``(due, kind, name)`` events
sent on schedule whatever the service's pace.  The events are

* *replacement churn* -- a ``deregister`` of a live session and a
  ``register`` of its replacement, due at the same instant.  Churn
  instants are a Poisson process conditioned on its count:
  ``round(rate * seconds)`` instants drawn uniformly and sorted, so the
  number of registrations -- and with it the tail percentile the run
  reports -- is fixed by the schedule, not by chance.  Consecutive
  instants are at least :data:`MIN_GAP` apart;
* ``progress-report`` heartbeats from every live session;
* a *command mix* (``report-durable``): Poisson ``progress-report``
  writes and ``query-allocation`` reads, half each, spread over the
  sessions that live through the whole window.

Before the window, warm-up may replace one session at a time
(:attr:`Schedule.probes`); those replacements' first allocations are
the ``first_alloc`` samples of a workload without churn.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Mapping

__all__ = [
    "Workload",
    "WORKLOADS",
    "Schedule",
    "app_spec",
    "churn_instants",
    "schedule",
    "connection_of",
]

#: Command kinds, spelled as the wire ``type`` tags.
REGISTER = "register"
DEREGISTER = "deregister"
REPORT = "progress-report"
QUERY = "query-allocation"

#: Nodes of the model machine; single-node apps pick a home among them.
_NODES = 4

#: A session must have been registered this long before it may be
#: picked to leave (when none is, the oldest leaves), so every timed
#: registration lives to see its first allocation.
MIN_AGE = 0.5

#: Seconds between two churn instants at least.  The service's 20 ms
#: debounce then coalesces at most two replacements -- four of ten
#: sessions changed -- which keeps the delta path under its 50%
#: changed-fraction limit.  Three coalesced replacements send it to a
#: ~0.5 s full search while more churn queues behind it: the knee the
#: churn workloads are sized to stay under.
MIN_GAP = 0.015


@dataclass(frozen=True)
class Workload:
    """One traffic mix and the service configuration it runs against.

    Attributes
    ----------
    name:
        Workload name (``--workload``).
    mode:
        Service re-optimization mode (``"delta"`` or ``"full"``).
    journal:
        Whether the service journals every state change with fsync.
    population:
        Live sessions once warm-up is done; churn keeps it steady.
    pool:
        ``None``: every replacement is a never-seen application.  An
        integer: names and specs come from a fixed pool of that size
        (applications that restart).
    churn_rate:
        Replacement events per second (0 = no churn).
    command_rate:
        Command-mix events per second (0 = heartbeats only).
    report_interval:
        The service's ``report_interval``; sessions heartbeat at half
        of it, and a session silent for 1.5 times it is quarantined.
    oracle_epochs:
        Epochs checked against the offline optimum (the last one plus
        a seeded sample of the others).
    probes:
        One-at-a-time replacements made before the window, each waiting
        for its allocation before the next.
    """

    name: str
    mode: str
    journal: bool
    population: int
    pool: int | None
    churn_rate: float
    command_rate: float
    report_interval: float
    oracle_epochs: int
    probes: int = 0

    @property
    def heartbeat(self) -> float:
        """Seconds between two heartbeats of one session."""
        return self.report_interval / 2


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="churn-delta",
            mode="delta",
            journal=False,
            population=10,
            pool=None,
            churn_rate=6.0,
            command_rate=0.0,
            report_interval=1.6,
            oracle_epochs=6,
        ),
        Workload(
            name="churn-full",
            mode="full",
            journal=False,
            population=8,
            pool=10,
            churn_rate=4.0,
            command_rate=0.0,
            report_interval=1.6,
            oracle_epochs=12,
        ),
        Workload(
            name="report-durable",
            mode="delta",
            journal=True,
            population=10,
            pool=None,
            churn_rate=0.0,
            # Keeps the service under a third busy on one CPU (27-33%
            # on a 2-vCPU Xeon VM), so a command's acknowledgement is
            # its own round trip, not a wait behind others, even while
            # the host runs at half speed.  At 2,000/s (55% busy) a
            # slow stretch of the host pushed it past the knee and the
            # ack p50 from 1.6 to 28 ms.
            command_rate=800.0,
            # Nobody heartbeats during the probes; the window's own
            # reports keep every session fresh after them.
            report_interval=30.0,
            oracle_epochs=4,
            probes=110,
        ),
    )
}


def app_spec(rng: random.Random, name: str) -> dict:
    """Wire form of one seeded application spec.

    Arithmetic intensity is log-uniform over [1/8, 16] FLOP/byte, so
    the mix straddles the model machine's ridge point (2.5) and the
    optimum is never a plain even split; one app in five keeps its data
    on a single home node and one in ten interleaves it.
    """
    intensity = round(2.0 ** rng.uniform(-3.0, 4.0), 4)
    draw = rng.random()
    if draw < 0.2:
        placement, home = "single-node", rng.randrange(_NODES)
    elif draw < 0.3:
        placement, home = "interleaved", None
    else:
        placement, home = "numa-perfect", None
    return {
        "name": name,
        "arithmetic_intensity": intensity,
        "placement": placement,
        "home_node": home,
        "peak_gflops_per_thread": None,
    }


@dataclass(frozen=True)
class Schedule:
    """The offered load of one run.

    Attributes
    ----------
    specs:
        Wire spec of every name the run registers.
    initial:
        Names registered first during warm-up, in registration order.
    events:
        ``(due, kind, name)`` sorted by due time (ties keep insertion
        order, so a replacement's ``deregister`` precedes its
        ``register``).
    probes:
        ``(leaving, arriving)`` replacements made one at a time after
        ``initial`` is allocated; each ``arriving`` first allocation is
        a ``first_alloc`` sample.
    """

    specs: Mapping[str, dict]
    initial: tuple[str, ...]
    events: tuple[tuple[float, str, str], ...]
    probes: tuple[tuple[str, str], ...] = ()

    def count(self, kind: str) -> int:
        """Events of one kind."""
        return sum(1 for _, k, _ in self.events if k == kind)


def churn_instants(
    rng: random.Random, count: int, seconds: float
) -> list[float]:
    """``count`` sorted uniform instants in ``[0, seconds)``, each at
    least :data:`MIN_GAP` after the one before."""
    span = seconds - (count - 1) * MIN_GAP
    if count and span <= 0:
        raise ValueError(f"{count} churn events do not fit in {seconds} s")
    draws = sorted(rng.uniform(0.0, span) for _ in range(count))
    return [t + i * MIN_GAP for i, t in enumerate(draws)]


def schedule(workload: Workload, seed: int, seconds: float) -> Schedule:
    """Seeded probes, then churn, heartbeats and the command mix over
    ``seconds``."""
    rng = random.Random(f"{workload.name}:{seed}")
    specs: dict[str, dict] = {}
    if workload.pool is not None:
        pool = [f"svc-{i:02d}" for i in range(workload.pool)]
        for name in pool:
            specs[name] = app_spec(rng, name)
        order = pool[:]
        rng.shuffle(order)
        initial = order[: workload.population]
        idle = order[workload.population :]
    else:
        initial = [f"app-{i:04d}" for i in range(workload.population)]
        for name in initial:
            specs[name] = app_spec(rng, name)
        idle = []
    fresh = workload.population

    population = list(initial)
    probes = []
    for _ in range(workload.probes):
        leaving = population.pop(rng.randrange(len(population)))
        arriving = f"app-{fresh:04d}"
        fresh += 1
        specs[arriving] = app_spec(rng, arriving)
        population.append(arriving)
        probes.append((leaving, arriving))

    instants = churn_instants(
        rng, round(workload.churn_rate * seconds), seconds
    )

    # offset each live session registered at (warm-up = -inf)
    live: dict[str, float] = {name: float("-inf") for name in population}
    lifetimes: list[tuple[str, float, float]] = []
    churn: list[tuple[float, str, str]] = []
    for t in instants:
        eligible = sorted(n for n, at in live.items() if at <= t - MIN_AGE)
        if not eligible:
            eligible = [min(live, key=live.get)]
        victim = rng.choice(eligible)
        lifetimes.append((victim, live.pop(victim), t))
        if workload.pool is not None:
            newcomer = rng.choice(sorted(idle))
            idle.remove(newcomer)
            idle.append(victim)
        else:
            newcomer = f"app-{fresh:04d}"
            fresh += 1
            specs[newcomer] = app_spec(rng, newcomer)
        live[newcomer] = t
        churn.append((t, DEREGISTER, victim))
        churn.append((t, REGISTER, newcomer))
    lifetimes.extend((name, at, seconds) for name, at in live.items())

    beats: list[tuple[float, str, str]] = []
    hb = workload.heartbeat
    for name, born, died in lifetimes:
        if born == float("-inf"):
            t = rng.uniform(0.0, hb)
        else:
            t = born + hb / 2 + rng.uniform(0.0, hb / 2)
        while t < died:
            beats.append((t, REPORT, name))
            t += hb

    mix: list[tuple[float, str, str]] = []
    if workload.command_rate:
        steady = sorted(
            name for name, born, died in lifetimes
            if born == float("-inf") and died == seconds
        )
        count = round(workload.command_rate * seconds)
        for t in sorted(rng.uniform(0.0, seconds) for _ in range(count)):
            kind = REPORT if rng.random() < 0.5 else QUERY
            mix.append((t, kind, rng.choice(steady)))

    # Churn first: the sort is stable, so a replacement pair stays
    # adjacent and ordered, and a heartbeat due at the same instant
    # comes after it.
    events = sorted(churn + beats + mix, key=lambda e: e[0])
    return Schedule(
        specs=specs,
        initial=tuple(initial),
        events=tuple(events),
        probes=tuple(probes),
    )


def connection_of(name: str, connections: int) -> int:
    """Index of the connection a session's commands always travel on.

    Fixed per name, so one session's commands stay in order (the
    service rejects a progress report whose time went backwards) and a
    restarting pool application returns on the connection it left.
    """
    return int(name.rsplit("-", 1)[1]) % connections
