"""Output checks of one benchmark run.

The load generator keeps every reply and push it receives; after
timing ends these functions judge them:

* :func:`rebuild_workloads` -- the admission-ordered workload of any
  epoch, rebuilt from the generator's own ``register``/``deregister``
  acks (each carries the registry epoch its membership change
  produced, and every change bumps the epoch by exactly one);
* :func:`check_pushes` -- each epoch's pushes go to exactly that
  epoch's sessions, and no push, nor all of an epoch's pushes
  together, puts more threads on a node than it has cores;
* :func:`judge` -- the pushed allocation of sampled epochs against the
  offline :class:`~repro.core.optimizer.ExhaustiveSearch` optimum.
"""

from __future__ import annotations

import math
import random
from typing import Iterable, Mapping, Sequence

__all__ = [
    "CheckError",
    "rebuild_workloads",
    "check_pushes",
    "sample_epochs",
    "judge",
]

#: ``(epoch, kind, name, wire spec or None)`` of one membership ack.
Membership = tuple[int, str, str, "dict | None"]
#: epoch -> session name -> ``(per_node, score, degraded)`` as pushed.
Pushes = Mapping[int, Mapping[str, tuple[tuple[int, ...], float, bool]]]


class CheckError(Exception):
    """An output check failed; the run's results are not trustworthy."""


def rebuild_workloads(
    membership: Iterable[Membership], epochs: Iterable[int]
) -> dict[int, tuple[tuple[str, dict], ...]]:
    """``{epoch: ((name, spec), ...)}`` in admission order.

    Raises :class:`CheckError` unless the acked epochs are exactly
    ``1..N``: a gap means the epoch moved without a membership change
    the generator made (a quarantine), so later workloads could not be
    rebuilt from the acks alone.
    """
    events = sorted(membership, key=lambda e: e[0])
    acked = [e[0] for e in events]
    if acked != list(range(1, len(acked) + 1)):
        missing = sorted(set(range(1, max(acked, default=0) + 1)) - set(acked))
        raise CheckError(
            f"membership acks do not cover epochs 1..{len(acked)} once "
            f"each (missing {missing[:5]}); the registry changed behind "
            f"the generator's back"
        )
    wanted = sorted(set(epochs))
    if wanted and not 0 <= wanted[0] <= wanted[-1] <= len(acked):
        raise CheckError(
            f"epochs {wanted[0]}..{wanted[-1]} fall outside the "
            f"acked range 0..{len(acked)}"
        )
    state: dict[str, dict] = {}
    out: dict[int, tuple[tuple[str, dict], ...]] = {}
    i = 0
    if wanted and wanted[0] == 0:
        out[0] = ()
        i = 1
    for epoch, kind, name, spec in events:
        if kind == "register":
            if name in state:
                raise CheckError(f"'{name}' admitted twice at epoch {epoch}")
            state[name] = spec
        elif name in state:
            # A re-admitted name must take the newest position, so the
            # departed one is dropped, not overwritten.
            del state[name]
        else:
            raise CheckError(f"'{name}' left at epoch {epoch} unadmitted")
        if i < len(wanted) and wanted[i] == epoch:
            out[epoch] = tuple(state.items())
            i += 1
    return out


def check_pushes(
    pushes: Pushes,
    workloads: Mapping[int, Sequence[tuple[str, dict]]],
    cores: Sequence[int],
) -> None:
    """Capacity and consistency of every pushed epoch; raises on failure."""
    for epoch, by_name in sorted(pushes.items()):
        expected = sorted(name for name, _ in workloads[epoch])
        if sorted(by_name) != expected:
            raise CheckError(
                f"epoch {epoch} pushed to {sorted(by_name)}, but its "
                f"workload is {expected}"
            )
        totals = [0] * len(cores)
        scores = set()
        for name, (per_node, score, degraded) in by_name.items():
            if degraded:
                raise CheckError(f"epoch {epoch} pushed a degraded share")
            if len(per_node) != len(cores):
                raise CheckError(
                    f"push of '{name}' at epoch {epoch} has "
                    f"{len(per_node)} nodes, the machine {len(cores)}"
                )
            for node, (threads, capacity) in enumerate(zip(per_node, cores)):
                if not 0 <= threads <= capacity:
                    raise CheckError(
                        f"push of '{name}' at epoch {epoch} puts {threads} "
                        f"threads on node {node} ({capacity} cores)"
                    )
                totals[node] += threads
            scores.add(score)
        for node, (threads, capacity) in enumerate(zip(totals, cores)):
            if threads > capacity:
                raise CheckError(
                    f"epoch {epoch} puts {threads} threads on node {node} "
                    f"({capacity} cores)"
                )
        if len(scores) != 1:
            raise CheckError(f"epoch {epoch} pushed scores {sorted(scores)}")


def sample_epochs(epochs: Iterable[int], k: int, seed: int) -> list[int]:
    """The last epoch plus a seeded sample of ``k - 1`` of the others."""
    ordered = sorted(set(epochs))
    if not ordered:
        raise CheckError("no allocation was pushed")
    rest = ordered[:-1]
    rng = random.Random(f"oracle:{seed}")
    return sorted(rng.sample(rest, min(k - 1, len(rest)))) + ordered[-1:]


def judge(
    machine,
    workloads: Mapping[int, Sequence[tuple[str, dict]]],
    pushes: Pushes,
    epochs: Sequence[int],
    *,
    exact: bool,
) -> float:
    """Lowest pushed-score / optimum-score ratio over ``epochs``.

    With ``exact`` every checked push must also equal the offline
    :class:`~repro.core.optimizer.ExhaustiveSearch` answer byte for
    byte (thread counts and score), else :class:`CheckError`.
    """
    from repro.core.model import NumaPerformanceModel
    from repro.core.optimizer import ExhaustiveSearch
    from repro.serve.protocol import app_spec_from_dict

    search = ExhaustiveSearch(NumaPerformanceModel(workers=0))
    worst = math.inf
    for epoch in epochs:
        entries = workloads[epoch]
        apps = [app_spec_from_dict(spec) for _, spec in entries]
        result = search.search(machine, apps)
        pushed = pushes[epoch]
        score = next(iter(pushed.values()))[1]
        if exact:
            for name, _ in entries:
                want = tuple(int(x) for x in result.allocation.threads_of(name))
                if pushed[name][0] != want:
                    raise CheckError(
                        f"epoch {epoch}: '{name}' was pushed "
                        f"{pushed[name][0]}, the optimum is {want}"
                    )
            if score != result.score:
                raise CheckError(
                    f"epoch {epoch}: pushed score {score!r} != optimum "
                    f"{result.score!r}"
                )
        worst = min(worst, score / result.score)
    return worst
