"""Unit tests of the benchmark's pure parts.

Run from the checkout root: ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import oracle, run, stats  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    DEREGISTER,
    MIN_AGE,
    MIN_GAP,
    QUERY,
    REGISTER,
    REPORT,
    WORKLOADS,
    schedule,
)


# -- seeded schedules ---------------------------------------------------


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_schedule_is_a_function_of_the_seed(name):
    workload = WORKLOADS[name]
    first = schedule(workload, 7, 20.0)
    assert first == schedule(workload, 7, 20.0)
    assert first != schedule(workload, 8, 20.0)


@pytest.mark.parametrize("name", ["churn-delta", "churn-full"])
def test_churn_count_is_fixed_by_rate_and_length(name):
    workload = WORKLOADS[name]
    for seed in range(5):
        plan = schedule(workload, seed, 20.0)
        assert plan.count(REGISTER) == round(workload.churn_rate * 20.0)
        assert plan.count(DEREGISTER) == plan.count(REGISTER)


@pytest.mark.parametrize("name", ["churn-delta", "churn-full"])
def test_replacement_churn_keeps_the_population_steady(name):
    workload = WORKLOADS[name]
    plan = schedule(workload, 3, 20.0)
    live = {n: float("-inf") for n in plan.initial}
    assert len(live) == workload.population
    events = plan.events
    assert [e[0] for e in events] == sorted(e[0] for e in events)
    for i, (due, kind, name_) in enumerate(events):
        assert 0.0 <= due < 20.0
        if kind == DEREGISTER:
            # a replacement pair: the register follows at the same instant
            assert events[i + 1][:2] == (due, REGISTER)
            oldest = min(live.values())
            born = live.pop(name_)
            assert born <= due - MIN_AGE or born == oldest
        elif kind == REGISTER:
            assert name_ not in live
            live[name_] = due
        else:
            assert kind == REPORT
            assert name_ in live and live[name_] < due
        if kind != DEREGISTER:
            assert len(live) == workload.population
    if workload.pool is not None:
        assert set(plan.specs) == {f"svc-{i:02d}" for i in range(workload.pool)}
    else:
        registered = plan.count(REGISTER) + workload.population
        assert len(plan.specs) == registered  # every newcomer is new


@pytest.mark.parametrize("name", ["churn-delta", "churn-full"])
def test_churn_instants_keep_the_minimum_gap(name):
    for seed in range(5):
        plan = schedule(WORKLOADS[name], seed, 20.0)
        due = [t for t, kind, _ in plan.events if kind == REGISTER]
        assert all(b - a >= MIN_GAP - 1e-9 for a, b in zip(due, due[1:]))


def test_probes_replace_one_live_session_at_a_time():
    workload = WORKLOADS["report-durable"]
    plan = schedule(workload, 5, 20.0)
    assert len(plan.probes) == workload.probes
    live = set(plan.initial)
    for leaving, arriving in plan.probes:
        assert leaving in live and arriving not in live
        assert arriving in plan.specs
        live.remove(leaving)
        live.add(arriving)
    assert len(live) == workload.population


def test_heartbeats_keep_every_session_fresh():
    workload = WORKLOADS["churn-delta"]
    plan = schedule(workload, 11, 20.0)
    beats: dict[str, list[float]] = {}
    for due, kind, name in plan.events:
        if kind == REPORT:
            beats.setdefault(name, []).append(due)
    for times in beats.values():
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert all(gap == pytest.approx(workload.heartbeat) for gap in gaps)


def test_command_mix_reads_and_writes_the_probed_population():
    workload = WORKLOADS["report-durable"]
    plan = schedule(workload, 5, 20.0)
    live = set(plan.initial)
    for leaving, arriving in plan.probes:
        live.remove(leaving)
        live.add(arriving)
    assert plan.count(REGISTER) == plan.count(DEREGISTER) == 0
    assert {name for _, _, name in plan.events} == live
    mix = round(workload.command_rate * 20.0)
    assert 0.45 < plan.count(QUERY) / mix < 0.55
    heartbeats = len(plan.events) - mix
    assert 0 <= heartbeats <= len(live) * (20.0 / workload.heartbeat + 1)


# -- tail-percentile selection -----------------------------------------


@pytest.mark.parametrize(
    "n, quantile",
    [(1, None), (99, None), (100, 90), (199, 90), (200, 95), (999, 95),
     (1000, 99), (50_000, 99)],
)
def test_tail_quantile_keeps_ten_samples_above(n, quantile):
    assert stats.tail_quantile(n) == quantile
    if quantile is not None:
        above = n - stats._rank(quantile, n)
        assert above >= stats.MIN_ABOVE


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 90) == 90
    assert stats.percentile(values[::-1], 99) == 99
    assert stats.percentile([3.0], 99) == 3.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_tail_falls_back_to_the_maximum():
    assert stats.tail([5.0, 1.0, 3.0]) == ("max", 5.0)
    assert stats.tail([float(x) for x in range(100)]) == ("p90", 89.0)


# -- generator health ----------------------------------------------------


def test_a_limiting_generator_marks_the_run_invalid_not_incorrect():
    on_time = [0.001] * 100
    assert run.generator_health(on_time, 0.3) == []
    late = run.generator_health(on_time[:98] + [0.2, 0.2], 0.3)
    assert len(late) == 1 and "lag p99 200.0 ms" in late[0]
    busy = run.generator_health(on_time, 0.95)
    assert len(busy) == 1 and "busy 95%" in busy[0]
    limited = run.Pass(
        setups=[0.5], driver=None, final={}, seconds=1.0,
        loadgen_cpu=0.95, service_cpu=0.3, invalid=busy,
    )
    assert limited.correct
    limited.problems.append("epoch 3 pushed a degraded share")
    assert not limited.correct


# -- rebuilding each epoch's workload from the acks --------------------


def _spec(name: str, intensity: float = 1.0) -> dict:
    return {"name": name, "arithmetic_intensity": intensity}


def test_rebuild_follows_admission_order_and_readmission():
    a, b, c = _spec("a"), _spec("b"), _spec("c")
    acks = [
        (3, REGISTER, "c", c),
        (1, REGISTER, "a", a),
        (2, REGISTER, "b", b),
        (4, DEREGISTER, "a", None),
        (5, REGISTER, "a", a),  # a restart takes the newest position
    ]
    rebuilt = oracle.rebuild_workloads(acks, [0, 2, 3, 4, 5])
    assert rebuilt[0] == ()
    assert rebuilt[2] == (("a", a), ("b", b))
    assert rebuilt[3] == (("a", a), ("b", b), ("c", c))
    assert rebuilt[4] == (("b", b), ("c", c))
    assert rebuilt[5] == (("b", b), ("c", c), ("a", a))


def test_rebuild_rejects_epochs_the_generator_did_not_cause():
    a, b = _spec("a"), _spec("b")
    with pytest.raises(oracle.CheckError, match="missing"):
        # epoch 2 moved without an ack: a quarantine, say
        oracle.rebuild_workloads([(1, REGISTER, "a", a), (3, REGISTER, "b", b)], [3])
    with pytest.raises(oracle.CheckError):
        oracle.rebuild_workloads([(1, REGISTER, "a", a), (1, REGISTER, "b", b)], [1])
    with pytest.raises(oracle.CheckError, match="unadmitted"):
        oracle.rebuild_workloads([(1, DEREGISTER, "a", None)], [1])
    with pytest.raises(oracle.CheckError, match="outside"):
        oracle.rebuild_workloads([(1, REGISTER, "a", a)], [2])


def test_check_pushes_enforces_capacity_and_membership():
    workloads = {1: (("a", _spec("a")), ("b", _spec("b")))}
    cores = (8, 8)
    ok = {1: {"a": ((3, 3), 9.0, False), "b": ((5, 5), 9.0, False)}}
    oracle.check_pushes(ok, workloads, cores)
    too_many = {1: {"a": ((4, 3), 9.0, False), "b": ((5, 5), 9.0, False)}}
    with pytest.raises(oracle.CheckError, match="threads on node 0"):
        oracle.check_pushes(too_many, workloads, cores)
    one_push = {1: {"a": ((9, 3), 9.0, False), "b": ((0, 5), 9.0, False)}}
    with pytest.raises(oracle.CheckError, match="9 threads"):
        oracle.check_pushes(one_push, workloads, cores)
    missing = {1: {"a": ((3, 3), 9.0, False)}}
    with pytest.raises(oracle.CheckError, match="workload"):
        oracle.check_pushes(missing, workloads, cores)
    degraded = {1: {"a": ((3, 3), 9.0, True), "b": ((5, 5), 9.0, True)}}
    with pytest.raises(oracle.CheckError, match="degraded"):
        oracle.check_pushes(degraded, workloads, cores)


def test_sample_epochs_is_seeded_and_keeps_the_last():
    epochs = range(10, 60, 2)
    picked = oracle.sample_epochs(epochs, 6, 3)
    assert picked == oracle.sample_epochs(epochs, 6, 3)
    assert len(picked) == 6 and picked[-1] == 58
    assert picked == sorted(picked)
    assert oracle.sample_epochs([4], 6, 3) == [4]
    with pytest.raises(oracle.CheckError):
        oracle.sample_epochs([], 6, 3)


def test_judge_against_the_offline_optimum():
    from repro.core.model import NumaPerformanceModel
    from repro.core.optimizer import ExhaustiveSearch
    from repro.machine import model_machine
    from repro.serve.protocol import app_spec_from_dict

    machine = model_machine()
    entries = (("mem", _spec("mem", 0.25)), ("cpu", _spec("cpu", 12.0)))
    best = ExhaustiveSearch(NumaPerformanceModel(workers=0)).search(
        machine, [app_spec_from_dict(s) for _, s in entries]
    )
    pushes = {
        2: {
            name: (
                tuple(int(x) for x in best.allocation.threads_of(name)),
                best.score,
                False,
            )
            for name, _ in entries
        }
    }
    assert oracle.judge(machine, {2: entries}, pushes, [2], exact=True) == 1.0
    worse = {2: {"mem": ((4, 4, 4, 4), best.score * 0.9, False),
                 "cpu": ((4, 4, 4, 4), best.score * 0.9, False)}}
    assert oracle.judge(machine, {2: entries}, worse, [2], exact=False) == (
        pytest.approx(0.9)
    )
    with pytest.raises(oracle.CheckError, match="optimum"):
        oracle.judge(machine, {2: entries}, worse, [2], exact=True)
