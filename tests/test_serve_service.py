"""The clock-agnostic service core on the discrete-event simulator:
registry lifecycle, debounced re-optimization, staleness quarantine,
quorum degradation, and at-least-once allocation delivery."""

import pytest

from repro.core import AppSpec, NumaPerformanceModel
from repro.core.optimizer import ExhaustiveSearch
from repro.errors import ServiceError
from repro.machine import model_machine
from repro.agent.resilience import ResiliencePolicy
from repro.serve import (
    Ack,
    AllocationService,
    AllocationUpdate,
    Deregister,
    ErrorReply,
    ProgressReport,
    QueryAllocation,
    Register,
    ServiceClient,
    ServiceConfig,
    SessionState,
    WorkloadRegistry,
)
from repro.sim.engine import Simulator


def make_service(**config_kwargs):
    sim = Simulator()
    config_kwargs.setdefault("machine", model_machine())
    service = AllocationService(
        ServiceConfig(**config_kwargs),
        clock=lambda: sim.now,
        call_later=lambda delay, fn: sim.schedule(delay, fn),
    )
    return sim, service


MEM = AppSpec.memory_bound("mem", 0.5)
BAD = AppSpec.numa_bad("bad", 1.0, home_node=0)


class TestRegistry:
    def test_admission_order_is_stable(self):
        reg = WorkloadRegistry()
        reg.admit(MEM, now=0.0)
        reg.admit(BAD, now=0.1)
        assert [s.name for s in reg.live_sessions()] == ["mem", "bad"]
        assert tuple(s.name for s in reg.active_sessions()) == (
            "mem",
            "bad",
        )

    def test_duplicate_live_name_rejected(self):
        reg = WorkloadRegistry()
        reg.admit(MEM, now=0.0)
        with pytest.raises(ServiceError):
            reg.admit(MEM, now=0.1)

    def test_closed_name_is_reusable_and_joins_at_the_end(self):
        reg = WorkloadRegistry()
        reg.admit(MEM, now=0.0)
        reg.admit(BAD, now=0.0)
        reg.remove("mem")
        reg.admit(MEM, now=0.2)
        assert [s.name for s in reg.live_sessions()] == ["bad", "mem"]

    def test_epoch_bumps_on_every_membership_change(self):
        reg = WorkloadRegistry()
        e0 = reg.epoch
        reg.admit(MEM, now=0.0)
        e1 = reg.epoch
        reg.quarantine("mem")
        e2 = reg.epoch
        reg.reactivate("mem")
        e3 = reg.epoch
        reg.remove("mem")
        e4 = reg.epoch
        assert e0 < e1 < e2 < e3 < e4

    def test_reactivating_an_active_session_is_a_noop_epoch(self):
        reg = WorkloadRegistry()
        reg.admit(MEM, now=0.0)
        before = reg.epoch
        reg.reactivate("mem")
        assert reg.epoch == before

    def test_backwards_report_time_rejected(self):
        reg = WorkloadRegistry()
        reg.admit(MEM, now=0.0)
        reg.record_report(
            "mem", time=0.5, progress={}, cpu_load=0.0, acked_epoch=None
        )
        with pytest.raises(ServiceError):
            reg.record_report(
                "mem", time=0.4, progress={}, cpu_load=0.0, acked_epoch=None
            )

    def test_quarantined_excluded_from_active_specs(self):
        reg = WorkloadRegistry()
        reg.admit(MEM, now=0.0)
        reg.admit(BAD, now=0.0)
        reg.quarantine("bad")
        assert [s.name for s in reg.active_specs()] == ["mem"]
        assert reg.get("bad").state is SessionState.QUARANTINED

    def test_max_sessions_enforced(self):
        reg = WorkloadRegistry(max_sessions=1)
        reg.admit(MEM, now=0.0)
        with pytest.raises(ServiceError):
            reg.admit(BAD, now=0.0)


class TestChurnAndDebounce:
    def test_burst_of_joins_costs_one_reoptimization(self):
        sim, service = make_service(debounce=0.02)
        a = ServiceClient(service, "mem")
        b = ServiceClient(service, "bad")
        a.register(MEM)
        sim.run_until(0.005)  # still inside the debounce window
        b.register(BAD)
        sim.run_until(0.1)
        assert service.reoptimizations == 1

    def test_spaced_churn_reoptimizes_each_time(self):
        sim, service = make_service(debounce=0.02)
        a = ServiceClient(service, "mem")
        b = ServiceClient(service, "bad")
        a.register(MEM)
        sim.run_until(0.05)
        b.register(BAD)
        sim.run_until(0.1)
        b.deregister()
        sim.run_until(0.15)
        assert service.reoptimizations == 3

    def test_result_matches_offline_search_exactly(self):
        sim, service = make_service()
        a = ServiceClient(service, "mem")
        b = ServiceClient(service, "bad")
        a.register(MEM)
        b.register(BAD)
        sim.run_until(0.1)
        offline = ExhaustiveSearch(NumaPerformanceModel()).search(
            model_machine(), [MEM, BAD]
        )
        assert service.current_score() == offline.score
        for name in ("mem", "bad"):
            assert service.current_allocation()[name] == tuple(
                int(t) for t in offline.allocation.threads_of(name)
            )

    def test_updates_pushed_once_per_epoch(self):
        sim, service = make_service()
        a = ServiceClient(service, "mem")
        a.register(MEM)
        sim.run_until(0.2)  # several idle reoptimization opportunities
        updates = [
            m for m in a.inbox if isinstance(m, AllocationUpdate)
        ]
        assert len(updates) == 1  # one epoch, one push

    def test_handle_returns_error_reply_not_raise(self):
        sim, service = make_service()
        reply = service.handle(
            ProgressReport(name="ghost", time=0.0, progress={})
        )
        assert isinstance(reply, ErrorReply)
        assert "ghost" in reply.error

    def test_query_allocation_roundtrip(self):
        sim, service = make_service()
        a = ServiceClient(service, "mem")
        a.register(MEM)
        sim.run_until(0.1)
        update = a.query_allocation()
        assert isinstance(update, AllocationUpdate)
        assert update.per_node == (8, 8, 8, 8)


class TestStalenessAndQuorum:
    def _resilience(self):
        return ResiliencePolicy(
            freshness_window=1.5, quarantine_after=3, quorum=0.6
        )

    def test_silent_session_quarantined_by_watchdog(self):
        sim, service = make_service(
            report_interval=0.02, resilience=self._resilience()
        )
        a = ServiceClient(service, "mem")
        b = ServiceClient(service, "bad")
        a.register(MEM)
        b.register(BAD)
        service.start_watchdog()

        def beat():
            a.report(sim.now, cpu_load=0.5, acked_epoch=a.last_epoch())
            sim.schedule(0.02, beat)

        sim.schedule(0.02, beat)  # only "mem" heartbeats
        sim.run_until(0.5)
        assert service.quarantines >= 1
        assert service.registry.get("bad").state is (
            SessionState.QUARANTINED
        )
        # Below quorum (1 of 2 active < 0.6): degraded equal share.
        assert service.degraded_reoptimizations >= 1

    def test_fresh_report_reactivates(self):
        sim, service = make_service(
            report_interval=0.02, resilience=self._resilience()
        )
        a = ServiceClient(service, "mem")
        b = ServiceClient(service, "bad")
        a.register(MEM)
        b.register(BAD)
        service.start_watchdog()

        def beat_a():
            a.report(sim.now, cpu_load=0.5)
            sim.schedule(0.02, beat_a)

        sim.schedule(0.02, beat_a)
        # "bad" goes silent until t=0.3, then resumes.
        def beat_b():
            b.report(sim.now, cpu_load=0.5)
            sim.schedule(0.02, beat_b)

        sim.schedule_at(0.3, beat_b)
        sim.run_until(0.5)
        assert service.quarantines >= 1
        assert service.registry.get("bad").state is SessionState.ACTIVE

    def test_degraded_equal_share_covers_all_active(self):
        sim, service = make_service(
            resilience=ResiliencePolicy(quorum=1.0, freshness_window=1.5),
            report_interval=0.02,
        )
        a = ServiceClient(service, "mem")
        b = ServiceClient(service, "bad")
        a.register(MEM)
        b.register(BAD)
        service.start_watchdog()
        sim.run_until(0.5)  # nobody reports: both eventually stale
        # With everyone quarantined or below quorum the service pushed
        # degraded updates while it still had active members.
        assert service.degraded_reoptimizations >= 1


class TestRetransmitAndDrain:
    def test_unacked_epoch_is_retransmitted(self):
        sim, service = make_service(report_interval=0.02)
        a = ServiceClient(service, "mem")
        a.register(MEM)
        sim.run_until(0.1)
        assert a.last_allocation() is not None
        # Report without acking: the service re-pushes the update.
        before = len(a.inbox)
        a.report(sim.now, cpu_load=0.5, acked_epoch=0)
        assert len(a.inbox) > before
        assert service.retransmits >= 1

    def test_acked_epoch_not_retransmitted(self):
        sim, service = make_service(report_interval=0.02)
        a = ServiceClient(service, "mem")
        a.register(MEM)
        sim.run_until(0.1)
        epoch = a.last_epoch()
        before = len(a.inbox)
        a.report(sim.now, cpu_load=0.5, acked_epoch=epoch)
        assert len(a.inbox) == before
        assert service.retransmits == 0

    def test_drain_notifies_and_closes_everything(self):
        sim, service = make_service()
        a = ServiceClient(service, "mem")
        a.register(MEM)
        sim.run_until(0.1)
        service.drain("test shutdown")
        assert service.draining
        types = [type(m).__name__ for m in a.inbox]
        assert "ShutdownNotice" in types
        assert list(service.registry.live_sessions()) == []
        reply = service.handle(Register(name="bad", app=BAD))
        assert isinstance(reply, ErrorReply)

    def test_drain_is_idempotent(self):
        sim, service = make_service()
        service.drain("once")
        service.drain("twice")
        assert service.draining


class TestThreadCommand:
    def test_command_matches_allocation(self):
        sim, service = make_service()
        a = ServiceClient(service, "mem")
        a.register(MEM)
        sim.run_until(0.1)
        command = service.thread_command("mem")
        assert command.per_node == service.current_allocation()["mem"]

    def test_unknown_session_raises(self):
        sim, service = make_service()
        with pytest.raises(ServiceError):
            service.thread_command("ghost")


class TestDeltaMode:
    def test_invalid_mode_rejected(self):
        with pytest.raises(ServiceError):
            ServiceConfig(machine=model_machine(), mode="incremental")

    def test_full_mode_has_no_delta_searcher(self):
        _, service = make_service()
        assert service.delta is None
        assert service.delta_fallbacks == 0

    def test_delta_searcher_shares_model_and_fallback(self):
        _, service = make_service(mode="delta")
        assert service.delta is not None
        assert service.delta.model is service.model
        assert service.delta.fallback is service.search

    def test_churn_routed_through_delta_path(self):
        sim, service = make_service(mode="delta")
        a = ServiceClient(service, "mem")
        b = ServiceClient(service, "bad")
        a.register(MEM)
        sim.run_until(0.05)
        b.register(BAD)
        sim.run_until(0.1)
        assert service.reoptimizations == 2
        assert service.delta_reoptimizations == 2
        # First event is a cold start; the second warm-starts.
        assert service.delta_fallbacks == 1

    def test_delta_mode_matches_offline_search_exactly(self):
        sim, service = make_service(mode="delta")
        a = ServiceClient(service, "mem")
        b = ServiceClient(service, "bad")
        a.register(MEM)
        sim.run_until(0.05)
        b.register(BAD)
        sim.run_until(0.1)
        offline = ExhaustiveSearch(NumaPerformanceModel()).search(
            model_machine(), [MEM, BAD]
        )
        assert service.current_score() == offline.score
        for name in ("mem", "bad"):
            assert service.current_allocation()[name] == tuple(
                int(t) for t in offline.allocation.threads_of(name)
            )

    def test_degraded_event_clears_the_warm_start(self):
        sim, service = make_service(
            mode="delta",
            resilience=ResiliencePolicy(quorum=1.0, freshness_window=1.5),
            report_interval=0.02,
        )
        a = ServiceClient(service, "mem")
        a.register(MEM)
        service.start_watchdog()
        sim.run_until(0.5)  # "mem" never reports: degraded path
        assert service.degraded_reoptimizations >= 1
        assert service._prev_allocation is None
        assert service._prev_specs == ()

    def test_full_mode_never_counts_delta_work(self):
        sim, service = make_service()
        a = ServiceClient(service, "mem")
        a.register(MEM)
        sim.run_until(0.1)
        assert service.reoptimizations == 1
        assert service.delta_reoptimizations == 0


class TestSearchModelValidation:
    def test_no_worker_count(self):
        with pytest.raises(TypeError):
            ServiceConfig(machine=model_machine(), workers=2)

    def test_mismatched_search_model_rejected(self):
        sim = Simulator()
        model = NumaPerformanceModel()
        other = NumaPerformanceModel()
        with pytest.raises(ServiceError):
            AllocationService(
                ServiceConfig(machine=model_machine()),
                clock=lambda: sim.now,
                call_later=lambda d, fn: sim.schedule(d, fn),
                model=model,
                search=ExhaustiveSearch(other),
            )

    def test_reply_to_register_is_ack_with_epoch(self):
        sim, service = make_service()
        reply = service.handle(Register(name="mem", app=MEM))
        assert isinstance(reply, Ack)
        assert reply.epoch == 1
        dup = service.handle(Register(name="mem", app=MEM))
        assert isinstance(dup, ErrorReply)


class TestOverloadProtection:
    def test_flood_is_shed_only_while_reopt_pending(self):
        # A long debounce keeps the re-optimization pending while the
        # flood arrives.  Admission stamps last_report_time, so the
        # first report is spaced past the shed floor.
        sim, service = make_service(
            debounce=0.2, shed_report_interval=0.005
        )
        a = ServiceClient(service, "mem")
        a.register(MEM)  # debounce armed: a re-opt is pending
        first = service.handle(
            ProgressReport(name="mem", time=0.1, progress={}, cpu_load=0.9)
        )
        assert isinstance(first, Ack)
        flood = service.handle(
            ProgressReport(name="mem", time=0.101, progress={}, cpu_load=0.1)
        )
        # Shed: acked so the runtime keeps its cadence, but the
        # registry still holds the first report's state.
        assert isinstance(flood, Ack)
        assert service.shed_commands == 1
        assert service.registry.get("mem").last_report_time == 0.1
        # Once the debounce fired nothing is pending: same spacing
        # is accepted again.
        sim.run_until(0.3)
        late = service.handle(
            ProgressReport(
                name="mem", time=sim.now, progress={}, cpu_load=0.5
            )
        )
        more = service.handle(
            ProgressReport(
                name="mem", time=sim.now + 0.001, progress={}, cpu_load=0.5
            )
        )
        assert isinstance(late, Ack) and isinstance(more, Ack)
        assert service.shed_commands == 1  # unchanged
        assert service.registry.get("mem").last_report_time == sim.now + 0.001

    def test_membership_is_never_shed(self):
        sim, service = make_service(shed_report_interval=0.005)
        a = ServiceClient(service, "mem")
        a.register(MEM)  # pending re-opt: shedding is live
        reply = service.handle(Register(name="bad", app=BAD))
        assert isinstance(reply, Ack)
        bye = service.handle(Deregister(name="bad"))
        assert isinstance(bye, Ack)
        assert service.shed_commands == 0

    def test_stale_queued_command_hits_the_deadline(self):
        sim, service = make_service(command_deadline=0.05)
        a = ServiceClient(service, "mem")
        a.register(MEM)
        sim.run_until(0.5)
        reply = service.handle(
            ProgressReport(name="mem", time=sim.now, progress={}),
            received_at=sim.now - 0.2,
        )
        assert isinstance(reply, ErrorReply)
        assert reply.code == "deadline-exceeded"
        assert service.shed_commands == 1

    def test_fresh_queued_command_beats_the_deadline(self):
        sim, service = make_service(command_deadline=0.05)
        a = ServiceClient(service, "mem")
        a.register(MEM)
        sim.run_until(0.5)
        reply = service.handle(
            ProgressReport(name="mem", time=sim.now, progress={}),
            received_at=sim.now - 0.01,
        )
        assert isinstance(reply, Ack)

    def test_late_membership_commands_are_exempt_from_deadlines(self):
        sim, service = make_service(command_deadline=0.05)
        sim.run_until(0.5)
        reply = service.handle(
            Register(name="mem", app=MEM), received_at=sim.now - 0.2
        )
        assert isinstance(reply, Ack)  # a late register is still true

    def test_admission_cap_answers_overloaded(self):
        sim, service = make_service(max_sessions=1)
        first = service.handle(Register(name="mem", app=MEM))
        assert isinstance(first, Ack)
        second = service.handle(Register(name="bad", app=BAD))
        assert isinstance(second, ErrorReply)
        assert second.code == "overloaded"

    def test_shed_interval_must_respect_the_staleness_window(self):
        with pytest.raises(ServiceError):
            ServiceConfig(
                machine=model_machine(),
                report_interval=0.02,
                shed_report_interval=0.015,  # >= staleness_window / 2
            )
