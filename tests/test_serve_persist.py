"""The write-ahead journal and crash recovery: atomic writes, CRC'd
records, snapshot compaction, tolerance of torn tails / stale snapshots
/ duplicated segments, byte-identical service recovery, and the
pure-observer guarantee (a journaled run equals an un-journaled one)."""

import hashlib
import json
import os
import tempfile
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AppSpec
from repro.errors import ServiceError
from repro.machine import model_machine
from repro.serve import (
    AllocationService,
    Deregister,
    ProgressReport,
    Register,
    ServiceConfig,
    run_replay,
)
from repro.serve.persist import (
    Journal,
    _canonical,
    atomic_write,
    decode_record,
    encode_record,
    latest_journal_segment,
    load_journal,
)
from repro.sim.engine import Simulator

MEM = AppSpec.memory_bound("mem", 0.5)
BAD = AppSpec.numa_bad("bad", 1.0, home_node=0)


def make_journaled(tmp_path, **config_kwargs):
    sim = Simulator()
    config_kwargs.setdefault("machine", model_machine())
    journal = Journal.open(str(tmp_path), fsync=False)
    service = AllocationService(
        ServiceConfig(**config_kwargs),
        clock=lambda: sim.now,
        call_later=lambda delay, fn: sim.schedule(delay, fn),
        journal=journal,
    )
    return sim, service


def recover(tmp_path, sim, **config_kwargs):
    config_kwargs.setdefault("machine", model_machine())
    return AllocationService.recover(
        str(tmp_path),
        ServiceConfig(**config_kwargs),
        clock=lambda: sim.now,
        call_later=lambda delay, fn: sim.schedule(delay, fn),
        fsync=False,
    )


class TestAtomicWrite:
    def test_writes_and_overwrites(self, tmp_path):
        target = str(tmp_path / "state.json")
        atomic_write(target, b"first", fsync=False)
        with open(target, "rb") as handle:
            assert handle.read() == b"first"
        atomic_write(target, b"second", fsync=False)
        with open(target, "rb") as handle:
            assert handle.read() == b"second"

    def test_leaves_no_temp_file_behind(self, tmp_path):
        target = str(tmp_path / "state.json")
        atomic_write(target, b"data", fsync=False)
        assert os.listdir(tmp_path) == ["state.json"]


#: JSON-shaped journal events: nested objects, lists and scalars, with
#: keys that sort before, between and after ``crc``, ``event``, ``seq``.
_json_scalars = (
    st.none()
    | st.booleans()
    | st.integers(-(2**63), 2**63)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8)
)
_keys = st.sampled_from(["a", "crc", "d", "event", "f", "seq", "z"]) | st.text(
    max_size=6
)
_events = st.dictionaries(
    _keys,
    st.recursive(
        _json_scalars,
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(_keys, inner, max_size=3),
        max_leaves=8,
    ),
    max_size=5,
)


def _crc(event, seq):
    payload = _canonical({"event": event, "seq": seq})
    return zlib.crc32(payload.encode("utf-8"))


class TestRecordCodec:
    def test_round_trip(self):
        line = encode_record(7, {"kind": "register", "name": "mem"})
        assert "\n" not in line
        seq, event = decode_record(line)
        assert seq == 7
        assert event == {"kind": "register", "name": "mem"}

    def test_crc_detects_a_flipped_byte(self):
        line = encode_record(1, {"kind": "report", "t": 0.5})
        tampered = line.replace("0.5", "0.6")
        with pytest.raises(ServiceError):
            decode_record(tampered)

    @settings(max_examples=200, deadline=None)
    @given(seq=st.integers(1, 2**63), event=_events)
    def test_line_is_the_canonical_record(self, seq, event):
        line = encode_record(seq, event)
        record = {"crc": _crc(event, seq), "event": event, "seq": seq}
        assert line == _canonical(record)
        assert decode_record(line) == (seq, event)

    @pytest.mark.parametrize(
        "line",
        [
            "not json",
            "[1]",
            '{"seq": 1, "event": {}}',  # no crc
            '{"seq": 0, "event": {}, "crc": 1}',  # seq < 1
            '{"seq": 1, "event": [], "crc": 1}',  # event not a dict
            '{"seq": 1, "event": {}, "crc": "x"}',  # crc not an int
        ],
    )
    def test_malformed_rejected(self, line):
        with pytest.raises(ServiceError):
            decode_record(line)


class TestJournalWriter:
    def test_append_load_round_trip(self, tmp_path):
        journal = Journal.open(str(tmp_path), fsync=False)
        events = [{"kind": "register", "name": f"a{i}"} for i in range(5)]
        for event in events:
            journal.append(event)
        journal.close()
        loaded = load_journal(str(tmp_path))
        assert list(loaded.events) == events
        assert loaded.last_seq == 5
        assert not loaded.truncated_tail

    def test_closed_journal_refuses_appends(self, tmp_path):
        journal = Journal.open(str(tmp_path), fsync=False)
        journal.close()
        with pytest.raises(ServiceError):
            journal.append({"kind": "register"})

    def test_reopen_continues_the_seq(self, tmp_path):
        first = Journal.open(str(tmp_path), fsync=False)
        first.append({"kind": "register", "name": "a"})
        first.close()
        second = Journal.open(str(tmp_path), fsync=False)
        assert second.generation > first.generation
        second.append({"kind": "register", "name": "b"})
        second.close()
        loaded = load_journal(str(tmp_path))
        assert loaded.last_seq == 2
        assert [e["name"] for e in loaded.events] == ["a", "b"]

    def test_compaction_snapshots_and_rolls_generation(self, tmp_path):
        journal = Journal.open(str(tmp_path), fsync=False)
        journal.append({"kind": "register", "name": "a"})
        journal.compact({"marker": 1})
        journal.append({"kind": "register", "name": "b"})
        journal.close()
        loaded = load_journal(str(tmp_path))
        assert loaded.state == {"marker": 1}
        assert [e["name"] for e in loaded.events] == ["b"]
        assert loaded.last_seq == 2

    def test_auto_compaction_honours_compact_every(self, tmp_path):
        journal = Journal.open(str(tmp_path), compact_every=2, fsync=False)
        for i in range(3):
            journal.append({"kind": "register", "name": f"a{i}"})
            if journal.should_compact():
                journal.compact({"seen": i})
        journal.close()
        loaded = load_journal(str(tmp_path))
        assert loaded.state == {"seen": 1}
        assert [e["name"] for e in loaded.events] == ["a2"]

    def test_prune_keeps_the_second_newest_snapshot_chain(self, tmp_path):
        journal = Journal.open(str(tmp_path), fsync=False)
        for i in range(3):
            journal.append({"kind": "register", "name": f"a{i}"})
            journal.compact({"upto": i})
        journal.close()
        names = sorted(os.listdir(tmp_path))
        snapshots = [n for n in names if n.startswith("snapshot-")]
        # At least two snapshot generations survive pruning, so a
        # corrupt newest snapshot always has a fallback chain.
        assert len(snapshots) >= 2


class TestTornAndCorrupt:
    def _journal(self, tmp_path, records=4):
        journal = Journal.open(str(tmp_path), fsync=False)
        for i in range(records):
            journal.append({"kind": "register", "name": f"a{i}"})
        journal.close()
        return str(tmp_path)

    def test_torn_tail_is_truncated(self, tmp_path):
        path = self._journal(tmp_path)
        segment = latest_journal_segment(path)
        with open(segment, "ab") as handle:  # repro: noqa[IO001]
            handle.write(b'{"crc": 1, "event": {"kind": "regi')
        loaded = load_journal(path)
        assert loaded.truncated_tail
        assert loaded.last_seq == 4  # every complete record survived

    def test_mid_chain_corruption_stops_replay(self, tmp_path):
        path = self._journal(tmp_path)
        segment = latest_journal_segment(path)
        with open(segment, "rb") as handle:
            lines = handle.read().splitlines()
        lines[1] = b'{"crc": 1, "event": {}, "seq": 2}'  # wrong CRC
        with open(segment, "wb") as handle:  # repro: noqa[IO001]
            handle.write(b"\n".join(lines) + b"\n")
        loaded = load_journal(path)
        # Not a tail: replay stops at the last consistent prefix
        # instead of applying events on a broken base.
        assert not loaded.truncated_tail
        assert loaded.last_seq == 1

    def test_sequence_gap_stops_replay(self, tmp_path):
        path = self._journal(tmp_path)
        segment = latest_journal_segment(path)
        with open(segment, "rb") as handle:
            lines = handle.read().splitlines()
        del lines[1]  # seq 2 vanishes: 1 -> 3 is a gap
        with open(segment, "wb") as handle:  # repro: noqa[IO001]
            handle.write(b"\n".join(lines) + b"\n")
        loaded = load_journal(path)
        assert loaded.last_seq == 1
        assert any("gap" in note for note in loaded.notes)

    def test_corrupt_snapshot_falls_back_a_generation(self, tmp_path):
        journal = Journal.open(str(tmp_path), fsync=False)
        journal.append({"kind": "register", "name": "a"})
        journal.compact({"upto": "a"})
        journal.append({"kind": "register", "name": "b"})
        journal.compact({"upto": "b"})
        journal.append({"kind": "register", "name": "c"})
        journal.close()
        snapshots = sorted(
            n for n in os.listdir(tmp_path) if n.startswith("snapshot-")
        )
        newest = os.path.join(str(tmp_path), snapshots[-1])
        with open(newest, "r+b") as handle:  # repro: noqa[IO001]
            handle.write(b"\x00GARBAGE\x00")
        loaded = load_journal(str(tmp_path))
        assert loaded.snapshot_fallbacks == 1
        assert loaded.state == {"upto": "a"}
        # The older chain replays forward to the same final seq.
        assert loaded.last_seq == 3
        assert [e["name"] for e in loaded.events] == ["b", "c"]

    def test_empty_directory_recovers_to_nothing(self, tmp_path):
        loaded = load_journal(str(tmp_path))
        assert loaded.state is None
        assert loaded.events == ()
        assert loaded.last_seq == 0


class TestServiceRecovery:
    def test_recovered_registry_is_byte_identical(self, tmp_path):
        sim, service = make_journaled(tmp_path)
        service.handle(Register(name="mem", app=MEM))
        sim.run_until(0.05)
        service.handle(Register(name="bad", app=BAD))
        sim.run_until(0.2)
        service.handle(
            ProgressReport(
                name="mem", time=sim.now, progress={"tasks": 3.0},
                cpu_load=0.7,
            )
        )
        service.crash()
        recovered = recover(tmp_path, sim)
        assert recovered.recoveries == 1
        assert (
            recovered.registry.to_snapshot()
            == service.registry.to_snapshot()
        )
        assert (
            recovered.current_allocation() == service.current_allocation()
        )
        assert recovered.current_score() == service.current_score()

    def test_recovery_survives_a_deregister(self, tmp_path):
        sim, service = make_journaled(tmp_path)
        service.handle(Register(name="mem", app=MEM))
        service.handle(Register(name="bad", app=BAD))
        sim.run_until(0.1)
        service.handle(Deregister(name="bad"))
        sim.run_until(0.2)
        service.crash()
        recovered = recover(tmp_path, sim)
        assert (
            recovered.registry.to_snapshot()
            == service.registry.to_snapshot()
        )
        assert sorted(recovered.current_allocation()) == ["mem"]

    def test_recover_refuses_a_different_machine(self, tmp_path):
        from repro.machine import uma_machine

        sim, service = make_journaled(tmp_path)
        service.handle(Register(name="mem", app=MEM))
        sim.run_until(0.1)
        # The topology guard lives in the snapshot, so take one.
        service.journal.compact(service.snapshot_state())
        service.crash()
        with pytest.raises(ServiceError):
            recover(tmp_path, sim, machine=uma_machine())

    def test_recover_refuses_a_different_mode(self, tmp_path):
        sim, service = make_journaled(tmp_path)
        service.handle(Register(name="mem", app=MEM))
        sim.run_until(0.1)
        service.journal.compact(service.snapshot_state())
        service.crash()
        with pytest.raises(ServiceError):
            recover(tmp_path, sim, mode="delta")

    def test_recovery_compacts_so_the_next_crash_replays_from_here(
        self, tmp_path
    ):
        sim, service = make_journaled(tmp_path)
        service.handle(Register(name="mem", app=MEM))
        sim.run_until(0.1)
        service.crash()
        first = recover(tmp_path, sim)
        first.crash()
        second = recover(tmp_path, sim)
        assert second.last_recovery.state is not None
        assert (
            second.registry.to_snapshot() == first.registry.to_snapshot()
        )


def _digest(report) -> str:
    data = report.to_dict()
    for volatile in ("journal_records", "recoveries", "recovery_replay"):
        data.pop(volatile, None)
    canonical = json.dumps(data, sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class TestPureObserver:
    @pytest.mark.parametrize("name", ["churn-basic", "churn-burst"])
    def test_journaled_run_is_byte_identical(self, name, tmp_path):
        plain = run_replay(name, seed=0)
        journaled = run_replay(name, seed=0, journal=str(tmp_path))
        assert journaled.journal_records > 0
        assert _digest(journaled) == _digest(plain)


APPS = {
    "alpha": AppSpec.memory_bound("alpha", 0.5),
    "beta": AppSpec.compute_bound("beta", 10.0),
    "gamma": AppSpec.memory_bound("gamma", 0.8),
}

ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(["join", "leave", "report"]),
        st.sampled_from(sorted(APPS)),
    ),
    min_size=1,
    max_size=12,
)


def _run_churn(ops, crash_after=None):
    """Apply ``ops`` on the simulator, optionally crash-and-recover.

    Invalid operations (joining a live name, leaving a missing one)
    get deterministic ErrorReplies in both runs, so arbitrary
    interleavings are comparable.
    """
    with tempfile.TemporaryDirectory(
        prefix="repro-persist-prop-"
    ) as directory:
        sim = Simulator()
        config = ServiceConfig(machine=model_machine(), debounce=0.02)
        holder = {
            "service": AllocationService(
                config,
                clock=lambda: sim.now,
                call_later=lambda delay, fn: sim.schedule(delay, fn),
                journal=Journal.open(directory, fsync=False),
            )
        }

        def apply(op):
            kind, name = op
            service = holder["service"]
            if kind == "join":
                service.handle(Register(name=name, app=APPS[name]))
            elif kind == "leave":
                service.handle(Deregister(name=name))
            else:
                service.handle(
                    ProgressReport(
                        name=name, time=sim.now, progress={}, cpu_load=0.5
                    )
                )

        def crash_and_recover():
            holder["service"].crash()
            holder["service"] = AllocationService.recover(
                directory,
                config,
                clock=lambda: sim.now,
                call_later=lambda delay, fn: sim.schedule(delay, fn),
                fsync=False,
            )

        for index, op in enumerate(ops):
            sim.schedule_at(0.01 * (index + 1), lambda op=op: apply(op))
            if crash_after is not None and index == crash_after:
                sim.schedule_at(0.01 * (index + 1) + 0.005, crash_and_recover)
        sim.run_until(0.01 * len(ops) + 0.5)  # let every debounce settle
        # The *next* re-optimization must agree too: join a probe app in
        # quiescence and let its churn settle before the final comparison.
        holder["service"].handle(
            Register(name="probe", app=AppSpec.compute_bound("probe", 5.0))
        )
        sim.run_until(0.01 * len(ops) + 1.0)
        return holder["service"]


def _workload_state(service) -> dict:
    snapshot = service.registry.to_snapshot()
    for session in snapshot["sessions"]:
        # At-least-once delivery bookkeeping tracks when the debounced
        # re-optimizations fired relative to the churn — which a
        # mid-stream crash legitimately shifts.  The workload state
        # itself must converge exactly.
        session.pop("pushed_epoch")
    return snapshot


class TestCrashRecoveryProperty:
    @given(ops=ops_strategy, data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_crashed_run_converges_to_the_uncrashed_one(self, ops, data):
        crash_after = data.draw(
            st.integers(0, len(ops) - 1), label="crash_after"
        )
        baseline = _run_churn(ops)
        crashed = _run_churn(ops, crash_after=crash_after)
        assert crashed.recoveries == 1
        assert _workload_state(crashed) == _workload_state(baseline)
        assert (
            crashed.current_allocation() == baseline.current_allocation()
        )
        assert crashed.current_score() == baseline.current_score()
