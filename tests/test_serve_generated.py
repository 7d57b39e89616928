"""Generated service scenarios, each checked against the offline oracle.

The presets in :mod:`repro.serve.scenarios` are eight hand-written churn
scripts.  Here Hypothesis writes the scripts: small random
:class:`~repro.serve.scenarios.Replay` records whose joins and leaves
land both inside and outside the debounce window.  Every record must
end, in both service modes, on exactly the allocation and score the
from-scratch exhaustive search gives for the surviving workload.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AppSpec
from repro.serve import ChurnEvent, Replay

#: Memory- and compute-bound apps at several intensities, and one
#: NUMA-bad app whose data all sits on node 3.
_POOL = (
    AppSpec.memory_bound("mem"),
    AppSpec.memory_bound("mem-hot", arithmetic_intensity=0.8),
    AppSpec.compute_bound("cpu"),
    AppSpec.compute_bound("cpu-hot", arithmetic_intensity=64.0),
    AppSpec.numa_bad("bad", 1.0, home_node=3),
    AppSpec.memory_bound("mem-cold", arithmetic_intensity=0.3),
)

#: The records' debounce window (the :class:`Replay` default).
_DEBOUNCE = 0.02

#: Most apps live at once.  Delta mode matches the oracle's allocation,
#: ties included, only while its audit scores the whole symmetric space
#: (at most 512 candidates, ``repro.core.delta._AUDIT_LIMIT``: five
#: apps on the model machine's 8-core nodes, 1 287 for six).  Past that
#: it may settle on another allocation of the same score.
_MAX_LIVE = 5

#: Gap before each event: inside the debounce window, so events
#: coalesce, or outside it, so each one re-optimizes.
_gaps = st.one_of(
    st.floats(0.001, _DEBOUNCE * 0.75),
    st.floats(_DEBOUNCE * 1.5, _DEBOUNCE * 4),
)


@st.composite
def replays(draw) -> Replay:
    """A record of 1-12 joins and leaves; a leave names a live app."""
    events: list[ChurnEvent] = []
    live: list[str] = []
    time = 0.0
    for _ in range(draw(st.integers(1, 12))):
        time += draw(_gaps)
        idle = [app for app in _POOL if app.name not in live]
        if live and (len(live) == _MAX_LIVE or draw(st.booleans())):
            name = draw(st.sampled_from(live))
            live.remove(name)
            events.append(ChurnEvent(time, "leave", name))
        else:
            app = draw(st.sampled_from(idle))
            live.append(app.name)
            events.append(ChurnEvent(time, "join", app.name, app))
    return Replay(
        "generated",
        lambda rng: events,
        duration=time + 10 * _DEBOUNCE,
        check=lambda driver, events: {},
        criteria="final allocation byte-identical to the offline optimizer",
    )


class TestGeneratedScenarios:
    @given(replay=replays())
    @settings(max_examples=100, deadline=None)
    def test_every_mode_matches_the_offline_oracle(self, replay):
        for mode in ("full", "delta"):
            report = replay.run(mode=mode)
            assert report.matches_offline, (mode, report.format())
            assert report.passed, (mode, report.format())
