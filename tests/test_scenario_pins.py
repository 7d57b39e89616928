"""Pins every scenario's report, so a refactor of the scenario libraries
must leave each one unchanged.

Three groups:

* for the five churn presets in both service modes at seeds 0, 1 and
  7, the score cache's ``cache_hits`` and ``cache_misses`` as numbers
  and the sha256 of the rest of the report (:func:`_preset`), so a
  change to what the cache counts names the counts it moves and
  nothing else;
* the sha256 of ``report.to_json()`` for the three agent drills of
  ``python -m repro chaos`` at seed 0;
* for the three service drills (``serve-crash``, ``serve-restart``,
  ``serve-overload``) at seeds 0 and 1, the values both report types
  can express: the verdict, the re-optimization, retransmit and
  degraded re-optimization counts, the quarantined sessions, and the
  final and offline scores as ``float.hex()``.  They are read through
  :func:`_drill`, the one place that knows which report type carries
  them.
"""

import hashlib
import json

import pytest

from repro.faults import run_scenario
from repro.serve import run_replay

#: ``(name, mode, seed) -> (digest, cache_hits, cache_misses)``.
_PRESETS = {
    ("churn-basic", "full", 0): (
        "0bb39fbd25391b2997d92f276ac62ba18316b98b19aa8f10fd980d5b0cc4a58c",
        0, 274,
    ),
    ("churn-basic", "full", 1): (
        "15b942389fe35178928beb9015ef57dd894d71e85d3322688cb3f58c8782bb15",
        0, 274,
    ),
    ("churn-basic", "full", 7): (
        "2c213f68617ea9314bf75f71920e0c0f123ffd15cc32580a4b521e183ccc7783",
        0, 274,
    ),
    ("churn-basic", "delta", 0): (
        "857687bb87d89fa0dc5060103557adbc80b92232c3c72f298b6e12cbaeca3f0e",
        0, 274,
    ),
    ("churn-basic", "delta", 1): (
        "88abce2a3414cf09e35ea84389662a62cd044e6b1fde832e7331ddd555fd27de",
        0, 274,
    ),
    ("churn-basic", "delta", 7): (
        "84011d312ae32a0fc8f2f5def9a00ebdc7c9290f059d56ad7c023f3866e141d2",
        0, 274,
    ),
    ("churn-burst", "full", 0): (
        "034370c4d261228c03cd066ee7669a2e4680b8bb6b06123084d50d1d9b183cf3",
        0, 166,
    ),
    ("churn-burst", "full", 1): (
        "cbedf3e3330fba78d47c9992b48b77c5a4bde91e201e36ea256a7e9c976d25e3",
        0, 166,
    ),
    ("churn-burst", "full", 7): (
        "3363a2829e284e66d9980cb59273154fea87928a8809412223f2fc5a7a673dd2",
        0, 166,
    ),
    ("churn-burst", "delta", 0): (
        "83ba727f015b200403e63d6aebda604f1106afa52fcf1e6a7141e94da2fa03ca",
        0, 166,
    ),
    ("churn-burst", "delta", 1): (
        "ba1e7abe3b334bc94efb8b4ea6af9caadef67499234cf9bd16aefd3d6424d982",
        0, 166,
    ),
    ("churn-burst", "delta", 7): (
        "d3d19a02f92abf2da203094f26b765101307bc1b76605e63291e5f22e6760b05",
        0, 166,
    ),
    ("churn-stale", "full", 0): (
        "2320350c896213b2ca4e033a3d30c97ef10bbfe1ef24a50d5ce6450959741515",
        45, 55,
    ),
    ("churn-stale", "full", 1): (
        "8a6bc416c7f3054ecf4072f2650939faea9ac59ef104065934944957bed54696",
        45, 55,
    ),
    ("churn-stale", "full", 7): (
        "149e71cf05675a2589921c98a756af59f79fde613767e6185bf1770d7c81310f",
        45, 55,
    ),
    ("churn-stale", "delta", 0): (
        "110b644dfadc4611213e625811fab63ec484c63e45141ff32defd5849d10f6a6",
        45, 55,
    ),
    ("churn-stale", "delta", 1): (
        "6e9b24002934ea68b3b8dcd571512f2ad08e29a347f52b3682a349ae0fabc860",
        45, 55,
    ),
    ("churn-stale", "delta", 7): (
        "2ccab72bf144edaed6a078dd7781bb8ede5f9cdae544c52664ee251cd733c11a",
        45, 55,
    ),
    ("churn-cache", "full", 0): (
        "701ed50896f9d15777af30775eeb5e5be3b318b4de2f7985b08c0912d5c84669",
        54, 55,
    ),
    ("churn-cache", "full", 1): (
        "7c20e79474d3f813354dc8e0c78ebb2d00479640435a9caec84143a5008c3437",
        54, 55,
    ),
    ("churn-cache", "full", 7): (
        "4a18afe705d10611036bc71bc6f48304719d2e8b592c8974b5977d01d73650e8",
        54, 55,
    ),
    ("churn-cache", "delta", 0): (
        "99c03d25f30d18fafb676540614e301c88bb8f2667c0c27693b2400fdadf8399",
        54, 55,
    ),
    ("churn-cache", "delta", 1): (
        "240ad3edfca9e08a34bbcad7cb6baa2b8f0cf7c8fefa1212b6af0dba11283332",
        54, 55,
    ),
    ("churn-cache", "delta", 7): (
        "9731df623aabb68124d8233fad07017d35d0c6a09510497c2ecc1c704026f40f",
        54, 55,
    ),
    ("serve-crash-restart", "full", 0): (
        "d7da92ac5e5e3c1028784378e04441d2807a43488c0aaebd62473f32f0afaa71",
        0, 63,
    ),
    ("serve-crash-restart", "full", 1): (
        "5363faa6562781cf9f174ee7bf0b1afcbbb851f8a20d4d6df3f6a8b61a8f65b2",
        0, 63,
    ),
    ("serve-crash-restart", "full", 7): (
        "8dc763d91ec4dc0cd55bda365f2e4482c040fe6eb5b787b667de4b22942460c8",
        0, 63,
    ),
    ("serve-crash-restart", "delta", 0): (
        "9644555e49e98e1d0b07fe0b1c7eb03bd01e93b02045c7a0b2717dffbad427ba",
        0, 63,
    ),
    ("serve-crash-restart", "delta", 1): (
        "ba1f969cecdfad0427ef6ca39742da0faf93fb0c8b3020d923e89c5d32a6f7a0",
        0, 63,
    ),
    ("serve-crash-restart", "delta", 7): (
        "0f197d789b250d328a94b3633b97eb4f60199cb4fe612fa12b9071fd0ef19878",
        0, 63,
    ),
}

_AGENT_DRILL_DIGESTS = {
    "crash-one": "bcddf5ef577a3c9a4556a06da9be3782eae12d953521f18ac68b241a4e4a49c0",
    "flaky-reports": "e46daa4cc75ea4f4f02c436216728e18c6a00fde527138a095c587b94d3fa39f",
    "lossy-links": "aef4c61fb52a9232c63745732b64958051222d260092eecefc50d6dead7dd9d7",
}

#: ``(passed, reoptimizations, retransmits, quarantined, degraded
#: reoptimizations, final score hex, offline score hex)``.
_SERVICE_DRILLS = {
    ("serve-crash", 0): (
        True, 4, 2, ("victim",), 0,
        "0x1.4000000000000p+8", "0x1.4000000000000p+8",
    ),
    ("serve-crash", 1): (
        True, 4, 3, ("victim",), 0,
        "0x1.4000000000000p+8", "0x1.4000000000000p+8",
    ),
    ("serve-restart", 0): (
        True, 1, 0, (), 0,
        "0x1.4000000000000p+8", "0x1.4000000000000p+8",
    ),
    ("serve-restart", 1): (
        True, 1, 0, (), 0,
        "0x1.4000000000000p+8", "0x1.4000000000000p+8",
    ),
    ("serve-overload", 0): (
        True, 4, 0, (), 0,
        "0x1.0000000000000p+6", "0x1.0000000000000p+6",
    ),
    ("serve-overload", 1): (
        True, 4, 0, (), 0,
        "0x1.0000000000000p+6", "0x1.0000000000000p+6",
    ),
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _preset(name: str, mode: str, seed: int) -> tuple:
    """A churn preset's pinned values: ``(digest, hits, misses)``.

    The digest is the sha256 of the report's JSON without its two cache
    counts, which follow it as numbers.
    """
    data = run_replay(name, seed=seed, mode=mode).to_dict()
    hits, misses = data.pop("cache_hits"), data.pop("cache_misses")
    return _sha256(json.dumps(data, indent=2)), hits, misses


def _drill(name: str, seed: int) -> tuple:
    """A service drill's pinned values, read from its report."""
    report = run_replay(name, seed=seed)
    return (
        report.passed,
        report.reoptimizations,
        report.retransmits,
        report.quarantined,
        report.degraded_reoptimizations,
        float(report.final_score).hex(),
        float(report.offline_score).hex(),
    )


@pytest.mark.parametrize("name, mode, seed", sorted(_PRESETS))
def test_preset_report_digest(name, mode, seed):
    assert _preset(name, mode, seed) == _PRESETS[(name, mode, seed)]


@pytest.mark.parametrize("name", sorted(_AGENT_DRILL_DIGESTS))
def test_agent_drill_report_digest(name):
    report = run_scenario(name, seed=0)
    assert _sha256(report.to_json()) == _AGENT_DRILL_DIGESTS[name]


@pytest.mark.parametrize("name, seed", sorted(_SERVICE_DRILLS))
def test_service_drill_values(name, seed):
    assert _drill(name, seed) == _SERVICE_DRILLS[(name, seed)]
