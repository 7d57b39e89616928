"""Pins every scenario's report, so a refactor of the scenario libraries
must leave each one unchanged.

Two groups:

* the sha256 of ``report.to_json()`` for the five churn presets in both
  service modes at seeds 0, 1 and 7, and for the three agent drills of
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

import pytest

from repro.faults import run_scenario
from repro.serve import run_replay

_PRESET_DIGESTS = {
    ("churn-basic", "full", 0): "d8e293b6e8ececda8cd663d86de63d6e42b9541f747f53969111923d0ec818c8",
    ("churn-basic", "full", 1): "b7406a9a894e608a19750b843aeffd609d4a79e90fc95c4e2759b588c41c75c8",
    ("churn-basic", "full", 7): "88742987f85f0b38169c0f58212ecd8c9b7125a79a0198c86a24c439a158d615",
    ("churn-basic", "delta", 0): "9a194b7bd80824281f3b4d675da90dcf6f4a4438115773c358e35539ba4ccec9",
    ("churn-basic", "delta", 1): "ebfa7c2c6534dca2ce0aa940af1084227cd464644a3d40fc2b756f30e88d8f7f",
    ("churn-basic", "delta", 7): "2a555339d4f3aeb3f5889dd7f658871162f03da948fa627ef70cac227c94155a",
    ("churn-burst", "full", 0): "5e570060cb18f02c1817352faeaba4d00d89d351004528e527530f3e3934e127",
    ("churn-burst", "full", 1): "63351260ba565dfd3d1f9ac8793e76ed6699280197bbf20103b6f635bd751c98",
    ("churn-burst", "full", 7): "34e4bbc12d4e34a95fa72cf9c9dac2ef6d1b139c59b4be5aa759eb6313939cf6",
    ("churn-burst", "delta", 0): "c3a4d432eaba6d46374ec0b6f7767993b7fe028aae607d410183b8ce309b88ec",
    ("churn-burst", "delta", 1): "8da48b472f09befc2ecaa5a730e579aa8000f7319b5394b1f41b51371093af52",
    ("churn-burst", "delta", 7): "88e5cecc559962c6312eb0c8eca96ba83d0d9ce6594728a10835cab89278287a",
    ("churn-stale", "full", 0): "59298fa63e32ca797ad7ce8d4823402bf13907b50b3ecf36a1ae1a8b3670a186",
    ("churn-stale", "full", 1): "5b65302480140c743f389a5e5bd68cb59bee2c208be647f5145af26a31b7a4d5",
    ("churn-stale", "full", 7): "636e3d097998416f947ab095245610244f36c83872df849bed6eec01c092ace2",
    ("churn-stale", "delta", 0): "bc97d690230cda0fa2698ab80ff76962fd7b3ef689deb8f34eb943f9465abc39",
    ("churn-stale", "delta", 1): "6909e0bf048ed4e1cee4bd85c93172a135d0411fb371623bc9dd71e228b4307b",
    ("churn-stale", "delta", 7): "da4a872701b3d7b5476533983cdd323780cd69d0332a4c4943bf444ddf783a42",
    ("churn-cache", "full", 0): "c1413ddeab32be0b90dcbbdb06c3a090600666e35294b6405d5bc06cb69e3cd9",
    ("churn-cache", "full", 1): "7a5becd961497d7080dee23cde9dec3f7c4b12e547d5a0ed8e8ae681562c4210",
    ("churn-cache", "full", 7): "0998a30b97d7da806b3be8c6312dee28773b87ba0d6f029cd3f575ce66d7c3f7",
    ("churn-cache", "delta", 0): "52c18cfa9510fcdfc32b374e5847c74889a41010bee53af7f6553bd114fd0c2f",
    ("churn-cache", "delta", 1): "4500c1dc8e40f34a6dd9aa8621b1ff89b4dfae28f3dcbe20cd434713f99a1e6e",
    ("churn-cache", "delta", 7): "dfc9d3c81bddf456404a255fca3bc4b35005c480836aa540d06877741085dd4f",
    ("serve-crash-restart", "full", 0): "702cc9b72c3d1a2558736d84ef435e4118fa02214db2ebf9b038bbed57b02435",
    ("serve-crash-restart", "full", 1): "3d57f969d19ba958d52fe78e956a016e0c07349d55949b81f7f785d2f606c05a",
    ("serve-crash-restart", "full", 7): "c78a8757927872bfadc12a0b4feebabd88d85f8d7317e5cdbf84730f8839b1a4",
    ("serve-crash-restart", "delta", 0): "f9bc7b86349553b85700038cbf4bc817dec382cc29ac04803b376aa2ef3dc063",
    ("serve-crash-restart", "delta", 1): "56a002bb350109d107c8838da37f190bdb39c3a2a93fb2ce1375c78e0c5e4206",
    ("serve-crash-restart", "delta", 7): "d10c7a894dc3d10673c99b70173bba070e04355f0763ca0e4aa3b41754c1247f",
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


@pytest.mark.parametrize("name, mode, seed", sorted(_PRESET_DIGESTS))
def test_preset_report_digest(name, mode, seed):
    report = run_replay(name, seed=seed, mode=mode)
    assert _sha256(report.to_json()) == _PRESET_DIGESTS[(name, mode, seed)]


@pytest.mark.parametrize("name", sorted(_AGENT_DRILL_DIGESTS))
def test_agent_drill_report_digest(name):
    report = run_scenario(name, seed=0)
    assert _sha256(report.to_json()) == _AGENT_DRILL_DIGESTS[name]


@pytest.mark.parametrize("name, seed", sorted(_SERVICE_DRILLS))
def test_service_drill_values(name, seed):
    assert _drill(name, seed) == _SERVICE_DRILLS[(name, seed)]
