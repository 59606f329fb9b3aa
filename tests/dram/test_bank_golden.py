"""Pinned golden records of the bank-aware DDR controller.

The bank model at its default calibration (tCAS 202, tRCD 100, tRP 0,
lazy refresh) once shared the simulator with a flat-latency FIFO
controller and timed byte-identically to it; these digests were taken
while both existed, so the equivalence lives on as values.  Any timing
drift in the bank machines, the command multiplexer or the crossbar
shows up as a digest change here.

Two configurations run over a 6-point grid (2 regions x 3 frequencies,
the snapshot-smoke grid):

* the default config, pinned twice: its timed observables (``metrics``
  and ``events`` stripped) and its full records;
* :data:`DEGENERATE` — closed page, refresh off, tRCD = 0, so hit ==
  miss == tCAS and no row or refresh state is left — timed observables
  only.

A result must also be a function of the point's parameters alone (the
contract the sweep ``ResultCache`` key relies on), so environment
variables that once picked the controller or its refresh mode must not
change a record.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.core import PdrSystem, PdrSystemConfig
from repro.dram import BankDramController
from repro.experiments.points import asp_descriptor, campaign_point, reconfigure_point
from repro.experiments.table1 import WORKLOAD_ASP
from repro.snapshot import reset_templates

GRID = [
    dict(region=region, freq_mhz=freq, temp_c=40.0)
    for region in ("RP1", "RP2")
    for freq in (100.0, 200.0, 320.0)
]

DEGENERATE = dict(
    dram_page_policy="closed",
    dram_refresh_mode="off",
    dram_trcd_ns=0.0,
    dram_trp_ns=0.0,
)

#: Implementation identity rather than physics: the metrics snapshot
#: names every probe and ``events`` counts kernel events.
VOLATILE_KEYS = ("metrics", "events")

DEFAULT_TIMED_SHA256 = "0afeb51f0e842dc4994c5e42ce5e7cccea73e4d0c81fabf75165af45029f0c2c"
DEFAULT_FULL_SHA256 = "f4a2a297622b3921308ba4373ee3c04e2fd91106135326cde5bf52027e0fa85f"
DEGENERATE_TIMED_SHA256 = "142676ca4b3436b95e26b0b6666716545920f3f875bc2a7e08b67d554f13ef1c"


@pytest.fixture(autouse=True)
def _clean_templates():
    reset_templates()
    yield
    reset_templates()


def _records(config):
    workload = asp_descriptor(WORKLOAD_ASP)
    return [
        campaign_point(workload=workload, config=config, **point) for point in GRID
    ]


def _digest(records, strip=()):
    stripped = [
        {key: value for key, value in record.items() if key not in strip}
        for record in records
    ]
    text = json.dumps(stripped, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_default_bank_calibration_records_are_pinned():
    records = _records(None)
    assert [record["latency_us"] for record in records] == [
        1325.3760013253761, 677.0250006770251, None,
        1325.3760013253761, 677.0250006770251, None,
    ]
    assert _digest(records, VOLATILE_KEYS) == DEFAULT_TIMED_SHA256
    assert _digest(records) == DEFAULT_FULL_SHA256


def test_degenerate_bank_records_are_pinned():
    records = _records(DEGENERATE)
    assert _digest(records, VOLATILE_KEYS) == DEGENERATE_TIMED_SHA256


@pytest.mark.parametrize(
    "env",
    [
        {"REPRO_DRAM": "flat"},
        {"REPRO_DRAM_REFRESH": "engine"},
        {"REPRO_DRAM": "flat", "REPRO_DRAM_REFRESH": "engine"},
    ],
    ids=["model", "refresh", "both"],
)
def test_point_record_ignores_environment(monkeypatch, env):
    workload = asp_descriptor(WORKLOAD_ASP)
    expected = dataclasses.asdict(reconfigure_point("RP1", 100.0, 40.0, workload))
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    reset_templates()
    got = dataclasses.asdict(reconfigure_point("RP1", 100.0, 40.0, workload))
    assert got == expected
    assert isinstance(PdrSystem().dram_controller, BankDramController)


def test_rejects_unknown_refresh_mode():
    with pytest.raises(ValueError, match="'sometimes'"):
        PdrSystem(PdrSystemConfig(dram_refresh_mode="sometimes"))
