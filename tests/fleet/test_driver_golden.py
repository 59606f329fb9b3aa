"""Golden digests of the fleet driver's canonical reports.

Every spec runs through one plan → execute → replay driver.  These pins
hold the full sha256 of ``render_json`` for one plain campaign and for
the BENCH_fleet chaos campaign, so any change to the driver that moves
a single byte of either report fails here.
"""

import hashlib

import pytest

from repro.fleet import FleetSpec, run_fleet
from repro.fleet.report import render_json

GOLDEN = [
    (
        FleetSpec(seed=1),
        "dbd4f078a669df3abb479a52263b35745b9bd0f8da6fb775ab6e6d994934e505",
    ),
    (
        FleetSpec(
            boards=4,
            seed=17,
            duration_ms=14.0,
            chaos=True,
            chaos_intensity=6,
            kill_boards=1,
        ),
        "0d8f94a3525721e147cc8e714cc798486f31b8bc6fdd277f191768fb60c68bb4",
    ),
]


@pytest.mark.parametrize(
    "spec, expected", GOLDEN, ids=["plain-seed1", "chaos-seed17-kill1"]
)
def test_report_digest_is_pinned(spec, expected):
    text = render_json(run_fleet(spec))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == expected
