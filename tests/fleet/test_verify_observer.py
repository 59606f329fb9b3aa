"""``FleetSpec.verify`` only observes: the monitored report equals the plain one.

Attaching the :class:`~repro.verify.invariants.InvariantMonitor` must not
change what the fleet does.  With the ``verify`` block and the
``spec.verify`` flag removed, the canonical report of a verified run is
byte-identical to the unverified run of the same spec, and the monitor
reports no violations.
"""

import json
from dataclasses import replace

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.fleet import FleetSpec, run_fleet
from repro.fleet.report import render_json


def without_verify(text: str) -> str:
    doc = json.loads(text)
    doc.pop("verify")
    doc["spec"].pop("verify")
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def assert_verify_only_observes(spec: FleetSpec) -> None:
    plain = run_fleet(spec)
    verified = run_fleet(replace(spec, verify=True))
    assert plain.verify is None
    assert verified.verify is not None
    if verified.admitted:
        assert verified.verify["checks"] > 0
    assert verified.verify["violations"] == []
    assert without_verify(render_json(verified)) == without_verify(
        render_json(plain)
    )


def test_verify_does_not_arm_chaos_on_a_plain_campaign():
    spec = FleetSpec(seed=1)
    verified = run_fleet(replace(spec, verify=True))
    assert "faults_injected" not in verified.spec
    assert verified.health == []
    assert without_verify(render_json(verified)) == without_verify(
        render_json(run_fleet(spec))
    )


@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    boards=st.integers(min_value=1, max_value=3),
    duration_ms=st.integers(min_value=2, max_value=6),
    seed=st.integers(min_value=1, max_value=500),
    rate_per_ms=st.sampled_from([1.0, 2.0, 3.0]),
    batching=st.booleans(),
    chaos=st.booleans(),
)
def test_verify_is_a_pure_observer(
    boards, duration_ms, seed, rate_per_ms, batching, chaos
):
    assert_verify_only_observes(
        FleetSpec(
            boards=boards,
            seed=seed,
            duration_ms=float(duration_ms),
            rate_per_ms=rate_per_ms,
            batching=batching,
            chaos=chaos,
            chaos_intensity=2,
        )
    )
