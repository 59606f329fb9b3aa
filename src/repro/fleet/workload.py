"""Seed-deterministic open-loop workload generation.

A fleet workload is a stream of reconfiguration *requests* — "make
region R of some board an instance of ASP A" — arriving independently of
service progress (open loop: the generator never waits for the fleet, so
overload actually queues and rejects instead of self-throttling).

Arrival processes:

* ``poisson`` — memoryless arrivals at ``rate_per_ms`` via
  ``expovariate`` draws from a seeded ``random.Random``, the same
  discipline as :func:`repro.chaos.faults.build_fault_plan`;
* ``bursty`` — Poisson burst *starts* (rate scaled down by the mean
  burst size so the offered load matches the Poisson mode) with 2–6
  closely spaced requests per burst, modelling synchronised tenant
  redeploys.

Request content mixes regions, ASP kinds and bitstream size classes
(Table-I padded / 600 kB padded / content-sized) with a popularity skew:
a seeded hot set draws the majority of requests, which is what gives the
scheduler's same-bitstream batching something to coalesce — exactly the
regime of Nguyen & Hoe's time-shared vision pipelines, where a handful
of pipeline stages dominate the reconfiguration traffic.

Everything is a pure function of ``(seed, duration, rate, mode)``:
plain-data records, no wall clock, no global RNG.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields
from typing import Any, Dict, List, Mapping, Tuple

from ..core.pdr_system import TABLE1_BITSTREAM_BYTES

__all__ = [
    "ARRIVAL_MODES",
    "FLEET_ASP_KINDS",
    "FLEET_REGIONS",
    "PAD_CLASSES",
    "FleetRequest",
    "build_workload",
]

#: Regions a request may target (every board has the full Z-7020 set).
FLEET_REGIONS = ("RP1", "RP2", "RP3", "RP4")
#: ASP kinds in the request mix (a subset of the fuzzer's palette keeps
#: the distinct-bitstream universe small enough for duplicates to occur).
FLEET_ASP_KINDS = ("passthrough", "fir", "crc32", "vecscale", "aes")
#: Bitstream size classes (bytes; 0 = content-sized, no padding).
PAD_CLASSES = (TABLE1_BITSTREAM_BYTES, 600_000, 0)
#: Supported arrival processes.
ARRIVAL_MODES = ("poisson", "bursty")

#: Fraction of requests drawn from the seeded hot set.
_HOT_FRACTION = 0.55
#: Distinct (region, kind, param, pad) combos in the hot set.
_HOT_SET_SIZE = 3
#: ASP parameter values per kind (small palette => duplicate bitstreams).
_PARAM_CHOICES = (0, 1, 2)
#: Bursty mode: requests per burst (uniform draw, inclusive).
_BURST_SIZE = (2, 6)
#: Bursty mode: spacing between requests inside one burst (µs).
_BURST_GAP_US = (20.0, 80.0)


@dataclass(frozen=True)
class FleetRequest:
    """One reconfiguration request as plain data."""

    index: int
    arrival_us: float
    region: str
    asp_kind: str
    asp_param: int
    #: Pad-to byte count; 0 means content-sized (no padding).
    pad_to: int

    @property
    def bitstream_key(self) -> Tuple[str, str, int, int]:
        """Identity of the bitstream this request needs — two requests
        with equal keys are served by one fabric load."""
        return (self.region, self.asp_kind, self.asp_param, self.pad_to)

    def to_mapping(self) -> Dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, Any]) -> "FleetRequest":
        return cls(**dict(mapping))


def _draw_content(rng: random.Random, hot_set) -> Tuple[str, str, int, int]:
    if rng.random() < _HOT_FRACTION:
        return rng.choice(hot_set)
    return (
        rng.choice(FLEET_REGIONS),
        rng.choice(FLEET_ASP_KINDS),
        rng.choice(_PARAM_CHOICES),
        rng.choice(PAD_CLASSES),
    )


def _arrival_times(
    rng: random.Random, mode: str, duration_us: float, rate_per_ms: float
) -> List[float]:
    if rate_per_ms <= 0:
        raise ValueError("arrival rate must be positive")
    times: List[float] = []
    if mode == "poisson":
        at_ms = 0.0
        while True:
            at_ms += rng.expovariate(rate_per_ms)
            at_us = round(at_ms * 1e3, 1)
            if at_us > duration_us:
                break
            times.append(at_us)
    elif mode == "bursty":
        mean_burst = (_BURST_SIZE[0] + _BURST_SIZE[1]) / 2.0
        burst_rate = rate_per_ms / mean_burst
        at_ms = 0.0
        while True:
            at_ms += rng.expovariate(burst_rate)
            start_us = round(at_ms * 1e3, 1)
            if start_us > duration_us:
                break
            at_us = start_us
            for _ in range(rng.randint(*_BURST_SIZE)):
                if at_us > duration_us:
                    break
                times.append(round(at_us, 1))
                at_us += rng.uniform(*_BURST_GAP_US)
    else:
        raise ValueError(
            f"unknown arrival mode {mode!r} (expected one of {ARRIVAL_MODES})"
        )
    return times


def build_workload(
    seed: int,
    duration_ms: float,
    arrival: str = "poisson",
    rate_per_ms: float = 2.0,
) -> Tuple[FleetRequest, ...]:
    """The full request stream of one fleet campaign (pure in the seed)."""
    if duration_ms <= 0:
        raise ValueError("workload duration must be positive")
    rng = random.Random(int(seed) * 1_000_003 + 29)
    hot_set = tuple(
        (
            rng.choice(FLEET_REGIONS),
            rng.choice(FLEET_ASP_KINDS),
            rng.choice(_PARAM_CHOICES),
            rng.choice(PAD_CLASSES),
        )
        for _ in range(_HOT_SET_SIZE)
    )
    duration_us = float(duration_ms) * 1e3
    # Bursts can overlap the next burst's start; requests are indexed in
    # global arrival order regardless of which burst produced them.
    times = sorted(_arrival_times(rng, arrival, duration_us, rate_per_ms))
    requests: List[FleetRequest] = []
    for index, at_us in enumerate(times):
        region, kind, param, pad = _draw_content(rng, hot_set)
        requests.append(
            FleetRequest(
                index=index,
                arrival_us=at_us,
                region=region,
                asp_kind=kind,
                asp_param=param,
                pad_to=pad,
            )
        )
    return tuple(requests)
