"""Input sizes and how a run's seconds are shared among its phases.

Every run walks the whole stack once (build -> offline search -> serving
-> router -> stream) with the same sizes, because the benchmark contract
wants every metric from every workload; a workload only picks whose
answers ``recall_at_10`` scores.  Time-boxed phases share ``--seconds``;
fixed-work phases (builds, backlog drains, the stream op sequence, the
priced pass) are sized in operations so that their counts repeat exactly
for a seed.  In the traced run every phase that feeds a tail percentile
runs on past its seconds until the percentile has its samples.
"""

from __future__ import annotations

from dataclasses import dataclass

from stats import samples_needed

#: The lap is cut into this many rounds; each round runs a slice of every
#: phase, so each metric samples the whole run window rather than one
#: 2-5 s plateau of machine drift (see ``stats.Rounds``).  The traced run
#: has twice the phases to fit in and laps half as many rounds.
ROUNDS = 12
TRACE_ROUNDS = 6

#: Samples a phase must collect before a p95 (p90) of it may be reported.
P95_SAMPLES = samples_needed(95)
P90_SAMPLES = samples_needed(90)


@dataclass(frozen=True)
class Profile:
    """Fixed inputs.  ``bench`` is the recorded profile; ``smoke`` exists
    for the self-tests and is never used for recorded numbers."""

    name: str
    rows: int  # base index rows (deep-1m analogue: 96-dim, sqeuclidean)
    insert_pool: int  # held-out rows the stream workload inserts
    num_queries: int
    degree: int
    batch: int  # large-batch size of the Fig. 13 phases
    drain_requests: int  # backlog submitted at once per drain
    stream_ops_per_round: int  # a multiple of 10: exactly 70/20/10 % per round
    oracle_queries: int
    ladder_queries: int
    extend_rows: int
    k: int = 10
    itopk: int = 32
    modelled_batch: int = 10_000  # Fig. 13 batch the priced pass is scaled to


BENCH = Profile(
    name="bench", rows=3000, insert_pool=1024, num_queries=2048, degree=32,
    batch=512, drain_requests=192, stream_ops_per_round=20,
    oracle_queries=256, ladder_queries=30, extend_rows=256,
)
SMOKE = Profile(
    name="smoke", rows=800, insert_pool=256, num_queries=512, degree=16,
    batch=128, drain_requests=64, stream_ops_per_round=10,
    oracle_queries=64, ladder_queries=12, extend_rows=64,
)
PROFILES = {p.name: p for p in (BENCH, SMOKE)}

#: Time-boxed lap phases: name -> weight; each gets weight / sum of
#: ``--seconds``.  Only ``fast_batch`` feeds a gated metric; the
#: scalar-path phases keep every layer exercised and checked in every run
#: and feed ungated diagnostics.
LAP_PHASES = {
    "fast_batch": 3.0,
    "single_query": 0.75,
    "open_loop_50": 1.25,
    "routed_closed2": 1.5,
}

#: The traced run gets this multiple of ``--seconds`` for its (many more)
#: time-boxed phases; what its tails need beyond that they take in
#: samples, not seconds ...
TRACE_SECONDS_FACTOR = 1.25

#: ... and the phases it adds are these, on the same weight scale.
TRACE_PHASES = {
    "fast_b1": 0.25,
    "fast_b8": 0.25,
    "fast_b64": 0.25,
    "reference_b8": 0.25,
    "reference_b64": 0.25,
    "fp16_batch": 0.45,
    "filtered_batch": 0.45,
    "sharded_serial": 0.5,
    "sharded_thread": 0.5,
    "adapter_batch": 0.5,
    "open_loop_200": 1.1,
    "open_loop_600": 0.9,
    "server_closed2": 0.8,
    "cache_zipf_200": 1.0,
    "slow_replica": 1.4,
    "concurrent_rw": 1.0,
}


def allocate(seconds: float, trace: bool) -> dict[str, float]:
    """Seconds per time-boxed phase: its weight over the sum of weights,
    times the budget."""
    phases = dict(LAP_PHASES)
    if trace:
        phases.update(TRACE_PHASES)
        seconds *= TRACE_SECONDS_FACTOR
    total = sum(phases.values())
    return {name: seconds * weight / total for name, weight in phases.items()}


def per_round(samples: int, rounds: int) -> int:
    """Samples each of ``rounds`` equal slices must take to reach ``samples``."""
    return -(-samples // rounds)
