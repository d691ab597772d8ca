"""Order statistics with the benchmark's sample-count rules."""

from __future__ import annotations

import statistics

#: A percentile is reported only when at least this many samples lie
#: beyond it (choosing-metrics guide, section 1).
MIN_BEYOND = 10

def median(values) -> float:
    return float(statistics.median(values))


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) exactly as the acceptance driver computes them."""
    values = list(values)
    if len(values) < 2:
        return (float(values[0]),) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def spread(values) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def percentile_supported(count: int, percentile: float) -> bool:
    return count * (100.0 - percentile) / 100.0 >= MIN_BEYOND


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (no interpolation: a reported tail value is
    one that a request actually experienced)."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))  # ceil without floats
    return float(ordered[int(rank) - 1])


def samples_needed(percentile: float) -> int:
    """Fewest samples that leave :data:`MIN_BEYOND` beyond ``percentile``."""
    return -(-MIN_BEYOND * 100 // (100 - percentile))


def tail(values, q: int = 95) -> float:
    """The ``q``-th percentile, or an error when fewer than
    :data:`MIN_BEYOND` samples lie beyond it: a metric named ``p95`` is
    the p95 or the run fails.  Phases that feed a tail are sized in samples
    (``sizing.P95_SAMPLES``), so on a good run this never raises."""
    values = list(values)
    if not percentile_supported(len(values), q):
        raise ValueError(
            f"p{q} needs {samples_needed(q)} samples, got {len(values)}"
        )
    return percentile(values, q)


class Rounds:
    """Samples kept by the round that took them.

    Wall-clock metrics report the **best round's median**: the lap is cut
    into rounds spread over the whole run, each round yields a median, and
    the best one is reported.  Host contention on a shared box only ever
    adds time, in plateaus of seconds, so the best round estimates the
    code's own speed while the median of everything estimates the mix of
    plateaus the run happened to land on (measured: spread across ten
    runs 0.10-0.17 for the overall median of identical work).
    """

    def __init__(self):
        self.rounds: list[list[float]] = []

    def start(self) -> None:
        self.rounds.append([])

    def add(self, value: float) -> None:
        self.rounds[-1].append(value)

    def single(self, value: float) -> None:
        """A round that yields one value (a rate, a whole build)."""
        self.rounds.append([value])

    @property
    def flat(self) -> list[float]:
        return [value for values in self.rounds for value in values]

    def __len__(self) -> int:
        return sum(len(values) for values in self.rounds)

    def medians(self) -> list[float]:
        return [median(values) for values in self.rounds if values]
