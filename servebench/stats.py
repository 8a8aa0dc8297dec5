"""The arithmetic the benchmark reports with: percentiles, spreads, span
self time, and quantiles read back from a Prometheus exposition."""

from __future__ import annotations

import re
import statistics
from typing import Iterable, Optional, Sequence

#: A reported percentile keeps at least this many samples beyond it.
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile (``0 <= q <= 1``) by linear interpolation
    between closest ranks; ``0.0`` for no samples (a layer a workload
    never reaches spends no time)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def supported_percentile(count: int, min_beyond: int = MIN_BEYOND,
                         ceiling: float = 0.95) -> float:
    """The highest percentile (as a fraction, at most ``ceiling``) that
    leaves at least ``min_beyond`` of ``count`` samples above it; 0.5 at
    worst."""
    if count <= 0:
        return 0.5
    return min(ceiling, max(0.5, 1.0 - min_beyond / count))


def rate(times: Sequence[float]) -> float:
    """Events per second from their timestamps: the gaps between the
    first and the last event, over the time those gaps span (not
    rounded to whole events per window); 0.0 for fewer than two."""
    if len(times) < 2:
        return 0.0
    return (len(times) - 1) / (max(times) - min(times))


def median_gap_rate(runs: Iterable[Sequence[float]]) -> float:
    """Events per second from the median gap between successive events,
    pooled over several runs of events (no gap spans two runs); 0.0
    without a gap."""
    gaps = []
    for times in runs:
        ordered = sorted(times)
        gaps += [later - earlier for earlier, later in zip(ordered, ordered[1:])]
    return 1.0 / statistics.median(gaps) if gaps else 0.0


def median_rate(times: Sequence[float], start: float, end: float, windows: int) -> float:
    """Events per second: the median over ``windows`` equal slices of
    ``[start, end)`` of each slice's :func:`rate`, so a stall of the
    host in one slice does not set the figure."""
    width = (end - start) / windows
    slots: list[list[float]] = [[] for _ in range(windows)]
    for at in times:
        slot = int((at - start) // width)
        if 0 <= slot < windows:
            slots[slot].append(at)
    return statistics.median(rate(slot) for slot in slots)


def self_time(start: float, end: float, children: Iterable[tuple[float, float]]) -> float:
    """A span's duration minus the part of it its child spans cover
    (overlapping children are counted once)."""
    covered = 0.0
    cursor = start
    for child_start, child_end in sorted(children):
        child_start = max(child_start, cursor)
        child_end = min(child_end, end)
        if child_end > child_start:
            covered += child_end - child_start
            cursor = child_end
    return (end - start) - covered


_SAMPLE = re.compile(r'^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)(\{le="(?P<le>[^"]+)"\})?\s+(?P<value>\S+)$')


def histogram_buckets(exposition: str, family: str) -> list[tuple[float, float]]:
    """The cumulative ``_bucket`` ladder of histogram ``family`` as
    ascending ``(upper bound, count)`` pairs; empty when absent."""
    buckets: list[tuple[float, float]] = []
    for line in exposition.splitlines():
        match = _SAMPLE.match(line.strip())
        if not match or match.group("name") != f"{family}_bucket":
            continue
        bound = match.group("le")
        upper = float("inf") if bound == "+Inf" else float(bound)
        buckets.append((upper, float(match.group("value"))))
    return sorted(buckets)


def bucket_delta(before: str, after: str, family: str) -> list[tuple[float, float]]:
    """The ladder of the observations made between two scrapes."""
    earlier = dict(histogram_buckets(before, family))
    return [(upper, count - earlier.get(upper, 0.0))
            for upper, count in histogram_buckets(after, family)]


def quantile_from_buckets(buckets: list[tuple[float, float]], q: float) -> Optional[float]:
    """Estimate the ``q``-quantile from a cumulative ladder by linear
    interpolation inside the owning bucket (Prometheus
    ``histogram_quantile``); ``None`` for an empty ladder."""
    if not buckets or buckets[-1][1] <= 0:
        return None
    rank = q * buckets[-1][1]
    lower_bound, lower_count = 0.0, 0.0
    for upper, count in buckets:
        if count >= rank:
            if upper == float("inf"):
                return lower_bound
            width = count - lower_count
            share = (rank - lower_count) / width if width else 1.0
            return lower_bound + (upper - lower_bound) * share
        lower_bound, lower_count = upper, count
    return lower_bound
