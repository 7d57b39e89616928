"""Percentiles and the tail-percentile rule of the benchmark report."""

from __future__ import annotations

from typing import Sequence

__all__ = ["percentile", "tail_quantile", "tail", "mean"]

#: Candidate tail percentiles, highest first.
TAIL_QUANTILES = (99, 95, 90)

#: Samples a tail percentile must leave above it.
MIN_ABOVE = 10


def _rank(q: int, n: int) -> int:
    """1-based nearest-rank position of percentile ``q`` among ``n``."""
    return max(-(-q * n // 100), 1)


def percentile(values: Sequence[float], q: int) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``q`` percent of the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    return ordered[_rank(q, len(ordered)) - 1]


def tail_quantile(n: int) -> int | None:
    """The highest of p99, p95 and p90 that leaves at least
    :data:`MIN_ABOVE` of ``n`` samples above it, or ``None``.

    >>> tail_quantile(1000), tail_quantile(700), tail_quantile(100)
    (99, 95, 90)
    >>> tail_quantile(99) is None
    True
    """
    for q in TAIL_QUANTILES:
        if n - _rank(q, n) >= MIN_ABOVE:
            return q
    return None


def tail(values: Sequence[float]) -> tuple[str, float]:
    """``(label, value)`` of the tail percentile of ``values``.

    Falls back to the maximum (label ``"max"``) when the sample is too
    small for any candidate percentile.
    """
    q = tail_quantile(len(values))
    if q is None:
        return "max", max(values)
    return f"p{q}", percentile(values, q)


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; 0.0 for no samples (an idle layer)."""
    return sum(values) / len(values) if values else 0.0
