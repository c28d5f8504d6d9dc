"""Summary statistics shared by run.py and spread.py."""

import math
import statistics

# A percentile is reported only when at least this many samples lie beyond it.
MIN_BEYOND = 10


def percentile(values, pct, min_beyond=MIN_BEYOND):
    """Nearest-rank percentile of `values`, or None when fewer than
    `min_beyond` samples lie above its rank (the ten-beyond rule)."""
    if not 0 < pct < 100:
        raise ValueError("pct must be in (0, 100)")
    n = len(values)
    rank = math.ceil(pct / 100.0 * n)
    if n == 0 or n - rank < min_beyond:
        return None
    return sorted(values)[rank - 1]


def median(values):
    """Median, or 0.0 for no samples."""
    return statistics.median(values) if values else 0.0


def mean(values):
    """Arithmetic mean, or 0.0 for no samples."""
    return sum(values) / len(values) if values else 0.0


def ratio(numerator, base):
    """numerator / base, or 0.0 when the base is empty."""
    return numerator / base if base else 0.0


def spread(values):
    """Interquartile range as a share of the median (statistics.quantiles
    with n=4, its default 'exclusive' method)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return ratio(q3 - q1, statistics.median(values))
