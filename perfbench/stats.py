"""Statistics the benchmark reports, kept apart so they can be unit-tested.

Timings are summarised as a median and a tail. The tail is the highest
percentile that still has at least ten samples beyond it, reported with
that percentile and the sample count, so a tail is never read off a
handful of outliers.
"""

import math
import statistics

TAIL_MIN_BEYOND = 10


def median(values):
    """Median of a non-empty sequence."""
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def mean(values):
    """Arithmetic mean of a non-empty sequence."""
    if not values:
        raise ValueError("mean of no samples")
    return statistics.fmean(values)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        raise ValueError("quartiles need at least two samples")
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail(values, min_beyond=TAIL_MIN_BEYOND):
    """Highest whole percentile with at least `min_beyond` samples above it.

    Returns (value, percentile, count), where value is the sample at
    that rank (nearest-rank: the smallest sample with at least
    percentile % of the samples at or below it) and count is the number
    of samples. With fewer than min_beyond + 1 samples there is no such
    percentile; the maximum is returned with percentile 100.
    """
    n = len(values)
    if n == 0:
        raise ValueError("tail of no samples")
    ordered = sorted(values)
    if n <= min_beyond:
        return ordered[-1], 100, n
    # Largest p with n - ceil(p/100 * n) >= min_beyond.
    best = 0
    for p in range(1, 100):
        rank = math.ceil(p / 100.0 * n)
        if n - rank >= min_beyond:
            best = p
    rank = max(1, math.ceil(best / 100.0 * n))
    return ordered[rank - 1], best, n


def fail_ratio(attempted, failed):
    """Failed operations over attempted operations."""
    if attempted <= 0:
        raise ValueError("no operations attempted")
    if failed < 0 or failed > attempted:
        raise ValueError("failed must lie in [0, attempted]")
    return failed / attempted
