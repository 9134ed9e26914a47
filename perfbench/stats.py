"""Summary statistics shared by the session benchmark.

A timing is reported as a median plus the highest percentile the sample
can support: a percentile counts only when at least MIN_TAIL samples lie
strictly beyond its rank, so a p90 needs 100 samples and a p99 needs
1000. Asking for an unsupported percentile is an error, not a quietly
noisier number.
"""

import math
import statistics

MIN_TAIL = 10


def tail_count(n, q):
    """Samples beyond the nearest-rank q-quantile of n samples."""
    return n - math.ceil(q * n)


def min_samples(q):
    """Smallest sample count whose q-quantile has MIN_TAIL samples beyond."""
    n = MIN_TAIL
    while tail_count(n, q) < MIN_TAIL:
        n += 1
    return n


def percentile(values, q):
    """Nearest-rank q-quantile (0 < q < 1) of values.

    Raises ValueError when fewer than MIN_TAIL samples lie beyond it.
    """
    if not 0 < q < 1:
        raise ValueError("quantile %r outside (0, 1)" % q)
    n = len(values)
    if tail_count(n, q) < MIN_TAIL:
        raise ValueError("p%g of %d samples has %d beyond it, need %d (at least %d samples)"
                         % (100 * q, n, max(tail_count(n, q), 0), MIN_TAIL, min_samples(q)))
    return sorted(values)[math.ceil(q * n) - 1]


def median(values):
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)
