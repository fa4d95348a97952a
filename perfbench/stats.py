"""Percentiles and Prometheus text parsing for the serving benchmark."""

import math


def percentile(values, p):
    """The p-th percentile (0 <= p <= 100) of ``values`` by linear
    interpolation between the closest ranks: rank p/100 * (n - 1) over the
    sorted values, the definition numpy calls "linear"."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= p <= 100.0:
        raise ValueError("percentile outside [0, 100]")
    xs = sorted(values)
    pos = p / 100.0 * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values):
    return percentile(values, 50.0)


def parse_prometheus(text):
    """{series: value} of a Prometheus text exposition. A series keeps its
    labels verbatim, e.g. ``lserve_request_ttft_seconds_bucket{le="0.1"}``."""
    out = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        series, _, value = line.rpartition(" ")
        out[series] = float(value)
    return out
