"""The benchmark's own estimators (nothing imported from the program)."""

from __future__ import annotations

import math
import statistics


def percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank ``fraction``-quantile of a non-empty sample."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def summarise(unit: str, per_pass: list[float], higher_is_better: bool = False) -> dict:
    """A per-pass series -> its reported value, quartiles beside it.

    The reported value is the mean of the best quarter of the passes (at
    least two).  On a shared host a pass is mostly slowed by its
    neighbours, so the least disturbed passes estimate what the code
    costs.  Measured on this sandbox over 16 sets of ten runs, against
    the median pass, the mid-mean and the lower-quartile pass, this
    estimator had the smallest run-to-run spread for set-up, p50 and p90
    (worst set 0.13, 0.12, 0.11 against 0.15, 0.18, 0.15 for the median
    pass) and about the same for throughput.  Two passes at least, so
    that one lucky pass does not set the result.
    """
    ordered = sorted(per_pass, reverse=higher_is_better)
    best = ordered[: max(2, len(ordered) // 4)]
    if len(per_pass) >= 2:
        q1, _median, q3 = statistics.quantiles(per_pass, n=4)
    else:
        q1 = q3 = per_pass[0]
    return {
        "unit": unit,
        "value": sum(best) / len(best),
        "median": statistics.median(per_pass),
        "q1": q1,
        "q3": q3,
        "per_pass": per_pass,
    }
