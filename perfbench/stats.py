"""Summary statistics and failure accounting of the benchmark."""

from __future__ import annotations

import math
from typing import Dict, List, Sequence

#: Candidate tail percentiles, highest first.  A timing is reported as its
#: median plus the highest of these that still has at least
#: :data:`MIN_BEYOND` samples above it, so the tail is never read off a
#: handful of outliers (p99 needs 1000 samples, p90 needs 100).  The ladder
#: stops at p99 so that a run's sample count, which varies with machine
#: speed, does not switch the tail between p99 and p99.9 from run to run.
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sequence (mean of the middle pair when even)."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of an empty sequence")
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2.0


def tail(values: Sequence[float]) -> Dict[str, float]:
    """``{"value", "pct", "n"}``: the highest ladder percentile with enough
    samples beyond it.

    Below 20 samples no rung has ten samples beyond it, so no tail can be
    read off them: the median is reported then, with ``pct`` 50.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("tail of an empty sequence")
    for pct in TAIL_LADDER:
        # Nearest rank; rounding keeps 99.9% of 10000 at rank 9990.
        rank = max(1, math.ceil(round(pct * n / 100.0, 9)))
        if n - rank >= MIN_BEYOND:
            return {"value": ordered[rank - 1], "pct": pct, "n": n}
    return {"value": median(ordered), "pct": 50.0, "n": n}


def describe(values: Sequence[float]) -> Dict[str, float]:
    """Median, tail value, tail percentile and sample count of a timing."""
    summary = tail(values)
    return {
        "p50": median(values),
        "tail": summary["value"],
        "tail_pct": summary["pct"],
        "n": summary["n"],
    }


def ratio(numerator: float, base: float) -> float:
    """``numerator / base``, 0 when the base is empty."""
    return numerator / base if base else 0.0


class Outcomes:
    """Attempted and failed operations of one run.

    Each operation the benchmark issues (a build, a campaign cell, a serve
    request) and each output check it makes counts once as attempted; an
    operation that errors, is refused or quarantined, and a check that does
    not hold, counts once more as failed.  ``failed_ratio`` is failed over
    attempted.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def op(self, ok: bool, what: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what or "operation failed")

    def check(self, ok: bool, what: str) -> None:
        self.op(ok, f"check failed: {what}")

    @property
    def failed_ratio(self) -> float:
        return ratio(self.failed, self.attempted)
