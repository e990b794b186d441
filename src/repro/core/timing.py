"""Phase timing for the paper's three-part cost breakdown (Figs. 11, 15).

The evaluation section splits query response time into:

* ``Shared_Data``    -- computing the shared structure (``R̄+_G`` for
  RTCSharing, ``R+_G`` for FullSharing), *excluding* the ``R_G``
  evaluation both methods perform identically;
* ``PreG_join_RTC``  -- the join of ``Pre_G`` with the shared closure
  (Eq. (7)-(9) for RTC; the plain hash join for Full);
* ``Remainder``      -- everything the methods do identically: computing
  ``Pre_G`` and ``R_G`` and the ``Post`` join (Eq. (10)).

Their keys below are also the span and ledger phase names.

:class:`PhaseTimer` accumulates wall-clock spans per phase.  Engines time
**leaf operations only** (never a recursive engine call), so recursion
attributes every span exactly once and the phase sums equal the total
evaluation time up to unattributed glue.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

__all__ = [
    "PhaseTimer",
    "PHASE_SHARED_DATA",
    "PHASE_PRE_JOIN",
    "PHASE_REMAINDER",
    "ALL_PHASES",
]

PHASE_SHARED_DATA = "rtc"
PHASE_PRE_JOIN = "pre_join"
PHASE_REMAINDER = "remainder"
ALL_PHASES = (PHASE_SHARED_DATA, PHASE_PRE_JOIN, PHASE_REMAINDER)


class PhaseTimer:
    """Accumulates wall-clock seconds per named phase."""

    def __init__(self) -> None:
        self.times: dict[str, float] = {}

    @contextmanager
    def measure(self, phase: str):
        """Context manager adding the elapsed span to ``phase``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self.times[phase] = self.times.get(phase, 0.0) + elapsed

    def get(self, phase: str) -> float:
        """Accumulated seconds of ``phase`` (0.0 when never measured)."""
        return self.times.get(phase, 0.0)

    def total(self) -> float:
        """Sum over all phases."""
        return sum(self.times.values())

    def reset(self) -> None:
        """Zero all accumulators."""
        self.times.clear()

    def snapshot(self) -> dict[str, float]:
        """A copy of the per-phase totals."""
        return dict(self.times)
