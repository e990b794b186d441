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

Phases are per call: :func:`call_phases` opens a dict for the calling
thread (``evaluate_plan`` opens one per evaluation), and :func:`measure`
adds each timed span to the dict open on its own thread -- so engines
shared by several threads attribute every span to the call that ran it.
A ``measure`` with no dict open records nothing.  Engines time **leaf
operations only** (never a recursive engine call), so recursion
attributes every span exactly once and the phase sums equal the total
evaluation time up to unattributed glue.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager

__all__ = [
    "call_phases",
    "measure",
    "PHASE_SHARED_DATA",
    "PHASE_PRE_JOIN",
    "PHASE_REMAINDER",
    "ALL_PHASES",
]

PHASE_SHARED_DATA = "rtc"
PHASE_PRE_JOIN = "pre_join"
PHASE_REMAINDER = "remainder"
ALL_PHASES = (PHASE_SHARED_DATA, PHASE_PRE_JOIN, PHASE_REMAINDER)

# The calling thread's open phase dict (``phases``), if any.
_open = threading.local()


@contextmanager
def call_phases():
    """Open a fresh phase dict for this thread; yields it.

    Every :func:`measure` on this thread until the block ends adds to
    it; any dict open outside the block is restored when it ends.
    """
    outer = getattr(_open, "phases", None)
    phases: dict[str, float] = {}
    _open.phases = phases
    try:
        yield phases
    finally:
        _open.phases = outer


@contextmanager
def measure(phase: str):
    """Add the block's wall-clock seconds to ``phase`` of the open dict."""
    phases = getattr(_open, "phases", None)
    start = time.perf_counter()
    try:
        yield
    finally:
        if phases is not None:
            phases[phase] = phases.get(phase, 0.0) + time.perf_counter() - start
