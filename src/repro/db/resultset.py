"""Rich result objects returned by :meth:`GraphDB.execute`.

A :class:`ResultSet` wraps the bare ``set[(start, end)]`` the engines
produce with everything a service layer wants next to it: the query text,
the engine that ran it, wall-clock and per-phase timings, the
shared-structure size after the run, machine-readable ``to_json()`` and
Graphviz ``to_dot()`` renderings, and set-like access (iteration, ``in``,
``len``, equality against plain sets -- so existing code comparing
against ``engine.evaluate(q)`` output keeps working).

Execution may be deferred: a lazy ResultSet holds a thunk and only runs
the engine when the pairs (or any statistic derived from them) are first
touched, which lets ``execute_many`` build a batch of result handles
cheaply and stream them.

``pairs=`` also accepts a :class:`~repro.bitset.PairBitmap` carrying its
interner: the bitmap is held as-is and vertex tuples materialise only on
first touch, while :attr:`count` and ``len`` answer straight from
``int.bit_count()`` -- counts-only consumers never build a tuple.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace
from collections.abc import Callable, Iterator

from repro.bitset.pairbitmap import PairBitmap
from repro.obs import get_registry

__all__ = ["ExecutionStats", "ResultSet"]

Pair = tuple  # (start, end)

_phase_seconds = get_registry().counter(
    "repro_phase_seconds_total",
    "Wall seconds spent per engine/storage phase.",
    labels=("phase",),
)


@dataclass(frozen=True)
class ExecutionStats:
    """Measurements of one query execution.

    ``phase_times`` holds this query's own per-phase seconds
    (the paper's Shared_Data / PreG_join_RTC / Remainder breakdown) plus,
    once a packed result has been decoded, the ``materialise`` phase --
    which ``total_time`` then includes; ``shared_pairs`` is the
    shared-structure size after the run.
    """

    total_time: float = 0.0
    phase_times: dict[str, float] = field(default_factory=dict)
    shared_pairs: int = 0


def _pair_sort_key(pair: Pair) -> tuple[str, str]:
    return (str(pair[0]), str(pair[1]))


class ResultSet:
    """The pairs of one evaluated RPQ plus its execution statistics.

    Built by :class:`~repro.db.GraphDB`; not usually constructed by hand.
    Equality compares the pair sets only (statistics are measurement
    noise), and comparing against a plain ``set``/``frozenset`` works, so
    ``db.execute(q) == legacy_engine.evaluate(q)`` is the intended
    cross-check spelling.
    """

    def __init__(
        self,
        query: str,
        engine: str,
        *,
        pairs: set | frozenset | PairBitmap | None = None,
        fetch: Callable[[], tuple[set, ExecutionStats]] | None = None,
        stats: ExecutionStats | None = None,
    ) -> None:
        if (pairs is None) == (fetch is None):
            raise ValueError("provide exactly one of pairs= or fetch=")
        self.query = query
        self.engine = engine
        self._fetch = fetch
        self._bitmap: PairBitmap | None = None
        if isinstance(pairs, PairBitmap):
            self._bitmap = pairs
            self._pairs: frozenset | None = None
        else:
            self._pairs = None if pairs is None else frozenset(pairs)
        self._stats = stats if stats is not None else (
            ExecutionStats() if pairs is not None else None
        )

    # -- materialisation -------------------------------------------------
    @property
    def is_materialised(self) -> bool:
        """True once the engine has actually run (lazy sets start False)."""
        return self._pairs is not None or self._bitmap is not None

    def _materialise(self) -> frozenset:
        if self._pairs is None:
            if self._bitmap is None:
                pairs, self._stats = self._fetch()
                self._fetch = None
                if isinstance(pairs, PairBitmap):
                    self._bitmap = pairs
                else:
                    self._pairs = frozenset(pairs)
                    return self._pairs
            # The one decode of the id-space pipeline: tuples first exist
            # here, built straight into the frozenset.
            started = time.perf_counter()
            self._pairs = frozenset(self._bitmap)
            elapsed = time.perf_counter() - started
            _phase_seconds.inc(elapsed, phase="materialise")
            self._stats = replace(
                self._stats,
                total_time=self._stats.total_time + elapsed,
                phase_times={**self._stats.phase_times, "materialise": elapsed},
            )
        return self._pairs

    # -- set-like surface ------------------------------------------------
    @property
    def pairs(self) -> frozenset:
        """The ``(start, end)`` pairs (evaluates the query if deferred)."""
        return self._materialise()

    def sorted_pairs(self) -> list[Pair]:
        """Pairs in deterministic (string) order -- what the CLI prints."""
        return sorted(self._materialise(), key=_pair_sort_key)

    def ends_of(self, vertex: object) -> tuple:
        """The ends paired with start ``vertex`` -- one row off the
        bitmap when the engine produced one, no other tuple built."""
        if self._bitmap is not None:
            return self._bitmap.ends_of(vertex)
        return tuple(end for start, end in self.pairs if start == vertex)

    def starts(self) -> list:
        """The vertices that start at least one pair."""
        if self._bitmap is not None:
            return self._bitmap.starts()
        return list({start for start, _end in self.pairs})

    def __iter__(self) -> Iterator[Pair]:
        return iter(self.sorted_pairs())

    def __len__(self) -> int:
        if self._pairs is None and self._bitmap is not None:
            return self._bitmap.count()
        return len(self._materialise())

    def __contains__(self, pair: object) -> bool:
        if self._pairs is None and self._bitmap is not None:
            return (
                isinstance(pair, tuple)
                and len(pair) == 2
                and self._bitmap.contains(pair[0], pair[1])
            )
        return pair in self._materialise()

    def __bool__(self) -> bool:
        if self._pairs is None and self._bitmap is not None:
            return bool(self._bitmap)
        return bool(self._materialise())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ResultSet):
            return self.pairs == other.pairs
        if isinstance(other, PairBitmap):
            return self.pairs == frozenset(other.pairs)
        if isinstance(other, (set, frozenset)):
            return self.pairs == frozenset(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.pairs)

    def __repr__(self) -> str:
        if not self.is_materialised:
            return f"ResultSet(query={self.query!r}, engine={self.engine!r}, deferred)"
        return (
            f"ResultSet(query={self.query!r}, engine={self.engine!r}, "
            f"pairs={len(self)})"
        )

    # -- statistics ------------------------------------------------------
    @property
    def count(self) -> int:
        """Number of result pairs."""
        return len(self)

    @property
    def stats(self) -> ExecutionStats:
        """Execution statistics (evaluates the query if deferred)."""
        self._materialise()
        return self._stats

    @property
    def total_time(self) -> float:
        """Wall-clock seconds this query took inside the engine."""
        return self.stats.total_time

    @property
    def phase_times(self) -> dict[str, float]:
        """Per-phase seconds attributed to this query (copy)."""
        return dict(self.stats.phase_times)

    @property
    def shared_pairs(self) -> int:
        """Shared-structure pairs held by the engine after this query."""
        return self.stats.shared_pairs

    # -- renderings ------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-ready dict: query, engine, count, pairs, timings, sharing."""
        stats = self.stats
        return {
            "query": self.query,
            "engine": self.engine,
            "count": len(self),
            "pairs": [list(pair) for pair in self.sorted_pairs()],
            "timings": {
                "total": stats.total_time,
                "phases": dict(stats.phase_times),
            },
            "shared_pairs": stats.shared_pairs,
        }

    def to_json(self, indent: int | None = None) -> str:
        """The :meth:`to_dict` rendering serialised to a JSON string."""
        return json.dumps(self.to_dict(), indent=indent, default=str)

    def to_dot(self, name: str = "Results") -> str:
        """Graphviz DOT digraph with one edge per result pair."""

        def quote(value: object) -> str:
            escaped = str(value).replace("\\", "\\\\").replace('"', '\\"')
            return f'"{escaped}"'

        lines = [f"digraph {quote(name)} {{", "  rankdir=LR;"]
        for source, target in self.sorted_pairs():
            lines.append(f"  {quote(source)} -> {quote(target)};")
        lines.append("}")
        return "\n".join(lines)
