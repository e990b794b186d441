"""Shared-data caches keyed by (sub-)query identity.

Both sharing engines keep a cache of "the expensive thing computed for a
closure body ``R``":

* :class:`RTCCache` for RTCSharing -- stores
  :class:`~repro.core.rtc.ReducedTransitiveClosure` objects;
* :class:`ClosureCache` for FullSharing -- stores the materialised
  ``R+_G`` as a start-vertex index ``v -> frozenset(ends)``.

Keys are computed by a pluggable canonicaliser:

* ``"syntactic"`` -- the normalised ``to_string`` of the AST.  Cheap;
  shares between textually equal sub-queries (the paper's setting: the
  workload reuses the same ``R`` strings).
* ``"semantic"``  -- the minimal-DFA :func:`~repro.regex.dfa.canonical_key`.
  Shares between *language-equal* bodies such as ``a.b|a.c`` and
  ``a.(b|c)`` -- an extension beyond the paper, costing one
  determinise+minimise per distinct body.

Hit/miss statistics feed the Experiment-2 analysis (amortisation of
``Shared_Data`` across RPQs).

Concurrency contract
--------------------
Caches are read by every worker thread of :mod:`repro.server` (all of
them evaluating on one engine), so every public operation (``peek`` /
``store`` / ``discard`` / ``get_or_compute`` / ``clear`` / ``items`` /
``total_shared_pairs`` / ``len`` / ``in``) is individually atomic: an
internal :class:`threading.RLock` serialises them, and the hit/miss
statistics are updated under the same lock.

Engines populate the cache through :meth:`SharedDataCache.get_or_compute`,
which holds a per-key in-flight latch: concurrent misses on one key
compute the value **once** (one miss recorded), with the other threads
blocking on the latch and then taking a hit.  Cached values are
treated as immutable by all engines.

Updates: repair or drop
-----------------------
``R_G``, ``G_R`` and hence the shared data of a body ``R`` depend only on
the edges whose label occurs in ``R`` -- plus, when ``R`` is nullable,
on the vertex set (``R_G`` then holds the identity pair of every
vertex).  :func:`update_touches` is the one place that rule is written
down, and an update applies it in one of two ways:

* an :class:`RTCCache` is **repaired** (:mod:`repro.core.incremental`):
  a touched entry has the rows of ``G_R`` the update can have changed
  recomputed and is replaced under its key by a new RTC when a row
  changed -- or kept as the very same object when none did;
* a :class:`ClosureCache` is **dropped** from
  (:meth:`SharedDataCache.invalidate`): after ``invalidate(labels,
  vertex_added)`` no entry remains whose body's alphabet meets
  ``labels``, nor -- when ``vertex_added`` -- any entry whose body is
  nullable.

Either way every entry the rule does not name is still the same object,
with every reach row and view it derived.  An entry whose body
the cache cannot name (stored by key alone under a non-textual key, e.g.
a ``semantic``-mode reload of a store that kept no body text) cannot be
repaired and is dropped by every update.  ``clear`` drops everything --
the path of an update batch that fails part-way.

Repair is **copy-on-write**: cached values are never mutated, a
repaired RTC is a new object published with one :meth:`store`, so a
reader still holding the old object keeps a consistent snapshot of the
pre-update graph (and the benign-race rule below keeps holding).  Both
repair and drop touch only *stored* entries: a compute already in flight
stores its (pre-update) value afterwards, so callers that mutate the
graph must still drain evaluations first -- exactly what
:class:`~repro.db.GraphDB`'s session lock and the server's exclusive
drain-then-apply updates guarantee.

One exception, and its rule: a cached
:class:`~repro.core.rtc.ReducedTransitiveClosure` carries derived
values -- the per-SCC reach rows the bit-parallel join reads
(:meth:`~repro.core.rtc.ReducedTransitiveClosure.reach`), its
vertex-keyed views and its rebase onto a foreign interner -- that are
filled in lazily and **without a lock** by whichever worker needs them
first.  That race is benign by construction and must stay so: every
derived value is a pure function of the immutable RTC and the graph's
append-only interner, each publication is a single reference or
dict-item store, and a reader either sees a finished value or computes
an equal one itself.  Two workers may therefore do the same small piece
of work once each; neither can observe a partial or different result.
Anything derived that does not meet those three conditions belongs
under the cache lock instead.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Generic, TypeVar

from repro.core.rtc import ReducedTransitiveClosure
from repro.errors import ReproError
from repro.regex.ast import RegexNode, iter_labels
from repro.regex.dfa import canonical_key
from repro.regex.parser import parse
from repro.regex.simplify import is_nullable_ast

__all__ = [
    "CacheStats",
    "SharedDataCache",
    "RTCCache",
    "ClosureCache",
    "body_footprint",
    "make_key_function",
    "update_touches",
]

Value = TypeVar("Value")


def _syntactic_key(node: RegexNode) -> str:
    return node.to_string()


def make_key_function(mode: str):
    """Return the canonicaliser for ``mode`` (``syntactic``/``semantic``)."""
    if mode == "syntactic":
        return _syntactic_key
    if mode == "semantic":
        return canonical_key
    raise ValueError(f"unknown cache mode {mode!r}; use 'syntactic' or 'semantic'")


def body_footprint(body: RegexNode) -> tuple[frozenset[str], bool]:
    """``(alphabet, nullable)`` of a closure body -- all an update can hit.

    The alphabet is that of the *whole* body, nested closures included:
    the shared data of ``(a.(b)+)+`` moves with ``a`` and with ``b``.
    """
    return frozenset(iter_labels(body)), is_nullable_ast(body)


def update_touches(
    alphabet: frozenset[str], nullable: bool, labels, vertex_added: bool
) -> bool:
    """Can an update change the shared data of a body with this footprint?

    ``labels`` are the labels of the edges the update applied (added or
    removed), ``vertex_added`` whether it created a vertex.  Removal
    never deletes a vertex, so only insertions set it.
    """
    return (nullable and vertex_added) or not alphabet.isdisjoint(labels)


@dataclass
class CacheStats:
    """Hit/miss/entry statistics of one shared-data cache."""

    hits: int = 0
    misses: int = 0
    entries: int = 0
    #: update-repair outcome -> count (:mod:`repro.core.incremental`)
    repairs: dict[str, int] = field(default_factory=dict)

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


@dataclass
class SharedDataCache(Generic[Value]):
    """A keyed cache with stats; the common machinery of both caches.

    Thread-safe at the granularity of individual operations (see the
    module docstring for the full concurrency contract); safe to share
    between engines running on different threads.
    """

    mode: str = "syntactic"
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        self._key_function = make_key_function(self.mode)
        self._entries: dict[str, Value] = {}
        # key -> the closure body it stands for, noted on the miss path
        # (never on a hit) and read only by invalidate().
        self._bodies: dict[str, RegexNode] = {}
        self._lock = threading.RLock()
        # Per-key in-flight latches for get_or_compute: key -> (Event set
        # when the owning thread finished (or failed) computing the value,
        # id of the owning thread -- for re-entrancy detection).
        self._inflight: dict[str, tuple[threading.Event, int]] = {}

    def key_for(self, node: RegexNode) -> str:
        """The cache key of a closure body."""
        return self._key_function(node)

    def get_or_compute(
        self, node: RegexNode, factory, key: str | None = None
    ) -> tuple[str, Value]:
        """Return ``(key, value)``, computing the value at most once per key.

        ``key`` is ``node``'s key when the caller already holds it (a
        plan keeps it per body); it must equal :meth:`key_for`.

        On a miss the calling thread becomes the key's *owner*: it runs
        ``factory()`` (outside the lock) and publishes the result; any
        other thread missing on the same key meanwhile blocks on the
        key's latch and then returns the published value as a hit.  So a
        burst of concurrent first-contact queries on one closure body
        records exactly one miss and computes the shared data once.

        If the owner's ``factory`` raises, the error propagates to the
        owner only; waiters wake and race to become the next owner (each
        actual computation attempt records one miss).

        Re-entrancy: a ``factory`` may call back into ``get_or_compute``
        with the *same* key on the same thread -- in ``semantic`` cache
        mode a nested closure body can be language-equal to its
        enclosing body, so their canonical keys collide.  The re-entrant
        call must not wait on its own latch; it computes directly and
        the enclosing computation later overwrites the entry with an
        equal value (single-threaded by construction, so harmless).
        """
        if key is None:
            key = self.key_for(node)
        current = threading.get_ident()
        while True:
            with self._lock:
                value = self._entries.get(key)
                if value is not None:
                    self.stats.hits += 1
                    return key, value
                entry = self._inflight.get(key)
                if entry is None:
                    latch = threading.Event()
                    self._inflight[key] = (latch, current)
                    self.stats.misses += 1
                    self._bodies[key] = node
                    owner = True
                    break
                latch, owner_thread = entry
                if owner_thread == current:
                    # Re-entrant same-key call from our own factory: the
                    # latch is ours, so compute directly instead of
                    # waiting on it forever.
                    self.stats.misses += 1
                    owner = False
                    break
            latch.wait()
        if not owner:
            value = factory()
            with self._lock:
                self._entries[key] = value
                self.stats.entries = len(self._entries)
            return key, value
        try:
            value = factory()
        except BaseException:
            with self._lock:
                self._inflight.pop(key, None)
            latch.set()
            raise
        with self._lock:
            self._entries[key] = value
            self.stats.entries = len(self._entries)
            self._inflight.pop(key, None)
        latch.set()
        return key, value

    def peek(self, key: str) -> Value | None:
        """The entry under ``key``, or ``None``; records no hit or miss."""
        with self._lock:
            return self._entries.get(key)

    def items(self) -> list[tuple[str, Value]]:
        """A point-in-time copy of the ``(key, value)`` pairs."""
        with self._lock:
            return list(self._entries.items())

    def store(self, key: str, value: Value, body: RegexNode | None = None) -> None:
        """Insert an entry (last writer wins), naming its body when given."""
        with self._lock:
            self._entries[key] = value
            if body is not None:
                self._bodies[key] = body
            self.stats.entries = len(self._entries)

    def discard(self, key: str) -> None:
        """Drop one entry, if present."""
        with self._lock:
            self._entries.pop(key, None)
            self._bodies.pop(key, None)
            self.stats.entries = len(self._entries)

    def clear(self) -> None:
        """Drop all entries (stats are kept)."""
        with self._lock:
            self._entries.clear()
            self._bodies.clear()
            self.stats.entries = 0

    def invalidate(self, labels, vertex_added: bool = False) -> int:
        """Drop the entries an applied update can have changed.

        ``labels`` are the labels of the edges added or removed and
        ``vertex_added`` says whether an insertion created a vertex; see
        the module docstring for the guarantee.  Every surviving entry
        is the same object as before.  Returns the number dropped.
        """
        labels = frozenset(labels)
        with self._lock:
            dropped = [
                key
                for key in self._entries
                if self._touched(key, labels, vertex_added)
            ]
            for key in dropped:
                del self._entries[key]
                self._bodies.pop(key, None)
            self.stats.entries = len(self._entries)
        return len(dropped)

    def _touched(self, key: str, labels: frozenset, vertex_added: bool) -> bool:
        """The rule for one entry; an unnameable body counts as touched."""
        body = self.body_of(key)
        if body is None:
            return True
        return update_touches(*body_footprint(body), labels, vertex_added)

    def body_of(self, key: str) -> RegexNode | None:
        """The closure body ``key`` stands for, or ``None`` if unnameable.

        Noted on the miss path or by :meth:`store`;
        for an entry stored by key alone, a syntactic key is read back as
        the body text and anything else cannot be named.
        """
        with self._lock:
            body = self._bodies.get(key)
            if body is not None or self.mode != "syntactic":
                return body
            try:
                body = parse(key)
            except ReproError:
                return None
            self._bodies[key] = body
            return body

    def snapshot_stats(self) -> CacheStats:
        """A point-in-time copy of the stats, taken under the lock."""
        with self._lock:
            return CacheStats(
                hits=self.stats.hits,
                misses=self.stats.misses,
                entries=self.stats.entries,
                repairs=dict(self.stats.repairs),
            )

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, node: RegexNode) -> bool:
        key = self.key_for(node)
        with self._lock:
            return key in self._entries


class RTCCache(SharedDataCache[ReducedTransitiveClosure]):
    """RTCSharing's cache: closure body -> reduced transitive closure.

    The shared-data *size* of an entry is ``rtc.num_pairs`` -- the number
    of SCC pairs in ``TC(Ḡ_R)`` (Fig. 12's RTC series).  Entries are kept
    exact across graph updates by :class:`repro.core.incremental.RTCRepair`;
    ``automata`` is that repair's per-key state (the body's footprint and
    automata, built on the first update that meets the key; a key always
    names the same language, so it never goes stale).
    """

    def __post_init__(self) -> None:
        super().__post_init__()
        self.automata: dict[str, object] = {}

    def record_repairs(self, outcomes) -> None:
        """Count the outcomes of one repair pass into ``stats.repairs``."""
        with self._lock:
            repairs = self.stats.repairs
            for outcome in outcomes:
                repairs[outcome] = repairs.get(outcome, 0) + 1

    def total_shared_pairs(self) -> int:
        """Sum of ``num_pairs`` over all cached RTCs."""
        with self._lock:
            return sum(rtc.num_pairs for rtc in self._entries.values())


class ClosureCache(SharedDataCache[dict]):
    """FullSharing's cache: closure body -> ``R+_G`` indexed by start vertex.

    Entries map ``v -> frozenset(ends)``; the shared-data size of an entry
    is the pair count ``sum(len(ends))`` (Fig. 12's Full series).
    """

    @staticmethod
    def entry_size(entry: dict) -> int:
        """Number of vertex pairs in one materialised closure."""
        return sum(len(ends) for ends in entry.values())

    def total_shared_pairs(self) -> int:
        """Sum of pair counts over all cached closures."""
        with self._lock:
            return sum(self.entry_size(entry) for entry in self._entries.values())
