"""``EvalBatchUnit`` -- Algorithm 2, the optimised batch-unit evaluation.

Evaluates ``Pre . R{+,*} . Post`` given ``Pre_G`` (pre-evaluated), the RTC
of ``R`` and the (not pre-evaluated) ``Post``, following the join pipeline
of Eq. (6)-(10) and eliminating the four kinds of wasted work the paper
defines in Section IV-B:

* **useless-1**  -- closure expansion is *driven by* ``Pre_G``: paths of
  ``R+`` not connected from a ``Pre_G`` end vertex are never touched
  (line 4: the loop runs over ``Pre_G`` only);
* **redundant-1** -- dedup of Eq. (7): two ``Pre_G`` pairs with the same
  start vertex ending in the *same* SCC trigger one expansion (lines 6-7);
* **redundant-2** -- dedup of Eq. (8): reachable SCCs are unioned per
  start vertex before member expansion (lines 9-10);
* **useless-2**  -- Eq. (9) needs no duplicate checks because distinct
  SCCs are disjoint (line 12 inserts without checking).

Each elimination can be disabled through :class:`BatchUnitOptions` for the
ablation benchmarks; all variants return identical results (property-
tested) and differ only in the operation counts they report.

``Type = '*'`` seeds the Eq. (9) result with ``Pre_G`` itself (zero
closure iterations), exactly like lines 2-3 of Algorithm 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable

from repro.bitset.pairbitmap import PairBitmap
from repro.core.rtc import ReducedTransitiveClosure
from repro.graph.multigraph import LabeledMultigraph
from repro.rpq.counters import OpCounters
from repro.rpq.restricted import RestrictedEvaluator

__all__ = [
    "BatchUnitOptions",
    "eval_batch_unit",
    "join_pre_with_rtc",
    "join_pre_with_rtc_bits",
    "apply_post",
    "apply_post_bits",
]


@dataclass(frozen=True)
class BatchUnitOptions:
    """Ablation switches for the four optimisations of Algorithm 2.

    All default to True (the paper's RTCSharing).  Switching one off never
    changes results -- only the amount of work, visible via
    :class:`~repro.rpq.counters.OpCounters`.
    """

    eliminate_redundant1: bool = True
    eliminate_redundant2: bool = True
    eliminate_useless2: bool = True


DEFAULT_OPTIONS = BatchUnitOptions()


def join_pre_with_rtc(
    pre_pairs: Iterable[tuple[object, object]],
    rtc: ReducedTransitiveClosure,
    seed: Iterable[tuple[object, object]] = (),
    options: BatchUnitOptions = DEFAULT_OPTIONS,
    counters: OpCounters | None = None,
) -> set[tuple[object, object]]:
    """Lines 1-12 of Algorithm 2: ``(Pre . R+)_G`` via the RTC join.

    ``seed`` pre-populates the result (``Pre_G`` itself for ``R*``).
    Useless-1 elimination is inherent here: only ``pre_pairs`` drive the
    expansion, and a ``Pre_G`` end vertex outside ``V_R`` contributes
    nothing (no closure path can start there).
    """
    scc_of = rtc.condensation.scc_of
    members = rtc.condensation.members
    closure = rtc.closure

    res_eq7: set[tuple[object, int]] = set()
    res_eq8: set[tuple[object, int]] = set()
    res_eq9: set[tuple[object, object]] = set(seed)

    for vi, vj in pre_pairs:
        # Eq. (7): find the SCC containing the Pre end vertex.
        sj = scc_of.get(vj)
        if sj is None:
            # vj is not in V_R: no path satisfying R starts at it.
            continue
        if options.eliminate_redundant1:
            if counters is not None:
                counters.dup_checks += 1
            if (vi, sj) in res_eq7:
                if counters is not None:
                    counters.dup_hits += 1
                continue  # redundant-1 operations eliminated
            res_eq7.add((vi, sj))
        if counters is not None:
            counters.closure_walk_starts += 1
        # Eq. (8): SCCs reachable from s_j in TC(Ḡ_R).
        for sk in closure[sj]:
            if options.eliminate_redundant2:
                if counters is not None:
                    counters.dup_checks += 1
                if (vi, sk) in res_eq8:
                    if counters is not None:
                        counters.dup_hits += 1
                    continue  # redundant-2 operations eliminated
                res_eq8.add((vi, sk))
            # Eq. (9): expand the SCC into its member vertices.
            if options.eliminate_useless2:
                # Disjointness of SCCs makes duplicate checks useless;
                # insert without counting membership tests.
                for vk in members[sk]:
                    res_eq9.add((vi, vk))
                if counters is not None:
                    counters.cartesian_outputs += len(members[sk])
            else:
                for vk in members[sk]:
                    if counters is not None:
                        counters.dup_checks += 1
                        counters.cartesian_outputs += 1
                        if (vi, vk) in res_eq9:
                            counters.dup_hits += 1
                    res_eq9.add((vi, vk))
    return res_eq9


def join_pre_with_rtc_bits(
    pre: PairBitmap,
    rtc: ReducedTransitiveClosure,
) -> PairBitmap:
    """Bit-parallel Eq. (7)-(9): ``(Pre . R+)_G`` as row ORs.

    Identical relation to :func:`join_pre_with_rtc`, but ``Pre_G``
    arrives as a bitmap over the graph's interner and is joined row by
    row against the RTC's own id-space fields and per-SCC reach rows
    (an RTC over another interner is ``rebased`` onto it once).  One
    source SCC ``s_j`` contributes one row-OR, after which every other
    ``Pre_G`` end inside ``s_j`` or inside anything ``s_j`` reaches is
    dropped unvisited -- its closure row is a subset of the one just
    added.  So all four of Algorithm 2's waste eliminations are
    structural, which is why this variant takes no
    :class:`BatchUnitOptions` or counters -- the instrumented ablations
    stay on the set join.  The ``R*`` seed is not mixed in here:
    :func:`apply_post_bits` takes it separately.
    """
    rtc = rtc.rebased(pre.require_interner())
    scc_of_id = rtc.scc_of_id
    members = rtc.member_masks
    reach = rtc.reach
    in_vr = rtc.vertex_mask
    rows: dict[int, int] = {}
    for start_id, ends in pre.rows.items():
        # An end outside V_R starts no path satisfying R.
        ends &= in_vr
        joined = 0
        while ends:
            scc_id = scc_of_id[(ends & -ends).bit_length() - 1]
            row = reach(scc_id)
            joined |= row
            ends &= ~(members[scc_id] | row)
        if joined:
            rows[start_id] = joined
    return PairBitmap(rows, interner=pre.interner)


def apply_post(
    graph: LabeledMultigraph,
    pairs: Iterable[tuple[object, object]],
    post: RestrictedEvaluator | None,
    counters: OpCounters | None = None,
) -> set[tuple[object, object]]:
    """Lines 13-16 of Algorithm 2: join with ``Post_G`` via restricted eval.

    ``post`` is None (or epsilon) when the batch unit has no postfix, in
    which case the input pairs are the result.  End-vertex expansions are
    memoised per distinct middle vertex: ``EvalRestrictedRPQ(Post, v_k)``
    is evaluated once per ``v_k``, which both engines (Full and RTC) share
    so that the paper's "Remainder" phase is method-independent.
    """
    if post is None or post.is_epsilon:
        return set(pairs)
    ends_cache: dict[object, set] = {}
    result: set[tuple[object, object]] = set()
    for vi, vk in pairs:
        ends = ends_cache.get(vk)
        if ends is None:
            if counters is not None:
                counters.traversal_starts += 1
            ends = post.ends_from(graph, vk, counters)
            ends_cache[vk] = ends
        for vl in ends:
            if counters is not None:
                counters.dup_checks += 1
            result.add((vi, vl))
    return result


def apply_post_bits(
    graph: LabeledMultigraph,
    joined: PairBitmap,
    post: RestrictedEvaluator | None,
    seed: PairBitmap | None = None,
) -> PairBitmap:
    """Bit-parallel lines 13-16: ``Post`` applied to whole closure rows.

    Identical relation to :func:`apply_post`, but ``Post`` is evaluated
    from a *row* at a time (:meth:`RestrictedEvaluator.ends_mask`) and
    once per distinct row: every start whose ends sit behind the same
    SCCs joined the same closure row and shares one image.  ``seed`` is
    ``Pre_G`` for ``R*`` (the zero-iteration answers, lines 2-3): its
    rows differ per start where closure rows mostly do not, so it goes
    through ``Post`` on its own and is unioned in, instead of making
    every joined row distinct.  With no postfix and no seed the input
    bitmap passes through untouched (no materialisation at all).
    Uncounted like :func:`join_pre_with_rtc_bits`.
    """
    if post is None or post.is_epsilon:
        if seed is None:
            return joined
        result = PairBitmap(dict(joined.rows), interner=joined.interner)
        result |= seed
        return result
    images: dict[int, int] = {}
    rows: dict[int, int] = {}
    for bitmap in (joined,) if seed is None else (joined, seed):
        for start_id, row in bitmap.rows.items():
            image = images.get(row)
            if image is None:
                image = images[row] = post.ends_mask(graph, row)
            if image:
                rows[start_id] = rows.get(start_id, 0) | image
    return PairBitmap(rows, interner=joined.interner)


def eval_batch_unit(
    graph: LabeledMultigraph,
    pre_pairs: set[tuple[object, object]],
    rtc: ReducedTransitiveClosure,
    closure_type: str,
    post: RestrictedEvaluator | None,
    options: BatchUnitOptions = DEFAULT_OPTIONS,
    counters: OpCounters | None = None,
) -> set[tuple[object, object]]:
    """Algorithm 2 end to end: ``(Pre . R{+,*} . Post)_G``.

    Parameters mirror the paper's signature ``EvalBatchUnit(Pre_G, R̄+_G,
    SCC, Type, Post)``; the RTC object carries both ``R̄+_G`` and ``SCC``.
    Without ``counters`` the join runs on bitmaps (which ignore
    ``options``: their eliminations are structural); with them, the
    counted set join the ablations measure.
    """
    if closure_type not in ("+", "*"):
        raise ValueError(f"closure type must be '+' or '*', got {closure_type!r}")
    if counters is None:
        pre = PairBitmap.from_pairs(pre_pairs, graph.interner)
        joined = join_pre_with_rtc_bits(pre, rtc)
        seed = pre if closure_type == "*" else None
        return apply_post_bits(graph, joined, post, seed).to_pairs()
    seed = pre_pairs if closure_type == "*" else ()
    res_eq9 = join_pre_with_rtc(
        pre_pairs, rtc, seed=seed, options=options, counters=counters
    )
    return apply_post(graph, res_eq9, post, counters)
