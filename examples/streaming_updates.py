"""Streaming edge updates through the GraphDB session facade.

The paper's pipeline is batch: any change to the graph invalidates the
shared RTC.  The library's streaming extension keeps it alive instead:
``db.watch(body)`` pins the body's cached RTC -- the very object queries
on the body join against -- and returns a handle
(:class:`repro.core.incremental.IncrementalRTC`), and ``db.update(...)``
repairs that RTC in place: only the rows of ``G_R`` an edge can have
changed are recomputed, for insertions and removals alike, and ``R_G``
is re-evaluated whole only when that would be cheaper.

This example simulates a growing follower network: edges stream in
through ``db.update``, and after every batch the application asks
reachability questions through ``follows+`` that are answered from the
maintained RTC.  At the end, the maintained state is checked against a
from-scratch batch evaluation, a few edges are *removed* (repaired the
same way), and the maintenance counters are printed.

The second part replays the same pattern *through a live server*
(:mod:`repro.server`): a producer client streams edge updates over TCP
while a separate consumer client watches the closure body and asks
``reaches``/``query`` questions -- two connections, one shared session,
the same repair underneath.

Run:  python examples/streaming_updates.py
"""

import random
import time

from repro import GraphDB, LabeledMultigraph
from repro.core import compute_rtc
from repro.rpq import eval_rpq
from repro.server import Client, ServerThread

NUM_PEOPLE = 150
NUM_STREAMED_EDGES = 600
BATCH = 100


def main() -> None:
    rng = random.Random(99)
    graph = LabeledMultigraph()
    people = [f"user{i}" for i in range(NUM_PEOPLE)]
    for person in people:
        graph.add_vertex(person)

    db = GraphDB.open(graph)
    incremental = db.watch("follows")
    print(f"streaming {NUM_STREAMED_EDGES} 'follows' edges into a "
          f"{NUM_PEOPLE}-account network...\n")

    streamed = 0
    while streamed < NUM_STREAMED_EDGES:
        follower = people[rng.randrange(NUM_PEOPLE)]
        followee = people[min(rng.randrange(NUM_PEOPLE), rng.randrange(NUM_PEOPLE))]
        if follower == followee or graph.has_edge(follower, "follows", followee):
            continue
        db.update(add=[(follower, "follows", followee)])
        streamed += 1
        if streamed % BATCH == 0:
            snapshot = incremental.snapshot()
            reachable_of_user0 = sum(
                1 for _ in snapshot.ends_from("user0")
            )
            print(f"after {streamed:4d} edges: "
                  f"|V_R|={snapshot.num_gr_vertices:3d} "
                  f"SCCs={snapshot.num_sccs:3d} "
                  f"RTC pairs={snapshot.num_pairs:5d} "
                  f"user0 reaches {reachable_of_user0:3d} accounts")

    print(f"\nmaintenance profile: {incremental.incremental_updates} "
          f"row repairs, {incremental.full_rebuilds} whole re-evaluations")

    # Validate against the batch pipeline.
    started = time.perf_counter()
    batch_pairs = compute_rtc(eval_rpq(graph, "follows")).expand()
    batch_time = time.perf_counter() - started
    assert incremental.plus_pairs() == batch_pairs
    print(f"state equals a from-scratch batch computation "
          f"({len(batch_pairs)} closure pairs; batch recompute took "
          f"{batch_time * 1000:.1f}ms -- the incremental path amortises "
          f"this across the stream)")

    # Removals are repaired row by row too.
    removable = list(graph.edges())[:3]
    db.update(remove=removable)
    assert incremental.plus_pairs() == compute_rtc(
        eval_rpq(graph, "follows")
    ).expand()
    print(f"after removing {len(removable)} edges: still consistent "
          f"({incremental.incremental_updates} row repairs, "
          f"{incremental.full_rebuilds} whole re-evaluations total)")

    # The maintained RTC answers queries instantly; ordinary RPQs keep
    # flowing through the same session.
    sample = people[:5]
    for source in sample:
        reachable = incremental.reaches(source, "user0")
        print(f"  {source} -follows+-> user0: {reachable}")
    result = db.execute("follows+")
    print(f"db.execute('follows+') after the stream: {len(result)} pairs")

    live_server_demo()


def live_server_demo() -> None:
    """The same streaming pattern over TCP: a writer and a watcher client."""
    print("\n--- live server: update + query from two clients ---")
    rng = random.Random(7)
    people = [f"acct{i}" for i in range(30)]
    graph = LabeledMultigraph()
    for person in people:
        graph.add_vertex(person)

    db = GraphDB.open(graph)
    with ServerThread(db) as handle:
        host, port = handle.address
        print(f"server listening on {host}:{port}")
        with Client(host, port) as producer, Client(host, port) as watcher:
            # The watcher pins the body's RTC server-side.
            watcher.watch("follows")
            streamed = 0
            while streamed < 120:
                follower, followee = rng.sample(people, 2)
                if graph.has_edge(follower, "follows", followee):
                    continue
                producer.update(add=[(follower, "follows", followee)])
                streamed += 1
                if streamed % 40 == 0:
                    reaches = watcher.reaches("follows", people[0], people[1])
                    count = watcher.query("follows+", pairs=False).count
                    print(
                        f"after {streamed:3d} streamed edges: "
                        f"{people[0]} -follows+-> {people[1]}: {reaches}; "
                        f"follows+ has {count} pairs"
                    )
            stats = watcher.stats()
            print(
                f"server served {stats['scheduler']['completed']} queries and "
                f"{stats['scheduler']['updates']} updates over "
                f"{stats['server']['connections']} connections"
            )
    # The served session state survives the server: verify against batch.
    assert db.watchers["follows"].plus_pairs() == compute_rtc(
        eval_rpq(graph, "follows")
    ).expand()
    print("served state equals a from-scratch batch computation")


if __name__ == "__main__":
    main()
