"""End-to-end tests: QueryServer + Client over a real TCP socket."""

import json
import os
import socket
import subprocess
import sys

import pytest

import repro
from repro.bitset import PairBitmap
from repro.cli import main
from repro.db import GraphDB
from repro.errors import (
    ProtocolError,
    ResultTooLargeError,
    RPQSyntaxError,
    ServerError,
)
from repro.graph.builders import labeled_cycle
from repro.graph.multigraph import LabeledMultigraph
from repro.obs import SlowQueryLog, get_registry
from repro.regex.parser import MAX_NESTING
from repro.server import Client, ServerConfig, ServerThread, protocol


@pytest.fixture
def served(fig1):
    """A live server over the Fig. 1 graph plus one connected client."""
    db = GraphDB.open(fig1)
    with ServerThread(db) as handle:
        with Client(*handle.address) as client:
            yield db, handle, client


class TestQueryVerb:
    def test_single_query_pairs(self, served):
        _, _, client = served
        result = client.query("d.(b.c)+.c")
        assert result.count == 2
        assert result.pairs == {(7, 3), (7, 5)}
        assert result.time >= 0.0

    def test_query_matches_local_session(self, served, fig1):
        _, _, client = served
        queries = ["a.(b.c)+", "(b.c)+.c", "b.c|a", "(a|d).(b.c)*"]
        remote = [r.pairs for r in client.query_many(queries)]
        local = [set(r) for r in GraphDB.open(fig1).execute_many(queries)]
        assert remote == local

    def test_counts_only(self, served):
        _, _, client = served
        result = client.query("b.c", pairs=False)
        assert result.count == 5
        assert result.pairs is None
        with pytest.raises(ServerError, match="pairs=False"):
            iter(result)

    def test_iteration_and_len(self, served):
        _, _, client = served
        result = client.query("d.(b.c)+.c")
        assert len(result) == 2
        assert list(result) == [(7, 3), (7, 5)]

    def test_syntax_error_raised_remotely(self, served):
        _, _, client = served
        with pytest.raises(RPQSyntaxError):
            client.query("a..b")

    def test_connection_survives_errors(self, served):
        _, _, client = served
        with pytest.raises(RPQSyntaxError):
            client.query("a..b")
        assert client.query("b.c").count == 5

    def test_empty_query_list_rejected(self, served):
        _, _, client = served
        with pytest.raises(ProtocolError):
            client.query_many([])


class TestPlanCache:
    def test_a_repeated_served_read_parses_and_walks_nothing(
        self, served, planning_calls
    ):
        db, _, client = served
        queries = ["d.(b.c)+.c|served_plan", "(b.c)+.c.served_plan?"]
        expected = [set(db.execute(query)) for query in queries]
        for _ in range(2):  # a plan is kept from a text's second sighting
            for result, pairs in zip(client.query_many(queries), expected):
                assert result.pairs == pairs
        warm = dict(planning_calls)
        for _ in range(3):
            for result, pairs in zip(client.query_many(queries), expected):
                assert result.pairs == pairs
        assert planning_calls == warm


class TestLineLimit:
    def test_oversized_answer_is_refused_by_the_sender(self, monkeypatch):
        db = GraphDB.open(labeled_cycle(30, "a"))  # (a)+ = 900 pairs
        with ServerThread(db) as handle, Client(*handle.address) as client:
            # Above every request line and the packed answer, below the
            # 900-pair list encoding.
            monkeypatch.setattr(protocol, "MAX_LINE_BYTES", 2000)
            with pytest.raises(ResultTooLargeError) as info:
                client.query_call(["a+", "a"], enc="list")
            assert info.value.code == "too_large"
            assert info.value.counts == [900, 30]
            # The stream is still framed: same client, same query.
            assert not client.broken
            assert client.query("a+", pairs=False).count == 900
            for enc in (None, "packed"):
                results, _ = client.query_call(["a+"], enc=enc)
                assert results[0].count == len(results[0].pairs) == 900
            assert client.query("a").pairs == {(i, (i + 1) % 30) for i in range(30)}

    @pytest.mark.parametrize("enc", [None, "list", "packed"])
    def test_too_large_is_decided_before_a_payload_is_built(
        self, monkeypatch, tmp_path, enc
    ):
        db = GraphDB.open(labeled_cycle(100, "a"))  # 100 rows x 25 hex digits
        log_path = tmp_path / "slow.jsonl"
        config = ServerConfig(slow_query_log=str(log_path), slow_query_threshold=0.0)
        with ServerThread(db, config) as handle, Client(*handle.address) as client:
            assert client.query("a+").count == 10_000
            monkeypatch.setattr(protocol, "MAX_LINE_BYTES", 2000)

            def refuse(*_args, **_kwargs):  # would surface as an "internal" error
                raise AssertionError("a payload was built")

            monkeypatch.setattr(protocol, "pairs_to_wire", refuse)
            dumped = []
            real_dumps = json.dumps
            monkeypatch.setattr(
                json, "dumps", lambda obj, **kw: dumped.append(obj) or real_dumps(obj, **kw)
            )
            with pytest.raises(ResultTooLargeError) as info:
                client.query_call(["a+", "a"], enc=enc)
            assert info.value.counts == [10_000, 100]
            # Only the request and the refusal ever went on the wire.
            assert [
                message.get("op", message.get("ok"))
                for message in dumped
                if "op" in message or "ok" in message
            ] == ["query", False]
            assert client.query("a+", pairs=False).count == 10_000
        # The refused read still closed its trace into the slow-query log.
        refused = [
            entry
            for entry in SlowQueryLog.read(str(log_path))
            if entry["queries"] == ["a+", "a"]
        ]
        assert len(refused) == 1
        assert "request" in {span["name"] for span in refused[0]["trace"]["spans"]}

    def test_a_sparse_answer_over_a_big_id_space_is_listed(self):
        # 6000 one-bit rows: ~4.5 MB of hex digits, 36 KB as 2-lists.
        db = GraphDB.open(labeled_cycle(6000, "a"))
        expected = {(i, (i + 1) % 6000) for i in range(6000)}
        with ServerThread(db) as handle, Client(*handle.address) as client:
            results, response = client.query_call(["a"])
            assert isinstance(response["results"][0]["pairs"], list)
            assert results[0].count == 6000 and results[0].pairs == expected
            assert results[0].ends_of(5999) == (0,)
            # Forced, the packed form is held to its own floor.
            with pytest.raises(ResultTooLargeError, match='"pairs": false') as info:
                client.query_call(["a"], enc="packed")
            assert info.value.counts == [6000]

    def test_backstop_still_catches_what_the_floor_lets_through(self, monkeypatch):
        db = GraphDB.open(LabeledMultigraph.from_edges(
            [("v" * 40 + str(i), "a", "w" * 40 + str(i)) for i in range(30)]
        ))
        with ServerThread(db) as handle, Client(*handle.address) as client:
            # 30 short rows pass the floor; the vertex table does not fit.
            monkeypatch.setattr(protocol, "MAX_LINE_BYTES", 2000)
            with pytest.raises(ResultTooLargeError) as info:
                client.query("a")
            assert info.value.counts == [30]
            assert client.query("a", pairs=False).count == 30


class TestOtherVerbs:
    def test_ping(self, served):
        _, _, client = served
        assert client.ping() == protocol.PROTOCOL_VERSION == 2

    def test_stats_document(self, served):
        _, _, client = served
        client.query_many(["a.(b.c)+", "d.(b.c)+.c"])
        stats = client.stats()
        assert stats["server"]["connections"] >= 1
        assert stats["session"]["engine"] == "rtc"
        scheduler = stats["scheduler"]
        assert scheduler["completed"] >= 2
        assert scheduler["qps"] > 0
        assert {"p50", "p95", "p99", "mean"} <= set(scheduler["latency"])
        assert scheduler["cache"]["hits"] + scheduler["cache"]["misses"] >= 2

    def test_stats_session_counts_served_reads(self, served):
        _, _, client = served
        queries = ["a.(b.c)+", "d.(b.c)+.c", "b.c"] * 2
        client.query_many(queries)
        session = client.stats()["session"]
        assert session["queries_evaluated"] >= len(queries)
        assert session["total_time"] > 0

    def test_update_visible_to_other_clients(self, served):
        db, handle, writer = served
        with Client(*handle.address) as reader:
            before = reader.query("(b.c)+").pairs
            response = writer.update(add=[(8, "b", 1)])
            assert response["added"] == 1
            after = reader.query("(b.c)+").pairs
        assert before != after
        assert after == set(GraphDB.open(db.graph).execute("(b.c)+"))

    def test_update_needs_edges(self, served):
        _, _, client = served
        with pytest.raises(ProtocolError, match="update"):
            client.update()

    def test_watch_and_reaches(self, served):
        _, _, client = served
        assert client.watch("b.c") == "b.c"
        assert client.reaches("b.c", 2, 6) is True
        assert client.reaches("b.c", 5, 2) is False
        client.update(add=[(5, "b", 0), (0, "c", 2)])
        assert client.reaches("b.c", 5, 2) is True


class TestRawProtocol:
    def send_raw(self, address, line: bytes) -> dict:
        with socket.create_connection(address, timeout=10) as sock:
            sock.sendall(line)
            data = b""
            while not data.endswith(b"\n"):
                chunk = sock.recv(65536)
                if not chunk:
                    break
                data += chunk
        return json.loads(data)

    def test_unknown_op(self, served):
        _, handle, _ = served
        response = self.send_raw(handle.address, b'{"op": "warp", "id": 9}\n')
        assert response["ok"] is False
        assert response["error"]["code"] == "bad_request"
        assert response["id"] == 9

    def test_invalid_json(self, served):
        _, handle, _ = served
        response = self.send_raw(handle.address, b"{nope\n")
        assert response["ok"] is False
        assert response["error"]["code"] == "bad_request"

    def test_query_shorthand(self, served):
        _, handle, _ = served
        response = self.send_raw(
            handle.address, b'{"op": "query", "query": "b.c", "pairs": false}\n'
        )
        assert response["ok"] is True
        assert response["results"][0]["count"] == 5

    def test_bad_timeout_type(self, served):
        _, handle, _ = served
        response = self.send_raw(
            handle.address,
            b'{"op": "query", "queries": ["b.c"], "timeout": "soon"}\n',
        )
        assert response["error"]["code"] == "bad_request"

    @pytest.mark.parametrize(
        "field",
        [
            b'"timeout": NaN',
            b'"timeout": Infinity',
            b'"timeout": -Infinity',
            b'"timeout": -1',
            b'"timeout": true',
            b'"pairs": "false"',
            b'"pairs": 0',
            b'"pairs": null',
        ],
    )
    def test_malformed_query_fields_are_bad_requests(self, served, field):
        """``json.loads`` takes NaN/Infinity and a bool is an int: a NaN
        deadline never expired, ``true`` meant 1 s, ``"false"`` shipped
        pairs.  Each is refused, and the connection stays usable."""
        _, handle, _ = served
        query = b'{"op": "query", "queries": ["b.c"], '
        with socket.create_connection(handle.address, timeout=10) as sock:
            stream = sock.makefile("rwb")
            stream.write(query + b'"id": 1, ' + field + b"}\n")
            stream.flush()
            refused = json.loads(stream.readline())
            stream.write(query + b'"id": 2, "timeout": 5}\n')
            stream.flush()
            after = json.loads(stream.readline())
        assert refused["ok"] is False and refused["id"] == 1
        assert refused["error"]["code"] == "bad_request"
        assert after["ok"] is True and after["results"][0]["count"] == 5

    @pytest.mark.parametrize("vertex", [b"[1, 2]", b'{"v": 1}', b"true", b"null", b"1.5"])
    def test_reaches_with_a_non_scalar_vertex_is_a_bad_request(self, served, vertex):
        """A vertex is a JSON string or integer; a list used to answer
        ``internal`` (unhashable).  Refused either side, connection kept."""
        _, handle, _ = served
        with socket.create_connection(handle.address, timeout=10) as sock:
            stream = sock.makefile("rwb")
            for ends in (b'"source": ' + vertex + b', "target": 6',
                         b'"source": 2, "target": ' + vertex):
                stream.write(b'{"op": "reaches", "id": 1, "body": "b.c", ' + ends + b"}\n")
                stream.flush()
                refused = json.loads(stream.readline())
                assert refused["ok"] is False and refused["id"] == 1
                assert refused["error"]["code"] == "bad_request"
            stream.write(b'{"op": "reaches", "id": 2, "body": "b.c", "source": 2, "target": 6}\n')
            stream.flush()
            after = json.loads(stream.readline())
        assert after["ok"] is True and after["reaches"] is True

    def test_a_query_nested_past_the_bound_is_a_syntax_error(self, served):
        """A 600-deep query used to overflow the parser's stack and answer
        ``internal``: it is ``syntax`` now, the connection stays usable,
        and a query exactly at the bound answers like the oracle."""
        db, handle, _ = served
        at_bound = "b" + "+" * MAX_NESTING
        texts = ("(" * 600 + "b" + ")" * 600, "b" + "+" * 1000, at_bound)
        with socket.create_connection(handle.address, timeout=10) as sock:
            stream = sock.makefile("rwb")
            responses = []
            for index, text in enumerate(texts):
                request = {"op": "query", "id": index, "queries": [text], "pairs": False}
                stream.write(json.dumps(request).encode() + b"\n")
                stream.flush()
                responses.append(json.loads(stream.readline()))
        for refused in responses[:2]:
            assert refused["ok"] is False
            assert refused["error"]["code"] == "syntax"
        expected = len(set(GraphDB.open(db.graph, engine="no").execute(at_bound)))
        assert responses[2]["ok"] is True
        assert responses[2]["results"][0]["count"] == expected

    def test_well_formed_query_fields_are_served(self, served):
        _, handle, _ = served
        fields = (b'"timeout": 0.5', b'"timeout": 3', b'"timeout": null', b'"pairs": false')
        for field in fields:
            response = self.send_raw(
                handle.address, b'{"op": "query", "queries": ["b.c"], ' + field + b"}\n"
            )
            assert response["ok"] is True, field


class TestClientLifecycle:
    def test_connect_parses_address(self, served):
        _, handle, _ = served
        host, port = handle.address
        with Client.connect(f"{host}:{port}") as client:
            assert client.ping() == protocol.PROTOCOL_VERSION == 2

    def test_connect_rejects_bad_address(self):
        with pytest.raises(ServerError, match="host:port"):
            Client.connect("nonsense")

    def test_connection_refused(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            free_port = probe.getsockname()[1]
        with pytest.raises(ServerError, match="cannot connect"):
            Client("127.0.0.1", free_port, connect_timeout=1.0)

    def test_closed_client_raises(self, served):
        _, handle, _ = served
        client = Client(*handle.address)
        client.close()
        with pytest.raises(ServerError, match="closed"):
            client.ping()


class TestCliIntegration:
    def test_query_connect_table(self, served, capsys):
        _, handle, _ = served
        host, port = handle.address
        code = main(["query", "--connect", f"{host}:{port}", "d.(b.c)+.c"])
        assert code == 0
        out = capsys.readouterr().out
        assert "d.(b.c)+.c" in out and "| 2" in out

    def test_query_connect_json(self, served, capsys):
        _, handle, _ = served
        host, port = handle.address
        code = main(
            ["query", "--connect", f"{host}:{port}", "d.(b.c)+.c", "--json"]
        )
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["results"][0]["count"] == 2
        assert [7, 3] in document["results"][0]["pairs"]

    def test_query_connect_refused(self, capsys):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            free_port = probe.getsockname()[1]
        code = main(["query", "--connect", f"127.0.0.1:{free_port}", "b.c"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_query_without_graph_or_connect(self, capsys):
        assert main(["query"]) == 2
        assert "error" in capsys.readouterr().err

    def test_serve_parser_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["serve", "g.txt"])
        assert args.port == 7687
        assert args.workers == 4
        assert args.queue_size == 256


class TestServerThreadLifecycle:
    def test_start_is_idempotent(self, fig1):
        handle = ServerThread(GraphDB.open(fig1))
        try:
            assert handle.start() is handle.start()
        finally:
            handle.stop()

    def test_stop_twice_is_safe(self, fig1):
        handle = ServerThread(GraphDB.open(fig1)).start()
        handle.stop()
        handle.stop()

    def test_stop_with_a_live_client_is_silent(self):
        """A handler cancelled while idle is a close, not a logged error."""
        script = (
            "from repro import GraphDB\n"
            "from repro.graph import paper_figure1_graph\n"
            "from repro.server import Client, ServerThread\n"
            "handle = ServerThread(GraphDB.open(paper_figure1_graph())).start()\n"
            "client = Client(*handle.address)\n"
            "assert client.query('d.(b.c)+').count == 3\n"
            "handle.stop()\n"
            "print('stopped')\n"
        )
        source_root = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=source_root)
        done = subprocess.run(
            [sys.executable, "-c", script],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0
        assert done.stdout == "stopped\n"
        assert done.stderr == ""

    def test_stop_with_a_request_in_flight(self):
        """stop() while a worker evaluates: the client gets its answer (or
        a ``closed`` error), every admitted job is accounted for, and
        nothing is logged."""
        script = (
            "import threading\n"
            "from repro import GraphDB\n"
            "from repro.core.engines import RTCSharingEngine\n"
            "from repro.errors import ServerError\n"
            "from repro.graph import paper_figure1_graph\n"
            "from repro.server import Client, ServerThread\n"
            "entered, release = threading.Event(), threading.Event()\n"
            "evaluate = RTCSharingEngine.evaluate\n"
            "def held(self, query):\n"
            "    entered.set()\n"
            "    assert release.wait(10)\n"
            "    return evaluate(self, query)\n"
            "RTCSharingEngine.evaluate = held\n"
            "handle = ServerThread(GraphDB.open(paper_figure1_graph())).start()\n"
            "scheduler = handle.server.scheduler\n"
            "client = Client(*handle.address)\n"
            "outcome = []\n"
            "def ask():\n"
            "    try:\n"
            "        outcome.append(client.query('d.(b.c)+').count)\n"
            "    except ServerError as error:\n"
            "        outcome.append(error.code)\n"
            "reader = threading.Thread(target=ask)\n"
            "reader.start()\n"
            "assert entered.wait(10)\n"
            "stopper = threading.Thread(target=handle.stop)\n"
            "stopper.start()\n"
            "stopper.join(0.2)\n"
            "release.set()\n"
            "reader.join(10)\n"
            "stopper.join(30)\n"
            "assert not reader.is_alive() and not stopper.is_alive()\n"
            "assert outcome in ([3], ['closed']), outcome\n"
            "stats = scheduler.metrics.snapshot()\n"
            "resolved = sum(stats[key] for key in ('completed', 'expired', "
            "'failed', 'cancelled', 'updates'))\n"
            "assert stats['admitted'] == resolved == 1, stats\n"
            "print('stopped')\n"
        )
        source_root = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=source_root)
        done = subprocess.run(
            [sys.executable, "-c", script],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == "stopped\n"
        assert done.stderr == ""

    def test_custom_config(self, fig1):
        config = ServerConfig(workers=1, max_queue=8, batch_window=0.001)
        with ServerThread(GraphDB.open(fig1), config) as handle:
            with Client(*handle.address) as client:
                assert client.stats()["scheduler"]["workers"] == 1


def materialise_seconds() -> float:
    series = get_registry().snapshot().get("repro_phase_seconds_total", {})
    return series.get(("materialise",), 0.0)


class TestTuplesOnlyOnDemand:
    def test_served_read_builds_no_tuple_until_pairs_is_touched(
        self, served, monkeypatch
    ):
        db, _, client = served
        expected = set(db.execute("(b.c)+"))
        before = materialise_seconds()

        def no_tuples(*_args, **_kwargs):
            raise AssertionError("a served read decoded its bitmap")

        with monkeypatch.context() as patched:  # server and client share the class
            patched.setattr(PairBitmap, "to_pairs", no_tuples)
            patched.setattr(PairBitmap, "_row_products", no_tuples)
            result = client.query("(b.c)+")
            traced, trace = client.query_traced("(b.c)+")
            assert result.count == len(result) == traced.count == len(expected)
            assert bool(result) and (2, 6) in result and (6, 2) not in result
            assert sorted(result.ends_of(2)) == sorted(
                end for start, end in expected if start == 2
            )
            assert set(result.starts()) == {start for start, _end in expected}
        assert materialise_seconds() == before
        assert result.pairs == expected == traced.pairs
        assert list(result) == db.execute("(b.c)+").sorted_pairs()

        (encode,) = [span for span in trace["spans"] if span["name"] == "encode"]
        (request,) = [span for span in trace["spans"] if span["name"] == "request"]
        assert encode["parent"] == request["id"]
        assert encode["attrs"]["rows"] == len(result.starts())
        assert encode["attrs"]["floor_bytes"] > 0 and encode["dur"] > 0

    def test_counts_only_result_has_no_rows_to_read(self, served):
        _, _, client = served
        result = client.query("(b.c)+", pairs=False)
        assert result.pairs is None and result.count == len(result) > 0
        for read in (result.starts, lambda: result.ends_of(2), lambda: list(result)):
            with pytest.raises(ServerError, match="pairs=False"):
                read()

    def test_an_810_000_pair_answer_fits_the_default_encoding(self):
        db = GraphDB.open(labeled_cycle(900, "a"))
        with ServerThread(db) as handle, Client(*handle.address) as client:
            result = client.query("a+")
            assert result.count == 810_000
            assert sorted(result.ends_of(17)) == list(range(900))
            assert len(result.starts()) == 900 and (899, 0) in result
            # As 2-lists it cannot: refused from the count alone.
            with pytest.raises(ResultTooLargeError) as info:
                client.query_call(["a+"], enc="list")
            assert info.value.counts == [810_000]
