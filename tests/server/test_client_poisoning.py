"""Client transport-failure semantics: poison, fail fast, never desync.

A client whose stream broke mid-call (connection lost, half-read
response, id mismatch) must not be reused: its next read would consume
the previous call's leftover bytes and return the wrong response.  These
tests drive the client against deliberately misbehaving servers and
assert every later call fails fast with a clear
:class:`~repro.errors.ServerError` -- while server-*reported* errors
(well-framed ``ok: false`` responses) leave the client usable.
"""

import json
import socket
import threading

import pytest

from repro.db import GraphDB
from repro.errors import ProtocolError, RPQSyntaxError, ServerError
from repro.server import Client, ServerThread


class FakeServer:
    """One-connection TCP server running ``handler(conn)`` on a thread."""

    def __init__(self, handler):
        self._listener = socket.socket()
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(1)
        self.address = self._listener.getsockname()
        self._thread = threading.Thread(
            target=self._run, args=(handler,), daemon=True
        )
        self._thread.start()

    def _run(self, handler):
        connection, _peer = self._listener.accept()
        try:
            handler(connection)
        finally:
            connection.close()

    def close(self):
        self._listener.close()
        self._thread.join(timeout=10)


def read_line(connection) -> bytes:
    data = b""
    while not data.endswith(b"\n"):
        chunk = connection.recv(4096)
        if not chunk:
            break
        data += chunk
    return data


def assert_poisoned(client: Client) -> None:
    """Every verb fails fast on a poisoned client, no I/O attempted."""
    with pytest.raises(ServerError, match="poisoned"):
        client.ping()
    with pytest.raises(ServerError, match="poisoned"):
        client.query("a.b")
    assert "poisoned" in repr(client)


class TestTransportPoisoning:
    def test_server_closing_mid_call_poisons(self):
        server = FakeServer(lambda connection: read_line(connection))
        try:
            client = Client(*server.address)
            with pytest.raises(ServerError, match="closed the connection"):
                client.ping()
            assert_poisoned(client)
        finally:
            server.close()

    def test_id_mismatch_poisons(self):
        def wrong_id(connection):
            read_line(connection)
            connection.sendall(
                json.dumps({"ok": True, "id": 999999, "pong": True}).encode()
                + b"\n"
            )
            read_line(connection)  # hold the socket open past the first call

        server = FakeServer(wrong_id)
        try:
            client = Client(*server.address)
            with pytest.raises(ProtocolError, match="does not match"):
                client.ping()
            # The transport may still be connected -- the client must
            # refuse anyway: the stream position is unknowable.
            assert_poisoned(client)
        finally:
            server.close()

    def test_unparseable_response_poisons(self):
        def garbage(connection):
            read_line(connection)
            connection.sendall(b"this is not json\n")
            read_line(connection)

        server = FakeServer(garbage)
        try:
            client = Client(*server.address)
            with pytest.raises(ProtocolError):
                client.ping()
            assert_poisoned(client)
        finally:
            server.close()

    def test_read_timeout_poisons(self):
        stall = threading.Event()

        def silent(connection):
            read_line(connection)
            stall.wait(timeout=10)  # never answer within the socket timeout

        server = FakeServer(silent)
        try:
            client = Client(*server.address, socket_timeout=0.2)
            with pytest.raises(ServerError, match="connection lost"):
                client.ping()
            assert_poisoned(client)
        finally:
            stall.set()
            server.close()


class TestServerReportedErrorsDoNotPoison:
    def test_syntax_error_then_normal_call(self, fig1):
        """Well-framed failures keep the stream usable (no poisoning)."""
        with ServerThread(GraphDB.open(fig1)) as handle:
            with Client(*handle.address) as client:
                with pytest.raises(RPQSyntaxError):
                    client.query("((")
                assert client.ping() >= 1
                assert client.query("b.c").count == len(
                    GraphDB.open(fig1).execute("b.c")
                )

    def test_closed_client_reports_closed_not_poisoned(self, fig1):
        with ServerThread(GraphDB.open(fig1)) as handle:
            client = Client(*handle.address)
            client.close()
            with pytest.raises(ServerError, match="closed"):
                client.ping()


GOOD = {"enc": "packed", "support": "7", "vertices": ["a", "b", "c"], "rows": {"6": [0]}}

MALFORMED = {
    "source id not an int": {**GOOD, "rows": {"6": ["0"]}},
    "source id is a bool": {**GOOD, "rows": {"6": [True]}},
    "source id is a float": {**GOOD, "rows": {"6": [0.0]}},
    "source id outside the table": {**GOOD, "rows": {"6": [3]}},
    "negative source id": {**GOOD, "rows": {"6": [-1]}},
    "source id under two masks": {**GOOD, "rows": {"6": [0], "2": [0]}},
    "sources not a list": {**GOOD, "rows": {"6": 0}},
    "no sources": {**GOOD, "rows": {"6": []}},
    "non-hex mask": {**GOOD, "rows": {"zz": [0]}},
    "truncated to nothing": {**GOOD, "rows": {"": [0]}},
    "mask is not a string": {**GOOD, "rows": {6: [0]}},
    "mask zero": {**GOOD, "rows": {"0": [0]}},
    "bit outside the support": {**GOOD, "rows": {"e": [0]}},
    "negative mask": {**GOOD, "rows": {"-6": [0]}},
    "table shorter than the support": {**GOOD, "vertices": ["a", "b"]},
    "table longer than the support": {**GOOD, "vertices": ["a", "b", "c", "d"]},
    "repeated vertex": {**GOOD, "vertices": ["a", "b", "a"]},
    "unhashable vertex": {**GOOD, "vertices": ["a", ["b"], "c"]},
    "non-hex support": {**GOOD, "support": "0xg"},
    "negative support": {**GOOD, "support": "-7"},
    "missing support": {"enc": "packed", "vertices": [], "rows": {}},
    "rows is a list": {**GOOD, "rows": [["6", [0]]]},
    "no payload at all": None,
    "list entry is not a pair": [[1, 2], [3]],
    "list entry is a scalar": [1, 2],
}


class TestMalformedPairsPayload:
    """A lazy result never fails at decode time: a bad payload is a
    ``ProtocolError`` when parsed, and the framed stream stays usable."""

    def test_the_template_is_well_formed(self):
        from repro.server import protocol

        assert protocol.wire_to_pairs(GOOD) == {("a", "b"), ("a", "c")}

    @pytest.mark.parametrize("name", MALFORMED)
    def test_malformed_payload_is_a_protocol_error(self, name):
        from repro.server import protocol

        with pytest.raises(ProtocolError, match="malformed pairs payload"):
            protocol.wire_to_pairs(MALFORMED[name])

    @pytest.mark.parametrize(
        "entry, message",
        [
            ({"count": 2, "pairs": MALFORMED["non-hex mask"]}, "malformed"),
            ({"count": 2, "pairs": MALFORMED["bit outside the support"]}, "malformed"),
            # A mask cut short is still hex; the count gives it away.
            ({"count": 2, "pairs": {**GOOD, "rows": {"2": [0]}}}, "count says 2"),
        ],
    )
    def test_client_raises_at_parse_time_and_stays_usable(self, entry, message):
        def answer(connection):
            for _ in range(2):
                request = json.loads(read_line(connection))
                response = {"ok": True, "id": request["id"], "results": [
                    {"query": "q", "time": 0.0, **entry}
                ]}
                connection.sendall(json.dumps(response).encode() + b"\n")

        server = FakeServer(answer)
        try:
            client = Client(*server.address)
            for _ in range(2):
                with pytest.raises(ProtocolError, match=message):
                    client.query("q")
                assert not client.broken
        finally:
            server.close()
