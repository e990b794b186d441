"""Wire-protocol unit tests: framing, error mapping, pair encoding."""

import json

import pytest

from repro.bitset import PairBitmap, VertexInterner
from repro.errors import (
    AdmissionError,
    DeadlineExpiredError,
    ProtocolError,
    RPQSyntaxError,
    ServerError,
)
from repro.server import protocol


class TestFraming:
    def test_encode_is_one_terminated_line(self):
        line = protocol.encode({"op": "ping", "id": 3})
        assert line.endswith(b"\n")
        assert line.count(b"\n") == 1
        assert json.loads(line) == {"op": "ping", "id": 3}

    def test_roundtrip(self):
        message = {"op": "query", "queries": ["a.(b.c)+"], "timeout": 1.5}
        assert protocol.decode_line(protocol.encode(message)) == message

    def test_decode_accepts_str(self):
        assert protocol.decode_line('{"op":"ping"}') == {"op": "ping"}

    def test_decode_rejects_invalid_json(self):
        with pytest.raises(ProtocolError, match="invalid JSON"):
            protocol.decode_line(b"{nope\n")

    def test_decode_rejects_non_object(self):
        with pytest.raises(ProtocolError, match="JSON objects"):
            protocol.decode_line(b"[1, 2]\n")

    def test_decode_rejects_oversized_line(self):
        line = b'{"op": "' + b"x" * protocol.MAX_LINE_BYTES + b'"}\n'
        with pytest.raises(ProtocolError, match="exceeds"):
            protocol.decode_line(line)


class TestResponses:
    def test_ok_response_echoes_id(self):
        assert protocol.ok_response(7, pong=True) == {
            "ok": True,
            "pong": True,
            "id": 7,
        }

    def test_ok_response_without_id(self):
        assert "id" not in protocol.ok_response(None)

    def test_error_response_from_exception(self):
        response = protocol.error_response(1, AdmissionError())
        assert response["ok"] is False
        assert response["error"]["code"] == "rejected"
        assert "retry" in response["error"]["message"]

    @pytest.mark.parametrize(
        ("error", "code"),
        [
            (AdmissionError(), "rejected"),
            (DeadlineExpiredError("late"), "deadline"),
            (ProtocolError("bad"), "bad_request"),
            (RPQSyntaxError("oops", position=2), "syntax"),
            (ValueError("boom"), "internal"),
        ],
    )
    def test_error_payload_codes(self, error, code):
        assert protocol.error_payload(error)["code"] == code

    @pytest.mark.parametrize(
        ("code", "expected"),
        [
            ("rejected", AdmissionError),
            ("deadline", DeadlineExpiredError),
            ("bad_request", ProtocolError),
            ("syntax", RPQSyntaxError),
            ("evaluation", ServerError),
            ("internal", ServerError),
        ],
    )
    def test_exception_roundtrip(self, code, expected):
        error = protocol.exception_from_payload(
            {"code": code, "message": "why"}
        )
        assert isinstance(error, expected)
        assert "why" in str(error)

    def test_unknown_code_keeps_code(self):
        error = protocol.exception_from_payload({"code": "weird"})
        assert isinstance(error, ServerError)
        assert error.code == "weird"


class TestPairs:
    def test_wire_order_is_deterministic(self):
        pairs = {(3, 1), (1, 2), (10, 0)}
        assert protocol.pairs_to_wire(pairs, enc="list") == [[1, 2], [10, 0], [3, 1]]

    def test_roundtrip_preserves_set(self):
        pairs = {(3, 1), ("a", "b"), (1, 2)}
        for enc in (None, "list"):
            wire = json.loads(json.dumps(protocol.pairs_to_wire(pairs, enc=enc)))
            assert protocol.wire_to_pairs(wire) == pairs

    def test_empty(self):
        assert protocol.pairs_to_wire(set(), enc="list") == []
        assert protocol.wire_to_pairs([]) == set()

    def test_the_smaller_encoding_is_picked_from_the_bitmap(self):
        table = VertexInterner(range(4001))
        sparse = PairBitmap({0: 1 << 4000, 9: 1 << 3999}, table)  # 1001 + 1000 digits
        dense = PairBitmap({0: (1 << 400) - 1, 9: (1 << 400) - 1}, table)
        assert protocol.wire_floor(sparse, "packed") == 2001
        assert protocol.wire_floor(sparse, "list") == protocol.wire_floor(sparse) == 12
        assert protocol.wire_floor(dense) == protocol.wire_floor(dense, "packed") == 200
        assert protocol.wire_floor(dense, "list") == 4800
        assert protocol.pairs_to_wire(sparse) == [[0, 4000], [9, 3999]]
        assert protocol.pairs_to_wire(sparse, enc="packed")["rows"].keys() == {"0", "9"}
        assert protocol.pairs_to_wire(dense)["enc"] == "packed"
        for bitmap in (sparse, dense):
            for enc in (None, "packed", "list"):
                wire = json.loads(json.dumps(protocol.pairs_to_wire(bitmap, enc=enc)))
                assert protocol.wire_to_pairs(wire) == bitmap.to_pairs()


class TestClusterErrorWire:
    """Structured ClusterError fields survive the wire round trip."""

    def test_subcode_shards_detail_roundtrip(self):
        from repro.errors import ClusterError

        error = ClusterError(
            "cannot remove it",
            code="cluster.unknown_edge",
            shards=(0, 2),
            detail=["u", "b", "v"],
        )
        payload = json.loads(json.dumps(protocol.error_payload(error)))
        assert payload["code"] == "cluster.unknown_edge"
        assert payload["shards"] == [0, 2]
        assert payload["detail"] == ["u", "b", "v"]
        back = protocol.exception_from_payload(payload)
        assert isinstance(back, ClusterError)
        assert back.code == "cluster.unknown_edge"
        assert back.shards == (0, 2)
        assert back.detail == ["u", "b", "v"]

    def test_bare_cluster_code_still_maps(self):
        from repro.errors import ClusterError

        back = protocol.exception_from_payload(
            {"code": "cluster", "message": "m"}
        )
        assert isinstance(back, ClusterError)
        assert back.shards == ()
        assert back.detail is None
