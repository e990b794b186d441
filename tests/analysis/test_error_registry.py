"""The error-code registry and its wire round-trip.

Satellite of the RPR302 contract: ``errors.ERROR_CODES`` is canonical,
and every declared code survives ``exception_from_payload`` ->
``error_payload`` -> JSON intact, so a client can rehydrate exactly the
set of codes servers can emit.
"""

import json

import pytest

from repro.errors import (
    AdmissionError,
    ClusterError,
    DeadlineExpiredError,
    ERROR_CODES,
    ProtocolError,
    ReproError,
    RPQSyntaxError,
    ServerError,
    StorageError,
)
from repro.server.protocol import (
    decode_line,
    encode,
    error_payload,
    error_response,
    exception_from_payload,
)


def test_registry_shape():
    assert isinstance(ERROR_CODES, dict)
    for code, meaning in ERROR_CODES.items():
        assert isinstance(code, str) and code
        assert isinstance(meaning, str) and meaning, f"{code} needs a meaning"
    # The codes the serving stack is built around must all be declared.
    assert {
        "syntax", "storage", "evaluation", "internal", "rejected",
        "deadline", "closed", "poisoned", "bad_request", "cluster",
        "cluster.topology", "cluster.unsupported", "cluster.unknown_edge",
    } <= set(ERROR_CODES)


@pytest.mark.parametrize("code", sorted(ERROR_CODES))
def test_every_code_round_trips_through_the_wire(code):
    # Server side: a payload carrying the code crosses the wire...
    response = error_response(7, {"code": code, "message": f"boom [{code}]"})
    wire = decode_line(encode(response))
    # ...the client rehydrates it into a ReproError...
    error = exception_from_payload(wire["error"])
    assert isinstance(error, ReproError)
    assert error.code == code
    assert f"boom [{code}]" in str(error)
    # ...and re-serialising that exception preserves the code exactly.
    assert error_payload(error)["code"] == code


def test_known_codes_rehydrate_to_their_classes():
    cases = {
        "syntax": RPQSyntaxError,
        "storage": StorageError,
        "rejected": AdmissionError,
        "deadline": DeadlineExpiredError,
        "bad_request": ProtocolError,
        "cluster": ClusterError,
        "cluster.topology": ClusterError,
        "cluster.unknown_edge": ClusterError,
    }
    for code, expected in cases.items():
        error = exception_from_payload({"code": code, "message": "x"})
        assert isinstance(error, expected), code


def test_cluster_payload_round_trips_structured_fields():
    original = ClusterError(
        "edge crosses shards",
        code="cluster.unknown_edge",
        shards=(1, 2),
        detail=["a", "label", "b"],
    )
    payload = json.loads(json.dumps(error_payload(original)))
    rebuilt = exception_from_payload(payload)
    assert isinstance(rebuilt, ClusterError)
    assert rebuilt.code == "cluster.unknown_edge"
    assert rebuilt.shards == (1, 2)
    assert rebuilt.detail == ["a", "label", "b"]


def test_unregistered_code_still_reaches_the_caller():
    # Forward compatibility: a code a newer server emits must not be
    # dropped by an older client, even before the registry learns it.
    error = exception_from_payload({"code": "future.surprise", "message": "x"})
    assert isinstance(error, ServerError)
    assert error.code == "future.surprise"
