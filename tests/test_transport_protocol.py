"""The replica wire protocol, fuzzed: frames, envelopes, the server loop.

Every way a frame can be damaged — truncated length prefix, truncated
body, a prefix claiming gigabytes, bytes the codec cannot decode, a
payload that is not a mapping — must surface as a distinct, friendly
:class:`TransportError`, never a hang or a bare struct/codec traceback.
The envelope layer must keep exception identity across the wire
(admission refusals stay :class:`AdmissionError`, checkpoint damage
stays :class:`CheckpointError`), and :class:`ReplicaServer` — driven
here directly against in-memory streams, no child process — must wrap
every handler failure into an error envelope instead of dying.
"""

import io
import random
import struct

import pytest

from repro.checkpoint import CheckpointError
from repro.cluster import (
    MAX_FRAME_BYTES,
    TransportError,
    read_frame,
    write_frame,
)
from repro.cluster.protocol import (
    error_response,
    ok_response,
    unwrap_response,
)
from repro.cluster.replica import ReplicaServer, serve_connection
from repro.serve import AdmissionError, MiningService


def _spec_mapping(seed=5, windows=3):
    return {
        "kind": "stream", "dataset": "wine", "tenant": "acme", "k": 3,
        "windows": windows, "window_size": 32, "compute_privacy": False,
        "seed": seed,
    }


# ----------------------------------------------------------------------
# frames
# ----------------------------------------------------------------------
def test_frame_round_trip_over_bytesio():
    payload = {
        "op": "submit",
        "nested": {"numbers": [1, 2, 3], "big": 2 ** 80},
        "text": "café",
        "blob": b"\x00\xff" * 16,
    }
    buffer = io.BytesIO()
    written = write_frame(buffer, payload)
    assert written == buffer.tell()
    buffer.seek(0)
    assert read_frame(buffer) == payload
    # Clean EOF between frames: None, not an error.
    assert read_frame(buffer) is None


def test_frame_round_trip_back_to_back():
    buffer = io.BytesIO()
    frames = [{"seq": i, "op": "ping"} for i in range(5)]
    for frame in frames:
        write_frame(buffer, frame)
    buffer.seek(0)
    assert [read_frame(buffer) for _ in frames] == frames
    assert read_frame(buffer) is None


def test_truncated_length_prefix_is_friendly():
    buffer = io.BytesIO(b"\x00\x00")
    with pytest.raises(TransportError, match="length\\s*prefix|prefix"):
        read_frame(buffer)


def test_truncated_body_is_friendly():
    buffer = io.BytesIO()
    write_frame(buffer, {"op": "ping"})
    whole = buffer.getvalue()
    for cut in (len(whole) - 1, len(whole) // 2, 5):
        with pytest.raises(TransportError, match="payload bytes"):
            read_frame(io.BytesIO(whole[:cut]))


def test_hostile_length_prefix_refused_without_allocating():
    prefix = struct.pack(">I", MAX_FRAME_BYTES + 1)
    with pytest.raises(TransportError, match="corrupt or hostile"):
        read_frame(io.BytesIO(prefix))


def test_undecodable_payload_is_friendly():
    garbage = b"\xde\xad\xbe\xef not a codec payload"
    framed = struct.pack(">I", len(garbage)) + garbage
    with pytest.raises(TransportError, match="cannot decode"):
        read_frame(io.BytesIO(framed))


def test_non_mapping_payload_is_refused_both_ways():
    with pytest.raises(TransportError, match="must be a mapping"):
        write_frame(io.BytesIO(), ["not", "a", "dict"])
    # A well-encoded non-mapping smuggled inside a valid frame.
    from repro.checkpoint.codec import encode

    body = encode([1, 2, 3])
    framed = struct.pack(">I", len(body)) + body
    with pytest.raises(TransportError, match="must be a mapping"):
        read_frame(io.BytesIO(framed))


def test_random_garbage_never_hangs_or_leaks_raw_errors():
    rng = random.Random(0xC0FFEE)
    for _ in range(200):
        blob = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 64)))
        try:
            frame = read_frame(io.BytesIO(blob))
        except TransportError:
            continue  # every refusal is the friendly type
        # The only non-error outcomes: clean EOF or a genuine mapping.
        assert frame is None or isinstance(frame, dict)


# ----------------------------------------------------------------------
# envelopes
# ----------------------------------------------------------------------
def test_ok_envelope_round_trip():
    assert unwrap_response(ok_response({"pid": 42})) == {"pid": 42}
    assert unwrap_response(ok_response()) is None


@pytest.mark.parametrize(
    "exc,expected",
    [
        (AdmissionError("tenant over budget"), AdmissionError),
        (CheckpointError("digest mismatch"), CheckpointError),
        (TransportError("desynced"), TransportError),
        (KeyError("no session 7"), KeyError),
        (ValueError("bad knob"), ValueError),
    ],
)
def test_error_envelope_keeps_exception_identity(exc, expected):
    with pytest.raises(expected):
        unwrap_response(error_response(exc))


def test_unknown_error_type_degrades_to_runtime_error():
    class Exotic(Exception):
        pass

    with pytest.raises(RuntimeError, match="Exotic"):
        unwrap_response(error_response(Exotic("boom")))


def test_unwrap_none_means_connection_died():
    with pytest.raises(TransportError, match="closed the connection"):
        unwrap_response(None)


# ----------------------------------------------------------------------
# the server, driven without a process
# ----------------------------------------------------------------------
def test_replica_server_full_session_lifecycle():
    with MiningService(max_inflight=2) as service:
        server = ReplicaServer(service)
        response, serving = server.handle_request(
            {"op": "submit", "spec": _spec_mapping()}
        )
        assert serving
        session_id = unwrap_response(response)["session_id"]

        response, _ = server.handle_request(
            {"op": "wait", "session_id": session_id, "timeout": 60}
        )
        assert unwrap_response(response)["status"] == "completed"

        response, _ = server.handle_request(
            {"op": "result", "session_id": session_id}
        )
        result = unwrap_response(response)["result"]
        assert result.records_processed > 0

        response, _ = server.handle_request({"op": "stats"})
        assert unwrap_response(response)["stats"].completed == 1

        response, serving = server.handle_request({"op": "shutdown"})
        assert not serving


def test_replica_server_forgets_each_session_the_parent_collected(tmp_path):
    """A settled ``result`` reply and an evicted ``collect_evicted`` reply
    each hand the session's end over, and the server lets the handle go:
    a long-lived replica keeps only the sessions still to be collected."""
    with MiningService(max_inflight=2, checkpoint_dir=str(tmp_path)) as service:
        server = ReplicaServer(service)

        def ask(op, **fields):
            response, _ = server.handle_request({"op": op, **fields})
            return unwrap_response(response)

        completed = [
            ask("submit", spec=_spec_mapping(seed=seed))["session_id"]
            for seed in range(6)
        ]
        failed = ask(
            "submit", spec={"kind": "batch", "dataset": "atlantis", "k": 3}
        )["session_id"]
        evicted = ask(
            "submit", spec=_spec_mapping(seed=9, windows=300)
        )["session_id"]
        assert ask("request_evict", session_id=evicted)["evictable"]
        assert ask("ping")["active"] == 8

        for session_id in completed:
            result = ask("result", session_id=session_id, timeout=60)["result"]
            assert result.records_processed > 0
        with pytest.raises(KeyError, match="atlantis"):
            ask("result", session_id=failed, timeout=60)
        collected = ask("collect_evicted", session_id=evicted, timeout=60)
        assert collected["status"] == "evicted" and collected["data"]

        assert server._handles == {}
        assert ask("ping")["active"] == 0
        with pytest.raises(KeyError, match="no session"):
            ask("poll", session_id=completed[0])


def test_replica_server_wraps_failures_into_envelopes():
    with MiningService(max_inflight=2) as service:
        server = ReplicaServer(service)
        response, serving = server.handle_request(
            {"op": "poll", "session_id": 999}
        )
        assert serving  # one bad request never kills the loop
        with pytest.raises(KeyError, match="999"):
            unwrap_response(response)

        response, serving = server.handle_request({"op": "frobnicate"})
        assert serving
        with pytest.raises(ValueError, match="frobnicate"):
            unwrap_response(response)


def test_serve_connection_speaks_frames_end_to_end():
    class Duplex:
        """Requests come from one buffer, responses land in another."""

        def __init__(self, requests: bytes) -> None:
            self._requests = io.BytesIO(requests)
            self.responses = io.BytesIO()

        def read(self, n: int) -> bytes:
            return self._requests.read(n)

        def write(self, data: bytes) -> None:
            self.responses.write(data)

    requests = io.BytesIO()
    write_frame(requests, {"op": "ping"})
    write_frame(requests, {"op": "stats"})
    write_frame(requests, {"op": "shutdown"})
    with MiningService(max_inflight=2) as service:
        stream = Duplex(requests.getvalue())
        serve_connection(stream, service)
    stream.responses.seek(0)
    ping = unwrap_response(read_frame(stream.responses))
    assert ping["active"] == 0 and ping["pid"] > 0
    stats = unwrap_response(read_frame(stream.responses))
    assert stats["stats"].submitted == 0
    shutdown = unwrap_response(read_frame(stream.responses))
    assert shutdown["pid"] == ping["pid"]
    assert read_frame(stream.responses) is None
