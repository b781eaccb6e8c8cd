"""Seeded fuzz of every decoder that reads bytes from outside.

Four entry points decode outside bytes through the one walker of
:mod:`repro.checkpoint.codec`, and each may refuse them only with its own
error type: ``decode`` with :class:`CodecError` (in either layout),
``deserialize_payload`` with simnet's :class:`TransportError`,
``read_frame`` with the cluster's :class:`TransportError` (or ``None`` on
a clean EOF), and ``loads_checkpoint`` with :class:`CheckpointError`.
The inputs are random byte strings, every truncation of a few real
payloads of both layouts, and single-bit flips of those payloads.  A
damaged checkpoint body gets a fresh digest, so that the bytes reach the
decoder instead of the digest check.

``read_frame`` and ``loads_checkpoint`` catch only :class:`CodecError`
from ``decode``, so real record bytes go through them alone: any other
exception type out of the walker fails the test there.
"""

import hashlib
import io
import random
import struct

import pytest

from repro.checkpoint import (
    SCHEMA_VERSION,
    Checkpointer,
    CheckpointError,
    CodecError,
    decode,
    loads_checkpoint,
)
from repro.checkpoint.checkpoint import _HEADER, MAGIC
from repro.checkpoint.codec import PAYLOADS, RECORDS, encode
from repro.cluster import TransportError as FrameError
from repro.cluster import read_frame
from repro.cluster.protocol import ok_response
from repro.serve import SessionSpec, execute_spec
from repro.simnet.errors import TransportError
from repro.simnet.messages import deserialize_payload
from tests.test_payload_reference import capturing

# Hostile bytes reach numpy's dtype parser, which warns on deprecated
# aliases, and registered constructors, whose checks may overflow.
pytestmark = pytest.mark.filterwarnings(
    "ignore::DeprecationWarning", "ignore::RuntimeWarning"
)

#: single-bit flips drawn per real payload and seed
FLIPS = 400

#: (kind of input, seed); truncations draw nothing
CASES = [
    *((kind, seed) for kind in ("random", "flipped") for seed in (0, 1, 2)),
    ("truncated", None),
]

_STREAM = SessionSpec(
    kind="stream", dataset="iris", windows=2, window_size=4, k=2, seed=5
)


@pytest.fixture(scope="module")
def payloads():
    """The distinct payloads under 1 KB that a small batch session sends."""
    sent = []
    with capturing(lambda payload, data: sent.append(data)):
        execute_spec(SessionSpec(kind="batch", dataset="iris", k=3, seed=5))
    return sorted({data for data in sent if len(data) < 1024})


@pytest.fixture(scope="module")
def streamed(tmp_path_factory):
    """A small stream's first checkpoint body and its result."""
    directory = tmp_path_factory.mktemp("fuzz")
    result = execute_spec(
        _STREAM, checkpointer=Checkpointer(str(directory), every=1)
    )
    first = sorted(directory.iterdir())[0]
    return first.read_bytes()[_HEADER.size:], result


@pytest.fixture(scope="module")
def frames(streamed):
    """Two real frame bodies: a ``submit`` request and a result reply."""
    request = {"op": "submit", "spec": _STREAM.to_mapping(), "checkpoint_every": 1}
    return [encode(request), encode(ok_response(streamed[1]))]


def _random(seed, layout):
    """Random strings, half of them opening with one of ``layout``'s tags."""
    rng = random.Random(seed)
    tags = [value for value in vars(layout).values() if isinstance(value, bytes)]
    inputs = []
    for _ in range(400):
        body = bytes(rng.randrange(256) for _ in range(rng.randrange(48)))
        inputs += [body, rng.choice(tags) + body]
    return inputs


def _damaged(kind, seed, samples):
    if kind == "truncated":
        return [data[:cut] for data in samples for cut in range(len(data))]
    rng = random.Random(seed)
    flipped = []
    for data in samples:
        for _ in range(FLIPS):
            bit = rng.randrange(len(data) * 8)
            damaged = bytearray(data)
            damaged[bit // 8] ^= 1 << (bit % 8)
            flipped.append(bytes(damaged))
    return flipped


def _inputs(kind, seed, samples, layout):
    if kind == "random":
        return _random(seed, layout)
    return _damaged(kind, seed, samples)


def _refused_only_with(error, decoder, inputs):
    """Run ``decoder`` on every input; any exception but ``error`` fails."""
    results = []
    for data in inputs:
        try:
            results.append(decoder(data))
        except error:
            continue
        except Exception as exc:  # a finding: pin the input as a hostile case
            pytest.fail(f"{type(exc).__name__} escaped on {data!r}: {exc}")
    return results


def _read_frame(data):
    frame = read_frame(io.BytesIO(data))
    assert (frame is None) == (not data), "None is a clean EOF only"
    return frame


def _framed(body):
    return struct.pack(">I", len(body)) + body


def _checkpoint(body):
    digest = hashlib.sha256(body).digest()
    return _HEADER.pack(MAGIC, SCHEMA_VERSION, digest, len(body)) + body


@pytest.mark.parametrize("kind,seed", CASES)
def test_payload_decoders(kind, seed, payloads):
    inputs = _inputs(kind, seed, payloads, PAYLOADS)
    _refused_only_with(CodecError, lambda data: decode(data, PAYLOADS), inputs)
    decoded = _refused_only_with(TransportError, deserialize_payload, inputs)
    assert all(isinstance(payload, dict) for payload in decoded)
    # an encoding is self-delimiting: no proper prefix of one decodes
    assert kind != "truncated" or not decoded


@pytest.mark.parametrize("seed", (0, 1, 2))
def test_record_decoder_on_random_bytes(seed):
    _refused_only_with(CodecError, decode, _random(seed, RECORDS))


@pytest.mark.parametrize("kind,seed", CASES)
def test_frame_reader(kind, seed, frames):
    inputs = _inputs(kind, seed, frames, RECORDS)
    decoded = _refused_only_with(FrameError, _read_frame, map(_framed, inputs))
    assert all(isinstance(frame, dict) for frame in decoded)
    assert kind != "truncated" or not decoded
    if kind == "random":  # unframed: the length prefix is random too
        _refused_only_with(FrameError, _read_frame, [b""] + inputs)


@pytest.mark.parametrize("kind,seed", CASES)
def test_checkpoint_loader(kind, seed, streamed):
    inputs = _inputs(kind, seed, [streamed[0]], RECORDS)
    loaded = _refused_only_with(
        CheckpointError, loads_checkpoint, map(_checkpoint, inputs)
    )
    assert kind != "truncated" or not loaded


def test_whole_files_and_frames_cut_anywhere(streamed, frames):
    whole = _checkpoint(streamed[0])
    cuts = [whole[:cut] for cut in range(len(whole))]
    _refused_only_with(CheckpointError, loads_checkpoint, cuts)
    for body in frames:
        framed = _framed(body)
        cuts = [framed[:cut] for cut in range(len(framed))]
        assert _refused_only_with(FrameError, _read_frame, cuts) == [None]
