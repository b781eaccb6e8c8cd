"""Generator shortcuts that must draw exactly what the plain calls draw.

Two hot paths skip numpy's convenience samplers: a stream source draws
two records' pool rows from one 64-bit output, and the simulated network
draws its nonces as raw outputs and its jitter as ``jitter * random()``.
Each is checked against a reference generator making the plain calls,
value for value, and both generators must end at the same position.
"""

import numpy as np
import pytest

from repro.simnet import crypto
from repro.simnet.channel import LatencyModel, Network
from repro.simnet.messages import MessageKind
from repro.simnet.node import Node
from repro.streaming.sources import _rows_and_gaps


def position(rng):
    """Where a generator stands: its PCG64 state and any buffered half.

    After handing out a buffered 32-bit half numpy leaves its value in
    ``uinteger`` and never reads it again, so the value counts only while
    ``has_uint32`` says a half is buffered.
    """
    state = rng.bit_generator.state
    buffered = state["has_uint32"]
    return state["state"], buffered, state["uinteger"] if buffered else None


# One row draws nothing; 3 * 2**30 and 2**31 + 1 make Lemire reject a
# quarter and a half of all 32-bit halves, so the per-record replay runs
# (every length >= 5 here meets a rejection); 2**32 rows and more leave
# the Lemire path over 32-bit halves.
POOL_SIZES = (
    1, 2, 3, 150, 178, 3 * 2**30, 2**31 + 1, 2**32 - 1, 2**32, 2**32 + 1,
)


def steady(length):
    return [1e-3] * length


def bursty(length):
    """Per-record scales alternating fast and slow runs of three."""
    return [1.25e-4 if (i // 3) % 2 == 0 else 1e-3 for i in range(length)]


@pytest.mark.parametrize("chunk", (1, 7, 256))
@pytest.mark.parametrize("n_rows", POOL_SIZES)
def test_pair_draws_match_the_per_record_draws(n_rows, chunk):
    for length in (1, 2, 5, 64, 257):
        for scales in (steady(length), bursty(length)):
            seed = [n_rows, length, chunk]
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            rows, gaps, ref_rows, ref_gaps = [], [], [], []
            # Odd chunks end on a single draw, so the next chunk starts
            # with a half buffered.
            for start in range(0, length, chunk):
                run = scales[start:start + chunk]
                got_rows, got_gaps = _rows_and_gaps(rng, n_rows, run)
                rows += got_rows
                gaps += got_gaps
                for scale in run:
                    ref_rows.append(int(ref.integers(n_rows)))
                    ref_gaps.append(float(ref.exponential(scale)))
            assert rows == ref_rows and all(type(row) is int for row in rows)
            assert gaps == ref_gaps
            assert position(rng) == position(ref)


class Echo(Node):
    def on_session_announce(self, message):
        self.send(MessageKind.SESSION_ACK, message.sender, {"re": message.msg_id})

    def on_session_ack(self, message):
        pass


def test_network_draws_match_bytes_uniform_and_random(monkeypatch):
    default = LatencyModel(jitter=0.003)
    links = {
        ("a", "c"): LatencyModel(base_latency=0.5, jitter=0.02),
        ("c", "a"): LatencyModel(jitter=0.0),  # draws no jitter
    }
    blocked = {("b", "c")}  # drops without a draw
    network = Network(latency=default, seed=5, drop_rate=0.25)
    names = ("a", "b", "c")
    nodes = [Echo(name, network) for name in names]
    for (sender, recipient), model in links.items():
        network.set_link_latency(sender, recipient, model)
    for sender, recipient in blocked:
        network.block_link(sender, recipient)

    sends, delays = [], []
    send, encrypt = network.send, crypto.encrypt
    schedule = network.simulator.schedule

    def recording_send(message):
        sends.append([message.sender, message.recipient])
        send(message)

    def recording_encrypt(key, plaintext, rng):
        ciphertext = encrypt(key, plaintext, rng)
        sends[-1] += [len(plaintext), ciphertext.nonce]
        return ciphertext

    def recording_schedule(delay, callback):
        delays.append(delay)
        return schedule(delay, callback)

    monkeypatch.setattr(network, "send", recording_send)
    monkeypatch.setattr(crypto, "encrypt", recording_encrypt)
    monkeypatch.setattr(network.simulator, "schedule", recording_schedule)
    for index in range(60):
        nodes[index % 3].send(
            MessageKind.SESSION_ANNOUNCE, names[(index + 1 + index // 3) % 3],
            {"payload": np.arange(index % 7 + 1.0)},
        )
        network.run()
    assert 0 < network.messages_dropped < network.messages_sent == len(sends)

    ref = np.random.default_rng(5)
    expected = []
    for sender, recipient, nbytes, nonce in sends:
        assert nonce == ref.bytes(16)
        if (sender, recipient) in blocked or ref.random() < 0.25:
            continue
        model = links.get((sender, recipient), default)
        jitter = ref.uniform(0.0, model.jitter) if model.jitter > 0 else 0.0
        expected.append(model.base_latency + nbytes / model.bandwidth + jitter)
    assert delays == expected
    assert position(network._rng) == position(ref)


@pytest.mark.parametrize("jitter", (float("inf"), np.float64("inf")))
def test_an_infinite_jitter_still_fails_loudly(jitter):
    rng = np.random.default_rng(0)
    with pytest.raises(OverflowError):
        LatencyModel(jitter=jitter).delay(100, rng)
    with pytest.raises(OverflowError):
        rng.uniform(0.0, jitter)
