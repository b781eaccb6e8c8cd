"""Tests for the network, channels, and node dispatch."""

import numpy as np
import pytest

from repro.simnet.channel import LatencyModel, Network
from repro.simnet.errors import (
    DuplicateAddressError,
    ProtocolViolationError,
    UnknownAddressError,
)
from repro.simnet.messages import MessageKind
from repro.simnet.node import Node


class EchoNode(Node):
    """Replies to every session announce with an ack."""

    def on_session_announce(self, message):
        self.send(MessageKind.SESSION_ACK, message.sender, {"re": message.msg_id})

    def on_session_ack(self, message):
        pass


def make_pair(seed=0):
    network = Network(seed=seed)
    a = EchoNode("a", network)
    b = EchoNode("b", network)
    return network, a, b


def test_message_delivery_and_reply():
    network, a, b = make_pair()
    a.send(MessageKind.SESSION_ANNOUNCE, "b", {"hello": 1})
    network.run()
    assert len(b.received(MessageKind.SESSION_ANNOUNCE)) == 1
    assert len(a.received(MessageKind.SESSION_ACK)) == 1
    assert a.received(MessageKind.SESSION_ACK)[0].payload == {"re": 0}


def test_delivery_takes_positive_virtual_time():
    network, a, b = make_pair()
    a.send(MessageKind.SESSION_ANNOUNCE, "b", {})
    network.run()
    assert network.simulator.now > 0.0


def test_numpy_payload_survives_the_wire():
    network, a, b = make_pair()
    matrix = np.arange(12.0).reshape(3, 4)
    a.send(MessageKind.SESSION_ANNOUNCE, "b", {"m": matrix})
    network.run()
    received = b.received(MessageKind.SESSION_ANNOUNCE)[0]
    np.testing.assert_array_equal(received.payload["m"], matrix)


def test_unknown_recipient_raises_at_send():
    network, a, _b = make_pair()
    with pytest.raises(UnknownAddressError):
        a.send(MessageKind.SESSION_ANNOUNCE, "nobody", {})


def test_duplicate_address_rejected():
    network, _a, _b = make_pair()
    with pytest.raises(DuplicateAddressError):
        EchoNode("a", network)


def test_self_send_is_allowed():
    network, a, _b = make_pair()
    a.send(MessageKind.SESSION_ACK, "a", {"self": True})
    network.run()
    assert a.received(MessageKind.SESSION_ACK)[0].payload == {"self": True}


def test_missing_handler_raises_protocol_violation():
    network = Network()
    Node("plain", network)
    sender = EchoNode("sender", network)
    sender.send(MessageKind.ABORT, "plain", {})
    with pytest.raises(ProtocolViolationError):
        network.run()


def test_larger_payloads_take_longer():
    model = LatencyModel(base_latency=0.0, bandwidth=1000.0, jitter=0.0)
    rng = np.random.default_rng(0)
    assert model.delay(5000, rng) > model.delay(50, rng)


def test_latency_model_jitter_bounded():
    model = LatencyModel(base_latency=0.01, bandwidth=1e9, jitter=0.002)
    rng = np.random.default_rng(0)
    delays = [model.delay(100, rng) for _ in range(100)]
    assert all(0.01 <= d < 0.0121 for d in delays)


def test_per_link_latency_override():
    network, a, b = make_pair()
    slow = LatencyModel(base_latency=5.0, bandwidth=1e9, jitter=0.0)
    network.set_link_latency("a", "b", slow)
    a.send(MessageKind.SESSION_ANNOUNCE, "b", {})
    network.run()
    # reply b->a uses the default fast link, so total is just over 5s
    assert 5.0 < network.simulator.now < 5.1


def test_network_counters():
    network, a, b = make_pair()
    a.send(MessageKind.SESSION_ANNOUNCE, "b", {"x": 1})
    network.run()
    assert network.messages_sent == 2  # announce + ack
    assert network.bytes_sent > 0


def test_wire_observations_are_ciphertext_only():
    network, a, b = make_pair()
    a.send(MessageKind.SESSION_ANNOUNCE, "b", {"secret": "raw"})
    network.run()
    wire = network.ledger.wire_traffic(sender="a")
    assert len(wire) == 1
    observation = wire[0]
    assert observation.sender == "a"
    assert observation.recipient == "b"
    assert observation.nbytes > 0
    assert not hasattr(observation, "payload")


def test_endpoint_observations_capture_plaintext():
    network, a, b = make_pair()
    a.send(MessageKind.SESSION_ANNOUNCE, "b", {"secret": "raw"})
    network.run()
    seen = network.ledger.plaintexts_seen_by("b", MessageKind.SESSION_ANNOUNCE)
    assert len(seen) == 1
    assert seen[0].payload == {"secret": "raw"}


def test_deterministic_replay_same_seed():
    def run(seed):
        network, a, b = make_pair(seed=seed)
        a.send(MessageKind.SESSION_ANNOUNCE, "b", {"x": 1})
        network.run()
        return network.simulator.now

    assert run(7) == run(7)
    assert run(7) != run(8)


def test_node_expect_exactly():
    network, a, b = make_pair()
    a.send(MessageKind.SESSION_ANNOUNCE, "b", {})
    network.run()
    b.expect_exactly(MessageKind.SESSION_ANNOUNCE, 1)
    with pytest.raises(ProtocolViolationError):
        b.expect_exactly(MessageKind.SESSION_ANNOUNCE, 2)


def test_addresses_listing():
    network, a, b = make_pair()
    assert network.addresses == ("a", "b")
    assert network.node("a") is a
    with pytest.raises(UnknownAddressError):
        network.node("zzz")


@pytest.mark.parametrize(
    "overrides,name",
    [
        ({"jitter": float("nan")}, "jitter"),
        ({"jitter": -1.0}, "jitter"),
        ({"jitter": -np.inf}, "jitter"),
        ({"base_latency": float("nan")}, "base_latency"),
        ({"base_latency": -0.001}, "base_latency"),
        ({"base_latency": float("inf")}, "base_latency"),
        ({"bandwidth": float("nan")}, "bandwidth"),
        ({"bandwidth": 0.0}, "bandwidth"),
        ({"bandwidth": -1.0}, "bandwidth"),
    ],
)
def test_latency_model_refuses_a_field_no_delay_can_use(overrides, name):
    with pytest.raises(ValueError, match=name):
        LatencyModel(**overrides)

