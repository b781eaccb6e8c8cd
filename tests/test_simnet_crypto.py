"""Tests for the transport cipher."""

import hashlib
import hmac

import numpy as np
import pytest

from repro.simnet.crypto import Ciphertext, SessionKey, decrypt, derive_key, encrypt
from repro.simnet.errors import TransportError


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def test_roundtrip(rng):
    key = derive_key("alice", "bob")
    plaintext = b"the quick brown fox" * 10
    ciphertext = encrypt(key, plaintext, rng)
    assert decrypt(key, ciphertext) == plaintext


def test_empty_plaintext_roundtrip(rng):
    key = derive_key("a", "b")
    ciphertext = encrypt(key, b"", rng)
    assert decrypt(key, ciphertext) == b""


def test_ciphertext_differs_from_plaintext(rng):
    key = derive_key("alice", "bob")
    plaintext = b"x" * 256
    ciphertext = encrypt(key, plaintext, rng)
    assert ciphertext.body != plaintext


def test_distinct_nonces_give_distinct_ciphertexts(rng):
    key = derive_key("alice", "bob")
    plaintext = b"repeated message"
    c1 = encrypt(key, plaintext, rng)
    c2 = encrypt(key, plaintext, rng)
    assert c1.nonce != c2.nonce
    assert c1.body != c2.body


def test_key_derivation_is_symmetric():
    assert derive_key("alice", "bob").raw == derive_key("bob", "alice").raw


def test_key_derivation_separates_pairs():
    assert derive_key("alice", "bob").raw != derive_key("alice", "carol").raw


def test_tampered_body_rejected(rng):
    key = derive_key("alice", "bob")
    ciphertext = encrypt(key, b"attack at dawn", rng)
    tampered = Ciphertext(
        nonce=ciphertext.nonce,
        body=bytes([ciphertext.body[0] ^ 1]) + ciphertext.body[1:],
        tag=ciphertext.tag,
    )
    with pytest.raises(TransportError):
        decrypt(key, tampered)


def test_tampered_nonce_rejected(rng):
    key = derive_key("alice", "bob")
    ciphertext = encrypt(key, b"attack at dawn", rng)
    tampered = Ciphertext(
        nonce=bytes(len(ciphertext.nonce)),
        body=ciphertext.body,
        tag=ciphertext.tag,
    )
    with pytest.raises(TransportError):
        decrypt(key, tampered)


def test_wrong_key_rejected(rng):
    ciphertext = encrypt(derive_key("alice", "bob"), b"secret", rng)
    with pytest.raises(TransportError):
        decrypt(derive_key("alice", "carol"), ciphertext)


def test_short_key_rejected():
    with pytest.raises(TransportError):
        SessionKey(b"short")


def test_subkeys_differ():
    key = derive_key("alice", "bob")
    assert key.enc_key != key.mac_key


KAT_LENGTHS = [0, 1, 31, 32, 33, 4096]


@pytest.mark.parametrize("n", KAT_LENGTHS)
def test_ciphertext_len_accounts_for_all_parts(rng, n):
    key = derive_key("a", "b")
    ciphertext = encrypt(key, bytes(n), rng)
    assert len(ciphertext) == 16 + n + 32


@pytest.mark.parametrize("n", KAT_LENGTHS)
def test_known_answer(n):
    key = SessionKey(bytes(range(32)))
    plaintext = bytes((7 * i + 3) % 256 for i in range(n))
    ciphertext = encrypt(key, plaintext, np.random.default_rng(1234))
    nonce = ciphertext.nonce
    assert nonce == np.random.default_rng(1234).bytes(16)
    stream = hashlib.shake_256(key.enc_key + nonce).digest(n)
    assert ciphertext.body == bytes(p ^ s for p, s in zip(plaintext, stream))
    assert ciphertext.tag == hmac.new(
        key.mac_key, nonce + ciphertext.body, hashlib.sha256
    ).digest()
    assert decrypt(key, ciphertext) == plaintext


def test_long_message_roundtrip(rng):
    key = derive_key("a", "b")
    plaintext = bytes(range(256)) * 1000  # crosses many keystream blocks
    assert decrypt(key, encrypt(key, plaintext, rng)) == plaintext
