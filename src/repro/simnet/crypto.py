"""Symmetric transport encryption for the simulated network.

The paper assumes "encryption is applied before data is transmitted on the
network" and a semi-honest adversary.  The simulator therefore ships a small
but *real* authenticated symmetric cipher so that a network eavesdropper's
view (recorded by :mod:`repro.simnet.adversary`) contains only ciphertext,
while endpoints holding the session key recover the plaintext.

The construction is a standard encrypt-then-MAC over an XOF stream cipher:

* keystream: ``SHAKE-256(enc_key || nonce)`` squeezed to the plaintext
  length in one call, XORed with the plaintext,
* authentication: HMAC-SHA-256 over ``nonce || ciphertext`` with an
  independently derived MAC key.

The body is exactly as long as the plaintext, so a message's wire size
(16-byte nonce + body + 32-byte tag) and every traffic counter and
latency draw derived from lengths do not depend on the keystream
function; nothing outside this module reads the body bytes.

This is adequate for the *semi-honest modelling* purpose here (confidential
on the wire, tamper-evident, deterministic given an explicit nonce source).
It is not intended as production cryptography.
"""

from __future__ import annotations

import functools
import hashlib
import hmac
from dataclasses import dataclass

import numpy as np

from .errors import TransportError

__all__ = ["SessionKey", "Ciphertext", "encrypt", "decrypt", "derive_key"]

_NONCE_BYTES = 16


@dataclass(frozen=True)
class SessionKey:
    """A pairwise symmetric key with derived encryption and MAC subkeys."""

    raw: bytes

    def __post_init__(self) -> None:
        if len(self.raw) < 16:
            raise TransportError("session keys must be at least 128 bits")

    @functools.cached_property
    def enc_key(self) -> bytes:
        """Subkey used for the keystream (derived once per key object)."""
        return hashlib.sha256(b"enc|" + self.raw).digest()

    @functools.cached_property
    def mac_key(self) -> bytes:
        """Subkey used for the HMAC tag (derived once per key object)."""
        return hashlib.sha256(b"mac|" + self.raw).digest()


@dataclass(frozen=True)
class Ciphertext:
    """Wire format: nonce, ciphertext body, authentication tag."""

    nonce: bytes
    body: bytes
    tag: bytes

    def __len__(self) -> int:
        return len(self.nonce) + len(self.body) + len(self.tag)


@functools.lru_cache(maxsize=256)
def derive_key(*parts: str) -> SessionKey:
    """Derive a deterministic pairwise key from principal identifiers.

    In the semi-honest deployment the providers and the service provider are
    assumed to have provisioned pairwise keys out of band; deriving them from
    the (sorted) endpoint names keeps simulation runs reproducible without
    modelling a key-exchange protocol the paper does not discuss.  Derivation
    is memoized: the channel derives on every transmission, and long
    streaming sessions reuse the same few pairwise keys millions of times.
    """
    material = "|".join(sorted(parts)).encode("utf-8")
    return SessionKey(hashlib.sha256(b"sap-pairwise|" + material).digest())


def _keystream(key: SessionKey, nonce: bytes, length: int) -> bytes:
    return hashlib.shake_256(key.enc_key + nonce).digest(length)


def _xor(data: bytes, stream: bytes) -> bytes:
    """XOR two equal-length byte strings.

    Vectorized with numpy: the sharded data plane pushes every per-window
    record batch through the cipher, and a per-byte Python loop was the
    transport's dominant cost for payloads beyond a few KiB.  The output
    is byte-identical to the scalar loop it replaces.
    """
    if not data:
        return b""
    return (
        np.frombuffer(data, dtype=np.uint8)
        ^ np.frombuffer(stream, dtype=np.uint8)
    ).tobytes()


def encrypt(key: SessionKey, plaintext: bytes, rng: np.random.Generator) -> Ciphertext:
    """Encrypt-then-MAC ``plaintext`` under ``key``.

    The nonce is drawn from the caller's generator so protocol runs stay
    deterministic under a fixed seed while distinct messages still get
    distinct nonces with overwhelming probability.
    """
    nonce = rng.bytes(_NONCE_BYTES)
    stream = _keystream(key, nonce, len(plaintext))
    body = _xor(plaintext, stream)
    tag = hmac.new(key.mac_key, nonce + body, hashlib.sha256).digest()
    return Ciphertext(nonce=nonce, body=body, tag=tag)


def decrypt(key: SessionKey, ciphertext: Ciphertext) -> bytes:
    """Verify the tag and recover the plaintext.

    Raises
    ------
    TransportError
        If the authentication tag does not verify (tampering or wrong key).
    """
    expected = hmac.new(
        key.mac_key, ciphertext.nonce + ciphertext.body, hashlib.sha256
    ).digest()
    if not hmac.compare_digest(expected, ciphertext.tag):
        raise TransportError("message authentication failed")
    stream = _keystream(key, ciphertext.nonce, len(ciphertext.body))
    return _xor(ciphertext.body, stream)
