"""Durable sessions: versioned checkpoint / bit-identical restore.

The space-adaptation protocol already forces every piece of session state
to be explicit — incremental normalizers with exact merge algebra, online
miners that migrate across epochs via the adaptor identity, epoch + trust
state, event-time ingest gates — so durability is one serialization layer
away.  This package is that layer:

* :mod:`~repro.checkpoint.codec` — the repo's one value codec: a
  pickle-free tagged binary walker with two byte layouts.  ``RECORDS``
  (checkpoints and replica frames) round-trips numpy arrays/scalars, big
  RNG state integers, insertion-ordered dicts, and registered dataclasses
  and enums exactly; ``PAYLOADS`` is the simnet message format, whose
  length the network charges;
* :mod:`~repro.checkpoint.checkpoint` — the versioned
  :class:`SessionCheckpoint` file format (magic, schema version, sha256
  payload fingerprint, atomic write-then-rename, corruption refusal), the
  runtime :class:`Checkpointer` policy (checkpoint-every-N-windows, the
  eviction signal), and :class:`SessionEvicted`.

The *content* of a checkpoint is the stream driver's run-state record,
in which each stateful component keeps its own snapshot; this package
deliberately knows nothing about streaming or serving, so every other
subpackage may import it without cycles.  The restore invariant, enforced
by the round-trip property tests: kill/restore at any round boundary
reproduces the uninterrupted session fingerprint **bit-identically**,
across backends, shard counts, plans, late policies, and mid-run
re-negotiations.
"""

from .checkpoint import (
    SCHEMA_VERSION,
    Checkpointer,
    CheckpointError,
    SessionCheckpoint,
    SessionEvicted,
    dumps_checkpoint,
    list_checkpoints,
    load_checkpoint,
    loads_checkpoint,
    prune_checkpoints,
    save_checkpoint,
)
from .codec import CodecError, decode, encode, register

__all__ = [
    "SCHEMA_VERSION",
    "CheckpointError",
    "SessionEvicted",
    "SessionCheckpoint",
    "Checkpointer",
    "dumps_checkpoint",
    "loads_checkpoint",
    "save_checkpoint",
    "load_checkpoint",
    "list_checkpoints",
    "prune_checkpoints",
    "CodecError",
    "register",
    "encode",
    "decode",
]
