"""Versioned, corruption-detecting session checkpoints.

A checkpoint file is::

    magic (4B) | schema version (u16) | sha256(payload) (32B)
    | payload length (u64) | payload

with the payload encoded by :mod:`repro.checkpoint.codec`.  The header
makes every failure mode a *distinct, friendly* error: wrong magic (not a
checkpoint at all), version mismatch (written by an incompatible build),
truncation (length disagrees with the file), and bit rot (digest
disagrees with the payload).  All of them raise :class:`CheckpointError`,
a ``ValueError`` subclass, which the CLI maps to a one-line ``error:``
message and exit code 2.

Writes are atomic: the payload lands in a ``.tmp`` sibling first and is
``os.replace``d into place, so a crash mid-save can never leave a
half-written file under the checkpoint's final name.

:class:`Checkpointer` is the runtime side: the session driver asks it
:meth:`~Checkpointer.due` at every round boundary and hands it the state
payload to :meth:`~Checkpointer.save`.  It also carries the *eviction*
signal — a thread-safe request (from a serving engine or a
``--stop-after`` budget) to checkpoint at the next boundary and abandon
the run with :class:`SessionEvicted`, which names the checkpoint file to
resume from.
"""

from __future__ import annotations

import hashlib
import os
import struct
import threading
import time
from dataclasses import dataclass, field, is_dataclass, replace
from typing import Any, Callable, Dict, List, Optional

from .codec import CodecError, decode, encode

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
]

#: File magic: "repro checkpoint".
MAGIC = b"RPCK"

#: Bump on any incompatible payload-layout change; loads refuse other
#: versions rather than guessing.  Version 3 stores the whole session
#: state as one registered run-state record holding each component's own
#: snapshot record (see :func:`repro.checkpoint.codec.register`); version
#: 2 (a state mapping filled by the driver) and 1 files are refused.
SCHEMA_VERSION = 3

_HEADER = struct.Struct(">4sH32sQ")


class CheckpointError(ValueError):
    """A checkpoint cannot be written, read, or applied.

    Subclasses ``ValueError`` so the CLI's friendly error path (one-line
    message, exit 2) handles it without special casing.
    """


class SessionEvicted(Exception):
    """A session was checkpointed and abandoned at a round boundary.

    Raised *through* the session driver when eviction was requested (by
    :meth:`repro.serve.MiningService.evict` or a ``--stop-after`` budget).
    Carries the path of the checkpoint that resumes the session.
    """

    def __init__(self, path: str, windows_done: int, records: int) -> None:
        super().__init__(
            f"session evicted after {windows_done} windows "
            f"({records} records); resume from {path}"
        )
        self.path = path
        self.windows_done = windows_done
        self.records = records


@dataclass(frozen=True)
class SessionCheckpoint:
    """One loaded (or about-to-be-saved) checkpoint.

    ``payload`` is the full decoded state mapping; ``fingerprint`` is the
    sha256 hex digest of its encoded bytes — the *format fingerprint*
    that names this exact state, printed by ``repro checkpoint inspect``
    and stable across save/load round trips.  ``path`` names the file it
    was loaded from or saved to (``None`` for one decoded from bytes); a
    resumed session's log names it.

    The ``config``, ``source``, ``progress`` and ``state`` accessors
    check their part of the payload and raise :class:`CheckpointError`
    naming it when it is missing or of the wrong type.
    """

    schema_version: int
    fingerprint: str
    payload: Dict[str, Any]
    path: Optional[str] = field(default=None, compare=False)

    def _part(self, name: str, valid: Callable[[Any], bool], kind: str) -> Any:
        if name not in self.payload:
            raise CheckpointError(f"checkpoint carries no {name}")
        value = self.payload[name]
        if not valid(value):
            raise CheckpointError(
                f"checkpoint {name} is a {type(value).__name__}, not a {kind}"
            )
        return value

    @property
    def config(self) -> Any:
        """The session config (a registered dataclass) it was taken under."""
        return self._part("config", is_dataclass, "session config")

    @property
    def source(self) -> Dict[str, Any]:
        """The stream source's identity (``make_stream`` arguments)."""
        return self._part("source", lambda v: isinstance(v, dict), "mapping")

    @property
    def state(self) -> Any:
        """The session state record (a registered dataclass)."""
        return self._part("state", is_dataclass, "session state record")

    @property
    def spec(self) -> Optional[Dict[str, Any]]:
        return self.payload.get("spec")

    @property
    def progress(self) -> Dict[str, Any]:
        """Records, windows and epochs completed at the checkpoint."""
        return self._part("progress", lambda v: isinstance(v, dict), "mapping")

    def describe(self) -> Dict[str, Any]:
        """The ``inspect`` summary: identity + progress, no bulk state."""
        progress = self.progress
        source = self.source
        config = self.config
        return {
            "schema_version": self.schema_version,
            "fingerprint": self.fingerprint,
            "created_unix": self.payload.get("created_unix"),
            "dataset": source.get("name"),
            "stream": source.get("kind"),
            "n_records": source.get("n_records"),
            "k": getattr(config, "k", None),
            "classifier": getattr(config, "classifier", None),
            "window_size": getattr(config, "window_size", None),
            "shards": getattr(config, "shards", None),
            "shard_backend": getattr(config, "shard_backend", None),
            "seed": getattr(config, "seed", None),
            "records": progress.get("records"),
            "windows": progress.get("windows"),
            "epochs": progress.get("epochs"),
            "resumable_by_service": self.spec is not None,
        }


def dumps_checkpoint(payload: Dict[str, Any]) -> bytes:
    """Serialize ``payload`` into the full on-disk checkpoint format.

    The returned bytes *are* a checkpoint file — header (magic, schema
    version, payload digest, payload length) plus the codec-encoded
    payload — so they can travel over a wire and be written verbatim on
    the other side, or handed straight to :func:`loads_checkpoint`.
    """
    try:
        body = encode(payload)
    except CodecError as exc:
        raise CheckpointError(f"cannot encode checkpoint state: {exc}") from exc
    digest = hashlib.sha256(body).digest()
    header = _HEADER.pack(MAGIC, SCHEMA_VERSION, digest, len(body))
    return header + body


def loads_checkpoint(
    data: bytes, origin: str = "checkpoint data"
) -> SessionCheckpoint:
    """Validate and decode checkpoint *bytes*; refuses anything damaged.

    The byte-level inverse of :func:`dumps_checkpoint` — the same
    validation :func:`load_checkpoint` applies to a file, without the
    file.  ``origin`` names the bytes' source in error messages (a path,
    a replica, ...) so every damage mode stays a distinct, attributable
    :class:`CheckpointError`: truncated header, foreign magic, schema
    version mismatch, length mismatch, digest mismatch, undecodable
    payload, and a payload that carries no session state.
    """
    if len(data) < _HEADER.size:
        raise CheckpointError(
            f"checkpoint {origin} is truncated "
            f"({len(data)} bytes; the header alone is {_HEADER.size})"
        )
    magic, version, digest, length = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise CheckpointError(f"{origin} is not a repro checkpoint file")
    if version != SCHEMA_VERSION:
        raise CheckpointError(
            f"checkpoint {origin} has schema version {version}; this build "
            f"reads version {SCHEMA_VERSION} only"
        )
    body = data[_HEADER.size:]
    if len(body) != length:
        raise CheckpointError(
            f"checkpoint {origin} is truncated: header promises {length} "
            f"payload bytes, file carries {len(body)}"
        )
    if hashlib.sha256(body).digest() != digest:
        raise CheckpointError(
            f"checkpoint {origin} is corrupt: payload digest mismatch"
        )
    try:
        payload = decode(body)
    except CodecError as exc:
        raise CheckpointError(
            f"checkpoint {origin} payload does not decode: {exc}"
        ) from exc
    if not isinstance(payload, dict) or "state" not in payload:
        raise CheckpointError(
            f"checkpoint {origin} does not carry session state"
        )
    return SessionCheckpoint(
        schema_version=version, fingerprint=digest.hex(), payload=payload
    )


def save_checkpoint(path: str, payload: Dict[str, Any]) -> SessionCheckpoint:
    """Atomically write ``payload`` to ``path``; returns the checkpoint."""
    raw = dumps_checkpoint(payload)
    _, _, digest, _ = _HEADER.unpack_from(raw)
    tmp_path = f"{path}.tmp"
    try:
        with open(tmp_path, "wb") as handle:
            handle.write(raw)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except OSError as exc:
        raise CheckpointError(f"cannot write checkpoint {path!r}: {exc}") from exc
    return SessionCheckpoint(
        schema_version=SCHEMA_VERSION,
        fingerprint=digest.hex(),
        payload=payload,
        path=path,
    )


def load_checkpoint(path: str) -> SessionCheckpoint:
    """Read and validate a checkpoint file; refuses anything damaged."""
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path!r}: {exc}") from exc
    return replace(loads_checkpoint(raw, origin=f"{path!r}"), path=path)


@dataclass
class Checkpointer:
    """Round-boundary checkpoint policy + eviction signal for one session.

    Parameters
    ----------
    directory:
        Where checkpoint files land (created on first save).
    every:
        Save whenever this many *new* windows completed since the last
        save; ``None`` saves only when eviction is requested.
    label:
        File-name stem; files are ``<label>-w<windows>.ckpt``.
    spec_mapping:
        Optional :meth:`~repro.serve.SessionSpec.to_mapping` payload,
        embedded so a serving engine can re-admit the session from the
        file alone.
    telemetry:
        Optional :class:`repro.obs.Telemetry`; saves emit a ``checkpoint``
        span and count into ``repro_checkpoints_total{outcome="saved"}``.
    retain:
        Keep only the newest ``retain`` checkpoint files for this label
        among those at or before the boundary just saved; older ones are
        deleted after each successful save, and a file with a later
        boundary (an earlier run's) is never touched.  ``None`` (default)
        keeps every save.
    """

    directory: str
    every: Optional[int] = None
    label: str = "session"
    spec_mapping: Optional[Dict[str, Any]] = None
    telemetry: Optional[Any] = None
    stop_after: Optional[int] = None
    retain: Optional[int] = None
    saved_paths: List[str] = field(default_factory=list)
    last_path: Optional[str] = None

    def __post_init__(self) -> None:
        if self.every is not None and self.every < 1:
            raise CheckpointError(
                f"checkpoint interval must be a positive number of windows, "
                f"got {self.every}"
            )
        if self.stop_after is not None and self.stop_after < 1:
            raise CheckpointError(
                f"stop-after must be a positive number of windows, "
                f"got {self.stop_after}"
            )
        if self.retain is not None and self.retain < 1:
            raise CheckpointError(
                f"retain must keep at least one checkpoint, got {self.retain}"
            )
        self._evict = threading.Event()
        self._last_saved_windows = -1

    # -- eviction ------------------------------------------------------
    def request_evict(self) -> None:
        """Ask the session to checkpoint and abandon at the next boundary."""
        self._evict.set()

    @property
    def evict_requested(self) -> bool:
        return self._evict.is_set()

    # -- policy --------------------------------------------------------
    def due(self, windows_done: int) -> bool:
        """Should the driver checkpoint at this round boundary?"""
        if self.stop_after is not None and windows_done >= self.stop_after:
            self._evict.set()
        if self._evict.is_set():
            return True
        if self.every is None or windows_done == 0:
            return False
        return windows_done - max(self._last_saved_windows, 0) >= self.every

    # -- persistence ---------------------------------------------------
    def save(self, payload: Dict[str, Any]) -> str:
        """Write one checkpoint file; returns its path."""
        windows_done = int(payload["progress"]["windows"])
        if windows_done == self._last_saved_windows:
            return self.last_path  # same boundary; nothing new to persist
        payload = dict(payload, created_unix=_now())
        if self.spec_mapping is not None:
            payload["spec"] = self.spec_mapping
        try:
            os.makedirs(self.directory, exist_ok=True)
        except OSError as exc:
            raise CheckpointError(
                f"cannot create checkpoint directory {self.directory!r}: {exc}"
            ) from exc
        path = os.path.join(
            self.directory, f"{self.label}-w{windows_done:05d}.ckpt"
        )
        tel = self.telemetry
        span = (
            tel.span("checkpoint", outcome="saved", windows=windows_done)
            if tel is not None and tel.enabled
            else None
        )
        try:
            save_checkpoint(path, payload)
        finally:
            if span is not None:
                span.end()
        if tel is not None:
            tel.metrics.counter(
                "repro_checkpoints_total",
                "Checkpoint operations by outcome.",
                outcome="saved",
            ).inc()
        self._last_saved_windows = windows_done
        self.saved_paths.append(path)
        self.last_path = path
        if self.retain is not None:
            # Only boundaries up to this one compete for the kept slots, so
            # the file just written always stays; a later boundary is an
            # earlier run's (engine labels restart at 0 in every run).
            earlier = [
                p
                for p in list_checkpoints(self.directory, label=self.label)
                if _parse_checkpoint_name(os.path.basename(p))[1] <= windows_done
            ]
            removed = set(_remove_checkpoints(earlier[: -self.retain]))
            self.saved_paths = [p for p in self.saved_paths if p not in removed]
        return path


def list_checkpoints(directory: str, label: Optional[str] = None) -> List[str]:
    """Checkpoint files under ``directory``, oldest boundary first.

    Recognizes the ``<label>-w<windows>.ckpt`` names written by
    :class:`Checkpointer`; other files are ignored.  ``label`` restricts
    the listing to one session's files.  Ordering is (label, windows), so
    per-session sequences read in save order.
    """
    try:
        names = os.listdir(directory)
    except OSError as exc:
        raise CheckpointError(
            f"cannot list checkpoint directory {directory!r}: {exc}"
        ) from exc
    found = []
    for name in names:
        parsed = _parse_checkpoint_name(name)
        if parsed is None:
            continue
        file_label, windows = parsed
        if label is not None and file_label != label:
            continue
        found.append((file_label, windows, os.path.join(directory, name)))
    found.sort()
    return [path for _, _, path in found]


def prune_checkpoints(
    directory: str, retain: int, label: Optional[str] = None
) -> List[str]:
    """Delete all but the newest ``retain`` checkpoints per session label.

    Retention is applied *per label* so one chatty session cannot evict
    another session's only checkpoint.  Returns the deleted paths.
    """
    if retain < 1:
        raise CheckpointError(
            f"retain must keep at least one checkpoint, got {retain}"
        )
    by_label: Dict[str, List[str]] = {}
    for path in list_checkpoints(directory, label=label):
        name_label, _ = _parse_checkpoint_name(os.path.basename(path))
        by_label.setdefault(name_label, []).append(path)
    removed: List[str] = []
    for paths in by_label.values():
        removed += _remove_checkpoints(paths[:-retain])
    return removed


def _remove_checkpoints(paths: List[str]) -> List[str]:
    """Delete ``paths``; returns the ones this call removed."""
    removed = []
    for path in paths:
        try:
            os.remove(path)
        except FileNotFoundError:
            continue  # concurrent pruner got there first
        except OSError as exc:
            raise CheckpointError(
                f"cannot prune checkpoint {path!r}: {exc}"
            ) from exc
        removed.append(path)
    return removed


def _parse_checkpoint_name(name: str):
    """``(label, windows)`` from ``<label>-w<NNNNN>.ckpt``, else ``None``."""
    if not name.endswith(".ckpt"):
        return None
    stem = name[: -len(".ckpt")]
    label, sep, windows = stem.rpartition("-w")
    if not sep or not label or not windows.isdigit():
        return None
    return label, int(windows)


def _now() -> float:
    """Wall-clock stamp for checkpoint metadata (patchable in tests)."""
    return time.time()
