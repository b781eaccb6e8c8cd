"""The service provider (data miner) role.

The miner is the computationally rich party: it receives ``k`` anonymously
forwarded perturbed tables and the tagged adaptor sequence, joins them by
tag, adapts every table into the unified target space, pools them, trains
the configured classifier, and reports accuracy back to the providers.

What the miner *never* holds: raw data, any provider's perturbation
parameters, the target parameters, or the exchange permutation.  Its entire
view is auditable via the network's observation ledger, which the
integration tests use to verify the information-flow claims.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..checkpoint.codec import register
from ..core.adaptation import SpaceAdaptor
from ..mining.metrics import accuracy_score
from ..simnet.channel import Network
from ..simnet.messages import Message, MessageKind
from ..simnet.node import Node
from .config import SAPConfig, make_classifier

__all__ = ["MinerResult", "ServiceProvider"]


@register
@dataclass
class MinerResult:
    """What the miner produces at the end of a run."""

    accuracy: float
    n_train: int
    n_test: int
    classifier_name: str
    per_tag_rows: Dict[str, int] = field(default_factory=dict)
    pooled_features: Optional[np.ndarray] = None  # (n, d) target-space rows
    pooled_labels: Optional[np.ndarray] = None
    pooled_test_mask: Optional[np.ndarray] = None
    # the fitted classifier (service phase) stays in the process that
    # fitted it; elsewhere the pooled rows re-fit one when needed
    model: Optional[object] = field(default=None, compare=False)


class ServiceProvider(Node):
    """The paper's mining service provider ``SP``."""

    def __init__(
        self,
        name: str,
        network: Network,
        config: SAPConfig,
        seed: int = 0,
    ) -> None:
        super().__init__(name, network, seed=seed)
        self.config = config
        self._datasets_by_tag: Dict[str, Dict[str, np.ndarray]] = {}
        self._adaptors_by_tag: Optional[Dict[str, SpaceAdaptor]] = None
        self._mined_datasets = 0
        self.result: Optional[MinerResult] = None
        self.abort_reason: Optional[str] = None

    # ------------------------------------------------------------------
    # collection handlers
    # ------------------------------------------------------------------
    def on_forwarded_dataset(self, message: Message) -> None:
        """Store one anonymized perturbed table, keyed by its tag."""
        tag = message.payload["tag"]
        if tag in self._datasets_by_tag:
            raise ValueError(f"duplicate dataset for tag {tag!r}")
        self._datasets_by_tag[tag] = {
            "features": np.asarray(message.payload["features"], dtype=float),
            "labels": np.asarray(message.payload["labels"], dtype=np.int64),
            "test_mask": np.asarray(message.payload["test_mask"], dtype=bool),
        }
        self._maybe_mine()

    def on_adaptor_sequence(self, message: Message) -> None:
        """Store (or extend) the coordinator's tagged adaptor sequence.

        A second sequence with *new* tags is the dynamic-join extension's
        incremental update; repeating a tag is always a protocol error.
        """
        if self._adaptors_by_tag is None:
            self._adaptors_by_tag = {}
        for entry in message.payload["adaptors"]:
            tag = entry["tag"]
            if tag in self._adaptors_by_tag:
                raise ValueError(f"duplicate adaptor for tag {tag!r}")
            self._adaptors_by_tag[tag] = SpaceAdaptor(
                rotation_adaptor=np.asarray(entry["rotation_adaptor"]),
                translation_adaptor=np.asarray(entry["translation_adaptor"]),
            )
        self._maybe_mine()

    # ------------------------------------------------------------------
    # mining
    # ------------------------------------------------------------------
    def _maybe_mine(self) -> None:
        if self._adaptors_by_tag is None:
            return
        if len(self._datasets_by_tag) < self.config.k:
            return
        # Re-mine only when new tables arrived (initial round, or a
        # dynamic-join increment).
        if len(self._datasets_by_tag) <= self._mined_datasets:
            return
        # Wait until every collected dataset has its adaptor.
        if set(self._datasets_by_tag) - set(self._adaptors_by_tag):
            return

        feature_blocks: List[np.ndarray] = []
        label_blocks: List[np.ndarray] = []
        mask_blocks: List[np.ndarray] = []
        per_tag_rows: Dict[str, int] = {}
        for tag in sorted(self._datasets_by_tag):
            entry = self._datasets_by_tag[tag]
            adapted = self._adaptors_by_tag[tag].apply(entry["features"])
            feature_blocks.append(adapted.T)  # to row orientation
            label_blocks.append(entry["labels"])
            mask_blocks.append(entry["test_mask"])
            per_tag_rows[tag] = entry["labels"].shape[0]

        X = np.vstack(feature_blocks)
        y = np.concatenate(label_blocks)
        test_mask = np.concatenate(mask_blocks)

        model = make_classifier(self.config.classifier)
        X_train, y_train = X[~test_mask], y[~test_mask]
        X_test, y_test = X[test_mask], y[test_mask]
        model.fit(X_train, y_train)
        accuracy = accuracy_score(y_test, model.predict(X_test))
        self._mined_datasets = len(self._datasets_by_tag)

        self.result = MinerResult(
            accuracy=accuracy,
            n_train=int((~test_mask).sum()),
            n_test=int(test_mask.sum()),
            classifier_name=self.config.classifier.name,
            per_tag_rows=per_tag_rows,
            pooled_features=X,
            pooled_labels=y,
            pooled_test_mask=test_mask,
            model=model,
        )
        report = {
            "accuracy": float(accuracy),
            "n_train": self.result.n_train,
            "n_test": self.result.n_test,
            "classifier": self.config.classifier.name,
        }
        for index in range(self.config.k):
            self.send(
                MessageKind.MODEL_REPORT,
                self.config.provider_name(index),
                dict(report),
            )

    def on_abort(self, message: Message) -> None:
        """Coordinator aborted the run: drop all partial state.

        A semi-honest miner must not keep tables from a run that will
        never complete — the abort wipes them and records the reason.
        """
        self.abort_reason = message.payload.get("reason", "aborted")
        self._datasets_by_tag.clear()
        self._adaptors_by_tag = None

    # ------------------------------------------------------------------
    # model service (the "service provision scheme" of Figure 1)
    # ------------------------------------------------------------------
    def on_classify_request(self, message: Message) -> None:
        """Classify target-space records for a provider.

        The provider sends its new records already expressed in the
        unified target space (it holds the target parameters; the miner
        still never does), so the miner sees query records exactly as
        protected as the training pool.
        """
        if self.result is None or self.result.model is None:
            self.send(
                MessageKind.CLASSIFY_RESPONSE,
                message.sender,
                {
                    "request_id": message.payload["request_id"],
                    "error": "no model trained yet",
                },
            )
            return
        features = np.asarray(message.payload["features"], dtype=float)
        labels = self.result.model.predict(features.T)
        self.send(
            MessageKind.CLASSIFY_RESPONSE,
            message.sender,
            {
                "request_id": message.payload["request_id"],
                "labels": np.asarray(labels, dtype=np.int64),
            },
        )
