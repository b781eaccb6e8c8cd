"""The 12 named datasets used in the paper's experiments.

Each entry mirrors the published schema of the UCI original (rows, columns,
classes, class balance, feature domains).  The values themselves are
synthetic — see the module docstring of :mod:`repro.datasets.schema` for
why this substitution preserves the experiments' behaviour.

Shuttle is the one deliberate size deviation: the UCI original has 58,000
rows; we cap the synthetic stand-in at 2,000 rows (same 7-class extreme
skew) to keep the full benchmark suite laptop-scale, matching how the
paper's companion work subsampled it for perturbation experiments.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from .schema import Dataset, DatasetSpec, FeatureKind
from .synthesis import synthesize

__all__ = ["DATASET_SPECS", "DATASET_NAMES", "load_dataset", "dataset_summary"]

_C = FeatureKind.CONTINUOUS
_I = FeatureKind.INTEGER
_B = FeatureKind.BINARY


def _kinds(*groups: Tuple[FeatureKind, int]) -> Tuple[FeatureKind, ...]:
    kinds: list[FeatureKind] = []
    for kind, count in groups:
        kinds.extend([kind] * count)
    return tuple(kinds)


DATASET_SPECS: Dict[str, DatasetSpec] = {
    "breast_w": DatasetSpec(
        name="breast_w",
        n_rows=699,
        n_features=9,
        n_classes=2,
        class_priors=(0.655, 0.345),
        feature_kinds=_kinds((_I, 9)),
        class_separation=2.9,
        description=(
            "Wisconsin breast cancer: 699 rows, 9 integer cytology features "
            "(1-10 scale), benign/malignant 65/35."
        ),
    ),
    "credit_a": DatasetSpec(
        name="credit_a",
        n_rows=690,
        n_features=14,
        n_classes=2,
        class_priors=(0.555, 0.445),
        feature_kinds=_kinds((_C, 6), (_B, 4), (_I, 4)),
        class_separation=1.9,
        noise_dims=3,
        description=(
            "Australian credit approval: 690 rows, 14 mixed features, "
            "approved/rejected 55.5/44.5."
        ),
    ),
    "credit_g": DatasetSpec(
        name="credit_g",
        n_rows=1000,
        n_features=24,
        n_classes=2,
        class_priors=(0.70, 0.30),
        feature_kinds=_kinds((_C, 7), (_I, 13), (_B, 4)),
        class_separation=1.6,
        noise_dims=6,
        description=(
            "German credit (numeric encoding): 1000 rows, 24 features, "
            "good/bad 70/30."
        ),
    ),
    "diabetes": DatasetSpec(
        name="diabetes",
        n_rows=768,
        n_features=8,
        n_classes=2,
        class_priors=(0.651, 0.349),
        feature_kinds=_kinds((_C, 6), (_I, 2)),
        class_separation=1.5,
        noise_dims=1,
        description=(
            "Pima Indians diabetes: 768 rows, 8 physiological features, "
            "negative/positive 65/35."
        ),
    ),
    "ecoli": DatasetSpec(
        name="ecoli",
        n_rows=336,
        n_features=7,
        n_classes=8,
        class_priors=(0.425, 0.229, 0.155, 0.104, 0.059, 0.012, 0.008, 0.008),
        feature_kinds=_kinds((_C, 7)),
        class_separation=2.6,
        description=(
            "E. coli protein localization: 336 rows, 7 continuous features, "
            "8 sites with heavy skew (cp 42.5% .. imL 0.6%)."
        ),
    ),
    "hepatitis": DatasetSpec(
        name="hepatitis",
        n_rows=155,
        n_features=19,
        n_classes=2,
        class_priors=(0.794, 0.206),
        feature_kinds=_kinds((_B, 12), (_C, 5), (_I, 2)),
        class_separation=1.9,
        noise_dims=4,
        description=(
            "Hepatitis prognosis: 155 rows, 19 mostly-boolean clinical "
            "features, live/die 79/21."
        ),
    ),
    "heart": DatasetSpec(
        name="heart",
        n_rows=270,
        n_features=13,
        n_classes=2,
        class_priors=(0.556, 0.444),
        feature_kinds=_kinds((_C, 6), (_I, 4), (_B, 3)),
        class_separation=1.7,
        noise_dims=2,
        description=(
            "Statlog heart disease: 270 rows, 13 features, absent/present "
            "55.6/44.4."
        ),
    ),
    "ionosphere": DatasetSpec(
        name="ionosphere",
        n_rows=351,
        n_features=34,
        n_classes=2,
        class_priors=(0.641, 0.359),
        feature_kinds=_kinds((_C, 34)),
        class_separation=2.2,
        noise_dims=8,
        description=(
            "Ionosphere radar returns: 351 rows, 34 continuous pulse "
            "features, good/bad 64/36."
        ),
    ),
    "iris": DatasetSpec(
        name="iris",
        n_rows=150,
        n_features=4,
        n_classes=3,
        class_priors=(1 / 3, 1 / 3, 1 / 3),
        feature_kinds=_kinds((_C, 4)),
        class_separation=2.7,
        description="Iris: 150 rows, 4 continuous features, 3 balanced species.",
    ),
    "shuttle": DatasetSpec(
        name="shuttle",
        n_rows=2000,
        n_features=9,
        n_classes=7,
        class_priors=(0.786, 0.118, 0.062, 0.017, 0.009, 0.005, 0.003),
        feature_kinds=_kinds((_I, 9)),
        class_separation=3.2,
        description=(
            "Statlog shuttle (subsampled from 58k to 2k rows): 9 integer "
            "sensor features, 7 classes, Rad-Flow ~79%."
        ),
    ),
    "votes": DatasetSpec(
        name="votes",
        n_rows=435,
        n_features=16,
        n_classes=2,
        class_priors=(0.614, 0.386),
        feature_kinds=_kinds((_B, 16)),
        class_separation=2.4,
        description=(
            "Congressional voting records: 435 rows, 16 yes/no votes, "
            "democrat/republican 61/39."
        ),
    ),
    "wine": DatasetSpec(
        name="wine",
        n_rows=178,
        n_features=13,
        n_classes=3,
        class_priors=(0.331, 0.399, 0.270),
        feature_kinds=_kinds((_C, 13)),
        class_separation=2.6,
        description=(
            "Wine cultivars: 178 rows, 13 continuous chemical features, "
            "3 classes 33/40/27."
        ),
    ),
}

DATASET_NAMES: Tuple[str, ...] = tuple(DATASET_SPECS)

# The three "typical datasets" the paper singles out for Figures 3 and 4.
FIGURE3_DATASETS: Tuple[str, ...] = ("diabetes", "shuttle", "votes")


#: each registry table at its default seed, synthesized on first load
_TABLES: Dict[str, Dataset] = {}


def load_dataset(name: str, seed: Optional[int] = None) -> Dataset:
    """Load (synthesize) one of the 12 named datasets.

    Parameters
    ----------
    name:
        Case-insensitive registry key; see :data:`DATASET_NAMES`.
    seed:
        Synthesis seed.  Defaults to a stable per-dataset seed so that
        every experiment in the repository sees the same table.

    Notes
    -----
    At the default seed each table is synthesized once per process and
    kept; every call returns a new :class:`Dataset` over copies of the
    kept arrays, so no caller can change the table another one loads.
    An explicit ``seed`` synthesizes the table anew on every call.
    """
    key = name.lower()
    if key not in DATASET_SPECS:
        raise KeyError(
            f"unknown dataset {name!r}; available: {', '.join(DATASET_NAMES)}"
        )
    spec = DATASET_SPECS[key]
    if seed is not None:
        return synthesize(spec, seed=seed)
    table = _TABLES.get(key)
    if table is None:
        # Stable per-dataset default: hash-free, readable, reproducible.
        # Two threads may both synthesize it; their tables are equal.
        default_seed = 7_000 + sorted(DATASET_SPECS).index(key)
        table = _TABLES.setdefault(key, synthesize(spec, seed=default_seed))
    return Dataset(
        name=table.name,
        X=table.X.copy(),
        y=table.y.copy(),
        feature_names=table.feature_names,
    )


def dataset_summary() -> str:
    """ASCII table describing all registered datasets (used by the CLI)."""
    header = f"{'name':<12}{'rows':>6}{'dims':>6}{'classes':>9}  description"
    lines = [header, "-" * len(header)]
    for key in DATASET_NAMES:
        spec = DATASET_SPECS[key]
        lines.append(
            f"{spec.name:<12}{spec.n_rows:>6}{spec.n_features:>6}"
            f"{spec.n_classes:>9}  {spec.description}"
        )
    return "\n".join(lines)
