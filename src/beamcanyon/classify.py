"""Baseline classifiers and evaluation for the beam-pair prediction task.

Heavier learners stay outside this package; the CSV export is the bridge.
These baselines give a floor (majority class) and a geometry-aware sanity
check (k-nearest neighbours on the flattened occupancy grids).

The kNN takes finite integer features only, of any numeric dtype, whose
largest magnitude m satisfies 4 * d * m**2 < 2**24 (d features per row),
in training and query rows alike. Every term of |x|^2 + |y|^2 - 2 x.y is
then an integer below 2**24, so float32 gets the float64 distances whatever
the summation order. The per-receiver grid codes (-3..1) are such features.

``examples_to_arrays`` builds one int8 feature row per example, 64 (STACK)
rows at a time, of every column or of the columns of a mask only. The kNN
model keeps only the feature columns that vary over its training rows, in
the input's own dtype (int8 from ``examples_to_arrays``), with no float32
copy. ``varying_columns`` finds them in one pass over the training rows'
views, so that ``classify`` stacks only those columns and never holds the
full-width training matrix. A column that holds the same value c in every
training row adds the same (x_j - c)**2 to every distance of a query row,
so dropping it shifts each row of distances by one constant and leaves the
neighbours as they were.

Prediction goes over the training rows 512 (BLOCK) at a time, each block
cast to float32 once, and over the test rows 256 (CHUNK) at a time, so the
float32 operands never hold more than one block and one chunk. A row's
distances d2 are exact, so the int64 key d2 * n_train + train_index is
unique within the row. Each test row keeps its k smallest keys over the
blocks seen so far; after the last block they pick its k nearest train
rows, equidistant ones resolving to the lower train index, whatever the
block edges.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Examples
from .features import receiver_view
from .raytrace import LosStatus

STACK = 64  # rows per block of feature stacking: a block's receiver views take 6 bytes a cell at their peak
CHUNK = 256  # query rows per block of kNN distances
BLOCK = 512  # training rows per float32 block of kNN distances


@dataclass(frozen=True)
class MajorityModel:
    label: int
    num_classes: int


@dataclass(frozen=True)
class KnnModel:
    features: np.ndarray  # the training rows' varying columns only, in the input's dtype
    columns: np.ndarray   # bool over the input width: which columns `features` holds
    labels: np.ndarray
    k: int
    num_classes: int


def _feature_blocks(examples: Examples):
    """Yield (rows, that block's receiver views flattened to feature rows), STACK rows at a time."""
    for start in range(0, len(examples), STACK):
        rows = slice(start, start + STACK)
        views = receiver_view(examples.grids[examples.grid_row[rows]], examples.receiver[rows])
        yield rows, views.reshape(len(views), -1)


def varying_columns(examples: Examples) -> np.ndarray:
    """Which feature columns of ``examples_to_arrays`` vary over the examples (bool, one per column)."""
    blocks = (x for _, x in _feature_blocks(examples))
    first = next(blocks, np.zeros((1, int(np.prod(examples.grids.shape[1:]))), dtype=examples.grids.dtype))
    lo, hi = first.min(axis=0), first.max(axis=0)
    for x in blocks:
        np.minimum(lo, x.min(axis=0), out=lo)
        np.maximum(hi, x.max(axis=0), out=hi)
    return lo != hi


def examples_to_arrays(
    examples: Examples, columns: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(features, labels, nlos mask) for a table of examples; one int8 feature row per example.

    With a bool mask ``columns``, the features hold only those columns.
    """
    width = int(np.prod(examples.grids.shape[1:]))
    x = np.empty((len(examples), width if columns is None else np.count_nonzero(columns)), dtype=np.int8)
    for rows, features in _feature_blocks(examples):
        x[rows] = features if columns is None else np.compress(columns, features, axis=1)
    return x, examples.label, examples.los == LosStatus.NLOS.value


def majority_classifier(features: np.ndarray, labels: np.ndarray) -> MajorityModel:
    """Always predict the most frequent training label (ties: smallest label)."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size == 0:
        raise ValueError("empty training set")
    counts = np.bincount(labels)
    return MajorityModel(label=int(np.argmax(counts)), num_classes=int(labels.max()))


def _check_exact(features: np.ndarray) -> None:
    """Reject features whose float32 distances would not be exact.

    Only floats are tested for integers: ``np.rint`` of int8 would allocate a float16 copy.
    """
    lo, hi = float(features.min(initial=0)), float(features.max(initial=0))  # NaN and infinities fail the bound
    exact = 4 * features.shape[-1] * max(lo * lo, hi * hi) < 2**24
    if not (exact and (features.dtype.kind != "f" or (np.rint(features) == features).all())):
        raise ValueError("kNN features must be finite integers in float32's exact range, 4 * d * m**2 < 2**24")


def knn_classifier(
    features: np.ndarray, labels: np.ndarray, k: int, columns: np.ndarray | None = None
) -> KnnModel:
    """Fit the kNN on the training rows' varying columns.

    ``features`` is the full-width training rows, or, with a bool mask
    ``columns`` over the full width that holds every column varying over
    them (``varying_columns``), only those columns of them.
    """
    features = np.asarray(features)
    labels = np.asarray(labels, dtype=np.int64)
    if features.ndim != 2 or features.shape[0] != labels.shape[0]:
        raise ValueError("features must be (n, d) with one label per row")
    if not 1 <= k <= labels.shape[0]:
        raise ValueError("k must lie in [1, n_train]")
    if labels.min() < 0:
        raise ValueError("labels must be non-negative")
    _check_exact(features)
    if columns is None:
        columns = features.min(axis=0) != features.max(axis=0)
        features = np.compress(columns, features, axis=1)  # faster than features[:, columns]
    elif features.shape[1] != np.count_nonzero(columns):
        raise ValueError(f"{features.shape[1]} feature columns, but {np.count_nonzero(columns)} columns are named")
    return KnnModel(features=features, columns=columns, labels=labels, k=k, num_classes=int(labels.max()))


def _k_smallest(key: np.ndarray, k: int) -> np.ndarray:
    """The k smallest values of each row of ``key`` (all of a row of k or fewer), in no order.

    Partitions ``key`` in place.
    """
    if key.shape[1] > k:
        key.partition(k - 1, axis=1)
    return key[:, :k]


def _knn_predict(model: KnnModel, x: np.ndarray) -> np.ndarray:
    """Majority label of each row's k nearest train rows (ties: smallest label)."""
    n_train, k = len(model.labels), model.k
    queries = np.compress(model.columns, x, axis=1)
    query_norms = np.einsum("ij,ij->i", queries, queries, dtype=np.float32, casting="same_kind")
    best = np.empty((len(x), 0), dtype=np.int64)  # each row's k smallest keys over the blocks so far
    for offset in range(0, n_train, BLOCK):
        block = model.features[offset:offset + BLOCK].astype(np.float32)
        block_norms = np.einsum("ij,ij->i", block, block)
        index = np.arange(offset, offset + len(block))
        merged = np.empty((len(x), min(k, best.shape[1] + len(block))), dtype=np.int64)
        for start in range(0, len(x), CHUNK):
            rows = slice(start, start + CHUNK)
            d2 = queries[rows].astype(np.float32) @ block.T
            d2 *= -2
            d2 += query_norms[rows, None]
            d2 += block_norms
            key = d2.astype(np.int64)
            del d2
            key *= n_train
            key += index
            merged[rows] = _k_smallest(np.concatenate([best[rows], _k_smallest(key, k)], axis=1), k)
            del key
        best = merged
        del block  # before the next block is cast
    width = model.num_classes + 1
    votes = np.arange(len(x))[:, None] * width + model.labels[best % n_train]
    counts = np.bincount(votes.ravel(), minlength=len(x) * width)
    return counts.reshape(len(x), width).argmax(axis=1)


def predict(model, features: np.ndarray) -> np.ndarray:
    """Batch prediction; accepts a single vector or an (n, d) matrix."""
    x = np.atleast_2d(np.asarray(features))
    if isinstance(model, MajorityModel):
        return np.full(x.shape[0], model.label, dtype=np.int64)
    if isinstance(model, KnnModel):
        if x.shape[1] != model.columns.size:
            raise ValueError(
                f"feature dimension {x.shape[1]} does not match training dimension {model.columns.size}"
            )
        _check_exact(x)
        return _knn_predict(model, x)
    raise TypeError(f"unknown model type {type(model).__name__}")


def evaluate(
    model,
    features: np.ndarray,
    labels: np.ndarray,
    nlos_mask: np.ndarray,
) -> dict:
    """The model's ``classify_report.json`` entry: the accuracy over all examples and over
    the NLOS subset (None without NLOS rows), the example count, and the confusion counts,
    true class by predicted class (0..M), as nested lists.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size == 0:
        raise ValueError("empty test set")
    nlos_mask = np.asarray(nlos_mask, dtype=bool)
    preds = predict(model, features)
    top = int(max(model.num_classes, labels.max(), preds.max()))
    confusion = np.zeros((top + 1, top + 1), dtype=np.int64)
    np.add.at(confusion, (labels, preds), 1)
    return {
        "accuracy_all": float((preds == labels).mean()),
        "accuracy_nlos": float((preds[nlos_mask] == labels[nlos_mask]).mean()) if nlos_mask.any() else None,
        "n_examples": int(labels.size),
        "confusion": confusion.tolist(),
    }
