"""Baseline classifiers and evaluation for the beam-pair prediction task.

Heavier learners stay outside this package; the CSV export is the bridge.
These baselines give a floor (majority class) and a geometry-aware sanity
check (k-nearest neighbours on the flattened occupancy grids).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Examples
from .features import receiver_view
from .raytrace import LosStatus


@dataclass(frozen=True)
class MajorityModel:
    label: int
    num_classes: int


@dataclass(frozen=True)
class KnnModel:
    features: np.ndarray
    labels: np.ndarray
    k: int
    num_classes: int


@dataclass(frozen=True)
class EvalReport:
    accuracy_all: float
    accuracy_nlos: float | None  # None when the test set has no NLOS examples
    confusion: np.ndarray        # counts, true class by predicted class, 0..M
    n_examples: int


def examples_to_arrays(examples: Examples) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(features, labels, nlos mask) matrices for a table of examples."""
    views = receiver_view(examples.grids[examples.grid_row], examples.receiver)
    x = views.reshape(len(examples), -1).astype(np.float64)
    return x, examples.label, examples.los == LosStatus.NLOS.value


def majority_classifier(features: np.ndarray, labels: np.ndarray) -> MajorityModel:
    """Always predict the most frequent training label (ties: smallest label)."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size == 0:
        raise ValueError("empty training set")
    counts = np.bincount(labels)
    return MajorityModel(label=int(np.argmax(counts)), num_classes=int(labels.max()))


def knn_classifier(features: np.ndarray, labels: np.ndarray, k: int) -> KnnModel:
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if features.ndim != 2 or features.shape[0] != labels.shape[0]:
        raise ValueError("features must be (n, d) with one label per row")
    if not 1 <= k <= labels.shape[0]:
        raise ValueError("k must lie in [1, n_train]")
    return KnnModel(features=features, labels=labels, k=k, num_classes=int(labels.max()))


def predict(model, features: np.ndarray) -> np.ndarray:
    """Batch prediction; accepts a single vector or an (n, d) matrix."""
    x = np.atleast_2d(np.asarray(features, dtype=np.float64))
    if isinstance(model, MajorityModel):
        return np.full(x.shape[0], model.label, dtype=np.int64)
    if isinstance(model, KnnModel):
        if x.shape[1] != model.features.shape[1]:
            raise ValueError(
                f"feature dimension {x.shape[1]} does not match training dimension "
                f"{model.features.shape[1]}"
            )
        d2 = (
            (x**2).sum(axis=1)[:, None]
            + (model.features**2).sum(axis=1)[None, :]
            - 2.0 * x @ model.features.T
        )
        # stable argsort: equidistant neighbours resolve to the lower train index
        nearest = np.argsort(d2, axis=1, kind="stable")[:, : model.k]
        votes = model.labels[nearest]
        return np.array([int(np.argmax(np.bincount(row))) for row in votes], dtype=np.int64)
    raise TypeError(f"unknown model type {type(model).__name__}")


def evaluate(
    model,
    features: np.ndarray,
    labels: np.ndarray,
    nlos_mask: np.ndarray,
) -> EvalReport:
    """Accuracy over all examples and over the NLOS subset, plus the confusion matrix."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size == 0:
        raise ValueError("empty test set")
    nlos_mask = np.asarray(nlos_mask, dtype=bool)
    preds = predict(model, features)
    top = int(max(model.num_classes, labels.max(), preds.max()))
    confusion = np.zeros((top + 1, top + 1), dtype=np.int64)
    np.add.at(confusion, (labels, preds), 1)
    accuracy_all = float((preds == labels).mean())
    if nlos_mask.any():
        accuracy_nlos = float((preds[nlos_mask] == labels[nlos_mask]).mean())
    else:
        accuracy_nlos = None
    return EvalReport(
        accuracy_all=accuracy_all,
        accuracy_nlos=accuracy_nlos,
        confusion=confusion,
        n_examples=int(labels.size),
    )


def report_to_obj(report: EvalReport) -> dict:
    return {
        "accuracy_all": report.accuracy_all,
        "accuracy_nlos": report.accuracy_nlos,
        "n_examples": report.n_examples,
        "confusion": report.confusion.tolist(),
    }
