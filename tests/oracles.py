"""Scalar reference implementations of the batched production paths.

These are the per-pair channel composition and beam sweep, and the
cell-by-cell CSV writer, exactly as they were before the batched rewrite. The
batched code must reproduce them bit for bit.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from beamcanyon.dataset import CSV_FIXED_COLUMNS, Example
from beamcanyon.mimo import ArraySpec
from beamcanyon.raytrace import Ray


def upa_steering(azimuth: float, elevation: float, spec: ArraySpec) -> np.ndarray:
    u = math.sin(elevation) * math.cos(azimuth)
    v = math.sin(elevation) * math.sin(azimuth)
    m = np.arange(spec.nx)[:, None]
    n = np.arange(spec.ny)[None, :]
    phase = 2.0 * math.pi * spec.spacing_wavelengths * (m * u + n * v)
    return (np.exp(1j * phase) / math.sqrt(spec.size)).reshape(-1)


def compose_channel(rays: Sequence[Ray], tx_spec: ArraySpec, rx_spec: ArraySpec) -> np.ndarray:
    """One channel, shape (Nr, Nt), summing its rays in list order."""
    if not rays:
        raise ValueError("cannot compose a channel from an empty ray list")
    h = np.zeros((rx_spec.size, tx_spec.size), dtype=complex)
    for ray in rays:
        a_rx = upa_steering(ray.arr_azimuth, ray.arr_elevation, rx_spec)
        a_tx = upa_steering(ray.dep_azimuth, ray.dep_elevation, tx_spec)
        h += ray.gain * np.outer(a_rx, a_tx.conj())
    return math.sqrt(tx_spec.size * rx_spec.size) * h


def sweep(h: np.ndarray, tx_codebook: np.ndarray, rx_codebook: np.ndarray) -> tuple[np.ndarray, int]:
    """(outputs indexed transmit_beam * n_rx_beams + receive_beam, best index)."""
    per_pair = rx_codebook.conj().T @ h @ tx_codebook
    outputs = per_pair.T.reshape(-1)
    return outputs, int(np.argmax(np.abs(outputs)))


def export_csv(examples: Sequence[Example], path) -> None:
    """Write each cell with str(int(c)), one example per line."""
    if not examples:
        raise ValueError("no examples to export")
    n_cells = examples[0].features.size
    header = [f"g{i}" for i in range(n_cells)] + list(CSV_FIXED_COLUMNS)
    with open(path, "w", encoding="utf-8") as f:
        f.write(",".join(header) + "\n")
        for ex in examples:
            if ex.features.size != n_cells:
                raise ValueError("examples have inconsistent grid sizes")
            fields = [str(int(c)) for c in ex.features.reshape(-1)]
            fields.append(str(ex.label))
            fields.append(ex.los.value)
            fields.append(str(ex.episode_id))
            fields.append(str(ex.scene_index))
            fields.extend(repr(float(a)) for a in ex.target_angles)
            f.write(",".join(fields) + "\n")
