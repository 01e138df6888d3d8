"""Narrowband geometric MIMO channels, DFT codebooks and beam sweeps.

The channel for a ray set is sqrt(Nt*Nr) * sum_l gain_l * a_rx a_tx^H with
unit-norm planar-array steering vectors on both sides. Beam pairs are scanned
exhaustively and indexed as transmit_beam * n_rx_beams + receive_beam.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass
from typing import Iterator, Sequence

import numpy as np

from .raytrace import Ray
from .rules import check, setting

SWEEP_CHUNK = 256  # ray lists per batched sweep in sweep_rays


@dataclass(frozen=True)
class ArraySpec:
    """Uniform planar array in the x-y plane: nx by ny elements."""

    nx: int = setting(MISSING, "integer", ">= 1")
    ny: int = setting(MISSING, "integer", ">= 1")
    spacing_wavelengths: float = setting(0.5, "number", "> 0")

    def __post_init__(self) -> None:
        check(self, "arrays")

    @property
    def size(self) -> int:
        return self.nx * self.ny


@dataclass(frozen=True)
class SweepResult:
    outputs: np.ndarray  # complex, leading axes of the channel, then one entry per beam pair
    best_index: np.ndarray  # int, one per channel: transmit beam * n_rx_beams + receive beam


def upa_steering(
    azimuth: float | Sequence[float] | np.ndarray,
    elevation: float | Sequence[float] | np.ndarray,
    spec: ArraySpec,
) -> np.ndarray:
    """Unit-norm steering vectors for plane waves from (azimuth, elevation).

    The angles are scalars or equal-shape arrays; the result has their shape
    plus one trailing axis of ``spec.size`` elements. Element (m, n) carries
    phase 2*pi*spacing*(m*u + n*v) with direction cosines
    u = sin(el)cos(az), v = sin(el)sin(az); elements are flattened row-major
    so index m*ny + n matches the DFT codebook layout.
    """
    az = np.asarray(azimuth, dtype=float)[..., None, None]
    el = np.asarray(elevation, dtype=float)[..., None, None]
    u = np.sin(el) * np.cos(az)
    v = np.sin(el) * np.sin(az)
    m = np.arange(spec.nx)[:, None]
    n = np.arange(spec.ny)[None, :]
    phase = 2.0 * math.pi * spec.spacing_wavelengths * (m * u + n * v)
    return (np.exp(1j * phase) / math.sqrt(spec.size)).reshape(*az.shape[:-2], spec.size)


def compose_channel(
    ray_lists: Sequence[Sequence[Ray]], tx_spec: ArraySpec, rx_spec: ArraySpec
) -> np.ndarray:
    """Channels of K ray lists, stacked with shape (K, Nr, Nt).

    Each channel is the sum of its per-ray rank-one terms, scaled by
    sqrt(Nt*Nr). The sums run ray slot by ray slot across the batch (slot 0
    of every list, then slot 1, ...), so each channel adds its rays in list
    order whatever else is in the batch.
    """
    if any(not rays for rays in ray_lists):
        raise ValueError("cannot compose a channel from an empty ray list")
    h = np.zeros((len(ray_lists), rx_spec.size, tx_spec.size), dtype=complex)
    for slot in range(max(map(len, ray_lists), default=0)):
        owners = [k for k, rays in enumerate(ray_lists) if len(rays) > slot]
        rays = [ray_lists[k][slot] for k in owners]
        a_rx = upa_steering([r.arr_azimuth for r in rays], [r.arr_elevation for r in rays], rx_spec)
        a_tx = upa_steering([r.dep_azimuth for r in rays], [r.dep_elevation for r in rays], tx_spec)
        gains = np.array([r.gain for r in rays], dtype=complex)[:, None, None]
        terms = a_rx[:, :, None] * a_tx.conj()[:, None, :]
        h[owners] += np.multiply(gains, terms, out=terms)
    return np.multiply(math.sqrt(tx_spec.size * rx_spec.size), h, out=h)


def dft_codebook(spec: ArraySpec) -> np.ndarray:
    """Kronecker product of the nx- and ny-point unitary DFT matrices.

    Columns are the beams: unit-norm and mutually orthogonal, with column 0
    the broadside (all-ones) beam.
    """

    def unitary_dft(n: int) -> np.ndarray:
        k = np.arange(n)
        return np.exp(-2j * math.pi * np.outer(k, k) / n) / math.sqrt(n)

    return np.kron(unitary_dft(spec.nx), unitary_dft(spec.ny))


def sweep(h: np.ndarray, tx_codebook: np.ndarray, rx_codebook: np.ndarray) -> SweepResult:
    """Evaluate w^H H f for every beam pair of each channel and pick the strongest.

    ``h`` is one (Nr, Nt) channel or a stack of them with leading axes, which
    the outputs and best indices keep. Pair (p, q) maps to index
    p * n_rx_beams + q; magnitude ties resolve to the smallest index.
    """
    if h.shape[-2:] != (rx_codebook.shape[0], tx_codebook.shape[0]):
        raise ValueError(
            f"channel shape {h.shape} does not match codebooks "
            f"({rx_codebook.shape[0]} rx, {tx_codebook.shape[0]} tx elements)"
        )
    per_pair = rx_codebook.conj().T @ h @ tx_codebook  # [..., receive beam, transmit beam]
    outputs = np.swapaxes(per_pair, -1, -2).reshape(*h.shape[:-2], -1)
    return SweepResult(outputs=outputs, best_index=np.argmax(np.abs(outputs), axis=-1))


def sweep_rays(
    ray_lists: Sequence[Sequence[Ray]], tx_spec: ArraySpec, rx_spec: ArraySpec
) -> Iterator[SweepResult]:
    """Sweep the channel of each ray list, SWEEP_CHUNK lists per batched sweep.

    Yields one stacked result per chunk, in order. The chunk bounds the
    channel stack at a few megabytes whatever the number of lists.
    """
    tx_codebook = dft_codebook(tx_spec)
    rx_codebook = dft_codebook(rx_spec)
    for start in range(0, len(ray_lists), SWEEP_CHUNK):
        chunk = ray_lists[start : start + SWEEP_CHUNK]
        yield sweep(compose_channel(chunk, tx_spec, rx_spec), tx_codebook, rx_codebook)


def strongest_ray_angles(rays: Sequence[Ray]) -> tuple[float, float, float, float]:
    """Angles of the highest-amplitude ray; amplitude ties go to the earliest arrival."""
    if not rays:
        raise ValueError("empty ray list")
    best = min(rays, key=lambda r: (-abs(r.gain), r.delay))
    return (best.dep_azimuth, best.dep_elevation, best.arr_azimuth, best.arr_elevation)

