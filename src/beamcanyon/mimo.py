"""Narrowband geometric MIMO channels, DFT codebooks and beam sweeps.

The channel for a ray set is sqrt(Nt*Nr) * sum_l gain_l * a_rx a_tx^H with
unit-norm planar-array steering vectors on both sides. Beam pairs are scanned
exhaustively and indexed as transmit_beam * n_rx_beams + receive_beam.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields
from typing import Iterator, Sequence

import numpy as np

from .rules import check, setting

SWEEP_CHUNK = 256  # ray lists per batched sweep in sweep_rays


@dataclass(frozen=True)
class Rays:
    """K ray lists in columns: list k is the next ``counts[k]`` rows of the ray columns.

    This is the form the tracer emits and an episodes file is read into.
    Azimuths lie in (-pi, pi] from +x, elevations in [0, pi] from the +z
    zenith; departure angles point from the transmitter along a path's first
    segment, arrival angles from the receiver back along its last.
    """

    gain: np.ndarray    # complex128
    delay: np.ndarray   # float64
    angles: np.ndarray  # (n, 4) float64: dep_azimuth, dep_elevation, arr_azimuth, arr_elevation
    los: np.ndarray     # bool: the ray is the direct path
    counts: np.ndarray  # rays per list

    def __len__(self) -> int:
        return len(self.counts)

    @classmethod
    def concat(cls, parts: Sequence[Rays]) -> Rays:
        empty = cls(np.empty(0, np.complex128), np.empty(0), np.empty((0, 4)), np.empty(0, bool), np.empty(0, np.intp))
        return cls(*(np.concatenate([getattr(p, f.name) for p in (empty, *parts)]) for f in fields(cls)))

    def take(self, keep: np.ndarray) -> Rays:
        """The lists where ``keep`` is true, in order."""
        rows = np.repeat(keep, self.counts)
        return Rays(self.gain[rows], self.delay[rows], self.angles[rows], self.los[rows], self.counts[keep])

    def has_los(self) -> np.ndarray:
        """Per list: whether any of its rays is the direct path."""
        owner = np.repeat(np.arange(len(self)), self.counts)
        return np.bincount(owner[self.los], minlength=len(self)) > 0


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


def compose_channel(rays: Rays, tx_spec: ArraySpec, rx_spec: ArraySpec) -> np.ndarray:
    """Channels of K ray lists, stacked with shape (K, Nr, Nt).

    Each channel is the sum of its per-ray rank-one terms, scaled by
    sqrt(Nt*Nr). The sums run ray slot by ray slot across the batch (slot 0
    of every list, then slot 1, ...), so each channel adds its rays in list
    order whatever else is in the batch. For slot s the lists longer than s
    add their ray at row ``start + s`` of the ``Rays`` columns.
    """
    if not rays.counts.all():
        raise ValueError("cannot compose a channel from an empty ray list")
    start = np.cumsum(rays.counts) - rays.counts
    h = np.zeros((len(rays), rx_spec.size, tx_spec.size), dtype=complex)
    for slot in range(int(rays.counts.max(initial=0))):
        owners = np.flatnonzero(rays.counts > slot)
        row = start[owners] + slot
        a_rx = upa_steering(rays.angles[row, 2], rays.angles[row, 3], rx_spec)
        a_tx = upa_steering(rays.angles[row, 0], rays.angles[row, 1], tx_spec)
        gains = rays.gain[row][:, None, None]
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


def sweep_rays(rays: Rays, tx_spec: ArraySpec, rx_spec: ArraySpec) -> Iterator[SweepResult]:
    """Sweep the channel of each ray list, SWEEP_CHUNK lists per batched sweep.

    Yields one stacked result per chunk, in order. The chunk bounds the
    channel stack at a few megabytes whatever the number of lists.
    """
    tx_codebook = dft_codebook(tx_spec)
    rx_codebook = dft_codebook(rx_spec)
    bounds = np.concatenate(([0], np.cumsum(rays.counts)))
    for start in range(0, len(rays), SWEEP_CHUNK):
        stop = min(start + SWEEP_CHUNK, len(rays))
        rows = slice(bounds[start], bounds[stop])
        chunk = Rays(rays.gain[rows], rays.delay[rows], rays.angles[rows], rays.los[rows], rays.counts[start:stop])
        yield sweep(compose_channel(chunk, tx_spec, rx_spec), tx_codebook, rx_codebook)


def strongest_ray_angles(rays: Rays) -> np.ndarray:
    """(K, 4) angles of each list's highest-amplitude ray.

    Amplitude ties go to the earliest arrival, and ties of both to the ray
    listed first, whatever order the list is in. The amplitude is Python's
    ``abs`` of each gain.
    """
    if not rays.counts.all():
        raise ValueError("empty ray list")
    amplitude = np.array([abs(g) for g in rays.gain.tolist()], dtype=np.float64)
    owner = np.repeat(np.arange(len(rays)), rays.counts)
    order = np.lexsort((rays.delay, -amplitude, owner))  # stable: equal keys keep list order
    return rays.angles[order[np.cumsum(rays.counts) - rays.counts]]
