"""Block partial unwrapping.

Folds blocks of d1 coordinates of the d-dimensional domain into single
coordinates: a point t in [0,1)^{d'} maps to g(t) whose b-th block is
(t_b, N t_b, ..., N^{d1-1} t_b), so a frequency block (w_1, ..., w_{d1})
aliases to the single integer w_1 + N w_2 + ... + N^{d1-1} w_{d1}. This
turns a d-dimensional recovery problem with bandwidth N into a
d' = d/d1 dimensional one with bandwidth ~N^{d1}.

``unwrap_freq`` and ``unwrap_point`` take one vector; ``unwrap_freq_matrix``
and ``rewrap_freq`` take arrays of frequency rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "UnwrapMap",
    "effective_bandwidth",
    "unwrap_point",
    "unwrap_freq",
    "rewrap_freq",
]

_INT64_MAX = 2**63 - 1


def effective_bandwidth(N: int, d1: int) -> int:
    """Smallest odd bandwidth covering every unwrapped frequency.

    Signed entries in [-N/2, N/2) reach |v| up to (N/2)(N^{d1}-1)/(N-1), so
    the unwrapped values need 2*(N/2)*(N^{d1}-1)/(N-1) + 1 bins.
    """
    if N < 2 or N % 2 != 0:
        raise ValueError(f"N must be even and >= 2, got {N}")
    if d1 < 1:
        raise ValueError(f"d1 must be >= 1, got {d1}")
    width = 2 * (N // 2) * (N**d1 - 1) // (N - 1) + 1
    if width > _INT64_MAX:
        raise OverflowError(f"effective bandwidth for N={N}, d1={d1} exceeds int64")
    return width


@dataclass(frozen=True)
class UnwrapMap:
    """Geometry of a block partial unwrapping: d = block * reduced_dim."""

    bandwidth: int
    dim: int
    block: int
    reduced_dim: int = field(init=False)
    eff_bandwidth: int = field(init=False)

    def __post_init__(self):
        if self.dim % self.block != 0:
            raise ValueError(f"block {self.block} does not divide dim {self.dim}")
        object.__setattr__(self, "reduced_dim", self.dim // self.block)
        object.__setattr__(
            self, "eff_bandwidth", effective_bandwidth(self.bandwidth, self.block)
        )

    def powers(self) -> np.ndarray:
        """(1, N, N^2, ..., N^{d1-1}) as int64."""
        return self.bandwidth ** np.arange(self.block, dtype=np.int64)


def unwrap_point(t, umap: UnwrapMap) -> np.ndarray:
    """Map a reduced-domain point to the full domain (entries not reduced mod 1)."""
    t = np.asarray(t, dtype=np.float64)
    if t.shape != (umap.reduced_dim,):
        raise ValueError(f"point has shape {t.shape}, expected ({umap.reduced_dim},)")
    return (t[:, None] * umap.powers()[None, :].astype(np.float64)).ravel()


def unwrap_freq(w, umap: UnwrapMap) -> np.ndarray:
    """Fold each d1-block of a frequency vector into one integer entry.

    Satisfies exp(2 pi i w . g(t)) == exp(2 pi i unwrap_freq(w) . t) for all t.
    """
    w = np.asarray(w, dtype=np.int64)
    if w.shape != (umap.dim,):
        raise ValueError(f"frequency has shape {w.shape}, expected ({umap.dim},)")
    half = umap.bandwidth // 2
    if np.any(w < -half) or np.any(w >= half):
        raise ValueError(f"frequency entries must lie in [-{half}, {half})")
    return w.reshape(umap.reduced_dim, umap.block) @ umap.powers()


def unwrap_freq_matrix(freqs: np.ndarray, umap: UnwrapMap) -> np.ndarray:
    """Vectorized :func:`unwrap_freq` for an (s, d) int64 array (no validation)."""
    return freqs.reshape(len(freqs), umap.reduced_dim, umap.block) @ umap.powers()


def _image_range(umap: UnwrapMap) -> tuple[int, int]:
    """[lo, hi]: the integers whose balanced base-N digits fit in d1 places.

    Digits lie in [-N/2, N/2), so lo = -(N/2)(N^{d1}-1)/(N-1) and
    hi = (N/2 - 1)(N^{d1}-1)/(N-1); the N^{d1} integers in between are
    exactly the unwrapped values of one block.
    """
    half = umap.eff_bandwidth // 2
    repunit = (umap.bandwidth**umap.block - 1) // (umap.bandwidth - 1)
    return -half, half - repunit


def rewrap_freq(v, umap: UnwrapMap) -> np.ndarray:
    """Invert :func:`unwrap_freq` by balanced base-N digit extraction.

    Works over leading axes: a (..., d') array of unwrapped frequencies
    gives the (..., d) array of their full-domain frequencies, the same
    rows as rewrapping each d'-vector alone. Entries outside the image of
    :func:`unwrap_freq` raise ValueError.
    """
    v = np.asarray(v, dtype=np.int64)
    if v.shape[-1:] != (umap.reduced_dim,):
        raise ValueError(f"frequency has shape {v.shape}, expected (..., {umap.reduced_dim})")
    lo, hi = _image_range(umap)
    if np.any(v < lo) or np.any(v > hi):
        raise ValueError(f"entries must lie in [{lo}, {hi}], the unwrapped frequencies")
    N = umap.bandwidth
    half = N // 2
    digits = np.empty(v.shape + (umap.block,), dtype=np.int64)
    rest = v
    for i in range(umap.block):
        digits[..., i] = (rest + half) % N - half
        rest = (rest - digits[..., i]) // N
    return digits.reshape(v.shape[:-1] + (umap.dim,))
