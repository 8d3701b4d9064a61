"""Block partial unwrapping.

Folds blocks of d1 coordinates of the d-dimensional domain into single
coordinates: a point t in [0,1)^{d'} maps to g(t) whose b-th block is
(t_b, N t_b, ..., N^{d1-1} t_b), so a frequency block (w_1, ..., w_{d1})
aliases to the single integer w_1 + N w_2 + ... + N^{d1-1} w_{d1}. This
turns a d-dimensional recovery problem with bandwidth N into a
d' = d/d1 dimensional one with bandwidth ~N^{d1}.

``unwrap_freq`` and ``rewrap_freq`` take one frequency vector or an array
of frequency rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .spectrum import _is_int

__all__ = ["UnwrapMap", "unwrap_freq", "rewrap_freq"]

_INT64_MAX = 2**63 - 1


@dataclass(frozen=True)
class UnwrapMap:
    """Geometry of a block partial unwrapping: d = block * reduced_dim.

    With the repunit R = (N^{d1}-1)/(N-1), the unwrapped values of one block
    (balanced base-N digits in [-N/2, N/2)) are exactly the N^{d1} integers
    [lo, hi], lo = -(N/2) R and hi = (N/2 - 1) R, and eff_bandwidth = N R + 1
    is the smallest odd bandwidth covering them.
    """

    bandwidth: int
    dim: int
    block: int
    reduced_dim: int = field(init=False)
    eff_bandwidth: int = field(init=False)
    lo: int = field(init=False)
    hi: int = field(init=False)

    def __post_init__(self):
        for name, value in (("N", self.bandwidth), ("d", self.dim), ("d1", self.block)):
            if not _is_int(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.dim < 1 or self.block < 1 or self.dim % self.block != 0:
            raise ValueError(
                f"d must be a multiple of d1 with d, d1 >= 1, got d={self.dim}, d1={self.block}"
            )
        if self.bandwidth < 2 or self.bandwidth % 2 != 0:
            raise ValueError(f"N must be even and >= 2, got {self.bandwidth}")
        # Python ints: numpy integers would wrap past int64 unseen.
        N, d1 = int(self.bandwidth), int(self.block)
        repunit = (N**d1 - 1) // (N - 1)
        if N * repunit + 1 > _INT64_MAX:
            raise ValueError(f"effective bandwidth for N={N}, d1={d1} exceeds int64")
        derived = {
            "reduced_dim": self.dim // self.block,
            "eff_bandwidth": N * repunit + 1,
            "lo": -(N // 2) * repunit,
            "hi": (N // 2 - 1) * repunit,
        }
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    def powers(self) -> np.ndarray:
        """(1, N, N^2, ..., N^{d1-1}) as int64."""
        return self.bandwidth ** np.arange(self.block, dtype=np.int64)


def unwrap_freq(w, umap: UnwrapMap) -> np.ndarray:
    """Fold each d1-block of frequency vectors into one integer entry.

    Works over leading axes: a (..., d) array of frequencies gives the
    (..., d') array of their unwrapped frequencies, and each row satisfies
    exp(2 pi i w . g(t)) == exp(2 pi i unwrap_freq(w) . t) for all t.
    Entries outside [-N/2, N/2) raise ValueError.
    """
    w = np.asarray(w, dtype=np.int64)
    if w.shape[-1:] != (umap.dim,):
        raise ValueError(f"frequency has shape {w.shape}, expected (..., {umap.dim})")
    half = umap.bandwidth // 2
    if np.any(w < -half) or np.any(w >= half):
        raise ValueError(f"frequency entries must lie in [-{half}, {half})")
    return w.reshape(w.shape[:-1] + (umap.reduced_dim, umap.block)) @ umap.powers()


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
    if np.any(v < umap.lo) or np.any(v > umap.hi):
        raise ValueError(f"entries must lie in [{umap.lo}, {umap.hi}], the unwrapped frequencies")
    N = umap.bandwidth
    half = N // 2
    digits = np.empty(v.shape + (umap.block,), dtype=np.int64)
    rest = v
    for i in range(umap.block):
        digits[..., i] = (rest + half) % N - half
        rest = (rest - digits[..., i]) // N
    return digits.reshape(v.shape[:-1] + (umap.dim,))
