"""Tensor-train decomposition of 4-mode tensors and compression reporting.

A 4-mode tensor is expressed through cores ``G_1..G_4`` with
``A[i1, i2, i3, i4] = G_1(i1) G_2(i2) G_3(i3) G_4(i4)`` where ``G_k(i_k)`` is
an ``r_{k-1} x r_k`` matrix and ``r_0 = r_4 = 1``.  :func:`tt_svd` builds the
cores by a sequential reshape-and-truncated-SVD sweep over the modes in their
natural order (n1, n2, m, m); truncation at each sweep keeps the smallest
rank whose discarded tail satisfies ``sum sigma_j^2 <= delta^2`` with
``delta = tol * |A|_F / sqrt(3)``, which bounds the total relative
reconstruction error by ``tol``.

Every unfolding goes through a direct (thin) SVD.  A Gram-matrix
eigendecomposition would be faster on short, wide unfoldings, but squaring
the singular values loses those below about ``1e-7 * sigma_1``, and with
them the tolerance promise.

The compression factor of a decomposition against its source tensor is
``(sum_k r_{k-1} n_k r_k) / nnz(A)`` with nnz counting exact nonzeros.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor_core import Tensor4, require_dense

__all__ = [
    "TTTensor",
    "tt_svd",
    "compression_factor",
    "parameter_count",
    "rank_report_row",
    "RANK_CSV_COLUMNS",
]

@dataclass
class TTTensor:
    """Tensor-train cores and ranks for a 4-mode tensor."""

    cores: list[np.ndarray]  # core k has shape (r_{k-1}, n_k, r_k)
    ranks: tuple[int, ...]   # (r_0, .., r_4) with r_0 = r_4 = 1
    mode_sizes: tuple[int, ...]
    tol_used: float

    def __post_init__(self):
        if len(self.cores) != 4 or len(self.ranks) != 5:
            raise ValueError("expected 4 cores and 5 ranks")
        for k, core in enumerate(self.cores):
            expected = (self.ranks[k], self.mode_sizes[k], self.ranks[k + 1])
            if core.shape != expected:
                raise ValueError(f"core {k} has shape {core.shape}, expected {expected}")


def _truncated_svd(mat: np.ndarray, delta_sq: float):
    """Return (U_r, SVh_r) keeping the smallest rank with tail <= delta_sq."""
    u, s, vh = np.linalg.svd(mat, full_matrices=False)
    rank = _rank_from_tail(s**2, delta_sq)
    return u[:, :rank], s[:rank, None] * vh[:rank]


def _rank_from_tail(sq_values: np.ndarray, delta_sq: float) -> int:
    # smallest r with sum of discarded squared values <= delta_sq, at least 1
    tails = np.concatenate([np.cumsum(sq_values[::-1])[::-1][1:], [0.0]])
    keep = np.nonzero(tails <= delta_sq)[0]
    return max(1, int(keep[0]) + 1) if keep.size else len(sq_values)


def tt_svd(a: Tensor4, tol: float) -> TTTensor:
    """Decompose a 4-mode tensor into tensor-train form.

    ``tol`` is the relative Frobenius reconstruction tolerance (> 0); the
    per-sweep truncation threshold is ``tol * |A|_F / sqrt(3)``.
    """
    require_dense(a)
    if tol <= 0:
        raise ValueError("tol must be positive")
    modes = a.data.shape
    delta = tol * np.linalg.norm(a.data.ravel()) / np.sqrt(3.0)
    delta_sq = delta * delta
    cores = []
    ranks = [1]
    current = a.data.reshape(modes[0], -1)
    for k in range(3):
        u, rest = _truncated_svd(current, delta_sq)
        r = u.shape[1]
        cores.append(u.reshape(ranks[-1], modes[k], r))
        ranks.append(r)
        if k < 2:
            current = rest.reshape(r * modes[k + 1], -1)
        else:
            current = rest
    cores.append(current.reshape(ranks[-1], modes[3], 1))
    ranks.append(1)
    return TTTensor(cores, tuple(ranks), tuple(modes), float(tol))


def parameter_count(t: TTTensor) -> int:
    """Total stored parameters ``sum_k r_{k-1} * n_k * r_k``."""
    return int(sum(t.ranks[k] * t.mode_sizes[k] * t.ranks[k + 1] for k in range(4)))


def compression_factor(t: TTTensor, a: Tensor4) -> float:
    """Parameters of the decomposition over exact nonzeros of the source."""
    require_dense(a)
    nnz = int(np.count_nonzero(a.data))
    if nnz == 0:
        raise ValueError("source tensor has no nonzeros")
    return parameter_count(t) / nnz


RANK_CSV_COLUMNS = ["M", "tol", "nnz", "r0", "r1", "r2", "r3", "r4", "params", "cf"]


def rank_report_row(t: TTTensor, a: Tensor4, mesh_size: int) -> str:
    """One row of the frozen rank-table CSV schema (see RANK_CSV_COLUMNS)."""
    cf = compression_factor(t, a)
    fields = [str(mesh_size), repr(t.tol_used), str(int(np.count_nonzero(a.data))),
              *[str(r) for r in t.ranks], str(parameter_count(t)), repr(cf)]
    return ",".join(fields)
