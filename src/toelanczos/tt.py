"""Tensor-train decomposition of the discretized operator and compression reporting.

The 4-mode operator is expressed through cores ``G_1..G_4`` with
``A[i1, i2, i3, i4] = G_1(i1) G_2(i2) G_3(i3) G_4(i4)``, ``G_k(i_k)`` an
``r_{k-1} x r_k`` matrix and ``r_0 = r_4 = 1``.  :func:`tt_svd` is the
truncated-SVD sweep of Oseledets (SIAM J. Sci. Comput. 33(5), 2011) over the
modes (n1, n2, m, m).  Each sweep keeps the smallest rank whose discarded
tail satisfies ``sum sigma_j^2 <= delta^2`` with
``delta = tol * |A|_F / sqrt(3)``, which bounds the relative reconstruction
error by ``tol``.

The sweep reads the profiles and never forms the ``N^2 M^2`` operator.
Every slice is ``diag(d) @ tril(1)``, whose row ``j`` holds ``j+1`` ones, so
each unfolding ``X`` factors exactly through a small ``Y`` and an isometry
``Q``.  In sweeps 1 and 2, ``X = Y Q^H`` with ``Y`` the profiles, column
``j`` weighted by ``sqrt(j+1)``.  In sweep 3, ``X = Q Y`` with
``Y = diag(sqrt(w)) @ tril(1)``, ``w_j = sum_b |c[b, j]|^2`` over the
remaining profiles ``c``, and ``Q`` the columns ``c[:, j] / sqrt(w_j)``
(zero where ``w_j = 0``, where the row of ``Y`` is zero too); core 3 is
``Q U`` and core 4 is ``S Vh``.  ``X`` and ``Y`` have the same singular
values, so every truncation sees those of the dense sweep and the tolerance
promise holds.  Each small matrix goes through a direct thin SVD: a Gram
matrix would square the singular values and lose those below about
``1e-7 * sigma_1``.  The cost is ``O(N^2 M min(N^2, M) + M^3)``.

The compression factor is ``(sum_k r_{k-1} n_k r_k) / nnz(A)``, with nnz
the exact nonzeros of the dense operator: ``j+1`` per nonzero profile
sample on mesh row ``j``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor_core import ProfileTensor, _require_profile

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
    """Return (U_r, S_r Vh_r) keeping the smallest rank with tail <= delta_sq."""
    u, s, vh = np.linalg.svd(mat, full_matrices=False)
    rank = _rank_from_tail(s**2, delta_sq)
    return u[:, :rank], s[:rank, None] * vh[:rank]


def _rank_from_tail(sq_values: np.ndarray, delta_sq: float) -> int:
    # smallest r with sum of discarded squared values <= delta_sq, at least 1
    tails = np.concatenate([np.cumsum(sq_values[::-1])[::-1][1:], [0.0]])
    keep = np.nonzero(tails <= delta_sq)[0]
    return max(1, int(keep[0]) + 1) if keep.size else len(sq_values)


def tt_svd(a: ProfileTensor, tol: float) -> TTTensor:
    """Decompose the operator ``a`` into tensor-train form.

    ``tol`` is the relative Frobenius reconstruction tolerance (finite and
    > 0); the per-sweep truncation threshold is ``tol * |A|_F / sqrt(3)``.
    The cores are those of the sweep on the dense operator, up to the
    signs and rotations an SVD leaves free.
    """
    _require_profile(a)
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must be finite and positive, got {tol}")
    n1, n2, m = a.data.shape
    row_norms = np.sqrt(np.arange(1, m + 1))  # |row j of tril(1)|
    y = a.data * row_norms
    delta = tol * np.linalg.norm(y.ravel()) / np.sqrt(3.0)
    delta_sq = delta * delta

    u1, rest = _truncated_svd(y.reshape(n1, n2 * m), delta_sq)
    r1 = u1.shape[1]
    u2, rest = _truncated_svd(rest.reshape(r1 * n2, m), delta_sq)
    r2 = u2.shape[1]
    c = rest / row_norms  # profiles of the third unfolding, (r2, m)
    sqrt_w = np.linalg.norm(c, axis=0)
    q3 = np.divide(c, sqrt_w, out=np.zeros_like(c), where=sqrt_w > 0)
    u3, rest = _truncated_svd(sqrt_w[:, None] * np.tril(np.ones((m, m))), delta_sq)
    r3 = u3.shape[1]
    cores = [u1.reshape(1, n1, r1), u2.reshape(r1, n2, r2),
             q3[:, :, None] * u3, rest.reshape(r3, m, 1)]
    return TTTensor(cores, (1, r1, r2, r3, 1), (n1, n2, m, m), float(tol))


def parameter_count(t: TTTensor) -> int:
    """Total stored parameters ``sum_k r_{k-1} * n_k * r_k``."""
    return int(sum(t.ranks[k] * t.mode_sizes[k] * t.ranks[k + 1] for k in range(4)))


def _nonzero_count(a: ProfileTensor) -> int:
    """Exact nonzeros of the dense operator: ``j+1`` per nonzero sample on mesh row ``j``."""
    _require_profile(a)
    return int(((a.data != 0) * np.arange(1, a.m + 1)).sum())


def compression_factor(t: TTTensor, a: ProfileTensor) -> float:
    """Parameters of the decomposition over exact nonzeros of the source."""
    nnz = _nonzero_count(a)
    if nnz == 0:
        raise ValueError("source tensor has no nonzeros")
    return parameter_count(t) / nnz


RANK_CSV_COLUMNS = ["M", "tol", "nnz", "r0", "r1", "r2", "r3", "r4", "params", "cf"]


def rank_report_row(t: TTTensor, a: ProfileTensor) -> str:
    """One row of the frozen rank-table CSV schema (see RANK_CSV_COLUMNS); ``M`` is ``a.m``."""
    cf = compression_factor(t, a)
    fields = [str(a.m), repr(t.tol_used), str(_nonzero_count(a)),
              *[str(r) for r in t.ranks], str(parameter_count(t)), repr(cf)]
    return ",".join(fields)
