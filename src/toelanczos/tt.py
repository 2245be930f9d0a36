"""Tensor-train decomposition of 4-mode tensors and compression reporting.

A 4-mode tensor is expressed through cores ``G_1..G_4`` with
``A[i1, i2, i3, i4] = G_1(i1) G_2(i2) G_3(i3) G_4(i4)`` where ``G_k(i_k)`` is
an ``r_{k-1} x r_k`` matrix and ``r_0 = r_4 = 1``.  :func:`tt_svd` builds the
cores by a sequential reshape-and-truncated-SVD sweep over the modes in their
natural order (n1, n2, m, m); truncation at each sweep keeps the smallest
rank whose discarded tail satisfies ``sum sigma_j^2 <= delta^2`` with
``delta = tol * |A|_F / sqrt(3)``, which bounds the total relative
reconstruction error by ``tol``.

For unfoldings whose short side is at most 64 the singular pairs come from
the Gram matrix (an eigendecomposition of ``X X^H``); this touches the large
side only through matrix products, which matters because the last two modes
can be mesh-sized.  Larger unfoldings use a direct SVD.

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
    "tt_reconstruct",
    "compression_factor",
    "parameter_count",
    "write_ttf",
    "read_ttf",
    "rank_report_row",
    "RANK_CSV_COLUMNS",
]

_GRAM_MAX_SHORT = 64


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
    p, q = mat.shape
    if min(p, q) <= _GRAM_MAX_SHORT and p <= q:
        gram = mat @ mat.conj().T
        evals, evecs = np.linalg.eigh(gram)
        order = np.argsort(evals)[::-1]
        evals = np.clip(evals[order], 0.0, None)
        # squaring floors resolvable values at ~eps * lambda_max; below that
        # an eigenvalue is rounding noise, not a singular direction
        if evals.size and evals[0] > 0:
            evals[evals < _GRAM_MAX_SHORT * np.finfo(float).eps * evals[0]] = 0.0
        rank = _rank_from_tail(evals, delta_sq)
        u = evecs[:, order[:rank]]
        rest = u.conj().T @ mat
        return u, rest
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


def tt_reconstruct(t: TTTensor) -> Tensor4:
    """Contract the core chain back into a dense 4-mode tensor."""
    g1, g2, g3, g4 = t.cores
    data = np.einsum("aib,bjc,ckd,dle->ijkl", g1, g2, g3, g4, optimize=True)
    return Tensor4(np.ascontiguousarray(data))


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


_TTF_MAGIC = b"TTF1"


def write_ttf(path, t: TTTensor) -> None:
    """TTF1 binary: magic, mode sizes, ranks, tol, then cores back to back."""
    with open(path, "wb") as fh:
        fh.write(_TTF_MAGIC)
        fh.write(np.array(t.mode_sizes, dtype="<u8").tobytes())
        fh.write(np.array(t.ranks, dtype="<u8").tobytes())
        fh.write(np.array([t.tol_used], dtype="<f8").tobytes())
        for core in t.cores:
            fh.write(np.ascontiguousarray(core, dtype="<c16").tobytes())


def read_ttf(path) -> TTTensor:
    with open(path, "rb") as fh:
        if fh.read(4) != _TTF_MAGIC:
            raise IOError("not a TTF1 file")
        modes = tuple(int(x) for x in np.frombuffer(fh.read(32), dtype="<u8"))
        ranks = tuple(int(x) for x in np.frombuffer(fh.read(40), dtype="<u8"))
        tol = float(np.frombuffer(fh.read(8), dtype="<f8")[0])
        cores = []
        for k in range(4):
            shape = (ranks[k], modes[k], ranks[k + 1])
            count = int(np.prod(shape))
            cores.append(np.frombuffer(fh.read(16 * count), dtype="<c16").reshape(shape).copy())
    return TTTensor(cores, ranks, modes, tol)


RANK_CSV_COLUMNS = ["M", "tol", "nnz", "r0", "r1", "r2", "r3", "r4", "params", "cf"]


def rank_report_row(t: TTTensor, a: Tensor4, mesh_size: int) -> str:
    """One row of the frozen rank-table CSV schema (see RANK_CSV_COLUMNS)."""
    require_dense(a)
    nnz = int(np.count_nonzero(a.data))
    params = parameter_count(t)
    cf = params / nnz
    fields = [str(mesh_size), repr(t.tol_used), str(nnz),
              *[str(r) for r in t.ranks], str(params), repr(cf)]
    return ",".join(fields)
