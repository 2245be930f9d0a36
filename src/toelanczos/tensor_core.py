"""4-mode tensors, hypervectors, and their contraction products.

The objects here generalize matrices and vectors blockwise: a 4-mode tensor
``A`` of shape ``(n1, n2, m, m)`` acts like an ``n1 x n2`` matrix whose entries
are ``m x m`` matrices, and a hypervector of shape ``(n, m, m)`` like a vector
of ``m x m`` matrices.

The discretized operator is a :class:`ProfileTensor`: each slice is
``diag(d) @ tril(1)``, so it stores only the ``(n1, n2, m)`` profiles ``d``,
and :func:`star_mul_tv` / :func:`star_mul_vt` apply it with a cumulative sum
and a diagonal scaling, ``O(n1 n2 m^2)`` in place of the ``O(n1 n2 m^3)``
slice products.  They accept no other operator type.  :class:`Tensor4` stores
every entry; it holds the stacked Lanczos bases for :func:`star_mul_tt` (the
biorthogonality measure) and the dense operator that the tensor-train
decomposition reads (:meth:`ProfileTensor.to_tensor4`).  The dense-only
operations raise ``TypeError`` on a :class:`ProfileTensor`.

All contractions accumulate over the outer index in ascending order; together
with the slice-local products this fixes the floating-point result, so
repeated runs are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

__all__ = [
    "BlockStructure",
    "Tensor4",
    "ProfileTensor",
    "HyperVec",
    "ShapeError",
    "OrientationError",
    "star_mul_tt",
    "star_mul_tv",
    "star_mul_vt",
    "star_inner",
    "lift",
    "lift_dual",
    "frobenius",
    "require_dense",
]


class ShapeError(ValueError):
    """Operand mode sizes do not conform."""


class OrientationError(ValueError):
    """A hypervector was used on the wrong side of a product."""


class BlockStructure(IntEnum):
    """Per-slice structure metadata for a :class:`Tensor4`."""

    DENSE = 0
    LOWER_TRIANGULAR = 1
    ZERO = 2


@dataclass
class Tensor4:
    """4-mode complex tensor in ``C^{n1 x n2 x m x m}``.

    Parameters
    ----------
    data : ndarray
        Complex entries indexed ``(i1, i2, j1, j2)``.
    block_structure : ndarray of BlockStructure codes, optional
        Shape ``(n1, n2)``.  ``ZERO`` promises that the whole slice is zero,
        and :func:`star_mul_tt` skips it; the other codes are informational.
    """

    data: np.ndarray
    block_structure: np.ndarray | None = None

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=complex)
        if self.data.ndim != 4 or self.data.shape[2] != self.data.shape[3]:
            raise ShapeError(f"expected (n1, n2, m, m) data, got {self.data.shape}")
        if self.block_structure is not None:
            self.block_structure = np.asarray(self.block_structure, dtype=np.uint8)
            if self.block_structure.shape != self.data.shape[:2]:
                raise ShapeError("block_structure must have shape (n1, n2)")

    @property
    def n1(self) -> int:
        return self.data.shape[0]

    @property
    def n2(self) -> int:
        return self.data.shape[1]

    @property
    def m(self) -> int:
        return self.data.shape[2]


@dataclass
class ProfileTensor:
    """Discretized operator with slices ``diag(data[i1, i2]) @ tril(ones(m, m))``.

    Parameters
    ----------
    data : ndarray
        Complex profiles of shape ``(n1, n2, m)``; row ``j`` of slice
        ``(i1, i2)`` holds ``data[i1, i2, j]`` on and left of the diagonal.
    block_structure : ndarray of BlockStructure codes
        Shape ``(n1, n2)``: ``ZERO`` for slices that are structurally empty
        (the products skip them), ``LOWER_TRIANGULAR`` for the others.
    """

    data: np.ndarray
    block_structure: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=complex)
        if self.data.ndim != 3:
            raise ShapeError(f"expected (n1, n2, m) profiles, got {self.data.shape}")
        self.block_structure = np.asarray(self.block_structure, dtype=np.uint8)
        if self.block_structure.shape != self.data.shape[:2]:
            raise ShapeError("block_structure must have shape (n1, n2)")

    @property
    def n1(self) -> int:
        return self.data.shape[0]

    @property
    def n2(self) -> int:
        return self.data.shape[1]

    @property
    def m(self) -> int:
        return self.data.shape[2]

    def to_tensor4(self) -> Tensor4:
        """The dense tensor with the same slices and structure flags."""
        mask = np.tril(np.ones((self.m, self.m)))
        return Tensor4(self.data[..., :, None] * mask, self.block_structure.copy())


@dataclass
class HyperVec:
    """3-mode complex tensor in ``C^{n x m x m}`` with an orientation.

    Right-oriented hypervectors act only as right operands of ``*`` products;
    dual ones (the paper's apex-D objects) only from the left.
    """

    data: np.ndarray
    orientation: str = "right"

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=complex)
        if self.data.ndim != 3 or self.data.shape[1] != self.data.shape[2]:
            raise ShapeError(f"expected (n, m, m) data, got {self.data.shape}")
        if self.orientation not in ("right", "dual"):
            raise OrientationError(f"unknown orientation {self.orientation!r}")

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def m(self) -> int:
        return self.data.shape[1]


def _live(a: Tensor4 | ProfileTensor) -> np.ndarray:
    """Mask of the slices a product multiplies: those not flagged ZERO."""
    if a.block_structure is None:
        return np.ones((a.n1, a.n2), dtype=bool)
    return a.block_structure != BlockStructure.ZERO


def _require_profile(a) -> None:
    if not isinstance(a, ProfileTensor):
        raise TypeError(f"expected a ProfileTensor operator, got {type(a).__name__}")


def require_dense(*tensors) -> None:
    """Raise ``TypeError`` unless every argument is a dense :class:`Tensor4`."""
    for t in tensors:
        if not isinstance(t, Tensor4):
            raise TypeError(f"expected a dense Tensor4, got {type(t).__name__}; "
                            "convert a ProfileTensor with to_tensor4()")


def star_mul_tt(a: Tensor4, b: Tensor4) -> Tensor4:
    """Tensor-tensor ``*`` product: blockwise matrix-matrix multiplication.

    ``out[i1, i2] = sum_k a[i1, k] @ b[k, i2]`` with k ascending, skipping
    the pairs where either slice is flagged ``ZERO``.  The result carries no
    structure flags.
    """
    require_dense(a, b)
    if a.n2 != b.n1 or a.m != b.m:
        raise ShapeError(f"cannot *-multiply {a.data.shape} with {b.data.shape}")
    live_a, live_b = _live(a), _live(b)
    out = np.zeros((a.n1, b.n2, a.m, a.m), dtype=complex)
    for i1 in range(a.n1):
        for i2 in range(b.n2):
            acc = None
            for k in np.nonzero(live_a[i1] & live_b[:, i2])[0]:
                term = a.data[i1, k] @ b.data[k, i2]
                acc = term if acc is None else acc + term
            if acc is not None:
                out[i1, i2] = acc
    return Tensor4(out)


def star_mul_tv(a: ProfileTensor, v: HyperVec) -> HyperVec:
    """Tensor-hypervector product ``(A * V)[i1] = sum_k a[i1, k] @ v[k]``.

    ``a[i1, k] @ v[k]`` is ``data[i1, k]`` scaling the rows of the row-wise
    cumulative sum of ``v[k]``, formed once per ``k``; ZERO slices are
    skipped.  Any operator other than a :class:`ProfileTensor` raises
    ``TypeError``.
    """
    _require_profile(a)
    if v.orientation != "right":
        raise OrientationError("tensor-hypervector product needs a right-oriented operand")
    if a.n2 != v.n or a.m != v.m:
        raise ShapeError(f"cannot *-multiply {a.data.shape} with {v.data.shape}")
    out = np.zeros((a.n1, a.m, a.m), dtype=complex)
    csum = np.cumsum(v.data, axis=1)
    for i1, k in zip(*np.nonzero(_live(a))):
        out[i1] += a.data[i1, k][:, None] * csum[k]
    return HyperVec(out, "right")


def star_mul_vt(w: HyperVec, a: ProfileTensor) -> HyperVec:
    """Dual-hypervector-tensor product ``(W^D * A)[i2] = sum_k w[k] @ a[k, i2]``.

    The profiles ``data[k, i2]`` scale the columns of ``w[k]``; the sum over
    ``k`` then takes one reverse cumulative sum along the columns.  Any
    operator other than a :class:`ProfileTensor` raises ``TypeError``.
    """
    _require_profile(a)
    if w.orientation != "dual":
        raise OrientationError("hypervector-tensor product needs a dual-oriented operand")
    if w.n != a.n1 or w.m != a.m:
        raise ShapeError(f"cannot *-multiply {w.data.shape} with {a.data.shape}")
    out = np.zeros((a.n2, a.m, a.m), dtype=complex)
    # transposed mask: nonzero() then walks i2 outer, k ascending inner
    for i2, k in zip(*np.nonzero(_live(a).T)):
        out[i2] += w.data[k] * a.data[k, i2][None, :]
    np.cumsum(out[..., ::-1], axis=2, out=out[..., ::-1])
    return HyperVec(out, "dual")


def star_inner(w: HyperVec, v: HyperVec) -> np.ndarray:
    """Hypervector inner product ``W^D * V = sum_k w[k] @ v[k]`` (an m x m matrix)."""
    if w.orientation != "dual" or v.orientation != "right":
        raise OrientationError("inner product takes (dual, right) operands")
    if w.n != v.n or w.m != v.m:
        raise ShapeError(f"cannot contract {w.data.shape} with {v.data.shape}")
    out = np.zeros((w.m, w.m), dtype=complex)
    for k in range(w.n):
        out += w.data[k] @ v.data[k]
    return out


def lift(a: np.ndarray, m: int) -> HyperVec:
    """Kronecker lift of a length-N vector: slice ``i`` equals ``a[i] * I_m``."""
    a = np.asarray(a, dtype=complex).ravel()
    if a.size < 1 or m < 1:
        raise ShapeError("lift needs a nonempty vector and m >= 1")
    return HyperVec(a[:, None, None] * np.eye(m), "right")


def lift_dual(a: np.ndarray, m: int) -> HyperVec:
    """Dual Kronecker lift: slice ``i`` equals ``conj(a[i]) * I_m``."""
    a = np.asarray(a, dtype=complex).ravel()
    if a.size < 1 or m < 1:
        raise ShapeError("lift needs a nonempty vector and m >= 1")
    return HyperVec(np.conj(a)[:, None, None] * np.eye(m), "dual")


def frobenius(x) -> float:
    """Frobenius norm: sqrt of the summed squared moduli of all entries.

    Note the square root: this is the standard norm, whereas some displayed
    formulas in the source material omit the root.  Every relative error in
    :mod:`toelanczos.diagnostics` is a ratio of these, so the convention only
    rescales absolute thresholds.
    """
    if isinstance(x, (Tensor4, HyperVec)):
        x = x.data
    return float(np.linalg.norm(np.asarray(x).ravel()))
