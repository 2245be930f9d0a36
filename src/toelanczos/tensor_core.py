"""4-mode tensors, hypervectors, and their contraction products.

The objects here generalize matrices and vectors blockwise: a 4-mode tensor
``A`` of shape ``(n1, n2, m, m)`` acts like an ``n1 x n2`` matrix whose entries
are ``m x m`` matrices, and a hypervector of shape ``(n, m, m)`` like a vector
of ``m x m`` matrices.

The discretized operator is a :class:`ProfileTensor`: each slice is
``diag(d) @ tril(1)``, so it stores only the ``(n1, n2, m)`` profiles ``d``,
and :func:`star_mul_tv` / :func:`star_mul_vt` apply it with a cumulative sum
and a diagonal scaling, ``O(n1 n2 m^2)`` in place of the ``O(n1 n2 m^3)``
slice products: mesh row ``j`` of ``A * V`` is the ``n1 x n2`` matrix of
profile values at ``j`` applied to row ``j`` of the running sum of ``V``,
and all ``m`` rows go through one batched product.  They accept no other
operator type.  :class:`Tensor4` stores every entry; it holds the stacked
Lanczos bases for :func:`star_mul_tt` (the biorthogonality measure) and the
dense operator that the tensor-train decomposition reads
(:meth:`ProfileTensor.to_tensor4`).  The dense-only operations raise
``TypeError`` on a :class:`ProfileTensor`.

:class:`ProfileTensor` and :class:`HyperVec` keep the dtype of their data:
complex data stays complex128, and anything else becomes float64 without a
copy.  A product runs in the common dtype of its operands, casting a real
operand to complex first, so no ``matmul`` mixes the two; a run whose data
are all real is real throughout.

:func:`star_mul_tv` and :func:`star_mul_vt` are one ``np.matmul`` call each,
and :func:`star_mul_tt` and :func:`star_inner` accumulate one slice product
per outer index in ascending order, on operands of fixed shape and layout;
this fixes the floating-point result, so repeated runs are bit-identical.
No product skips a slice: the structure flags are derived from the data and
read only by the benchmark's tracer.
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


def _float_or_complex(data) -> np.ndarray:
    """``data`` as complex128 if it is complex, else as float64; no copy when it already is."""
    data = np.asarray(data)
    return data.astype(complex if np.iscomplexobj(data) else float, copy=False)


def _common(*arrays: np.ndarray) -> list[np.ndarray]:
    """The arrays cast to their common dtype (no copy for those already in it)."""
    dtype = np.result_type(*arrays)
    return [x.astype(dtype, copy=False) for x in arrays]


class BlockStructure(IntEnum):
    """Per-slice structure codes of a :class:`ProfileTensor`, derived from its samples."""

    LOWER_TRIANGULAR = 1
    ZERO = 2


@dataclass
class Tensor4:
    """4-mode complex tensor in ``C^{n1 x n2 x m x m}``.

    Parameters
    ----------
    data : ndarray
        Complex entries indexed ``(i1, i2, j1, j2)``.
    """

    data: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=complex)
        if self.data.ndim != 4 or self.data.shape[2] != self.data.shape[3]:
            raise ShapeError(f"expected (n1, n2, m, m) data, got {self.data.shape}")

    @property
    def block_structure(self) -> None:
        """Always ``None`` (every slice counts as live); kept for the tracer."""
        return None

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
        Profiles of shape ``(n1, n2, m)``, complex128 or float64 (other real
        input is converted); row ``j`` of slice ``(i1, i2)`` holds
        ``data[i1, i2, j]`` on and left of the diagonal.

    The products multiply every slice; which ones are zero is derived from
    the samples when asked, never stored.
    """

    data: np.ndarray

    def __post_init__(self):
        self.data = _float_or_complex(self.data)
        if self.data.ndim != 3:
            raise ShapeError(f"expected (n1, n2, m) profiles, got {self.data.shape}")

    @property
    def block_structure(self) -> np.ndarray:
        """Per-slice codes of shape ``(n1, n2)``, derived from the samples.

        ``ZERO`` where a profile is all zero, ``LOWER_TRIANGULAR`` elsewhere.
        No product reads them; the benchmark's tracer counts live slices.
        """
        empty = ~self.data.any(axis=2)
        return np.where(empty, BlockStructure.ZERO,
                        BlockStructure.LOWER_TRIANGULAR).astype(np.uint8)

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
        """The dense tensor with the same slices."""
        mask = np.tril(np.ones((self.m, self.m)))
        return Tensor4(self.data[..., :, None] * mask)


@dataclass
class HyperVec:
    """3-mode tensor in ``C^{n x m x m}`` or ``R^{n x m x m}`` with an orientation.

    The data are complex128 or float64, as for :class:`ProfileTensor`.
    Right-oriented hypervectors act only as right operands of ``*`` products;
    dual ones (the paper's apex-D objects) only from the left.
    """

    data: np.ndarray
    orientation: str = "right"

    def __post_init__(self):
        self.data = _float_or_complex(self.data)
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

    ``out[i1, i2] = sum_k a[i1, k] @ b[k, i2]`` with k ascending, every
    slice pair multiplied.
    """
    require_dense(a, b)
    if a.n2 != b.n1 or a.m != b.m:
        raise ShapeError(f"cannot *-multiply {a.data.shape} with {b.data.shape}")
    out = np.zeros((a.n1, b.n2, a.m, a.m), dtype=complex)
    for i1 in range(a.n1):
        for i2 in range(b.n2):
            for k in range(a.n2):
                out[i1, i2] += a.data[i1, k] @ b.data[k, i2]
    return Tensor4(out)


def star_mul_tv(a: ProfileTensor, v: HyperVec) -> HyperVec:
    """Tensor-hypervector product ``(A * V)[i1] = sum_k a[i1, k] @ v[k]``.

    ``a[i1, k] @ v[k]`` is ``data[i1, k]`` scaling the rows of the row-wise
    cumulative sum of ``v[k]``, so mesh row ``j`` of the result is
    ``data[:, :, j] @ cumsum(v)[:, j]``: one batched product over the rows,
    written straight into the output.  Any operator other than a
    :class:`ProfileTensor` raises ``TypeError``.
    """
    _require_profile(a)
    if v.orientation != "right":
        raise OrientationError("tensor-hypervector product needs a right-oriented operand")
    if a.n2 != v.n or a.m != v.m:
        raise ShapeError(f"cannot *-multiply {a.data.shape} with {v.data.shape}")
    profiles, csum = _common(a.data, np.cumsum(v.data, axis=1))
    out = np.empty((a.n1, a.m, a.m), dtype=csum.dtype)
    np.matmul(profiles.transpose(2, 0, 1), csum.transpose(1, 0, 2), out=out.transpose(1, 0, 2))
    return HyperVec(out, "right")


def star_mul_vt(w: HyperVec, a: ProfileTensor) -> HyperVec:
    """Dual-hypervector-tensor product ``(W^D * A)[i2] = sum_k w[k] @ a[k, i2]``.

    The profiles ``data[k, i2]`` scale the columns of ``w[k]``, so mesh
    column ``j`` of the sum over ``k`` is ``data[:, :, j].T @ w[:, :, j]``:
    one batched product over the columns, written into the output, which
    then takes one reverse cumulative sum along the columns.  Any operator
    other than a :class:`ProfileTensor` raises ``TypeError``.
    """
    _require_profile(a)
    if w.orientation != "dual":
        raise OrientationError("hypervector-tensor product needs a dual-oriented operand")
    if w.n != a.n1 or w.m != a.m:
        raise ShapeError(f"cannot *-multiply {w.data.shape} with {a.data.shape}")
    profiles, wd = _common(a.data, w.data)
    out = np.empty((a.n2, a.m, a.m), dtype=wd.dtype)
    np.matmul(profiles.transpose(2, 1, 0), wd.transpose(2, 0, 1), out=out.transpose(2, 0, 1))
    np.cumsum(out[..., ::-1], axis=2, out=out[..., ::-1])
    return HyperVec(out, "dual")


def star_inner(w: HyperVec, v: HyperVec) -> np.ndarray:
    """Hypervector inner product ``W^D * V = sum_k w[k] @ v[k]`` (an m x m matrix)."""
    if w.orientation != "dual" or v.orientation != "right":
        raise OrientationError("inner product takes (dual, right) operands")
    if w.n != v.n or w.m != v.m:
        raise ShapeError(f"cannot contract {w.data.shape} with {v.data.shape}")
    wd, vd = _common(w.data, v.data)
    out = np.zeros((w.m, w.m), dtype=wd.dtype)
    for k in range(w.n):
        out += wd[k] @ vd[k]
    return out


def lift(a: np.ndarray, m: int) -> HyperVec:
    """Kronecker lift of a length-N vector: slice ``i`` equals ``a[i] * I_m``."""
    a = _float_or_complex(a).ravel()
    if a.size < 1 or m < 1:
        raise ShapeError("lift needs a nonempty vector and m >= 1")
    return HyperVec(a[:, None, None] * np.eye(m), "right")


def lift_dual(a: np.ndarray, m: int) -> HyperVec:
    """Dual Kronecker lift: slice ``i`` equals ``conj(a[i]) * I_m``."""
    a = _float_or_complex(a).ravel()
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
