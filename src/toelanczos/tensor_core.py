"""4-mode tensors, hypervectors, and their contraction products.

The objects here generalize matrices and vectors blockwise: a 4-mode tensor
``A`` of shape ``(n1, n2, m, m)`` acts like an ``n1 x n2`` matrix whose entries
are ``m x m`` matrices, and a hypervector of shape ``(n, m, m)`` like a vector
of ``m x m`` matrices.  The six products defined below reduce the whole
calculus to ordinary block-matrix algebra, which :func:`to_block_matrix`
makes explicit and which the test suite uses as an independent oracle.

Two tensor types carry that algebra.  :class:`Tensor4` stores every entry
and serves the tridiagonal coefficient tensor, the basis tensors and the
test oracles.  :class:`ProfileTensor` is the discretized operator: each slice
is ``diag(d) @ tril(1)``, so it stores only the ``(n1, n2, m)`` profiles
``d``, and :func:`star_mul_tv` / :func:`star_mul_vt` apply it with a
cumulative sum and a diagonal scaling, ``O(n1 n2 m^2)`` in place of the
``O(n1 n2 m^3)`` slice products.  The dense-only operations
(:func:`star_mul_tt`, :func:`to_block_matrix`, :func:`write_t4f`, TT-SVD)
raise ``TypeError`` on a :class:`ProfileTensor`; :meth:`ProfileTensor.to_tensor4`
gives the dense form.

All contractions accumulate over the outer index in ascending order; together
with the slice-local products this fixes the floating-point result, so
repeated runs are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    "scale_t",
    "scale_v",
    "lift",
    "lift_dual",
    "star_identity",
    "frobenius",
    "to_block_matrix",
    "from_block_matrix",
    "require_dense",
    "write_t4f",
    "read_t4f",
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
        Shape ``(n1, n2)``.  ``LOWER_TRIANGULAR`` promises the strict upper
        triangle of that slice is exactly zero, ``ZERO`` that the whole slice
        is; products skip ``ZERO`` slices and propagate the flags.
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

    def structure_of(self, i1: int, i2: int) -> BlockStructure:
        if self.block_structure is None:
            return BlockStructure.DENSE
        return BlockStructure(self.block_structure[i1, i2])


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


def _combine_flags(fa: int, fb: int) -> int:
    if fa == BlockStructure.ZERO or fb == BlockStructure.ZERO:
        return BlockStructure.ZERO
    if fa == BlockStructure.LOWER_TRIANGULAR and fb == BlockStructure.LOWER_TRIANGULAR:
        return BlockStructure.LOWER_TRIANGULAR
    return BlockStructure.DENSE


def _sum_flags(flags) -> int:
    # structure of a sum of slices: zero absorbs, lower survives, dense wins
    out = BlockStructure.ZERO
    for f in flags:
        if f == BlockStructure.ZERO:
            continue
        if f == BlockStructure.DENSE:
            return BlockStructure.DENSE
        out = BlockStructure.LOWER_TRIANGULAR
    return out


def require_dense(*tensors) -> None:
    """Raise ``TypeError`` unless every argument is a dense :class:`Tensor4`."""
    for t in tensors:
        if not isinstance(t, Tensor4):
            raise TypeError(f"expected a dense Tensor4, got {type(t).__name__}; "
                            "convert a ProfileTensor with to_tensor4()")


def star_mul_tt(a: Tensor4, b: Tensor4) -> Tensor4:
    """Tensor-tensor ``*`` product: blockwise matrix-matrix multiplication.

    ``out[i1, i2] = sum_k a[i1, k] @ b[k, i2]`` with k ascending.  Slices
    flagged ``ZERO`` in either operand are skipped; ``LOWER_TRIANGULAR``
    propagates when every contributing product is lower triangular.
    """
    require_dense(a, b)
    if a.n2 != b.n1 or a.m != b.m:
        raise ShapeError(f"cannot *-multiply {a.data.shape} with {b.data.shape}")
    m = a.m
    out = np.zeros((a.n1, b.n2, m, m), dtype=complex)
    flags = np.full((a.n1, b.n2), BlockStructure.ZERO, dtype=np.uint8)
    for i1 in range(a.n1):
        for i2 in range(b.n2):
            acc = None
            contrib = []
            for k in range(a.n2):
                fa, fb = a.structure_of(i1, k), b.structure_of(k, i2)
                f = _combine_flags(fa, fb)
                if f == BlockStructure.ZERO:
                    continue
                contrib.append(f)
                term = a.data[i1, k] @ b.data[k, i2]
                acc = term if acc is None else acc + term
            if acc is not None:
                out[i1, i2] = acc
            flags[i1, i2] = _sum_flags(contrib)
    return Tensor4(out, flags)


def star_mul_tv(a: Tensor4 | ProfileTensor, v: HyperVec) -> HyperVec:
    """Tensor-hypervector product ``(A * V)[i1] = sum_k a[i1, k] @ v[k]``.

    For a :class:`ProfileTensor`, ``a[i1, k] @ v[k]`` is ``data[i1, k]``
    scaling the rows of the row-wise cumulative sum of ``v[k]``, formed once
    per ``k``.
    """
    if v.orientation != "right":
        raise OrientationError("tensor-hypervector product needs a right-oriented operand")
    if a.n2 != v.n or a.m != v.m:
        raise ShapeError(f"cannot *-multiply {a.data.shape} with {v.data.shape}")
    out = np.zeros((a.n1, a.m, a.m), dtype=complex)
    if isinstance(a, ProfileTensor):
        csum = np.cumsum(v.data, axis=1)
        for i1, k in zip(*np.nonzero(a.block_structure != BlockStructure.ZERO)):
            out[i1] += a.data[i1, k][:, None] * csum[k]
        return HyperVec(out, "right")
    for i1 in range(a.n1):
        acc = None
        for k in range(a.n2):
            if a.structure_of(i1, k) == BlockStructure.ZERO:
                continue
            term = a.data[i1, k] @ v.data[k]
            acc = term if acc is None else acc + term
        if acc is not None:
            out[i1] = acc
    return HyperVec(out, "right")


def star_mul_vt(w: HyperVec, a: Tensor4 | ProfileTensor) -> HyperVec:
    """Dual-hypervector-tensor product ``(W^D * A)[i2] = sum_k w[k] @ a[k, i2]``.

    For a :class:`ProfileTensor`, the profiles ``data[k, i2]`` scale the
    columns of ``w[k]``; the sum over ``k`` then takes one reverse cumulative
    sum along the columns.
    """
    if w.orientation != "dual":
        raise OrientationError("hypervector-tensor product needs a dual-oriented operand")
    if w.n != a.n1 or w.m != a.m:
        raise ShapeError(f"cannot *-multiply {w.data.shape} with {a.data.shape}")
    out = np.zeros((a.n2, a.m, a.m), dtype=complex)
    if isinstance(a, ProfileTensor):
        # transposed flags: nonzero() then walks i2 outer, k ascending inner
        for i2, k in zip(*np.nonzero(a.block_structure.T != BlockStructure.ZERO)):
            out[i2] += w.data[k] * a.data[k, i2][None, :]
        np.cumsum(out[..., ::-1], axis=2, out=out[..., ::-1])
        return HyperVec(out, "dual")
    for i2 in range(a.n2):
        acc = None
        for k in range(a.n1):
            if a.structure_of(k, i2) == BlockStructure.ZERO:
                continue
            term = w.data[k] @ a.data[k, i2]
            acc = term if acc is None else acc + term
        if acc is not None:
            out[i2] = acc
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


def scale_t(a: Tensor4, mat: np.ndarray, side: str) -> Tensor4:
    """Multiply every slice of ``a`` by the m x m matrix ``mat`` on one side."""
    mat = np.asarray(mat, dtype=complex)
    if mat.shape != (a.m, a.m):
        raise ShapeError(f"matrix {mat.shape} does not match inner size {a.m}")
    if side == "left":
        out = np.matmul(mat, a.data)
    elif side == "right":
        out = np.matmul(a.data, mat)
    else:
        raise ValueError("side must be 'left' or 'right'")
    return Tensor4(out)


def scale_v(v: HyperVec, mat: np.ndarray, side: str) -> HyperVec:
    """Multiply every slice of ``v`` by the m x m matrix ``mat`` on one side."""
    mat = np.asarray(mat, dtype=complex)
    if mat.shape != (v.m, v.m):
        raise ShapeError(f"matrix {mat.shape} does not match inner size {v.m}")
    if side == "left":
        out = np.matmul(mat, v.data)
    elif side == "right":
        out = np.matmul(v.data, mat)
    else:
        raise ValueError("side must be 'left' or 'right'")
    return HyperVec(out, v.orientation)


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


def star_identity(n: int, m: int) -> Tensor4:
    """Identity for the ``*`` products: ``I_m`` on the outer diagonal, zero off it."""
    data = np.zeros((n, n, m, m), dtype=complex)
    flags = np.full((n, n), BlockStructure.ZERO, dtype=np.uint8)
    for i in range(n):
        data[i, i] = np.eye(m)
        flags[i, i] = BlockStructure.LOWER_TRIANGULAR
    return Tensor4(data, flags)


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


def to_block_matrix(a: Tensor4) -> np.ndarray:
    """Flatten to the ``(n1*m) x (n2*m)`` block matrix with block (i1, i2) = a[i1, i2].

    ``*`` products commute with this map (they become ordinary matrix
    products), which is the oracle identity the tests lean on.
    """
    require_dense(a)
    return a.data.transpose(0, 2, 1, 3).reshape(a.n1 * a.m, a.n2 * a.m)


def from_block_matrix(mat: np.ndarray, n1: int, n2: int, m: int) -> Tensor4:
    """Exact inverse of :func:`to_block_matrix`."""
    mat = np.asarray(mat, dtype=complex)
    if mat.shape != (n1 * m, n2 * m):
        raise ShapeError(f"block matrix {mat.shape} does not match ({n1}x{m}, {n2}x{m})")
    return Tensor4(mat.reshape(n1, m, n2, m).transpose(0, 2, 1, 3).copy())


_T4F_MAGIC = b"T4F1"


def write_t4f(path, a: Tensor4) -> None:
    """Write the T4F binary format.

    Header: magic ``"T4F1"``, then n1, n2, m, flags as little-endian uint64
    (flags bit 0: block-structure table present).  If present, the structure
    table follows as n1*n2 uint8 codes in column-of-blocks order.  Entries
    follow as interleaved float64 (re, im) pairs, slices in column-of-blocks
    order (i2 outer, i1 inner), each slice row-major.
    """
    require_dense(a)
    flags = 1 if a.block_structure is not None else 0
    with open(path, "wb") as fh:
        fh.write(_T4F_MAGIC)
        fh.write(np.array([a.n1, a.n2, a.m, flags], dtype="<u8").tobytes())
        if a.block_structure is not None:
            fh.write(a.block_structure.T.astype(np.uint8).tobytes())
        # (i2, i1, j1, j2) ordering; complex128 is stored as (re, im) doubles
        fh.write(a.data.transpose(1, 0, 2, 3).astype("<c16").tobytes())


def read_t4f(path) -> Tensor4:
    """Read a tensor written by :func:`write_t4f` (bit-exact round trip)."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _T4F_MAGIC:
            raise IOError(f"not a T4F file (magic {magic!r})")
        n1, n2, m, flags = np.frombuffer(fh.read(32), dtype="<u8")
        n1, n2, m = int(n1), int(n2), int(m)
        structure = None
        if flags & 1:
            raw = np.frombuffer(fh.read(n1 * n2), dtype=np.uint8)
            structure = raw.reshape(n2, n1).T.copy()
        count = n1 * n2 * m * m
        data = np.frombuffer(fh.read(16 * count), dtype="<c16")
        if data.size != count:
            raise IOError("truncated T4F payload")
        data = data.reshape(n2, n1, m, m).transpose(1, 0, 2, 3).copy()
    return Tensor4(data, structure)
