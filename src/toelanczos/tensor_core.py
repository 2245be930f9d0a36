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
operator type.  The dense ``*`` product :func:`star_mul_tt` takes plain
``(n1, n2, m, m)`` arrays, which store every entry, and raises
``TypeError`` on anything else; no command calls it, the benchmark's tracer
wraps ``diagnostics.star_mul_tt`` by name, and the tests build their dense
operators in their own oracles.

:class:`ProfileTensor` and :class:`HyperVec` keep the dtype of their data:
complex data stays complex128, and anything else becomes float64 without a
copy.  A product runs in the common dtype of its operands, casting a real
operand to complex first, so no ``matmul`` mixes the two; a run whose data
are all real is real throughout.

Layout: every hypervector a function here returns is stored mesh-major, with
the operator's mesh index first.  A right hypervector lives in a C-ordered
``(m, n, m)`` buffer ``V[j, k, c] = V_k[j, c]``, a dual one in
``W[j, k, r] = W_k[r, j]``; :attr:`HyperVec.data` is the ``(n, m, m)`` view
onto that buffer, so indexing ``data[k]`` is unchanged.  A hypervector held
in another layout (a C-ordered ``(n, m, m)`` array, say) is read through a
mesh-major copy, with bit-identical results.  In this layout:

* :func:`star_mul_tv` and :func:`star_mul_vt` are one batched ``np.matmul``
  over the mesh index, on matrices with a unit stride, plus a prefix sum
  over the contiguous ``(n, m)`` planes; the prefix sum adds plane ``j`` to
  its neighbour in ``np.cumsum``'s order, so it equals ``np.cumsum`` bit
  for bit without its strided pass;
* the coefficient products :func:`vec_times_coef` (``V x c``) and
  :func:`coef_times_vec` (``c x W^D``) are one GEMM of the stacked
  ``(n m, m)`` rows per mesh strip (below);
* :func:`star_inner` accumulates the slice products ``w[k] @ v[k]`` one by
  one in ascending ``k``, on strided views; exact cancellations in that sum
  (a singular ``beta``) would not survive a reordered single GEMM.

No other module transposes or reshapes hypervector data.

Workspace: :func:`star_mul_tv`, :func:`star_mul_vt`, :func:`vec_times_coef`
and :func:`coef_times_vec` take a keyword-only ``out=`` buffer, and
:func:`star_mul_tv` also a ``scratch=`` buffer for its prefix sum.  Each is
a C-ordered mesh-major ``(m, n, m)`` array of the product's dtype that
shares no memory with an operand (:attr:`HyperVec.mesh` of a hypervector
the package built is one); ``out`` is overwritten entirely, and the result
is the hypervector stored in it.  A kernel does the same products in the
same order into a given buffer as into a fresh one, so the results are
bit-identical; the Lanczos loop runs on a fixed set of such buffers.

Triangular contract: :func:`star_inner`, :func:`vec_times_coef` and
:func:`coef_times_vec` require hypervectors whose slices are lower
triangular, and the coefficient products also a lower-triangular ``c``.
Every hypervector the package builds has them: the lifts are diagonal, the
operator's slices are lower triangular, and sums, products and inverses keep
that.  Entries above a diagonal may go unread.  The three kernels split the
mesh index into ``max(1, m // 64)`` balanced strips of rows and skip the
blocks the contract makes exactly zero; the skipped terms are exact zeros
trailing or leading each entry's sum, so every entry adds the same nonzero
terms in the same order.  Below ``m = 128`` there is one strip, the whole
product.  The zero blocks of the results are written as exact zeros.

Every product runs on operands of fixed shape and layout, in a fixed order;
this fixes the floating-point result, so repeated runs are bit-identical.
No product skips a slice: the structure flags are derived from the data and
read only by the benchmark's tracer.  Only the triangular zero blocks within
the slices are skipped, by strips fixed by ``m`` alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from functools import cache

import numpy as np

__all__ = [
    "BlockStructure",
    "ProfileTensor",
    "HyperVec",
    "ShapeError",
    "OrientationError",
    "star_mul_tt",
    "star_mul_tv",
    "star_mul_vt",
    "star_inner",
    "vec_times_coef",
    "coef_times_vec",
    "lift",
    "lift_dual",
    "frobenius",
]


class ShapeError(ValueError):
    """Operand mode sizes do not conform."""


class OrientationError(ValueError):
    """A hypervector was used on the wrong side of a product."""


def _float_or_complex(data) -> np.ndarray:
    """``data`` as complex128 if it is complex, else as float64; no copy when it already is."""
    data = np.asarray(data)
    return data.astype(complex if data.dtype.kind == "c" else float, copy=False)


class BlockStructure(IntEnum):
    """Per-slice structure codes of a :class:`ProfileTensor`, derived from its samples."""

    LOWER_TRIANGULAR = 1
    ZERO = 2


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


@dataclass
class HyperVec:
    """3-mode tensor in ``C^{n x m x m}`` or ``R^{n x m x m}`` with an orientation.

    The data are complex128 or float64, as for :class:`ProfileTensor`.
    Right-oriented hypervectors act only as right operands of ``*`` products;
    dual ones (the paper's apex-D objects) only from the left.

    ``data`` is kept as given, without a copy.  The products return
    hypervectors whose ``data`` is an ``(n, m, m)`` view onto a mesh-major
    buffer (module docstring): ``data.transpose(1, 0, 2)`` is C-contiguous
    for a right one, ``data.transpose(2, 0, 1)`` for a dual one.

    :func:`star_inner`, :func:`vec_times_coef` and :func:`coef_times_vec`
    take only hypervectors with lower-triangular slices (the module's
    triangular contract), which every hypervector the package builds has;
    they may leave entries above the diagonal unread.
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

    @property
    def mesh(self) -> np.ndarray:
        """The ``(m, n, m)`` mesh-major view of ``data``, C-ordered when it is stored so."""
        return self.data.transpose(_TO_MESH[self.orientation])


def _require_profile(a) -> None:
    if not isinstance(a, ProfileTensor):
        raise TypeError(f"expected a ProfileTensor operator, got {type(a).__name__}")


def star_mul_tt(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tensor-tensor ``*`` product of dense ``(n1, n2, m, m)`` arrays: blockwise matmul.

    ``out[i1, i2] = sum_k a[i1, k] @ b[k, i2]`` with k ascending, every
    slice pair multiplied, in ``np.result_type(a, b)``: real operands give a
    real product.  An operand that is not an ndarray (a :class:`ProfileTensor`
    or :class:`HyperVec` included) raises ``TypeError``.
    """
    for t in (a, b):
        if not isinstance(t, np.ndarray):
            raise TypeError(f"expected a dense (n1, n2, m, m) array, got {type(t).__name__}")
    if not (a.ndim == b.ndim == 4 and a.shape[1] == b.shape[0]
            and a.shape[2] == a.shape[3] and a.shape[2:] == b.shape[2:]):
        raise ShapeError(f"cannot *-multiply {a.shape} with {b.shape}")
    out = np.zeros((a.shape[0], b.shape[1], *a.shape[2:]), np.result_type(a, b))
    for i1 in range(a.shape[0]):
        for i2 in range(b.shape[1]):
            for k in range(a.shape[1]):
                out[i1, i2] += a[i1, k] @ b[k, i2]
    return out


# axis orders between the (n, m, m) view and the (m, n, m) mesh-major buffer
_TO_MESH = {"right": (1, 0, 2), "dual": (2, 0, 1)}
_FROM_MESH = {"right": (1, 0, 2), "dual": (1, 2, 0)}


def _mesh(hv: HyperVec, dtype=None) -> np.ndarray:
    """The mesh-major ``(m, n, m)`` buffer of ``hv`` in ``dtype``; a copy only if it is not one."""
    return np.asarray(hv.mesh, dtype=dtype, order="C")


def _buffer(buf: np.ndarray | None, shape: tuple, dtype, *operands: np.ndarray) -> np.ndarray:
    """``buf``, checked to be a workspace buffer apart from ``operands``, or a fresh one."""
    if buf is None:
        return np.empty(shape, dtype)
    if buf.shape != shape or buf.dtype != dtype or not buf.flags.c_contiguous:
        raise ShapeError(f"expected a C-ordered {shape} {np.dtype(dtype)} buffer, got "
                         f"{buf.shape} {buf.dtype}")
    if any(np.may_share_memory(buf, x) for x in operands):
        raise ValueError("a workspace buffer must not share memory with an operand")
    return buf


def _from_mesh(buf: np.ndarray, orientation: str) -> HyperVec:
    """The hypervector stored in the mesh-major buffer ``buf``, without a copy."""
    return HyperVec(buf.transpose(_FROM_MESH[orientation]), orientation)


def _prefix_sum(x: np.ndarray, reverse: bool = False) -> np.ndarray:
    """Running sum of ``x`` along axis 0, in place, from the last plane if ``reverse``.

    Each plane gets its neighbour's sum added in ``np.cumsum``'s order, so
    the result is ``np.cumsum``'s bit for bit, but each step is one add of
    contiguous planes.
    """
    planes = list(x[::-1] if reverse else x)
    for prev, cur in zip(planes, planes[1:]):
        np.add(cur, prev, cur)
    return x


def _mesh_profiles(a: ProfileTensor, dtype) -> np.ndarray:
    """The profiles as ``(m, n1, n2)``: entry ``[j, i1, i2]`` is ``data[i1, i2, j]``."""
    return np.asarray(a.data.transpose(2, 0, 1), dtype=dtype, order="C")


# width of a mesh strip in the triangular products, like LAPACK's block size
_STRIP = 64


@cache
def _strips(m: int) -> tuple[tuple[int, int], ...]:
    """Bounds ``(s, e)`` of ``max(1, m // _STRIP)`` balanced strips of the mesh index."""
    count = max(1, m // _STRIP)
    bounds = [m * i // count for i in range(count + 1)]
    return tuple(zip(bounds, bounds[1:]))


def star_mul_tv(a: ProfileTensor, v: HyperVec, *, out: np.ndarray | None = None,
                scratch: np.ndarray | None = None) -> HyperVec:
    """Tensor-hypervector product ``(A * V)[i1] = sum_k a[i1, k] @ v[k]``.

    ``a[i1, k] @ v[k]`` is ``data[i1, k]`` scaling the rows of the row-wise
    running sum of ``v[k]``, so mesh row ``j`` of the result is
    ``data[:, :, j] @ cumsum(v)[:, j]``: a prefix sum over the mesh-major
    planes of ``V`` and one batched product over the rows, written straight
    into the mesh-major output.  The prefix sum runs on a mesh-major copy of
    ``V``, made in ``scratch``; ``out`` takes the result (module docstring,
    "Workspace").  Any operator other than a :class:`ProfileTensor` raises
    ``TypeError``.
    """
    _require_profile(a)
    if v.orientation != "right":
        raise OrientationError("tensor-hypervector product needs a right-oriented operand")
    if a.n2 != v.n or a.m != v.m:
        raise ShapeError(f"cannot *-multiply {a.data.shape} with {v.data.shape}")
    dtype = np.result_type(a.data, v.data)
    csum = _buffer(scratch, v.mesh.shape, dtype, v.data)
    np.copyto(csum, v.mesh)
    out = _buffer(out, (v.m, a.n1, v.m), dtype, v.data, csum)
    return _from_mesh(np.matmul(_mesh_profiles(a, dtype), _prefix_sum(csum), out=out), "right")


def star_mul_vt(w: HyperVec, a: ProfileTensor, *, out: np.ndarray | None = None) -> HyperVec:
    """Dual-hypervector-tensor product ``(W^D * A)[i2] = sum_k w[k] @ a[k, i2]``.

    The profiles ``data[k, i2]`` scale the columns of ``w[k]``, so mesh
    column ``j`` of the sum over ``k`` is ``data[:, :, j].T @ w[:, :, j]``:
    one batched product over the columns, written into the mesh-major
    output (``out`` if given, module docstring, "Workspace"), which then
    takes one reverse prefix sum over its planes.  Any operator other than a
    :class:`ProfileTensor` raises ``TypeError``.
    """
    _require_profile(a)
    if w.orientation != "dual":
        raise OrientationError("hypervector-tensor product needs a dual-oriented operand")
    if w.n != a.n1 or w.m != a.m:
        raise ShapeError(f"cannot *-multiply {w.data.shape} with {a.data.shape}")
    dtype = np.result_type(a.data, w.data)
    out = np.matmul(_mesh_profiles(a, dtype).transpose(0, 2, 1), _mesh(w, dtype),
                    out=_buffer(out, (w.m, a.n2, w.m), dtype, w.data))
    return _from_mesh(_prefix_sum(out, reverse=True), "dual")


def star_inner(w: HyperVec, v: HyperVec) -> np.ndarray:
    """Hypervector inner product ``W^D * V = sum_k w[k] @ v[k]`` (an m x m matrix).

    Requires lower-triangular slices (module docstring); entries above the
    diagonal may go unread.  The slice products are summed one by one in
    ascending ``k``, each on the strided slices of the mesh-major buffers:
    ``wm[:, k]`` is ``w[k]`` transposed.  Rows ``[s, e)`` of the result are
    formed per strip: ``w[k][s:e]`` is zero past column ``e``, and so is
    ``v[k][:e]``, so they take ``w[k][s:e, :e] @ v[k][:e, :e]``, and the
    rest of each row is an exact zero.  Every entry adds the same nonzero
    terms in the same order as the full sum, without its trailing zeros.
    BLAS may round a product of the same values differently when an
    operand's layout differs, so an operand in another layout is read
    through a mesh-major copy.
    """
    if w.orientation != "dual" or v.orientation != "right":
        raise OrientationError("inner product takes (dual, right) operands")
    if w.n != v.n or w.m != v.m:
        raise ShapeError(f"cannot contract {w.data.shape} with {v.data.shape}")
    dtype = np.result_type(w.data, v.data)
    wm, vm = _mesh(w, dtype), _mesh(v, dtype)
    out = np.zeros((w.m, w.m), dtype=dtype)
    for s, e in _strips(w.m):
        rows, ws, vs = out[s:e, :e], wm[:e, :, s:e], vm[:e, :, :e]
        for k in range(w.n):
            rows += ws[:, k].T @ vs[:, k]
    return out


def vec_times_coef(v: HyperVec, c: np.ndarray, *, out: np.ndarray | None = None) -> HyperVec:
    """``V x c``: every slice of the right hypervector ``v`` times the m x m matrix ``c``.

    Requires lower-triangular slices and a lower-triangular ``c`` (module
    docstring); entries above their diagonals may go unread.  The stacked
    ``(n m, m)`` mesh-major rows of mesh rows ``[s, e)`` are zero past
    column ``e``, so each strip is one GEMM with ``c[:e, :e]`` written into
    the output's rows, whose columns from ``e`` on are set to exact zeros.
    The output is ``out`` if given (module docstring, "Workspace").
    """
    if v.orientation != "right":
        raise OrientationError("V x c needs a right-oriented hypervector")
    c = np.asarray(c)
    if c.shape != (v.m, v.m):
        raise ShapeError(f"cannot multiply {v.data.shape} by a {c.shape} coefficient")
    dtype = np.result_type(v.data, c)
    vm, c = _mesh(v, dtype), c.astype(dtype, copy=False)
    n, m = v.n, v.m
    buf = _buffer(out, vm.shape, dtype, v.data)
    rows, out_rows = vm.reshape(-1, m), buf.reshape(-1, m)
    for s, e in _strips(m):
        np.matmul(rows[s * n:e * n, :e], c[:e, :e], out=out_rows[s * n:e * n, :e])
        if e < m:
            out_rows[s * n:e * n, e:] = 0
    return _from_mesh(buf, "right")


def coef_times_vec(c: np.ndarray, w: HyperVec, *, out: np.ndarray | None = None) -> HyperVec:
    """``c x W^D``: the m x m matrix ``c`` times every slice of the dual hypervector ``w``.

    Requires lower-triangular slices and a lower-triangular ``c`` (module
    docstring); entries above their diagonals may go unread.  Row
    ``(j, k)`` of the stacked ``(n m, m)`` mesh-major rows is column ``j``
    of ``w[k]``, zero before entry ``j``; so the rows of mesh rows
    ``[s, e)`` are one GEMM with ``c.T[s:, s:]`` written into the output's
    rows, whose first ``s`` columns are set to exact zeros.  The output is
    ``out`` if given (module docstring, "Workspace").
    """
    if w.orientation != "dual":
        raise OrientationError("c x W needs a dual-oriented hypervector")
    c = np.asarray(c)
    if c.shape != (w.m, w.m):
        raise ShapeError(f"cannot multiply a {c.shape} coefficient by {w.data.shape}")
    dtype = np.result_type(w.data, c)
    wm, c = _mesh(w, dtype), c.astype(dtype, copy=False)
    n, m = w.n, w.m
    buf = _buffer(out, wm.shape, dtype, w.data)
    rows, out_rows = wm.reshape(-1, m), buf.reshape(-1, m)
    for s, e in _strips(m):
        np.matmul(rows[s * n:e * n, s:], c.T[s:, s:], out=out_rows[s * n:e * n, s:])
        if s:
            out_rows[s * n:e * n, :s] = 0
    return _from_mesh(buf, "dual")


def lift(a: np.ndarray, m: int) -> HyperVec:
    """Kronecker lift of a length-N vector: slice ``i`` equals ``a[i] * I_m``."""
    a = _float_or_complex(a).ravel()
    if a.size < 1 or m < 1:
        raise ShapeError("lift needs a nonempty vector and m >= 1")
    return _from_mesh(np.eye(m)[:, None, :] * a[:, None], "right")


def lift_dual(a: np.ndarray, m: int) -> HyperVec:
    """Dual Kronecker lift: slice ``i`` equals ``conj(a[i]) * I_m``."""
    # the slices are diagonal, so the mesh-major buffer is that of lift(conj(a), m)
    return _from_mesh(lift(np.conj(a), m).mesh, "dual")


def frobenius(x) -> float:
    """Frobenius norm of an array or a :class:`HyperVec`: sqrt of the summed squared moduli.

    Note the square root: this is the standard norm, whereas some displayed
    formulas in the source material omit the root.  Every relative error in
    :mod:`toelanczos.diagnostics` is a ratio of these, so the convention only
    rescales absolute thresholds.
    """
    if isinstance(x, HyperVec):
        x = x.data
    # order "K" reads the entries in memory order: no copy of a transposed basis
    return float(np.linalg.norm(np.asarray(x).ravel(order="K")))
