"""Slow reference implementations the tests compare the package against.

Everything here is dense: the operator with every slice materialized
(:func:`to_tensor4`), the ``*`` products as block-matrix algebra on
:class:`~toelanczos.tensor_core.Tensor4`, the unfolding tensor-train sweep
and its dense nonzero count, the materialized tridiagonal
coefficient tensor and basis tensors, and series evaluations of the
resolvent.  The bases and residuals of the run on ``A`` are mapped here
from the run the package keeps (``v_basis``, ``w_basis``, ``residual_v``,
``residual_w``).  The package itself runs on the profile-form operator and the
compact :class:`~toelanczos.lanczos.TriTensor`.
"""

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import lu_factor, lu_solve, solve_triangular

from toelanczos import (
    HyperVec,
    OrientationError,
    ProfileTensor,
    ShapeError,
    SolutionVec,
    frobenius,
    lift,
    lift_dual,
    star_inner,
    star_mul_tv,
)
from toelanczos.lanczos import _times_i_power
from toelanczos.problems import _NMR_NU, _nmr_coefficients
from toelanczos.tensor_core import Tensor4, star_mul_tt
from toelanczos.tt import TTTensor, _rank_from_tail, parameter_count


# ------------------------------------------------------------ dense algebra

def to_tensor4(a: ProfileTensor) -> Tensor4:
    """The dense tensor with the slices ``diag(a.data[i1, i2]) @ tril(1)``."""
    mask = np.tril(np.ones((a.m, a.m)))
    return Tensor4(a.data[..., :, None] * mask)


def require_dense(*tensors) -> None:
    """Raise ``TypeError`` unless every argument is a dense :class:`Tensor4`."""
    for t in tensors:
        if not isinstance(t, Tensor4):
            raise TypeError(f"expected a dense Tensor4, got {type(t).__name__}; "
                            "convert a ProfileTensor with to_tensor4()")


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


def star_identity(n: int, m: int) -> Tensor4:
    """Identity for the ``*`` products: ``I_m`` on the outer diagonal, zero off it."""
    data = np.zeros((n, n, m, m), dtype=complex)
    for i in range(n):
        data[i, i] = np.eye(m)
    return Tensor4(data)


def star_pow(a: Tensor4, k: int) -> Tensor4:
    """k-fold ``*`` power of a square-outer tensor (k = 0 gives the ``*`` identity)."""
    if a.n1 != a.n2:
        raise ShapeError("*-power needs square outer modes")
    if k < 0:
        raise ValueError("k must be nonnegative")
    out = star_identity(a.n1, a.m)
    for _ in range(k):
        out = star_mul_tt(out, a)
    return out


def dense_mul_tv(a: Tensor4, v: HyperVec) -> HyperVec:
    """``(A * V)[i1] = sum_k a[i1, k] @ v[k]``, k ascending, one slice product each."""
    require_dense(a)
    if v.orientation != "right":
        raise OrientationError("tensor-hypervector product needs a right-oriented operand")
    if a.n2 != v.n or a.m != v.m:
        raise ShapeError(f"cannot *-multiply {a.data.shape} with {v.data.shape}")
    out = np.zeros((a.n1, a.m, a.m), dtype=complex)
    for i1 in range(a.n1):
        for k in range(a.n2):
            out[i1] += a.data[i1, k] @ v.data[k]
    return HyperVec(out, "right")


def dense_mul_vt(w: HyperVec, a: Tensor4) -> HyperVec:
    """``(W^D * A)[i2] = sum_k w[k] @ a[k, i2]``, k ascending, one slice product each."""
    require_dense(a)
    if w.orientation != "dual":
        raise OrientationError("hypervector-tensor product needs a dual-oriented operand")
    if w.n != a.n1 or w.m != a.m:
        raise ShapeError(f"cannot *-multiply {w.data.shape} with {a.data.shape}")
    out = np.zeros((a.n2, a.m, a.m), dtype=complex)
    for i2 in range(a.n2):
        for k in range(a.n1):
            out[i2] += w.data[k] @ a.data[k, i2]
    return HyperVec(out, "dual")


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


# -------------------------------------------------------- triangular solves

def solve_lower(s: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``s^{-1} b`` for a lower-triangular ``s``, by scipy's triangular solver."""
    return solve_triangular(s, b, lower=True)


def times_inverse_right(slices: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Every ``m x m`` slice ``S`` times ``beta^{-1}``, for a lower-triangular ``beta``.

    Solves ``beta^T X^T = S^T`` for all slices stacked by rows, by scipy's
    triangular solver.
    """
    stacked = slices.reshape(-1, beta.shape[0])
    return solve_triangular(beta, stacked.T, trans="T", lower=True).T.reshape(slices.shape)


# ------------------------------------------------- materialized Lanczos data

def assemble_tridiag(tri) -> Tensor4:
    """Materialize the block-tridiagonal tensor ``T_n`` of the coefficients.

    Slice (k, k) holds alpha_{k+1} (0-based k), slice (k, k+1) the identity
    and slice (k+1, k) beta_{k+2}; every other slice is zero.
    """
    n, m = tri.n, tri.m
    data = np.zeros((n, n, m, m), dtype=complex)
    for k in range(n):
        data[k, k] = tri.alphas[k]
        if k + 1 < n:
            data[k, k + 1] = np.eye(m)
            data[k + 1, k] = tri.betas[k]
    return Tensor4(data)


def _mapped(result, hv: HyperVec, p: int) -> HyperVec:
    """``i**p * hv`` for a run on ``-i A`` (``scale = i``), else ``hv`` itself."""
    if result.scale == 1:
        return hv
    return HyperVec(_times_i_power(hv.data, p), hv.orientation)


def v_basis(result) -> list[HyperVec]:
    """The right basis of the run on ``A``: ``V_k -> i^-(k-1) V_k`` for ``scale = i``."""
    return [_mapped(result, hv, -k) for k, hv in enumerate(result.walk.v_basis)]


def w_basis(result) -> list[HyperVec]:
    """The dual basis of the run on ``A``: ``W_k -> i^(k-1) W_k`` for ``scale = i``."""
    return [_mapped(result, hv, k) for k, hv in enumerate(result.walk.w_basis)]


def residual_v(result) -> HyperVec:
    """The V residual of the run on ``A``: ``i^-(n-2)`` times the run's for ``scale = i``."""
    return _mapped(result, result.run_residual_v, 2 - result.run_tri.n)


def residual_w(result) -> HyperVec:
    """The W residual of the run on ``A``: ``i^n`` times the run's for ``scale = i``."""
    return _mapped(result, result.run_residual_w, result.run_tri.n)


def v_basis_tensor(result) -> Tensor4:
    """Stack the right basis into the N x n tensor with slice (:, k) = V_{k+1}."""
    return Tensor4(np.stack([hv.data for hv in v_basis(result)], axis=1))


def w_basis_tensor(result) -> Tensor4:
    """Stack the dual basis into the n x N tensor with slice (k, :) = W_{k+1}^D."""
    return Tensor4(np.stack([hv.data for hv in w_basis(result)], axis=0))


def residual_v_tensor(result) -> Tensor4:
    """N x n tensor whose last column is the V-side residual, zero elsewhere."""
    res, n = residual_v(result), result.run_tri.n
    data = np.zeros((res.n, n, result.tri.m, result.tri.m), dtype=complex)
    data[:, n - 1] = res.data
    return Tensor4(data)


def residual_w_tensor(result) -> Tensor4:
    """n x N tensor whose last row is the W-side residual, zero elsewhere."""
    res, n = residual_w(result), result.run_tri.n
    data = np.zeros((n, res.n, result.tri.m, result.tri.m), dtype=complex)
    data[n - 1, :] = res.data
    return Tensor4(data)


def complex_lanczos(a: Tensor4, v, w, n: int) -> dict:
    """The Lanczos recurrences in complex128 on the dense operator.

    The reference for the package's dtype dispatch: every product is the
    dense slice loop on complex data, and ``beta^{-1}`` is a general
    inverse.  Runs n iterations without breakdown checks and returns
    ``alphas``, ``betas``, ``v_basis``, ``w_basis`` (lists of arrays) and
    the residuals ``residual_v``, ``residual_w``.
    """
    v = np.asarray(v, dtype=complex).ravel()
    w = np.asarray(w, dtype=complex).ravel()
    v = v / np.vdot(w, v)
    eye = np.eye(a.m, dtype=complex)
    vs = [v[:, None, None] * eye]
    ws = [np.conj(w)[:, None, None] * eye]
    alphas, betas = [], []
    for k in range(n):
        wa = dense_mul_vt(HyperVec(ws[-1], "dual"), a).data
        alpha = sum(wa[i] @ vs[-1][i] for i in range(a.n1))
        alphas.append(alpha)
        av = dense_mul_tv(a, HyperVec(vs[-1], "right")).data
        w_hat = wa - np.matmul(alpha, ws[-1])
        v_hat = av - np.matmul(vs[-1], alpha)
        if k > 0:
            w_hat = w_hat - np.matmul(betas[-1], ws[-2])
            v_hat = v_hat - vs[-2]
        if k == n - 1:
            return {"alphas": alphas, "betas": betas, "v_basis": vs, "w_basis": ws,
                    "residual_v": v_hat, "residual_w": w_hat}
        beta = sum(w_hat[i] @ v_hat[i] for i in range(a.n1))
        betas.append(beta)
        vs.append(np.matmul(v_hat, np.linalg.inv(beta)))
        ws.append(w_hat)


# --------------------------------------------------------- series resolvent

def theta_matrix(mesh) -> np.ndarray:
    """h times the lower-triangular all-ones M x M matrix (discrete Heaviside)."""
    return mesh.h * np.tril(np.ones((mesh.m, mesh.m)))


def lu_resolvent_11(tri) -> np.ndarray:
    """``R_11`` by the resolvent continued fraction, each level factored by row-pivoted LU.

    ``R_11 = (a~_1 - (a~_2 - ( ... a~_n^{-1} ... ) b_3)^{-1} b_2)^{-1}`` with
    ``a~_i = I - alpha_i``, evaluated innermost-outward: the Schur complement
    recursion of the block tridiagonal ``I - T_n``.  It needs no triangular
    structure; the package solves for the first column alone.
    """
    eye = np.eye(tri.m, dtype=complex)
    level = tri.n
    s = eye - tri.alphas[level - 1]
    while level > 1:
        inner_beta = lu_solve(lu_factor(s), tri.betas[level - 2])
        level -= 1
        s = (eye - tri.alphas[level - 1]) - inner_beta
    return lu_solve(lu_factor(s), eye)


def dense_resolvent_column(tri) -> np.ndarray:
    """``R_11 e_1`` from one dense solve of ``(I - T_n) x = E_1 e_1``, of size ``n M``."""
    size = tri.n * tri.m
    rhs = np.zeros(size)
    rhs[0] = 1.0
    return np.linalg.solve(np.eye(size) - to_block_matrix(assemble_tridiag(tri)), rhs)[:tri.m]


def neumann_resolvent(t: Tensor4, max_terms: int | None = None,
                      rel_tol: float = 1e-16) -> Tensor4:
    """Truncated series evaluation ``I_* + sum_k T^{k*}`` of the resolvent.

    Powers are accumulated until ``max_terms`` (default n*m) or until a
    term's norm falls below ``rel_tol`` times the running sum's norm.
    """
    if t.n1 != t.n2:
        raise ValueError("resolvent needs square outer modes")
    if max_terms is None:
        max_terms = t.n1 * t.m
    acc = star_identity(t.n1, t.m)
    power = t
    for _ in range(max_terms):
        acc = Tensor4(acc.data + power.data)
        if frobenius(power) < rel_tol * frobenius(acc):
            break
        power = star_mul_tt(power, t)
    return acc


def solution_via_series(a, v: np.ndarray, w: np.ndarray, mesh,
                        max_terms: int | None = None,
                        rel_tol: float = 1e-16) -> SolutionVec:
    """Lanczos-free evaluation of the bilinear form from the full operator.

    Computes ``B = sum_k W^D * A^{k*} * V`` by iterated tensor-hypervector
    products (the series form of ``W^D * R_*(A) * V``) and returns
    ``(1/h) * (theta @ B) @ e_1``.  Exact-arithmetic equal to the Lanczos
    pipeline at full dimension, and the direct answer when the iteration
    breaks down.
    """
    v = np.asarray(v, dtype=complex).ravel()
    w = np.asarray(w, dtype=complex).ravel()
    if max_terms is None:
        max_terms = a.n1 * a.m
    wd = lift_dual(w, a.m)
    cur = lift(v, a.m)
    acc = star_inner(wd, cur)
    for _ in range(max_terms):
        cur = star_mul_tv(a, cur)
        term = star_inner(wd, cur)
        acc = acc + term
        if frobenius(cur) < rel_tol * frobenius(acc):
            break
    theta = theta_matrix(mesh)
    values = (theta @ acc[:, 0]) / mesh.h
    return SolutionVec(mesh, values, a.n1)


# ------------------------------------------------------------ tensor trains

def dense_tt_svd(a: Tensor4, tol: float) -> TTTensor:
    """The TT-SVD sweep on the unfoldings of a dense 4-mode tensor.

    Each unfolding goes through a thin SVD, truncated at
    ``tol * |A|_F / sqrt(3)`` by the package's own tail rule; the reference
    for :func:`~toelanczos.tt.tt_svd` on the profiles.
    """
    require_dense(a)
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must be finite and positive, got {tol}")
    modes = a.data.shape
    delta = tol * np.linalg.norm(a.data.ravel()) / np.sqrt(3.0)
    delta_sq = delta * delta
    cores, ranks = [], [1]
    current = a.data.reshape(modes[0], -1)
    for k in range(3):
        u, s, vh = np.linalg.svd(current, full_matrices=False)
        r = _rank_from_tail(s**2, delta_sq)
        cores.append(u[:, :r].reshape(ranks[-1], modes[k], r))
        ranks.append(r)
        current = s[:r, None] * vh[:r]
        if k < 2:
            current = current.reshape(r * modes[k + 1], -1)
    cores.append(current.reshape(ranks[-1], modes[3], 1))
    ranks.append(1)
    return TTTensor(cores, tuple(ranks), tuple(modes), float(tol))


def dense_rank_report_row(t: TTTensor, a: Tensor4, mesh_size: int) -> str:
    """The rank-table CSV row with ``nnz`` counted on the dense tensor."""
    require_dense(a)
    nnz = int(np.count_nonzero(a.data))
    if nnz == 0:
        raise ValueError("source tensor has no nonzeros")
    params = parameter_count(t)
    return ",".join([str(mesh_size), repr(t.tol_used), str(nnz),
                     *[str(r) for r in t.ranks], str(params), repr(params / nnz)])


def tt_reconstruct(t: TTTensor) -> Tensor4:
    """Contract the core chain back into a dense 4-mode tensor."""
    g1, g2, g3, g4 = t.cores
    data = np.einsum("aib,bjc,ckd,dle->ijkl", g1, g2, g3, g4, optimize=True)
    return Tensor4(np.ascontiguousarray(data))


# ------------------------------------------------------------------ A(t)

def term_value(term, t):
    """One term ``coeff * t**power * trig(omega*t)`` at scalar or array ``t``."""
    t = np.asarray(t, dtype=float)
    val = term.coeff * t**term.power
    if term.trig == "cos":
        val = val * np.cos(term.omega * t)
    elif term.trig == "sin":
        val = val * np.sin(term.omega * t)
    return val


def entry_per_term(problem, k: int, l: int, t) -> np.ndarray:
    """Entry (k, l) at scalar or array ``t``, adding its terms in list order."""
    t = np.asarray(t, dtype=float)
    out = np.zeros(t.shape, dtype=complex)
    for term in problem.entries.get((k, l), ()):
        out += term_value(term, t)
    return out


def matrix_per_term(problem, t: float) -> np.ndarray:
    """Dense ``A(t)`` as a Python loop adding each term in list order."""
    out = np.zeros((problem.n, problem.n), dtype=complex)
    for (k, l), terms in problem.entries.items():
        for term in terms:
            out[k, l] += term_value(term, float(t))
    return out


def reference_per_term(problem, mesh, rtol: float = 1e-10, atol: float = 1e-12) -> np.ndarray:
    """``w^H u(tau_i)`` from the same Dormand-Prince call, driven by :func:`matrix_per_term`."""
    sol = solve_ivp(lambda t, y: matrix_per_term(problem, t) @ y,
                    (problem.a, problem.b), problem.v.astype(complex),
                    method="RK45", rtol=rtol, atol=atol, dense_output=True)
    return np.conj(problem.w) @ sol.sol(mesh.tau)


def nmr1_closed_form(seed: int, mesh, v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``w^H U(t) v`` of the generated nmr1 from its drawn coefficients, not its terms.

    Level k carries ``alpha_k + beta_k cos(2 pi nu t) + gamma_k cos(4 pi nu t)``
    (``beta`` and ``gamma`` the diagonals of the draw's ``B`` and ``C``) and
    evolves by ``exp(-2 pi i [alpha_k t + beta_k sin(2 pi nu t) / (2 pi nu)
    + gamma_k sin(4 pi nu t) / (4 pi nu)])``; the interval starts at 0.
    """
    alpha, b, c = _nmr_coefficients(1, seed)
    t = mesh.tau[None, :]
    w2 = 2 * np.pi * _NMR_NU
    phase = (alpha[:, None] * t
             + np.diag(b)[:, None] * np.sin(w2 * t) / w2
             + np.diag(c)[:, None] * np.sin(2 * w2 * t) / (2 * w2))
    return (np.conj(w)[:, None] * np.exp(-2j * np.pi * phase) * v[:, None]).sum(axis=0)


def const3_closed_form(tau: np.ndarray) -> np.ndarray:
    """``(exp(A t))_{11}`` of the builtin const3 at the points ``tau``, written by hand.

    The spectrum of ``A`` is {-2, sqrt(2), -sqrt(2)}, giving
    ``-sinh(2t)/2 + cosh(2t)/2 + cosh(sqrt(2) t)/2``.
    """
    return -0.5 * np.sinh(2 * tau) + 0.5 * np.cosh(2 * tau) + 0.5 * np.cosh(np.sqrt(2) * tau)
