"""The non-Hermitian Lanczos process on 4-mode tensors.

Given a square-outer tensor ``A`` and probe vectors ``v, w`` with
``w^H v != 0``, the iteration builds biorthogonal hypervector bases
``V_1..V_n`` (right) and ``W_1^D..W_n^D`` (dual) together with m x m
coefficient matrices ``alpha_k, beta_k, gamma_k`` satisfying the three-term
recurrences

    W_{k+1}^D = gamma_{k+1}^{-1} x (W_k^D * A - alpha_k x W_k^D - beta_k x W_{k-1}^D)
    V_{k+1}   = (A * V_k - V_k x alpha_k - V_{k-1} x gamma_k) x beta_{k+1}^{-1}

with ``alpha_k = W_k^D * A * V_k`` and
``beta_{k+1} = gamma_{k+1}^{-1} (W_hat_{k+1}^D * V_hat_{k+1})``.

The coefficients form a block-tridiagonal tensor (:func:`assemble_tridiag`)
with ``alpha_k`` on the diagonal, ``gamma_{k+1}`` on the superdiagonal slice
(k, k+1) and ``beta_{k+1}`` on the subdiagonal slice (k+1, k); that placement
is the one for which the projection identity ``T_n = W_n * A * V_n`` holds,
and the tests pin it numerically.

The rescaling is ``gamma = I`` throughout, which keeps the W recurrence
definitional.  The operator is the discretized
:class:`~toelanczos.tensor_core.ProfileTensor`, whose slices are lower
triangular; lower-triangular matrices are closed under the sums, products
and inverses above, so every basis slice, ``alpha_k`` and ``beta_k`` has an
exactly zero strict upper triangle, and ``beta`` is inverted by one
triangular solve per iteration.

Breakdowns: a vanishing residual hypervector is a *lucky* breakdown (an
invariant subspace was found); a singular ``beta_{k+1}`` with nonvanishing
residuals is a *serious* one and stops the process.  Both are reported in the
result status together with the completed prefix, never raised.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_triangular

from .tensor_core import (
    BlockStructure,
    HyperVec,
    ProfileTensor,
    ShapeError,
    Tensor4,
    frobenius,
    lift,
    lift_dual,
    star_inner,
    star_mul_tv,
    star_mul_vt,
)

__all__ = [
    "TriTensor",
    "LanczosStatus",
    "LanczosResult",
    "BreakdownCheck",
    "tensor_lanczos",
    "classify_breakdown",
    "assemble_tridiag",
    "split_unit_vectors",
    "v_basis_tensor",
    "w_basis_tensor",
    "residual_v_tensor",
    "residual_w_tensor",
]

DEFAULT_EPS_LUCKY = 1e-13
DEFAULT_EPS_SERIOUS = 1e13


@dataclass
class TriTensor:
    """Compact storage of the tridiagonal coefficient tensor.

    ``alphas`` holds alpha_1..alpha_n, ``betas`` beta_2..beta_n and ``gammas``
    gamma_2..gamma_n (1-based numbering as in the recurrences).
    """

    m: int
    alphas: list[np.ndarray]
    betas: list[np.ndarray]
    gammas: list[np.ndarray]

    @property
    def n(self) -> int:
        return len(self.alphas)

    def __post_init__(self):
        if len(self.betas) != len(self.alphas) - 1 or len(self.gammas) != len(self.alphas) - 1:
            raise ValueError("need n alphas and n-1 betas/gammas")


@dataclass(frozen=True)
class LanczosStatus:
    """Outcome of a run: 'completed', 'lucky_breakdown', or 'serious_breakdown'.

    ``k`` is the 1-based iteration at which a breakdown was detected, ``side``
    which residual vanished for a lucky one, ``cond`` the condition estimate
    of the offending beta for a serious one.
    """

    kind: str
    k: int | None = None
    side: str | None = None
    cond: float | None = None

    @property
    def completed(self) -> bool:
        return self.kind == "completed"


@dataclass
class LanczosResult:
    """Bases, coefficients, residuals and status of one Lanczos run.

    ``residual_v`` is ``V_{n+1} x beta_{n+1}`` (the unnormalized V residual)
    and ``residual_w`` is ``gamma_{n+1} x W_{n+1}^D``; they are exactly the
    hatted vectors of the last completed iteration and form the nonzero
    slices of the recurrence residual tensors.

    ``normalization`` records the ``w^H v`` factor divided out of ``v`` on
    entry; downstream solution values must be rescaled by it.
    """

    tri: TriTensor
    v_basis: list[HyperVec]
    w_basis: list[HyperVec]
    residual_v: HyperVec
    residual_w: HyperVec
    status: LanczosStatus
    normalization: complex


@dataclass(frozen=True)
class BreakdownCheck:
    kind: str  # none | lucky | serious
    side: str | None = None
    cond: float | None = None


def classify_breakdown(v_hat: HyperVec, w_hat: HyperVec, v_prev_norm: float,
                       w_prev_norm: float, beta: np.ndarray, eps_lucky: float,
                       eps_serious: float) -> BreakdownCheck:
    """Classify the state after forming a new residual pair and beta.

    Lucky if a relative residual norm drops below ``eps_lucky`` (the V side is
    checked first); serious if ``sigma_max(beta)/sigma_min(beta)`` exceeds
    ``eps_serious``.  Lucky takes precedence over serious.
    """
    if frobenius(v_hat) / v_prev_norm < eps_lucky:
        return BreakdownCheck("lucky", side="v")
    if frobenius(w_hat) / w_prev_norm < eps_lucky:
        return BreakdownCheck("lucky", side="w")
    sigma = np.linalg.svd(beta, compute_uv=False)
    cond = float("inf") if sigma[-1] == 0.0 else float(sigma[0] / sigma[-1])
    if cond > eps_serious:
        return BreakdownCheck("serious", cond=cond)
    return BreakdownCheck("none")


def _apply_inverse_right(beta: np.ndarray, hv: HyperVec) -> HyperVec:
    # X = S @ beta^{-1}  <=>  beta^T X^T = S^T, for all slices S stacked by rows
    stacked = hv.data.reshape(-1, hv.m)
    out = solve_triangular(beta, stacked.T, trans="T", lower=True).T
    return HyperVec(out.reshape(hv.data.shape), hv.orientation)


def tensor_lanczos(a: ProfileTensor, v: np.ndarray, w: np.ndarray, n: int,
                   eps_lucky: float = DEFAULT_EPS_LUCKY,
                   eps_serious: float = DEFAULT_EPS_SERIOUS) -> LanczosResult:
    """Run n iterations of the tensor non-Hermitian Lanczos process.

    Parameters
    ----------
    a : ProfileTensor
        Square-outer discretized operator (N x N profiles of length M).
    v, w : array_like
        Probe vectors of length N with ``w^H v != 0``.  ``v`` is scaled by
        ``1/(w^H v)`` internally and the factor is reported in the result.
    n : int
        Requested iterations (n >= 1).
    eps_lucky, eps_serious : float
        Breakdown thresholds, see :func:`classify_breakdown`.

    ``beta^{-1}`` is applied by one triangular solve on the stacked basis
    slices per iteration, never by forming an inverse; that needs the lower
    triangular slices of a :class:`ProfileTensor`, so any other operator
    type raises ``TypeError``.
    """
    if not isinstance(a, ProfileTensor):
        raise TypeError(f"tensor_lanczos needs a ProfileTensor, got {type(a).__name__}")
    if a.n1 != a.n2:
        raise ShapeError("input tensor must have square outer modes")
    if n < 1:
        raise ValueError("need at least one iteration")
    v = np.asarray(v, dtype=complex).ravel()
    w = np.asarray(w, dtype=complex).ravel()
    if v.size != a.n1 or w.size != a.n1:
        raise ShapeError("probe vectors must have length N")
    m = a.m
    normalization = complex(np.vdot(w, v))
    if normalization == 0:
        raise ValueError("w^H v = 0: the probe vectors admit no biorthogonal start "
                         "(consider split_unit_vectors)")
    v = v / normalization

    v_basis = [lift(v, m)]
    w_basis = [lift_dual(w, m)]
    alphas: list[np.ndarray] = []
    betas: list[np.ndarray] = []
    gammas: list[np.ndarray] = []
    v_prev = HyperVec(np.zeros((a.n1, m, m)), "right")
    w_prev = HyperVec(np.zeros((a.n1, m, m)), "dual")
    beta_k: np.ndarray | None = None    # beta_k x W_{k-1} term; None while k = 1

    def finish(status, res_v, res_w):
        tri = TriTensor(m, alphas, betas, gammas)
        return LanczosResult(tri, v_basis, w_basis, res_v, res_w, status, normalization)

    for k in range(1, n + 1):
        wa = star_mul_vt(w_basis[-1], a)
        alpha = star_inner(wa, v_basis[-1])
        alphas.append(alpha)

        w_hat = HyperVec(wa.data - np.matmul(alpha, w_basis[-1].data), "dual")
        if beta_k is not None:
            w_hat = HyperVec(w_hat.data - np.matmul(beta_k, w_prev.data), "dual")

        av = star_mul_tv(a, v_basis[-1])
        v_hat = HyperVec(av.data - np.matmul(v_basis[-1].data, alpha) - v_prev.data, "right")

        if k == n:
            return finish(LanczosStatus("completed"), v_hat, w_hat)

        beta_next = star_inner(w_hat, v_hat)
        check = classify_breakdown(v_hat, w_hat, frobenius(v_basis[-1]),
                                   frobenius(w_basis[-1]), beta_next,
                                   eps_lucky, eps_serious)
        if check.kind == "lucky":
            return finish(LanczosStatus("lucky_breakdown", k=k, side=check.side),
                          v_hat, w_hat)
        if check.kind == "serious":
            return finish(LanczosStatus("serious_breakdown", k=k, cond=check.cond),
                          v_hat, w_hat)

        betas.append(beta_next)
        gammas.append(np.eye(m, dtype=complex))

        v_prev, w_prev = v_basis[-1], w_basis[-1]
        v_basis.append(_apply_inverse_right(beta_next, v_hat))
        w_basis.append(w_hat)
        beta_k = beta_next

    raise AssertionError("unreachable")


def assemble_tridiag(tri: TriTensor) -> Tensor4:
    """Materialize the block-tridiagonal tensor of the coefficients.

    Slice (k, k) holds alpha_{k+1} (0-based k), slice (k, k+1) gamma_{k+2}
    and slice (k+1, k) beta_{k+2}; every other slice is zero and flagged
    ZERO, so products skip it.
    """
    n, m = tri.n, tri.m
    data = np.zeros((n, n, m, m), dtype=complex)
    flags = np.full((n, n), BlockStructure.ZERO, dtype=np.uint8)
    for k in range(n):
        data[k, k] = tri.alphas[k]
        flags[k, k] = BlockStructure.DENSE
        if k + 1 < n:
            data[k, k + 1] = tri.gammas[k]
            data[k + 1, k] = tri.betas[k]
            flags[k, k + 1] = flags[k + 1, k] = BlockStructure.DENSE
    return Tensor4(data, flags)


def split_unit_vectors(i: int, j: int, n: int):
    """Rewrite ``e_i^H U(t) e_j`` as a difference of two full-vector forms.

    Returns the pairs ``(w, v)`` for the runs ``(e + e_i, e_j)`` and
    ``(e, e_j)`` with ``e`` the all-ones vector; subtracting the second
    pipeline output from the first recovers the unit-vector bilinear form by
    linearity, and the dense ``w`` makes a serious breakdown far less likely.
    Indices are 0-based.
    """
    if not (0 <= i < n and 0 <= j < n):
        raise IndexError(f"unit vector indices ({i}, {j}) out of range for n={n}")
    e = np.ones(n)
    ei = np.zeros(n)
    ei[i] = 1.0
    ej = np.zeros(n)
    ej[j] = 1.0
    return (e + ei, ej), (e, ej)


def v_basis_tensor(result: LanczosResult) -> Tensor4:
    """Stack the right basis into the N x n tensor with slice (:, k) = V_{k+1}."""
    return Tensor4(np.stack([hv.data for hv in result.v_basis], axis=1))


def w_basis_tensor(result: LanczosResult) -> Tensor4:
    """Stack the dual basis into the n x N tensor with slice (k, :) = W_{k+1}^D."""
    return Tensor4(np.stack([hv.data for hv in result.w_basis], axis=0))


def residual_v_tensor(result: LanczosResult) -> Tensor4:
    """N x n tensor whose last column is the V-side residual, zero elsewhere."""
    n = len(result.v_basis)
    data = np.zeros((result.residual_v.n, n, result.tri.m, result.tri.m), dtype=complex)
    data[:, n - 1] = result.residual_v.data
    return Tensor4(data)


def residual_w_tensor(result: LanczosResult) -> Tensor4:
    """n x N tensor whose last row is the W-side residual, zero elsewhere."""
    n = len(result.w_basis)
    data = np.zeros((n, result.residual_w.n, result.tri.m, result.tri.m), dtype=complex)
    data[n - 1, :] = result.residual_w.data
    return Tensor4(data)
