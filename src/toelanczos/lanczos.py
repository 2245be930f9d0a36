"""The non-Hermitian Lanczos process on 4-mode tensors.

Given a square-outer tensor ``A`` and probe vectors ``v, w`` with
``w^H v != 0``, the iteration builds biorthogonal hypervector bases
``V_1..V_n`` (right) and ``W_1^D..W_n^D`` (dual) together with m x m
coefficient matrices ``alpha_k, beta_k`` satisfying the three-term
recurrences

    W_{k+1}^D = W_k^D * A - alpha_k x W_k^D - beta_k x W_{k-1}^D
    V_{k+1}   = (A * V_k - V_k x alpha_k - V_{k-1}) x beta_{k+1}^{-1}

with ``alpha_k = W_k^D * A * V_k`` and ``beta_{k+1} = W_{k+1}^D * V_hat_{k+1}``,
where ``V_hat_{k+1}`` is the bracketed V residual.  This is the general
process with the rescaling ``gamma = I`` throughout, which keeps the W
recurrence definitional.

The coefficients form the block-tridiagonal tensor ``T_n`` with ``alpha_k``
on the diagonal, ``I`` on the superdiagonal slice (k, k+1) and
``beta_{k+1}`` on the subdiagonal slice (k+1, k); that placement is the one
for which the projection identity ``T_n = W_n * A * V_n`` holds, and the
tests pin it numerically.  :class:`TriTensor` stores only the ``alpha`` and
``beta`` matrices and applies ``T_n`` by its three-term recurrence.

The operator is the discretized
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

from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import solve_triangular

from .tensor_core import (
    HyperVec,
    ProfileTensor,
    ShapeError,
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
    "tensor_lanczos",
    "classify_breakdown",
    "split_unit_vectors",
]

DEFAULT_EPS_LUCKY = 1e-13
DEFAULT_EPS_SERIOUS = 1e13


@dataclass
class TriTensor:
    """Compact storage of the tridiagonal coefficient tensor ``T_n``.

    ``alphas`` holds alpha_1..alpha_n and ``betas`` beta_2..beta_n (1-based
    numbering as in the recurrences); the superdiagonal slices are ``I``.
    """

    m: int
    alphas: list[np.ndarray]
    betas: list[np.ndarray]

    @property
    def n(self) -> int:
        return len(self.alphas)

    def __post_init__(self):
        if len(self.betas) != len(self.alphas) - 1:
            raise ValueError("need n alphas and n-1 betas")

    def apply(self, v: HyperVec) -> HyperVec:
        """``T_n * V``: row k is ``beta_k x V_{k-1} + alpha_k x V_k + V_{k+1}``.

        The terms are summed in that order, the ascending order of the dense
        block-tridiagonal product, so the result matches it bit for bit.
        """
        if v.n != self.n or v.m != self.m:
            raise ShapeError(f"cannot apply T_n (n={self.n}, m={self.m}) to {v.data.shape}")
        x = v.data
        out = np.empty_like(x)
        for k in range(self.n):
            row = self.alphas[k] @ x[k]
            if k > 0:
                row = self.betas[k - 1] @ x[k - 1] + row
            if k + 1 < self.n:
                row = row + x[k + 1]
            out[k] = row
        return HyperVec(out, v.orientation)


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
    and ``residual_w`` is ``W_{n+1}^D``; they are exactly the hatted vectors
    of the last completed iteration and form the nonzero slices of the
    recurrence residual tensors.

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


def classify_breakdown(v_hat: HyperVec, w_hat: HyperVec, v_prev_norm: float,
                       w_prev_norm: float, beta: np.ndarray, eps_lucky: float,
                       eps_serious: float) -> LanczosStatus | None:
    """Classify the state after forming a new residual pair and beta.

    Returns a ``lucky_breakdown`` status if a relative residual norm drops
    below ``eps_lucky`` (the V side is checked first, and ``side`` names the
    vanished one), else a ``serious_breakdown`` status with ``cond`` if
    ``sigma_max(beta)/sigma_min(beta)`` exceeds ``eps_serious``, else
    ``None``.  The caller fills in the iteration ``k``.
    """
    if frobenius(v_hat) / v_prev_norm < eps_lucky:
        return LanczosStatus("lucky_breakdown", side="v")
    if frobenius(w_hat) / w_prev_norm < eps_lucky:
        return LanczosStatus("lucky_breakdown", side="w")
    sigma = np.linalg.svd(beta, compute_uv=False)
    cond = float("inf") if sigma[-1] == 0.0 else float(sigma[0] / sigma[-1])
    if cond > eps_serious:
        return LanczosStatus("serious_breakdown", cond=cond)
    return None


def _w_update(wa: np.ndarray, alpha: np.ndarray, w_k: np.ndarray,
              beta_k: np.ndarray | None = None, w_prev: np.ndarray | None = None) -> np.ndarray:
    """``(W_k*A - alpha_k x W_k) - beta_k x W_{k-1}``; the last term is absent for k = 1.

    The one place that writes this grouping: the iteration and
    :func:`~toelanczos.diagnostics.err_recurrences` both call it, which is
    what makes ``err_W`` exactly zero.
    """
    out = wa - np.matmul(alpha, w_k)
    if beta_k is not None:
        out = out - np.matmul(beta_k, w_prev)
    return out


def _v_update(av: np.ndarray, v_k: np.ndarray, alpha: np.ndarray,
              v_prev: np.ndarray | None = None) -> np.ndarray:
    """``(A*V_k - V_k x alpha_k) - V_{k-1}``; the last term is absent for k = 1."""
    out = av - np.matmul(v_k, alpha)
    if v_prev is not None:
        out = out - v_prev
    return out


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

    def finish(status, res_v, res_w):
        tri = TriTensor(m, alphas, betas)
        return LanczosResult(tri, v_basis, w_basis, res_v, res_w, status, normalization)

    for k in range(1, n + 1):
        wa = star_mul_vt(w_basis[-1], a)
        alpha = star_inner(wa, v_basis[-1])
        alphas.append(alpha)
        av = star_mul_tv(a, v_basis[-1])
        w_prev = () if k == 1 else (betas[-1], w_basis[-2].data)
        v_prev = () if k == 1 else (v_basis[-2].data,)
        w_hat = HyperVec(_w_update(wa.data, alpha, w_basis[-1].data, *w_prev), "dual")
        v_hat = HyperVec(_v_update(av.data, v_basis[-1].data, alpha, *v_prev), "right")

        if k == n:
            return finish(LanczosStatus("completed"), v_hat, w_hat)

        beta_next = star_inner(w_hat, v_hat)
        breakdown = classify_breakdown(v_hat, w_hat, frobenius(v_basis[-1]),
                                       frobenius(w_basis[-1]), beta_next,
                                       eps_lucky, eps_serious)
        if breakdown is not None:
            return finish(replace(breakdown, k=k), v_hat, w_hat)

        betas.append(beta_next)
        v_basis.append(_apply_inverse_right(beta_next, v_hat))
        w_basis.append(w_hat)

    raise AssertionError("unreachable")


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
