"""Resolvent evaluation and the discrete solution vector.

The solution reads ``R_11 e_1``, the first column of the (1, 1) block of
the ``*``-resolvent ``(I_* - T_n)^{-*}``: the first block of ``x`` in
``(I - T_n) x = E_1 e_1``.  The Lanczos coefficients are lower triangular,
so mesh row ``j`` of each block ``x_k`` depends only on rows ``<= j``, and
one forward substitution over the mesh solves the system in ``O(n M^2)``
(Golub and Van Loan, *Matrix Computations*, 4th ed., section 4.5).  Row
``j`` is the n x n tridiagonal system ``D_j``: ``1 - alpha_k[j, j]`` on the
diagonal, ``-beta_k[j, j]`` below and ``-1`` above it, and the right-hand
side ``e_1 delta_{j0} + alpha_k[j, :j] . x_k[:j] + beta_k[j, :j] . x_{k-1}[:j]``.
It runs in the coefficients' dtype.  A coefficient with a nonzero strict
upper triangle, or a NaN or infinite ``beta``, raises ``ValueError``.  The
first mesh row whose ``D_j`` is singular or too ill-conditioned, or whose
``x`` is not finite, raises :class:`ResolventSingularError`.  The
condition number is ``kappa_1`` of ``D_j`` balanced, with
``sqrt|beta_k[j, j]|`` on both off-diagonals: a diagonal similarity, so
the test does not depend on how ``T_n`` splits ``beta`` between them.

The solution approximation on a mesh with step ``h`` is

    s_n = normalization * (1/h) * (h * tril(1) @ R_11) @ e_1 ,

a cumulative sum whose first entry approximates ``w^H v`` to O(h).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .discretize import Mesh
from .lanczos import TriTensor
from .tensor_core import ShapeError

__all__ = [
    "SolutionVec",
    "ResolventSingularError",
    "approx_solution",
    "solution_to_csv",
]


_COND_LIMIT = 1.0 / np.finfo(float).eps


class ResolventSingularError(RuntimeError):
    """A mesh row's ``D_j`` was singular or too ill-conditioned, or its ``x`` not finite.

    The message names the 1-based row and ``kappa_1(D_j)``, ``inf`` unless that
    is a finite value above ``1/eps``, and suggests no remedy: a pole of
    ``A(t)`` at ``t = a`` makes row 1 singular on every mesh.
    """

    def __init__(self, row: int, cond: float):
        self.row, self.cond = row, (cond if _COND_LIMIT < cond < np.inf else np.inf)
        super().__init__(f"resolvent mesh row {row} has kappa_1 = {self.cond:.3e}, above 1/eps "
                         f"= {_COND_LIMIT:.3e}: the solution cannot be evaluated at this M and n")


@dataclass
class SolutionVec:
    """Approximate bilinear form sampled on the mesh points."""

    mesh: Mesh
    values: np.ndarray
    n_used: int

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex).ravel()


def _inverses(d: np.ndarray) -> np.ndarray:
    """``D_j^{-1}`` for the stacked ``D_j``, NaN for a singular one (numpy raises
    for the whole stack, so it is halved until the singular ones are isolated)."""
    try:
        return np.linalg.inv(d)
    except np.linalg.LinAlgError:
        half = len(d) // 2
        return np.concatenate([_inverses(d[:half]), _inverses(d[half:])]) if half else d * np.nan


def _resolvent_column(tri: TriTensor) -> np.ndarray:
    """``R_11 e_1`` by forward substitution over the mesh rows."""
    alphas, betas, n, m = tri.alphas, tri.betas, tri.n, tri.m
    upper = np.tri(m, k=-1, dtype=bool).T  # the strict upper triangle, read in place
    if any(c.any(where=upper) for c in (*alphas, *betas)):
        raise ValueError("the resolvent needs lower-triangular alpha and beta coefficients")
    if not all(np.isfinite(c).all() for c in betas):
        raise ValueError("the resolvent's beta coefficients must not contain infs or NaNs")
    d = np.zeros((m, n, n), dtype=np.result_type(*alphas, *betas))  # D_j, one per mesh row
    balanced = np.zeros_like(d)
    for k in range(n):
        d[:, k, k] = balanced[:, k, k] = 1 - alphas[k].diagonal()
        if k:
            b = betas[k - 1].diagonal()
            r = np.sqrt(np.abs(b)) + (b == 0)
            d[:, k, k - 1], d[:, k - 1, k] = -b, -1
            balanced[:, k, k - 1], balanced[:, k - 1, k] = -b / r, -r
    x = np.zeros((n, m), dtype=d.dtype)
    with np.errstate(over="ignore", invalid="ignore"):  # overflows are caught as non-finite
        inv = _inverses(d)
        cond = np.linalg.cond(balanced, 1)  # inf for a singular D_j
        x[:, 0] = inv[0, :, 0]  # row 0 has no history: D_0 x[:, 0] = e_1
        for j in range(1, m):
            rhs = [alphas[k][j, :j].dot(x[k, :j]) for k in range(n)]
            for k in range(1, n):
                rhs[k] += betas[k - 1][j, :j].dot(x[k - 1, :j])
            x[:, j] = inv[j] @ rhs
        usable = (cond <= _COND_LIMIT) & np.isfinite(x).all(axis=0)
    if not usable.all():
        j = int(np.argmin(usable))
        raise ResolventSingularError(j + 1, float(cond[j]))
    return x[0]


def approx_solution(tri: TriTensor, mesh: Mesh, normalization: complex = 1.0) -> SolutionVec:
    """Assemble ``s_n`` from the resolvent's first column on the given mesh.

    The coefficients must be ``mesh.m x mesh.m``; any other size raises
    ``ShapeError``, naming both.
    """
    if tri.m != mesh.m:
        raise ShapeError(f"coefficients of size {tri.m} do not fit a mesh of {mesh.m} points")
    return SolutionVec(mesh, normalization * np.cumsum(_resolvent_column(tri)), tri.n)


def solution_to_csv(sol: SolutionVec) -> str:
    """CSV serialization with columns (tau, re_s, im_s)."""
    lines = ["tau,re_s,im_s"]
    for t, z in zip(sol.mesh.tau, sol.values):
        lines.append(f"{float(t)!r},{float(z.real)!r},{float(z.imag)!r}")
    return "\n".join(lines) + "\n"
