"""Resolvent evaluation and the discrete solution vector.

The (1, 1) block of the ``*``-resolvent ``(I_* - T_n)^{-*}`` of the
tridiagonal coefficient tensor is a continued fraction in the m x m
coefficient matrices:

    R_11 = (a~_1 - (a~_2 - ( ... a~_n^{-1} ... ) b_3)^{-1} b_2)^{-1}

with ``a~_i = I - alpha_i``, evaluated innermost-outward.  The superdiagonal
slices of ``T_n`` are ``I``, so each level subtracts the inner inverse times
the beta factor on its right; this Schur complement recursion follows the
block placement of the tridiagonal tensor.  The tests check it against a
truncated series evaluation of the resolvent.

The Lanczos coefficients are lower triangular, hence so is every level.
Reversing the indices makes a level upper triangular, and each is solved by
the back substitution on numpy's LAPACK that applies ``beta^{-1}`` in the
iteration.  That solve is exact back substitution only on a triangular
matrix, so other coefficients are rejected.  The levels are formed and
solved in the coefficients' dtype, float64 for a real Lanczos run.  Each
level's solve also returns its inverse, so its exact 1-norm condition number
``|s|_1 |s^{-1}|_1`` is recorded, and a :class:`ResolventSingularError`
carries the depth of an unusable level: one whose condition number is
infinite or exceeds ``1/eps``.

The solution approximation on a mesh with step ``h`` is

    s_n = normalization * (1/h) * (h * tril(1) @ R_11) @ e_1 ,

a cumulative sum whose first entry approximates ``w^H v`` to O(h).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .discretize import Mesh
from .lanczos import TriTensor, _solve_upper

__all__ = [
    "SolutionVec",
    "ResolventSingularError",
    "star_resolvent_11",
    "approx_solution",
    "solution_to_csv",
]


_COND_LIMIT = 1.0 / np.finfo(float).eps


class ResolventSingularError(RuntimeError):
    """A continued-fraction level was singular or numerically unusable."""

    def __init__(self, depth: int, cond: float):
        self.depth = depth
        self.cond = cond
        super().__init__(
            f"resolvent level {depth} has condition number {cond:.3e}; "
            "refine the mesh (the inverses exist for small enough h)")


@dataclass
class SolutionVec:
    """Approximate bilinear form sampled on the mesh points."""

    mesh: Mesh
    values: np.ndarray
    n_used: int

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex).ravel()


def _solve_lower(s: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``s^{-1} b`` for a lower-triangular ``s``, as ``(J s J)(J X) = J b``.

    ``J`` reverses the indices, which makes ``J s J`` upper triangular.
    """
    return _solve_upper(s[::-1, ::-1], b[::-1])[::-1]


def star_resolvent_11(tri: TriTensor, cond_log: list | None = None) -> np.ndarray:
    """(1, 1) block of the ``*``-resolvent of ``T_n`` via the continued fraction.

    Parameters
    ----------
    tri : TriTensor
        Complete coefficient set (callers holding a breakdown prefix may
        evaluate the shorter fraction it defines).  A non-lower-triangular
        alpha or beta raises ``ValueError``.
    cond_log : list, optional
        Appends each level's exact 1-norm condition number, outermost last.

    Raises :class:`ResolventSingularError` when a level's condition number is
    above ``1/eps`` or infinite: a zero diagonal entry, a non-finite level or inverse.
    """
    if any(np.triu(c, 1).any() for c in (*tri.alphas, *tri.betas)):
        raise ValueError("the resolvent needs lower-triangular alpha and beta coefficients")
    eye = np.eye(tri.m, dtype=np.result_type(*tri.alphas, *tri.betas))
    s = eye - tri.alphas[-1]
    for level in range(tri.n, 0, -1):
        # [s^{-1} beta, s^{-1}] in one solve; beta first keeps its values those
        # of a solve on beta alone, bit for bit
        rhs = eye if level == 1 else np.hstack([tri.betas[level - 2], eye])
        x = _solve_lower(s, rhs) if s.diagonal().all() and np.isfinite(s).all() else None
        with np.errstate(over="ignore"):
            cond = np.inf if x is None else np.linalg.norm(s, 1) * np.linalg.norm(x[:, -tri.m:], 1)
        if cond_log is not None:
            cond_log.append(cond)
        if not np.isfinite(cond) or cond > _COND_LIMIT:
            raise ResolventSingularError(level, cond)
        if level > 1:
            s = (eye - tri.alphas[level - 2]) - x[:, :tri.m]
    return x


def approx_solution(tri: TriTensor, mesh: Mesh, normalization: complex = 1.0) -> SolutionVec:
    """Assemble ``s_n`` from the resolvent block on the given mesh."""
    r11 = star_resolvent_11(tri)
    return SolutionVec(mesh, normalization * np.cumsum(r11[:, 0]), tri.n)


def solution_to_csv(sol: SolutionVec) -> str:
    """CSV serialization with columns (tau, re_s, im_s)."""
    lines = ["tau,re_s,im_s"]
    for t, z in zip(sol.mesh.tau, sol.values):
        lines.append(f"{float(t)!r},{float(z.real)!r},{float(z.imag)!r}")
    return "\n".join(lines) + "\n"
