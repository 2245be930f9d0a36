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

Every inversion is a row-pivoted LU solve; a condition estimate is recorded
per level and a :class:`ResolventSingularError` carries the depth at which an
unusable level appeared.

The solution approximation on a mesh with step ``h`` is

    s_n = normalization * (1/h) * (theta @ R_11) @ e_1 ,

whose first entry approximates ``w^H v`` to O(h).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import get_lapack_funcs, lu_factor, lu_solve

from .discretize import Mesh, theta_matrix
from .lanczos import TriTensor

__all__ = [
    "SolutionVec",
    "ResolventSingularError",
    "star_resolvent_11",
    "approx_solution",
    "solution_to_csv",
]


class ResolventSingularError(RuntimeError):
    """A continued-fraction level was singular or numerically unusable."""

    def __init__(self, depth: int, cond: float):
        self.depth = depth
        self.cond = cond
        super().__init__(
            f"resolvent level {depth} has condition estimate {cond:.3e}; "
            "refine the mesh (the inverses exist for small enough h)")


@dataclass
class SolutionVec:
    """Approximate bilinear form sampled on the mesh points."""

    mesh: Mesh
    values: np.ndarray
    n_used: int
    normalization: complex

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex).ravel()


def _cond_estimate_1norm(mat: np.ndarray, lu, piv) -> float:
    gecon = get_lapack_funcs("gecon", (mat,))
    anorm = np.linalg.norm(mat, 1)
    rcond, _ = gecon(lu, anorm, norm="1")
    return np.inf if rcond == 0 else 1.0 / float(rcond)


def star_resolvent_11(tri: TriTensor, cond_limit: float | None = None,
                      cond_log: list | None = None) -> np.ndarray:
    """(1, 1) block of the ``*``-resolvent of ``T_n`` via the continued fraction.

    Parameters
    ----------
    tri : TriTensor
        Complete coefficient set (callers holding a breakdown prefix may
        evaluate the shorter fraction it defines).
    cond_limit : float, optional
        Raise :class:`ResolventSingularError` when a level's 1-norm condition
        estimate exceeds this (default: 1/machine epsilon).
    cond_log : list, optional
        Appends one condition estimate per level, outermost last.
    """
    if cond_limit is None:
        cond_limit = 1.0 / np.finfo(float).eps
    m = tri.m
    eye = np.eye(m, dtype=complex)
    level = tri.n
    s = eye - tri.alphas[level - 1]
    while True:
        lu, piv = lu_factor(s)
        cond = _cond_estimate_1norm(s, lu, piv)
        if cond_log is not None:
            cond_log.append(cond)
        if not np.isfinite(cond) or cond > cond_limit:
            raise ResolventSingularError(level, cond)
        if level == 1:
            return lu_solve((lu, piv), eye)
        inner_beta = lu_solve((lu, piv), tri.betas[level - 2])
        level -= 1
        s = (eye - tri.alphas[level - 1]) - inner_beta


def approx_solution(tri: TriTensor, mesh: Mesh, normalization: complex = 1.0,
                    cond_limit: float | None = None) -> SolutionVec:
    """Assemble ``s_n`` from the resolvent block on the given mesh."""
    r11 = star_resolvent_11(tri, cond_limit=cond_limit)
    theta = theta_matrix(mesh)
    values = normalization * (theta @ r11[:, 0]) / mesh.h
    return SolutionVec(mesh, values, tri.n, complex(normalization))


def solution_to_csv(sol: SolutionVec) -> str:
    """CSV serialization with columns (tau, re_s, im_s)."""
    lines = ["tau,re_s,im_s"]
    for t, z in zip(sol.mesh.tau, sol.values):
        lines.append(f"{float(t)!r},{float(z.real)!r},{float(z.imag)!r}")
    return "\n".join(lines) + "\n"
