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
Each level ``s`` is inverted by the helper that inverts ``beta`` in the
iteration, which keeps exact zeros above the diagonal only for a triangular
matrix, so other coefficients are rejected.  It returns the inverse ``x``
and ``kappa_1 = |s|_1 |x|_1``, as it does for the breakdown test; ``x``
gives the next level's Schur term ``x @ beta``, the outermost is ``R_11``.
The levels are formed and inverted in the coefficients' dtype, float64 for a
real Lanczos run.  A :class:`ResolventSingularError` carries the depth of an
unusable level: one whose ``kappa_1`` is infinite or exceeds ``1/eps``.

The solution approximation on a mesh with step ``h`` is

    s_n = normalization * (1/h) * (h * tril(1) @ R_11) @ e_1 ,

a cumulative sum whose first entry approximates ``w^H v`` to O(h).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .discretize import Mesh
from .lanczos import TriTensor, _inverse_lower

__all__ = [
    "SolutionVec",
    "ResolventSingularError",
    "star_resolvent_11",
    "approx_solution",
    "solution_to_csv",
]


_COND_LIMIT = 1.0 / np.finfo(float).eps


class ResolventSingularError(RuntimeError):
    """A continued-fraction level was singular or numerically unusable.

    The message gives the level and its ``kappa_1`` and suggests no remedy:
    a pole of ``A(t)`` at ``t = a`` makes level 1 singular on every mesh,
    and a run past its usable ``n`` needs fewer iterations, not a finer mesh.
    """

    def __init__(self, depth: int, cond: float):
        self.depth = depth
        self.cond = cond
        super().__init__(
            f"resolvent level {depth} has kappa_1 = {cond:.3e}, above 1/eps = "
            f"{_COND_LIMIT:.3e}: the continued fraction cannot be evaluated at this M and n")


@dataclass
class SolutionVec:
    """Approximate bilinear form sampled on the mesh points."""

    mesh: Mesh
    values: np.ndarray
    n_used: int

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex).ravel()


def star_resolvent_11(tri: TriTensor, cond_log: list | None = None) -> np.ndarray:
    """(1, 1) block of the ``*``-resolvent of ``T_n`` via the continued fraction.

    Parameters
    ----------
    tri : TriTensor
        Complete coefficient set (callers holding a breakdown prefix may
        evaluate the shorter fraction it defines).  A non-lower-triangular
        alpha or beta, or a NaN or infinite beta, raises ``ValueError``.
    cond_log : list, optional
        Appends each level's exact 1-norm condition number, outermost last.

    Raises :class:`ResolventSingularError` when a level's condition number is
    above ``1/eps`` or infinite (see :func:`~toelanczos.lanczos._inverse_lower`).
    """
    if any(np.triu(c, 1).any() for c in (*tri.alphas, *tri.betas)):
        raise ValueError("the resolvent needs lower-triangular alpha and beta coefficients")
    if not all(np.isfinite(c).all() for c in tri.betas):
        raise ValueError("the resolvent's beta coefficients must not contain infs or NaNs")
    eye = np.eye(tri.m, dtype=np.result_type(*tri.alphas, *tri.betas))
    s = eye - tri.alphas[-1]
    for level in range(tri.n, 0, -1):
        x, cond = _inverse_lower(s)
        if cond_log is not None:
            cond_log.append(cond)
        if cond > _COND_LIMIT:
            raise ResolventSingularError(level, cond)
        if level > 1:
            with np.errstate(over="ignore"):  # an overflow makes the next level singular
                s = (eye - tri.alphas[level - 2]) - x @ tri.betas[level - 2]
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
