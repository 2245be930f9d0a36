"""Equispaced mesh and rectangle-rule discretization.

A matrix-valued function ``A(t)`` on ``[a, b]`` becomes a 4-mode operator
whose (k, l) slice is the lower-triangular matrix ``nu`` with

    nu[i, j] = A_kl(tau_i) * h   for i >= j,   0 above the diagonal,

on the mesh ``tau_i = a + i*h`` with ``h = (b - a) / M`` (i = 1..M, so the
last point is ``b`` and the first is ``a + h``).  This right-endpoint cell
convention is the one that reproduces the reference error tables; the
solution at ``t = a`` is the known initial value and is not a mesh point.
Each slice is thus ``diag(h * A_kl(tau)) @ tril(1)``, a sampled diagonal
times the discrete Heaviside matrix, and the operator is stored as those
``(N, N, M)`` profiles (:class:`~toelanczos.tensor_core.ProfileTensor`).
The samples come from the problem's compiled ``A(t)``
(:meth:`~toelanczos.problems.Problem.compile_matrix`), the same evaluator
the RK45 reference integrates, so the term language has one implementation.
The profiles keep the samples' dtype, complex128; whether the Lanczos
iteration can run in float64 on them (real, or purely imaginary, profiles)
is decided there, from the profiles themselves.  The operator carries no
per-slice flags: which profiles are zero is derived from the samples.  The
Heaviside matrix itself is never formed: applied to a vector,
``h * tril(1)`` is ``h`` times a cumulative sum.

The scheme is the rectangle quadrature rule, accurate to O(h) = O(1/M).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor_core import ProfileTensor

__all__ = ["Mesh", "build_mesh", "discretize_problem", "DiscretizationError"]


class DiscretizationError(ValueError):
    """An entry function produced a non-finite sample."""


@dataclass(frozen=True)
class Mesh:
    """Equispaced mesh of M right-endpoint cell points on [a, b]."""

    a: float
    b: float
    m: int
    h: float
    tau: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "tau", np.asarray(self.tau, dtype=float))


def build_mesh(a: float, b: float, m: int) -> Mesh:
    """Build the mesh ``tau_i = a + i*h``, ``h = (b - a)/m``, i = 1..m.

    Raises on a degenerate interval or fewer than two points.
    """
    if not b > a:
        raise ValueError(f"degenerate interval [{a}, {b}]")
    if m < 2:
        raise ValueError(f"mesh needs at least 2 points, got {m}")
    index = np.arange(1, m + 1)  # refuses an m too large for an array, before h overflows
    h = (b - a) / m
    tau = a + h * index
    return Mesh(a=float(a), b=float(b), m=int(m), h=float(h), tau=tau)


def discretize_problem(problem, mesh: Mesh) -> ProfileTensor:
    """Sample a Problem's ``A(t)`` into the profile-form operator.

    Profile (k, l) is ``h * A_kl(tau_i)`` (entry i takes the sample at
    tau_i), with ``A(tau_i)`` from the problem's compiled evaluator
    (:meth:`~toelanczos.problems.Problem.compile_matrix`); entries with no
    terms sample to exact zeros.  A non-finite profile value, from a
    non-finite sample or one that overflows when scaled by ``h``, raises
    :class:`DiscretizationError` naming the first such entry (in row-major
    order) and its ``tau``, with no numpy warning: the sampling runs under
    one ``np.errstate``.
    """
    a_of_t = problem.compile_matrix()
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        profiles = np.stack([a_of_t(t) for t in mesh.tau], axis=-1) * mesh.h
    bad = np.argwhere(~np.isfinite(profiles))
    if bad.size:
        k, l, i = bad[0]
        raise DiscretizationError(
            f"entry ({k}, {l}) of problem {problem.id!r}, scaled by h = {mesh.h}, is not "
            f"finite at tau[{i}] = {mesh.tau[i]}"
        )
    return ProfileTensor(profiles)
