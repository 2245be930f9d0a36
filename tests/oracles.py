"""Slow reference implementations the tests compare the package against."""

import numpy as np
from scipy.integrate import solve_ivp

from toelanczos import ShapeError, Tensor4, star_identity, star_mul_tt


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


def matrix_per_term(problem, t: float) -> np.ndarray:
    """Dense ``A(t)`` as a Python loop adding each term in list order."""
    out = np.zeros((problem.n, problem.n), dtype=complex)
    for (k, l), terms in problem.entries.items():
        for term in terms:
            out[k, l] += term(float(t))
    return out


def reference_per_term(problem, mesh, rtol: float = 1e-10, atol: float = 1e-12) -> np.ndarray:
    """``w^H u(tau_i)`` from the same Dormand-Prince call, driven by :func:`matrix_per_term`."""
    sol = solve_ivp(lambda t, y: matrix_per_term(problem, t) @ y,
                    (problem.a, problem.b), problem.v.astype(complex),
                    method="RK45", rtol=rtol, atol=atol, dense_output=True)
    return np.conj(problem.w) @ sol.sol(mesh.tau)
