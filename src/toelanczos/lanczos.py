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
``beta`` matrices.

The operator is the discretized
:class:`~toelanczos.tensor_core.ProfileTensor`, whose slices are lower
triangular; lower-triangular matrices are closed under the sums, products
and inverses above, so every basis slice, ``alpha_k`` and ``beta_k`` has an
exactly zero strict upper triangle.  Each iteration inverts ``beta_{k+1}``
once, index-reversed to upper triangular so that the LU factorization never
pivots, takes the breakdown test's ``kappa_1`` from the inverse and applies
it to the stacked basis slices in one matrix product, on numpy's LAPACK,
the library under every product.  The package imports no scipy, whose wheel
bundles a second OpenBLAS with a thread pool that, alternating with
numpy's, contends for the same cores.

Arithmetic: the recurrence runs in float64 when the data allow it and in
complex128 otherwise, decided from the profiles and probes alone.  With real
probes, real profiles give a real run on ``A`` itself, and purely imaginary
ones, ``A = i B`` with ``B`` real (the NMR problems ``-2 pi i H(t)``), give
a real run on ``B``.  Induction on the recurrences shows that the run on
``A`` is the run on ``B`` mapped by

    alpha_k -> i alpha_k,   beta_k -> -beta_k,
    V_k -> i^-(k-1) V_k,    W_k -> i^(k-1) W_k,
    residual_v -> i^-(n-2) residual_v,   residual_w -> i^n residual_w.

Each factor is a power of ``i``, so the map is exact in floating point, and
``|i| = 1`` leaves every residual norm and ``kappa_1(beta)``, hence the
breakdown tests, as they are in the run on ``B``.  :class:`LanczosResult`
keeps the run on ``B``, operator included, and maps only its coefficients,
which the resolvent reads; the diagnostics measure the run itself.  Any
other data, complex probes or profiles with both parts nonzero, run in
complex128 on ``A``.

Breakdowns: a vanishing residual hypervector is a *lucky* breakdown (an
invariant subspace was found); a singular ``beta_{k+1}`` with nonvanishing
residuals is a *serious* one and stops the process.  Both are reported in the
result status together with the completed prefix, never raised.  A NaN or
infinite coefficient, from an overflow or from non-finite data, is neither:
it raises ``ValueError``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .tensor_core import (
    HyperVec,
    ProfileTensor,
    ShapeError,
    coef_times_vec,
    frobenius,
    lift,
    lift_dual,
    star_inner,
    star_mul_tv,
    star_mul_vt,
    vec_times_coef,
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


@dataclass(frozen=True)
class LanczosStatus:
    """Outcome of a run: 'completed', 'lucky_breakdown', or 'serious_breakdown'.

    ``k`` is the 1-based iteration at which a breakdown was detected, ``side``
    which residual vanished for a lucky one, ``cond`` the offending beta's
    ``kappa_1 = |beta|_1 |beta^{-1}|_1`` for a serious one (``inf`` if singular).
    """

    kind: str
    k: int | None = None
    side: str | None = None
    cond: float | None = None

    @property
    def completed(self) -> bool:
        return self.kind == "completed"


_I_POWERS = (1 + 0j, 1j, -1 + 0j, -1j)


def _times_i_power(x: np.ndarray, p: int) -> np.ndarray:
    """``i**p * x`` as complex128; exact, since ``i**p`` is 1, i, -1 or -i."""
    return _I_POWERS[p % 4] * x


class LanczosWalk(NamedTuple):
    """The bases ``V_1..V_n``, ``W_1^D..W_n^D`` and the V recurrence rows of a run.

    :func:`tensor_lanczos` records it as it iterates, when asked to.  Row k
    of ``v_rows`` is ``(|A*V_k|, |R_k|, |A*V_k - R_k|)``, where ``R_k`` is
    ``V_hat`` less ``V_{k+1} x beta_{k+1}``; on the last row the stored
    residual is ``V_hat`` itself, so that row's ``R_k`` is 0.  The W rows
    are not recorded: ``W_{k+1}`` is ``W_hat``, so each is 0 by
    construction.  That is all
    :func:`~toelanczos.diagnostics.err_recurrences` and
    :func:`~toelanczos.diagnostics.err_biorth` read.
    """

    v_basis: list[HyperVec]
    w_basis: list[HyperVec]
    v_rows: list[tuple[float, float, float]]


def _row_norms(product: HyperVec, residual: HyperVec) -> tuple[float, float, float]:
    """``(|P|, |R|, |P - R|)`` of a row, with ``P - R`` formed in ``R``'s buffer."""
    r = frobenius(residual)
    return frobenius(product), r, frobenius(np.subtract(product.data, residual.data,
                                                        out=residual.data))


@dataclass
class LanczosResult:
    """Coefficients, residuals and status of one Lanczos run on ``A``.

    ``operator`` is the operator the recurrence ran on, ``A / scale`` in the
    run's dtype; for a float64 run it is a view of ``A``'s profiles.  The
    ``run_*`` fields hold the recurrence as it ran on it: the coefficients
    ``run_tri``, the probes ``run_start = (v, w)`` it lifted to ``V_1`` and
    ``W_1^D`` (``v`` normalized, both in the run's dtype), and the
    residuals ``run_residual_v``, which is ``V_{n+1} x beta_{n+1}`` (the
    unnormalized V residual), and ``run_residual_w``, which is
    ``W_{n+1}^D``: the hatted vectors of the last completed iteration.
    ``walk`` holds the bases and V recurrence rows that the loop recorded, or
    ``None`` for a run that kept no basis.

    ``tri`` holds the coefficients of the run on ``A``: ``run_tri`` itself
    for ``scale = 1``, and for ``scale = i`` the module's ``i``-map applied
    once on first read; the bases are never copied into complex.

    ``normalization`` records the ``w^H v`` factor divided out of ``v`` on
    entry; downstream solution values must be rescaled by it.
    """

    run_tri: TriTensor
    run_start: tuple[np.ndarray, np.ndarray]
    run_residual_v: HyperVec
    run_residual_w: HyperVec
    status: LanczosStatus
    normalization: complex
    scale: complex
    operator: ProfileTensor
    walk: LanczosWalk | None = None

    @cached_property
    def tri(self) -> TriTensor:
        run = self.run_tri
        if self.scale == 1:
            return run
        return TriTensor(run.m, [_times_i_power(a, 1) for a in run.alphas],
                         [_times_i_power(b, 2) for b in run.betas])


def classify_breakdown(v_hat: HyperVec, w_hat: HyperVec, v_prev_norm: float,
                       w_prev_norm: float, cond: float, eps_lucky: float,
                       eps_serious: float) -> LanczosStatus | None:
    """Classify the state after forming a new residual pair and beta.

    Returns a ``lucky_breakdown`` status if a relative residual norm drops
    below ``eps_lucky`` (the V side is checked first, and ``side`` names the
    vanished one), else a ``serious_breakdown`` status if beta's ``cond``
    (``kappa_1`` from :func:`_inverse_lower`) exceeds ``eps_serious`` or is
    infinite, else ``None``.  The caller fills in the iteration ``k``.
    """
    if frobenius(v_hat) / v_prev_norm < eps_lucky:
        return LanczosStatus("lucky_breakdown", side="v")
    if frobenius(w_hat) / w_prev_norm < eps_lucky:
        return LanczosStatus("lucky_breakdown", side="w")
    if cond == np.inf or cond > eps_serious:
        return LanczosStatus("serious_breakdown", cond=cond)
    return None


def _require_finite(coefficient: np.ndarray, name: str, k: int) -> None:
    """Stop the iteration at a NaN or infinite coefficient, naming it and ``k``."""
    if not np.isfinite(coefficient).all():
        raise ValueError(f"Lanczos iteration k={k}: {name} contains infs or NaNs (an entry "
                         "of the operator or of the probe vectors is too large or not finite)")


def _inverse_lower(l: np.ndarray) -> tuple[np.ndarray | None, float]:
    """``(l^{-1}, kappa_1)`` for a lower-triangular ``l``, on numpy's LAPACK.

    Reversing the indices makes ``l`` upper triangular, and on an upper
    triangular matrix partial pivoting never swaps a row (every entry below
    the pivot is zero) and eliminates with exact zero multipliers, so the
    inverse keeps an exactly zero strict upper triangle once reversed back.
    ``kappa_1 = |l|_1 |l^{-1}|_1``.  A zero diagonal entry, the one way ``l``
    is singular, and a non-finite ``l``, inverse or ``kappa_1``, which LAPACK
    would carry through silently, give ``(None, inf)``.
    """
    if not (l.diagonal().all() and np.isfinite(l).all()):
        return None, np.inf
    x = np.linalg.inv(l[::-1, ::-1])[::-1, ::-1]
    with np.errstate(over="ignore"):  # a non-finite inverse gives a non-finite kappa_1
        cond = float(np.linalg.norm(l, 1) * np.linalg.norm(x, 1))
    return (x, cond) if np.isfinite(cond) else (None, np.inf)


def _scaled_operator(a: ProfileTensor, v: np.ndarray,
                     w: np.ndarray) -> tuple[ProfileTensor, complex]:
    """``(a / scale, scale)`` of the recurrence on ``a`` with the complex probes ``v, w``.

    Real probes with real or purely imaginary profiles run in float64, on a
    view of ``a``'s profiles, with scale 1 or i; anything else runs in
    complex128 with scale 1.
    """
    if not (v.imag.any() or w.imag.any()):
        if not a.data.imag.any():
            return ProfileTensor(a.data.real), 1
        if not a.data.real.any():
            return ProfileTensor(a.data.imag), 1j
    return ProfileTensor(a.data.astype(complex, copy=False)), 1


def tensor_lanczos(a: ProfileTensor, v: np.ndarray, w: np.ndarray, n: int,
                   eps_lucky: float = DEFAULT_EPS_LUCKY,
                   eps_serious: float = DEFAULT_EPS_SERIOUS,
                   keep_walk: bool = False) -> LanczosResult:
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
        Breakdown thresholds, see :func:`classify_breakdown`; NaN, which
        would switch a check off, raises ``ValueError``.
    keep_walk : bool
        Record the bases and the V recurrence rows as
        :attr:`LanczosResult.walk`, for the diagnostics that read them.

    The loop rotates five mesh-major buffers, so its memory does not grow
    with ``n``; the kernels allocate and free their own strip temporaries
    (module docstring of :mod:`~toelanczos.tensor_core`, "Workspace").  At
    iteration ``k`` it holds ``V_{k-1}``, ``V_k``, ``W_{k-1}`` and ``W_k``,
    and forms ``W_k*A`` in the spent ``V_hat_k``'s buffer, where the W
    update turns it into ``W_hat``, that is ``W_{k+1}``; ``W_{k-1}`` is
    then spent, and ``A*V_k``, which reads only ``V_k``, is formed in its
    buffer and becomes ``V_hat`` in place; ``V_{k-1}`` is then spent, and
    its buffer takes ``V_{k+1}``.  A run with ``keep_walk`` keeps its ``2n``
    bases instead of recycling them and forms each ``A*V_k`` in one buffer
    of its own, which its row's ``|A*V_k - R_k|`` reads; so it forms
    ``V_hat`` as ``A*V_k - V_k x alpha_k`` in the fresh buffer of ``V_k x
    alpha_k``, and that buffer, once spent, takes ``W_{k+1}*A`` as in a
    plain run.  A difference has the same bits in either buffer, so both
    runs compute the same coefficients.

    ``V_{k+1}`` is one matrix product of the stacked residual slices with
    the exact-zero inverse of the lower-triangular ``beta_{k+1}``; that needs
    the lower-triangular slices of a :class:`ProfileTensor`, so any other
    operator type raises ``TypeError``.  The products run without
    floating-point warnings, and the loop stops at the first ``alpha_k`` or
    ``beta_{k+1}`` that holds a NaN or an infinity (an overflowing operator,
    or a non-finite residual) with a ``ValueError`` that names ``k``; the
    check comes before the inverse, which would report it as singular.  The
    arithmetic (float64 on ``A`` or on ``-i A``, or complex128) follows from
    the data as the module docstring states; there is no option for it.
    """
    if not isinstance(a, ProfileTensor):
        raise TypeError(f"tensor_lanczos needs a ProfileTensor, got {type(a).__name__}")
    if a.n1 != a.n2:
        raise ShapeError("input tensor must have square outer modes")
    if n < 1:
        raise ValueError("need at least one iteration")
    if np.isnan(eps_lucky) or np.isnan(eps_serious):
        raise ValueError("breakdown thresholds must not be NaN")
    v = np.asarray(v, dtype=complex).ravel()
    w = np.asarray(w, dtype=complex).ravel()
    if v.size != a.n1 or w.size != a.n1:
        raise ShapeError("probe vectors must have length N")
    b, scale = _scaled_operator(a, v, w)
    if not np.iscomplexobj(b.data):
        v, w = v.real, w.real
    m = b.m
    wv = np.vdot(w, v)
    if wv == 0:
        raise ValueError("w^H v = 0: the probe vectors admit no biorthogonal start "
                         "(consider split_unit_vectors)")
    normalization = complex(wv)
    v = v / wv

    v_basis = [lift(v, m)]
    w_basis = [lift_dual(w, m)]
    alphas: list[np.ndarray] = []
    betas: list[np.ndarray] = []
    v_rows: list[tuple[float, float, float]] = []

    # W_k*A becomes W_{k+1}: a fresh buffer until a spent V_hat's can take it
    wa_buf = None
    # A*V_k: a fresh buffer until a spent W's can take it, one of its own when recording
    av_buf = np.empty(v_basis[0].mesh.shape, b.data.dtype) if keep_walk else None

    def finish(status, res_v, res_w, av):
        walk = None
        if keep_walk:  # the stored residual is V_hat itself: R_k is 0
            av_norm = frobenius(av)
            v_rows.append((av_norm, 0.0, av_norm))
            walk = LanczosWalk(v_basis, w_basis, v_rows)
        return LanczosResult(TriTensor(m, alphas, betas), (v, w), res_v, res_w, status,
                             normalization, scale, b, walk)

    # an overflow shows in the next coefficient, which is checked before use
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, n + 1):
            v_k, w_k = v_basis[-1], w_basis[-1]
            w_hat = star_mul_vt(w_k, b, out=wa_buf)
            alpha = star_inner(w_hat, v_k)
            _require_finite(alpha, f"alpha_{k}", k)
            alphas.append(alpha)
            # W_hat = (W_k*A - alpha_k x W_k) - beta_k x W_{k-1}, in W_k*A's buffer
            coef_times_vec(alpha, w_k, subtract_from=w_hat.mesh)
            if k > 1:
                coef_times_vec(betas[-1], w_basis[-2], subtract_from=w_hat.mesh)
                if not keep_walk:  # W_{k-1} is spent: its buffer takes A*V_k
                    av_buf = w_basis.pop(0).mesh
            av = star_mul_tv(b, v_k, out=av_buf)
            # V_hat = (A*V_k - V_k x alpha_k) - V_{k-1}, in A*V_k's buffer
            if keep_walk:  # its row reads A*V_k: V_hat takes the product's fresh buffer
                v_hat = vec_times_coef(v_k, alpha)
                np.subtract(av.mesh, v_hat.mesh, out=v_hat.mesh)
            else:
                v_hat = vec_times_coef(v_k, alpha, subtract_from=av.mesh)
            if k > 1:
                np.subtract(v_hat.mesh, v_basis[-2].mesh, out=v_hat.mesh)

            if k == n:
                return finish(LanczosStatus("completed"), v_hat, w_hat, av)

            beta_next = star_inner(w_hat, v_hat)
            _require_finite(beta_next, f"beta_{k + 1}", k)
            inverse, cond = _inverse_lower(beta_next)
            breakdown = classify_breakdown(v_hat, w_hat, frobenius(v_k), frobenius(w_k), cond,
                                           eps_lucky, eps_serious)
            if breakdown is not None:
                return finish(replace(breakdown, k=k), v_hat, w_hat, av)

            betas.append(beta_next)
            # V_{k-1} is spent: its buffer takes V_{k+1}
            v_out = None if keep_walk or k == 1 else v_basis.pop(0).mesh
            v_basis.append(vec_times_coef(v_hat, inverse, out=v_out))
            del inverse  # held into the next iteration it adds to the peak; see the decisions ledger
            w_basis.append(w_hat)
            if keep_walk:  # R_k = V_hat - V_{k+1} x beta_{k+1}, formed in V_hat's buffer
                v_rows.append(_row_norms(av, vec_times_coef(
                    v_basis[-1], beta_next, subtract_from=v_hat.mesh)))
            wa_buf = v_hat.mesh  # V_hat is spent: its buffer takes W_{k+1}*A

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
