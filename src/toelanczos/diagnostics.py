"""Error measures for the Lanczos bases, moments, and solution.

Five diagnostics quantify a run:

* ``err_o``   : biorthogonality, ``|W_n * V_n - I_*| / max(|V_n|, |W_n|)``
* ``err_V``   : V-side three-term recurrence residual (relative)
* ``err_W``   : W-side analogue; exactly zero, because with ``gamma = I``
  the W update is definitional: ``W_{k+1}`` is the hatted ``W_hat``
* ``err_M(k)``: matching-moment mismatch for k = 0 .. 2n-1
* ``err_sol`` : relative Euclidean error against a reference solution

Norms are the rooted Frobenius norm of :func:`toelanczos.tensor_core.frobenius`;
all measures are relative, so the rooting convention only rescales absolute
thresholds.  A norm over a stacked tensor (``V_n``, ``W_n``, the residual
rows) is the root of the summed squared norms of its pieces, so no stack is
formed.

Every measure takes the :class:`~toelanczos.lanczos.LanczosResult` alone
and reads the run as it was computed: its ``operator`` ``A / scale`` and
its ``run_*`` fields, in the run's dtype, so a float64 run is measured in
float64.  :func:`err_recurrences` and :func:`err_biorth` read the
result's ``walk``: the bases and the rows' norms, which the loop recorded
as it ran (``tensor_lanczos(..., keep_walk=True)``), so the recurrence
rows are its own arithmetic and match ``A*V_n - V_n*T_n - V~_n`` of
materialized tensors to roundoff; a result without one raises
``ValueError``.  :func:`moment_matrices` reads the lifted probes as the
vectors ``w`` and ``e_1`` they lift, and keeps only the live blocks of
``T_n^{k*} e_1``; :func:`err_biorth` frees each entry after its norm.  For
``scale = i`` the ``i``-map multiplies each biorthogonality entry and each
recurrence row by a unit factor and moment ``k`` by ``i^k`` (see
:mod:`toelanczos.lanczos`), so the measures are those of the run on ``A``;
:func:`moment_matrices` applies the ``i^k`` to return the moments of ``A``.

A run can complete with finite coefficients and still overflow in its
diagnostics: moment ``k`` raises the operator to the ``k``-th power.  The
measures run without floating-point warnings and raise ``ValueError``, naming
the measure (and ``k`` for a moment), when a norm they divide is not finite.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .lanczos import LanczosResult, LanczosWalk, TriTensor, _times_i_power
from .tensor_core import frobenius, lift, star_inner, star_mul_tv
# unused here: the benchmark's tracer wraps them by name
from .tensor_core import star_mul_tt, star_mul_vt

__all__ = [
    "ErrorReport",
    "err_biorth",
    "err_recurrences",
    "err_moments",
    "moment_matrices",
    "err_solution",
    "convergence_slope",
    "report_to_json",
    "REPORT_CSV_COLUMNS",
    "report_csv_row",
]


@dataclass
class ErrorReport:
    """Collected diagnostics of one pipeline run."""

    err_o: float
    err_v: float
    err_w: float
    err_m: np.ndarray
    err_sol: float | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.err_m = np.asarray(self.err_m, dtype=float).ravel()


def _stacked_norm(pieces) -> float:
    """Frobenius norm of the pieces' stack: the root of their summed squared norms."""
    return math.hypot(*(frobenius(x) for x in pieces))


def _ratio(num: float, den: float, name: str) -> float:
    """The measure ``name`` as the ratio ``num / den`` of two norms, 0 for ``num = 0``.

    The norms of a run whose powers or products overflow come out infinite
    or NaN; the measure is then not defined, and a silent 0 or NaN in the
    report would hide that, so either raises ``ValueError`` naming it.
    """
    if not (math.isfinite(num) and math.isfinite(den)):
        raise ValueError(f"{name} is not finite: the products of the run overflow "
                         "(an entry of the operator is too large)")
    return 0.0 if num == 0.0 else num / den


def _walk(result: LanczosResult) -> LanczosWalk:
    """The walk the run recorded; a run that kept none raises ``ValueError``."""
    if result.walk is None:
        raise ValueError("the run kept no bases: run tensor_lanczos with keep_walk=True")
    return result.walk


def err_biorth(result: LanczosResult) -> float:
    """Relative deviation of ``W_n * V_n`` from the ``*`` identity.

    ``V_n`` stacks the right basis as the columns of an N x n tensor and
    ``W_n`` the dual basis as the rows of an n x N one, so entry (i, j) of
    ``W_n * V_n`` is ``W_i^D * V_j``: the n x n table of
    :func:`~toelanczos.tensor_core.star_inner` on the run's bases, with
    ``I`` subtracted on the diagonal, each freed after its norm.  The bases
    are the result's ``walk``.
    """
    walk = _walk(result)
    vb, wb = walk.v_basis, walk.w_basis
    eye = np.eye(vb[0].m)
    with np.errstate(over="ignore", invalid="ignore"):
        dev = (star_inner(w, v) - eye if i == j else star_inner(w, v)
               for i, w in enumerate(wb) for j, v in enumerate(vb))
        return _ratio(_stacked_norm(dev), max(_stacked_norm(vb), _stacked_norm(wb)), "err_o")


def _relative_residual(rows, name: str) -> float:
    """``|R| / max(|P|, |P - R|)`` from the rows' norms ``(|P_k|, |R_k|, |P_k - R_k|)``.

    ``P`` stacks the products and ``R`` the residual rows; ``name`` is the
    measure's, for the error on an overflow.
    """
    products, residual, rest = (math.hypot(*col) for col in zip(*rows))
    return _ratio(residual, max(products, rest), name)


def err_recurrences(result: LanczosResult) -> tuple[float, float]:
    """Relative residuals of the compact three-term recurrences (err_V, err_W).

    From the row norms of the result's ``walk``: row k is the iteration's
    own update of ``A*V_k`` (``W_k*A``) less the next vector, or less the
    stored residual on the last row, which is that update.  Denominators
    follow the displayed measures, ``max(|A*V_n|, |V_n*T_n + V~_n|)`` and
    the W analogue.  The next W vector is the update itself, so every W row
    is zero by definition and ``err_W`` is exactly 0.
    """
    walk = _walk(result)
    return _relative_residual(walk.v_rows, "err_V"), _relative_residual(walk.w_rows, "err_W")


def _tri_row(tri: TriTensor, x: list[np.ndarray], i: int) -> np.ndarray:
    """Row i of ``T_n * x`` on the live blocks ``x``: ``(beta_i x_{i-1} + alpha_i x_i) + x_{i+1}``.

    A block past ``x``'s end is zero and its term is left out; the others are
    summed in the ascending order of the dense block-tridiagonal product, so
    the row matches it bit for bit, up to the sign of an exact zero.
    """
    terms = [tri.betas[i - 1] @ x[i - 1]] if i else []
    terms += [tri.alphas[i] @ x[i]] if i < len(x) else []
    return sum(terms[1:] + x[i + 1:i + 2], terms[0])


def moment_matrices(result: LanczosResult,
                    k_max: int | None = None) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Both sides of the matching moments for k = 0 .. k_max (default 2n-1).

    Returns the lists ``W_1^D * A^{k*} * V_1`` (the lifts of the run's
    probes ``run_start = (v, w)``, normalization included) and
    ``e_1^D * T_n^{k*} * e_1`` (first Euclidean lifts of length n), each an
    m x m matrix per k.  The powers are never formed, and the lifts are read
    as the vectors they are.  The left side applies ``A *`` once per k to
    its Krylov vector ``cur`` and sums ``conj(w_i) cur[i]`` in ascending
    ``i``: the nonzero terms of the lifted inner product, in its order.  The
    right side is block 0 of ``T_n^{k*} * e_1``: from ``I``, step k forms
    with :func:`_tri_row` only its blocks ``i < min(k + 1, n, k_max - k + 1)``,
    as those past k are zero and those past ``k_max - k`` cannot reach block 0.

    Both sides iterate on the run, ``A / scale`` and its coefficients, in
    its dtype; for ``scale = i`` moment k of each side is mapped back by the
    exact factor ``i^k``.
    """
    lhs, rhs = [], []
    for left, right in _moment_pairs(result, k_max):
        lhs.append(left)
        rhs.append(right)
    return lhs, rhs


def _moment_pairs(result: LanczosResult, k_max: int | None):
    """Yield the pairs of :func:`moment_matrices` one k at a time, keeping none once yielded."""
    tri = result.run_tri
    if k_max is None:
        k_max = 2 * tri.n - 1
    v, w = result.run_start
    w_conj, cur = np.conj(w), lift(v, tri.m)
    blocks = [np.eye(tri.m, dtype=np.result_type(*tri.alphas, *tri.betas))]
    for k in range(k_max + 1):
        if k > 0:
            cur = star_mul_tv(result.operator, cur)
            blocks = [_tri_row(tri, blocks, i) for i in range(min(k + 1, tri.n, k_max - k + 1))]
        pair = (sum(c * s for c, s in zip(w_conj, cur.data)), blocks[0])
        if result.scale != 1:
            pair = tuple(_times_i_power(x, k) for x in pair)
        yield pair
        del pair  # the caller's reference is the last


def err_moments(result: LanczosResult, k_max: int | None = None) -> np.ndarray:
    """Matching-moment mismatch ``err_M(k)`` for k = 0 .. k_max.

    ``err_M(k) = |L_k - R_k| / max(|L_k|, |R_k|)`` for the moment pair of
    :func:`moment_matrices`, whose starting hypervectors are the run's own.
    The pairs are formed one at a time, and each is freed after its norms.
    """
    out = []
    with np.errstate(over="ignore", invalid="ignore"):
        for k, (lhs, rhs) in enumerate(_moment_pairs(result, k_max)):
            den = max(frobenius(lhs), frobenius(rhs))
            out.append(_ratio(frobenius(lhs - rhs), den, f"err_M(k={k})"))
            del lhs, rhs
    return np.array(out)


def err_solution(s_hat: np.ndarray, s_n: np.ndarray) -> float:
    """Relative Euclidean error ``|s_hat - s_n|_2 / |s_hat|_2``.

    Raises ``ValueError`` for an all-zero reference, where the relative
    error is undefined.
    """
    s_hat = np.asarray(s_hat, dtype=complex).ravel()
    s_n = np.asarray(s_n, dtype=complex).ravel()
    if s_hat.shape != s_n.shape:
        raise ValueError(f"length mismatch: {s_hat.size} vs {s_n.size}")
    den = np.linalg.norm(s_hat)
    if den == 0:
        raise ValueError("the reference solution is all zero; "
                         "its relative error is undefined")
    return float(np.linalg.norm(s_hat - s_n) / den)


def convergence_slope(points) -> float:
    """Least-squares slope of log(err) against log(M).

    An O(1/M) method shows a slope near -1.  Points at fewer than two
    distinct M values define no slope and raise ``ValueError``.
    """
    pts = [(float(m), float(e)) for m, e in points]
    if len({m for m, _ in pts}) < 2:
        raise ValueError("need (M, err) points at two or more distinct M values")
    x = np.log([p[0] for p in pts])
    y = np.log([p[1] for p in pts])
    slope, _ = np.polyfit(x, y, 1)
    return float(slope)


REPORT_CSV_COLUMNS = ["problem", "M", "n", "err_o", "err_v", "err_w",
                      "err_m_max", "err_sol", "status"]


def report_csv_row(report: ErrorReport) -> str:
    """One row of the frozen CSV schema (see REPORT_CSV_COLUMNS)."""
    meta = report.meta
    err_sol = "" if report.err_sol is None else repr(report.err_sol)
    fields = [
        str(meta.get("problem", "")),
        str(meta.get("M", "")),
        str(meta.get("n", "")),
        repr(report.err_o),
        repr(report.err_v),
        repr(report.err_w),
        repr(float(np.max(report.err_m))) if report.err_m.size else "",
        err_sol,
        str(meta.get("status", "completed")),
    ]
    return ",".join(fields)


def report_to_json(report: ErrorReport) -> str:
    """JSON text of a report; a NaN or infinite value raises ``ValueError``."""
    doc = {
        "err_o": report.err_o,
        "err_v": report.err_v,
        "err_w": report.err_w,
        "err_m": [float(x) for x in report.err_m],
        "err_sol": report.err_sol,
        "meta": {k: v for k, v in report.meta.items()},
    }
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
