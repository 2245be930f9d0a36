"""Error measures for the Lanczos bases, moments, and solution.

Five diagnostics quantify a run:

* ``err_o``   : biorthogonality, ``|W_n * V_n - I_*| / max(|V_n|, |W_n|)``
* ``err_V``   : V-side three-term recurrence residual (relative)
* ``err_W``   : W-side analogue; exactly zero, because with ``gamma = I``
  the W update is definitional
* ``err_M(k)``: matching-moment mismatch for k = 0 .. 2n-1
* ``err_sol`` : relative Euclidean error against a reference solution

Norms are the rooted Frobenius norm of :func:`toelanczos.tensor_core.frobenius`;
all measures are relative, so the rooting convention only rescales absolute
thresholds.

The recurrence residuals call the iteration's own update helpers
(``lanczos._v_update`` and ``lanczos._w_update``) per basis vector and
subtract the next vector, so the grouping is the iteration's by
construction.  It is algebraically identical to forming
``A*V_n - V_n*T_n - V~_n`` from materialized tensors and reproduces it to
roundoff, and it makes the W-side residual vanish exactly, which is the
pinned expected behavior.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .lanczos import LanczosResult, _v_update, _w_update
from .tensor_core import (
    ProfileTensor,
    Tensor4,
    frobenius,
    lift,
    lift_dual,
    star_inner,
    star_mul_tt,
    star_mul_tv,
    star_mul_vt,
)

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


def err_biorth(result: LanczosResult) -> float:
    """Relative deviation of ``W_n * V_n`` from the ``*`` identity.

    ``V_n`` stacks the right basis as the columns of an N x n tensor and
    ``W_n`` the dual basis as the rows of an n x N one.
    """
    vt = Tensor4(np.stack([hv.data for hv in result.v_basis], axis=1))
    wt = Tensor4(np.stack([hv.data for hv in result.w_basis], axis=0))
    dev = star_mul_tt(wt, vt).data
    for k in range(vt.n2):
        dev[k, k] -= np.eye(vt.m)
    return float(np.linalg.norm(dev.ravel()) / max(frobenius(vt), frobenius(wt)))


def _relative_residual(products: np.ndarray, residual: np.ndarray) -> float:
    """``|R| / max(|P|, |P - R|)`` for the stacked products ``P`` and residual rows ``R``."""
    res = float(np.linalg.norm(residual.ravel()))
    if res == 0.0:
        return 0.0
    return res / max(float(np.linalg.norm(products.ravel())),
                     float(np.linalg.norm((products - residual).ravel())))


def err_recurrences(result: LanczosResult, a: ProfileTensor) -> tuple[float, float]:
    """Relative residuals of the compact three-term recurrences (err_V, err_W).

    Row k recomputes ``A*V_k`` and ``W_k*A``, applies the iteration's own
    update (:func:`~toelanczos.lanczos._v_update`,
    :func:`~toelanczos.lanczos._w_update`) and subtracts the next vector,
    ``V_{k+1} x beta_{k+1}`` and ``W_{k+1}``, or the stored residual on the
    last row.  Denominators follow the displayed measures:
    ``max(|A*V_n|, |V_n*T_n + V~_n|)`` and the W analogue.

    The rows are formed on the run as it was computed, with ``A / scale``
    (:meth:`~toelanczos.lanczos.LanczosResult.run_operator`) and in its
    dtype, so the W row repeats the iteration's arithmetic exactly.  The
    ``i``-map scales each row by a unit factor, so the measures are those
    of the run on ``A``.
    """
    b = result.run_operator(a)
    tri = result.run_tri
    vb = [hv.data for hv in result.run_v_basis]
    wb = [hv.data for hv in result.run_w_basis]
    v_next = [np.matmul(v, beta) for v, beta in zip(vb[1:], tri.betas)] + [result.run_residual_v.data]
    w_next = wb[1:] + [result.run_residual_w.data]
    av, wa, v_num, w_num = [], [], [], []
    for k in range(tri.n):
        av.append(star_mul_tv(b, result.run_v_basis[k]).data)
        wa.append(star_mul_vt(result.run_w_basis[k], b).data)
        prev = () if k == 0 else (vb[k - 1],)
        v_num.append(_v_update(av[k], vb[k], tri.alphas[k], *prev) - v_next[k])
        prev = () if k == 0 else (tri.betas[k - 1], wb[k - 1])
        w_num.append(_w_update(wa[k], tri.alphas[k], wb[k], *prev) - w_next[k])
    # stacked as V_n (columns, axis 1) and W_n (rows, axis 0): the layout fixes
    # the summation order of the norms
    err_v = _relative_residual(np.stack(av, axis=1), np.stack(v_num, axis=1))
    err_w = _relative_residual(np.stack(wa, axis=0), np.stack(w_num, axis=0))
    return err_v, err_w


def moment_matrices(result: LanczosResult, a: ProfileTensor,
                    k_max: int | None = None) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Both sides of the matching moments for k = 0 .. k_max (default 2n-1).

    Returns the lists ``W_1^D * A^{k*} * V_1`` (the run's starting
    hypervectors, normalization included) and ``e_1^D * T_n^{k*} * e_1``
    (first Euclidean lifts of length n), each an m x m matrix per k.  The
    powers are never formed: each side keeps its Krylov vector and applies
    one product per k, ``A * cur`` on the left and the three-term
    :meth:`~toelanczos.lanczos.TriTensor.apply` on the right.
    """
    tri = result.tri
    n = tri.n
    if k_max is None:
        k_max = 2 * n - 1
    e1 = np.zeros(n)
    e1[0] = 1.0
    w_lift = result.w_basis[0]
    e1_d = lift_dual(e1, tri.m)
    cur = result.v_basis[0]
    cur_t = lift(e1, tri.m)
    lhs = [star_inner(w_lift, cur)]
    rhs = [star_inner(e1_d, cur_t)]
    for _ in range(k_max):
        cur = star_mul_tv(a, cur)
        cur_t = tri.apply(cur_t)
        lhs.append(star_inner(w_lift, cur))
        rhs.append(star_inner(e1_d, cur_t))
    return lhs, rhs


def err_moments(result: LanczosResult, a: ProfileTensor,
                k_max: int | None = None) -> np.ndarray:
    """Matching-moment mismatch ``err_M(k)`` for k = 0 .. k_max.

    ``err_M(k) = |L_k - R_k| / max(|L_k|, |R_k|)`` for the moment pair of
    :func:`moment_matrices`, whose starting hypervectors are the run's own.
    """
    out = []
    for lhs, rhs in zip(*moment_matrices(result, a, k_max)):
        den = max(np.linalg.norm(lhs.ravel()), np.linalg.norm(rhs.ravel()))
        num = np.linalg.norm((lhs - rhs).ravel())
        out.append(0.0 if den == 0 else float(num / den))
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

    An O(1/M) method shows a slope near -1.
    """
    pts = [(float(m), float(e)) for m, e in points]
    if len(pts) < 2:
        raise ValueError("need at least two (M, err) points")
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
