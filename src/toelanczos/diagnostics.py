"""Error measures for the Lanczos bases, moments, and solution.

Five diagnostics quantify a run:

* ``err_o``   : biorthogonality, ``|W_n * V_n - I_*| / max(|V_n|, |W_n|)``
* ``err_V``   : V-side three-term recurrence residual (relative)
* ``err_W``   : W-side analogue; exactly zero under the no-rescaling rule,
  because the W update is then definitional
* ``err_M(k)``: matching-moment mismatch for k = 0 .. 2n-1
* ``err_sol`` : relative Euclidean error against a reference solution

Norms are the rooted Frobenius norm of :func:`toelanczos.tensor_core.frobenius`;
all measures are relative, so the rooting convention only rescales absolute
thresholds.

The recurrence residuals are evaluated with the same operation grouping the
iteration itself uses (per basis vector, subtracting the recurrence terms in
iteration order).  That grouping is algebraically identical to forming
``A*V_n - V_n*T_n - V~_n`` from materialized tensors and reproduces it to
roundoff, but it makes the W-side residual vanish exactly when gamma = I,
which is the pinned expected behavior.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .lanczos import (
    LanczosResult,
    assemble_tridiag,
    v_basis_tensor,
    w_basis_tensor,
)
from .tensor_core import (
    ProfileTensor,
    frobenius,
    lift,
    lift_dual,
    star_identity,
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
    """Relative deviation of ``W_n * V_n`` from the ``*`` identity."""
    vt = v_basis_tensor(result)
    wt = w_basis_tensor(result)
    n = len(result.v_basis)
    prod = star_mul_tt(wt, vt)
    dev = prod.data - star_identity(n, result.tri.m).data
    return float(np.linalg.norm(dev.ravel()) / max(frobenius(vt), frobenius(wt)))


def err_recurrences(result: LanczosResult, a: ProfileTensor) -> tuple[float, float]:
    """Relative residuals of the compact three-term recurrences (err_V, err_W).

    Row k of the W residual is recomputed as
    ``((W_k * A - alpha_k x W_k) - beta_k x W_{k-1}) - gamma_{k+1} x W_{k+1}``
    (and the last row against the stored residual vector), matching the
    iteration's own arithmetic; the V side analogously with the beta-scaled
    next vector.  Denominators follow the displayed measures:
    ``max(|A*V_n|, |V_n*T_n + V~_n|)`` and the W analogue.
    """
    tri = result.tri
    n = tri.n
    m = tri.m
    vb = [hv.data for hv in result.v_basis]
    wb = [hv.data for hv in result.w_basis]

    av_rows = []
    v_num_rows = []
    for k in range(n):
        av = star_mul_tv(a, result.v_basis[k]).data
        av_rows.append(av)
        res = av - np.matmul(vb[k], tri.alphas[k])
        if k > 0:
            res = res - np.matmul(vb[k - 1], tri.gammas[k - 1])
        if k + 1 < n:
            res = res - np.matmul(vb[k + 1], tri.betas[k])
        else:
            res = res - result.residual_v.data
        v_num_rows.append(res)
    av_tensor = np.stack(av_rows, axis=1)
    v_num = np.stack(v_num_rows, axis=1)
    # V_n*T_n + V~_n = A*V_n - residual
    v_den = max(float(np.linalg.norm(av_tensor.ravel())),
                float(np.linalg.norm((av_tensor - v_num).ravel())))
    v_res = float(np.linalg.norm(v_num.ravel()))
    err_v = 0.0 if v_res == 0.0 else v_res / v_den

    wa_rows = []
    w_num_rows = []
    for k in range(n):
        wa = star_mul_vt(result.w_basis[k], a).data
        wa_rows.append(wa)
        res = wa - np.matmul(tri.alphas[k], wb[k])
        if k > 0:
            res = res - np.matmul(tri.betas[k - 1], wb[k - 1])
        if k + 1 < n:
            res = res - np.matmul(tri.gammas[k], wb[k + 1])
        else:
            res = res - result.residual_w.data
        w_num_rows.append(res)
    wa_tensor = np.stack(wa_rows, axis=0)
    w_num = np.stack(w_num_rows, axis=0)
    w_den = max(float(np.linalg.norm(wa_tensor.ravel())),
                float(np.linalg.norm((wa_tensor - w_num).ravel())))
    w_res = float(np.linalg.norm(w_num.ravel()))
    err_w = 0.0 if w_res == 0.0 else w_res / w_den
    return err_v, err_w


def moment_matrices(result: LanczosResult, a: ProfileTensor,
                    k_max: int | None = None) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Both sides of the matching moments for k = 0 .. k_max (default 2n-1).

    Returns the lists ``W_1^D * A^{k*} * V_1`` (the run's starting
    hypervectors, normalization included) and ``e_1^D * T_n^{k*} * e_1``
    (first Euclidean lifts of length n), each an m x m matrix per k.  The
    powers are never formed: each side keeps its Krylov vector and applies
    one tensor-hypervector product per k, so a run costs ``2 k_max`` such
    products in place of ``O(k_max^2)`` tensor-tensor products.
    """
    tri = result.tri
    n = tri.n
    if k_max is None:
        k_max = 2 * n - 1
    t4 = assemble_tridiag(tri)
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
        cur_t = star_mul_tv(t4, cur_t)
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
    doc = {
        "err_o": report.err_o,
        "err_v": report.err_v,
        "err_w": report.err_w,
        "err_m": [float(x) for x in report.err_m],
        "err_sol": report.err_sol,
        "meta": {k: v for k, v in report.meta.items()},
    }
    return json.dumps(doc, indent=2, sort_keys=True)
