"""The Dormand-Prince 5(4) integrator with dense output, in numpy.

A transcription of scipy 1.17.1's ``solve_ivp(method="RK45",
dense_output=True)``, operation for operation on arrays of the same layout,
so every value is scipy's bit for bit; the tests pin it against scipy
itself, which the package does not import.  :func:`problems.rk45_reference
<toelanczos.problems.rk45_reference>` imports this module on its first call,
so ``import toelanczos`` does not compile it.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

# The Dormand-Prince 5(4) pair: nodes, stage weights, fifth-order weights,
# error weights (fifth less fourth order, the last on the FSAL stage) and the
# quartic dense output of Shampine's c_6, each built as scipy 1.17.1's RK45
# builds it (Dormand and Prince 1980; Hairer, Norsett and Wanner, Solving
# ODEs I, II.4-II.6).
C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656]])
B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40])
P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608, -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933, 87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304, -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408, 701980252875/199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423]])
SAFETY, MIN_FACTOR, MAX_FACTOR = 0.9, 0.2, 10  # step-size control
ERROR_EXPONENT = -1 / 5  # the error estimate is of order 4
MIN_RTOL = 100 * np.finfo(float).eps  # scipy raises a smaller rtol to this


def _rms(x: np.ndarray):
    return np.linalg.norm(x) / x.size ** 0.5


def integrate(fun, t0: float, t1: float, y0: np.ndarray, rtol, atol):
    """Integrate ``y' = fun(t, y)``, ``y(t0) = y0``, from ``t0`` to ``t1 > t0``.

    scipy's arithmetic: the initial step of ``select_initial_step``, the
    stage sums of ``rk_step``, the RMS error norm against ``atol + rtol
    max(|y|, |y_new|)`` with the safety factor 0.9 and step changes clipped
    to [0.2, 10] (at most 1 right after a rejection), and the floor of ten
    float spacings of ``t``.  ``rtol`` must be at least :data:`MIN_RTOL`.
    Returns the accepted times ``ts`` (``t0`` first) and, per step, its
    start value and dense-output coefficients ``K^T P``.  A step that falls
    below the floor ends the integration there, with ``ts[-1] < t1``.
    """
    ts, steps = [t0], []
    t, y, f = t0, y0, fun(t0, y0)
    scale = atol + np.abs(y) * rtol
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t1 - t0)
    d2 = _rms((fun(t + h0, y + h0 * f) - f) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    h_abs = min(100 * h0, h1, t1 - t0)
    k = np.empty((7, y.size), dtype=y.dtype)  # the stages, in rows
    while t < t1:
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        h_abs, rejected = max(h_abs, min_step), False
        while True:
            if h_abs < min_step:
                return ts, steps
            t_new = min(t + h_abs, t1)
            h = t_new - t
            h_abs = np.abs(h)
            k[0] = f
            for s in range(1, 6):
                k[s] = fun(t + C[s] * h, y + np.dot(k[:s].T, A[s, :s]) * h)
            y_new = y + h * np.dot(k[:-1].T, B)
            k[-1] = f_new = fun(t + h, y_new)
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error_norm = _rms(np.dot(k.T, E) * h / scale)
            if error_norm < 1:
                factor = (MAX_FACTOR if error_norm == 0 else
                          min(MAX_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT))
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
            rejected = True
        steps.append((y, k.T.dot(P)))
        t, y, f = t_new, y_new, f_new
        ts.append(t)
    return ts, steps


def dense_output(ts: list, steps: list) -> Callable[[np.ndarray], np.ndarray]:
    """``tau -> y(tau)``, shape ``(n, tau.size)``, from :func:`integrate`'s steps.

    scipy's ``OdeSolution``: each point takes the first step whose closed
    interval holds it (a step's end takes that step, not the next), points
    outside ``[t0, t1]`` extrapolate the first or last step, and a step's
    points are evaluated together, as ``y_old + h Q (x, x^2, x^3, x^4)`` with
    ``x = (tau - t_old) / h``.
    """
    ts = np.array(ts)

    def sol(tau: np.ndarray) -> np.ndarray:
        order = np.argsort(tau)
        reverse = np.empty_like(order)
        reverse[order] = np.arange(order.size)
        tau = tau[order]
        segments = np.clip(np.searchsorted(ts, tau, side="left") - 1, 0, len(steps) - 1)
        starts = np.flatnonzero(np.diff(segments)) + 1
        ys = []
        for segment, part in zip(segments[np.r_[0, starts]], np.split(tau, starts)):
            (y_old, q), t_old = steps[segment], ts[segment]
            h = ts[segment + 1] - t_old
            y = h * np.dot(q, np.cumprod(np.tile((part - t_old) / h, (q.shape[1], 1)), axis=0))
            y += y_old[:, None]
            ys.append(y)
        return np.hstack(ys)[:, reverse]

    return sol
