"""Built-in test problems, symbolic entry functions, and reference solutions.

A :class:`Problem` describes ``A(t)`` symbolically: each matrix entry is a
sum of terms ``coeff * t**power * trig(omega * t)`` with trig one of
{1, cos, sin}, checked when the :class:`Term` is built.  That covers the
constant and polynomial/cosine test matrices as well as the
spin-simulation Hamiltonians, keeps sampling exact, and makes zero entries
structural.  :meth:`Problem.compile_matrix` is the one evaluator of the
terms: the discretization samples it and the RK45 reference integrates it.

References (the sampled true bilinear form ``w^H U(t) v``) come from an
adaptive Dormand-Prince integration with dense output, a numpy
transcription of scipy's RK45 in the private ``_rk45`` module, or from the
one closed form, which :func:`analytic_reference` reads from the terms
alone when every ``A(t)`` shares one unitary eigenbasis.
"""

from __future__ import annotations

import itertools
import json
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .discretize import Mesh

__all__ = [
    "Term",
    "Problem",
    "Reference",
    "builtin",
    "builtin_ids",
    "analytic_reference",
    "nmr_generate",
    "rk45_reference",
    "StiffnessError",
    "problem_to_json",
    "problem_from_json",
]

DEFAULT_NMR_SEED = 20230517

# evaluations of A(t) u one RK45 reference may spend; the builtins need at
# most 3,866 (see DECISIONS.md, "A bounded RK45 reference")
RK45_MAX_CALLS = 50_000

_TRIG_KINDS = ("none", "cos", "sin")


class StiffnessError(RuntimeError):
    """The RK45 integrator underflowed its step, ran out of calls or met a non-finite A(t) u."""


@dataclass(frozen=True)
class Term:
    """One summand ``coeff * t**power * trig(omega*t)`` of a matrix entry."""

    coeff: complex
    power: int = 0
    trig: str = "none"  # none | cos | sin
    omega: float = 0.0

    def __post_init__(self):
        if self.trig not in _TRIG_KINDS:
            raise ValueError(f"unknown trig kind {self.trig!r}")


@dataclass
class Problem:
    """Symbolic description of ``A(t)`` on ``[a, b]`` plus the probe vectors."""

    id: str
    n: int
    a: float
    b: float
    entries: dict[tuple[int, int], list[Term]]
    v: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be at least 1, got {self.n}")
        self.v = np.asarray(self.v, dtype=complex).ravel()
        self.w = np.asarray(self.w, dtype=complex).ravel()
        if self.v.size != self.n or self.w.size != self.n:
            raise ValueError("v and w must have length n")
        for (k, l) in self.entries:
            if not (0 <= k < self.n and 0 <= l < self.n):
                raise ValueError(f"entry index ({k}, {l}) out of bounds for n={self.n}")

    def compile_matrix(self) -> Callable[[float], np.ndarray]:
        """Return ``t -> A(t)``, the dense matrix at one time point.

        This is the one evaluator of the term language: the discretization
        samples it at the mesh points and the RK45 reference calls it as its
        right-hand side.  The terms are flattened once into arrays (flat
        entry index, coefficient, power id, (trig, omega) id).  A call then
        evaluates each distinct ``t**power`` and ``trig(omega*t)`` once,
        forms ``(coeff * t**power) * trig(omega*t)`` per term and adds each
        entry's terms in list order with ``np.bincount``, so the result
        equals the per-term sum bit for bit.  The callable reflects
        ``entries`` as they are now; compile again after changing them.
        """
        n = self.n
        flat, coeffs, power_ids, factor_ids = [], [], [], []
        powers: dict = {}
        factors: dict = {}
        for (k, l), terms in self.entries.items():
            for term in terms:
                key = ("none", 0.0) if term.trig == "none" else (term.trig, term.omega)
                flat.append(k * n + l)
                coeffs.append(term.coeff)
                power_ids.append(powers.setdefault(term.power, len(powers)))
                factor_ids.append(factors.setdefault(key, len(factors)))
        flat = np.array(flat, dtype=np.intp)
        coeffs = np.array(coeffs, dtype=complex)
        power_ids = np.array(power_ids, dtype=np.intp)
        factor_ids = np.array(factor_ids, dtype=np.intp)
        trig_fns = {"cos": np.cos, "sin": np.sin}

        def a_of_t(t: float) -> np.ndarray:
            t = np.asarray(float(t), dtype=float)
            p = np.array([t**q for q in powers], dtype=float)
            f = np.array([1.0 if kind == "none" else trig_fns[kind](omega * t)
                          for kind, omega in factors], dtype=float)
            val = coeffs * p[power_ids] * f[factor_ids]
            out = np.empty(n * n, dtype=complex)
            out.real = np.bincount(flat, weights=val.real, minlength=n * n)
            out.imag = np.bincount(flat, weights=val.imag, minlength=n * n)
            return out.reshape(n, n)

        return a_of_t


@dataclass
class Reference:
    """Sampled true solution ``s_hat`` on a mesh.

    ``resample``, where set, evaluates the same solution on another mesh
    without solving again (the RK45 reference's dense output); it returns
    exactly the values a new reference on that mesh would hold.
    """

    values: np.ndarray
    resample: Callable[[Mesh], np.ndarray] | None = field(default=None, repr=False,
                                                          compare=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex).ravel()


def _entries_from_matrix(mat) -> dict:
    return {(k, l): list(terms) for k, row in enumerate(mat)
            for l, terms in enumerate(row) if terms}


def _const3() -> Problem:
    c = lambda x: [Term(x)]
    mat = [
        [c(-1), c(1), c(1)],
        [c(1), [], c(1)],
        [c(1), c(1), c(-1)],
    ]
    e1 = np.array([1.0, 0.0, 0.0])
    return Problem("const3", 3, 0.0, 1.0, _entries_from_matrix(mat), e1, e1)


def _timedep5() -> Problem:
    K = Term  # brevity: K(c, p) is c * t**p, cos/sin spelled out
    cos = Term(1.0, 0, "cos", 1.0)
    mat = [
        [[cos], [], [K(1)], [K(2)], [K(1)]],
        [[], [cos, K(-1, 1)], [K(1), K(-3, 1)], [K(1, 1)], []],
        [[], [K(1, 1)], [K(2, 1), cos], [], []],
        [[], [K(1)], [K(2, 1), K(1)], [K(1, 1), cos], [K(1, 1)]],
        [[K(1, 1)], [K(-1, 1), K(-1)], [K(-6, 1), K(-1)], [K(1), K(-2, 1)], [cos, K(-2, 1)]],
    ]
    e1 = np.zeros(5)
    e1[0] = 1.0
    return Problem("timedep5", 5, 1e-4, 1.0, _entries_from_matrix(mat), e1, e1)


def _zero1() -> Problem:
    return Problem("zero1", 1, 0.0, 1.0, {}, np.array([1.0]), np.array([1.0]))


def _symmetric_sparse(rng, n, scale, complex_values=False):
    mat = np.zeros((n, n), dtype=complex if complex_values else float)
    for i in range(n):
        cols = rng.choice(n - 1, size=2, replace=False)  # two partners per row
        for c in cols:
            j = c if c < i else c + 1
            val = rng.uniform(-scale, scale)
            if complex_values:
                val = val + 1j * rng.uniform(-scale, scale)
            mat[i, j] = val
            mat[j, i] = np.conj(val) if complex_values else val
    return mat


# Frequency scales (Hz) per experiment kind.  The intervals differ by
# orders of magnitude, so the scales are chosen to put the integrated phase
# 2*pi*alpha*tau_exp at O(1): the stated iteration counts then reach the
# discretization-limited accuracy, the regime the experiments probe.
_NMR_SCALES = {1: (4e3, 2e3), 2: (2e4, 5e3), 3: (3e2, 1.5e2)}
_NMR_NU = 1e4  # spinning rate (Hz) of kinds 1-2


def _nmr_coefficients(kind: int, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw ``(alpha, B, C)``, the synthetic coefficients of one experiment kind.

    The true coefficient data of the cited spin systems is not public, so the
    generators keep the functional forms, the 2**4 = 16 state-space size, the
    coupling sparsity style, and the experiment intervals, with values from a
    seeded uniform draw.  Diagonal frequencies are alpha ~ U(-s, s) with the
    per-kind scale s from ``_NMR_SCALES``; modulation weights and couplings
    use the second per-kind scale.  Kind 1's ``B`` and ``C`` are diagonal
    (each level's two modulation weights); the couplings of kinds 2-3 get two
    symmetric partners per row.
    """
    if kind not in (1, 2, 3):
        raise ValueError(f"unknown experiment kind {kind}")
    rng = np.random.default_rng(seed + 1000 * kind)
    n = 16
    alpha_scale, coupling_scale = _NMR_SCALES[kind]
    alpha = rng.uniform(-alpha_scale, alpha_scale, size=n)
    if kind == 1:
        return (alpha, np.diag(rng.uniform(-coupling_scale, coupling_scale, size=n)),
                np.diag(rng.uniform(-coupling_scale, coupling_scale, size=n)))
    B = _symmetric_sparse(rng, n, coupling_scale)
    C = _symmetric_sparse(rng, n, coupling_scale, complex_values=(kind == 3))
    return alpha, B, C


_NMR_INTERVALS = {1: (0.0, 5e-5), 2: (0.0, 5e-6), 3: (0.0, 1e-3)}


def nmr_generate(kind: int, seed: int = DEFAULT_NMR_SEED) -> Problem:
    """Build the spin-simulation problem ``A(t) = -2*pi*i * H(t)`` for one kind.

    kinds 1-2: ``diag(alpha) + B cos(2 pi nu t) + C cos(4 pi nu t)``, with
    diagonal ``B`` and ``C`` for kind 1 and real symmetric sparse couplings
    for kind 2.
    kind 3: ``diag(alpha) + B (0.5 + cos 4t + sin 10t - 0.4 sin 16t)
    + C (sin 4t + cos 8t + 2 sin 12t)`` with real B and complex Hermitian C.

    The spinning rate ``nu`` is 1e4 Hz.  The probe vectors are the repeating
    (0, 1, 1) pattern for kinds 1-2 and all-ones for kind 3; the intervals
    are [0, 5e-5], [0, 5e-6], [0, 1e-3].  Identical seeds give bit-identical
    problems.  The terms are the whole problem: :func:`analytic_reference`
    reads kind 1's closed form from them, as from the problem's file.
    """
    alpha, B, C = _nmr_coefficients(kind, seed)
    s = -2j * np.pi  # A(t) = -i 2 pi H(t)
    w2 = 2 * np.pi * _NMR_NU

    def coupling(mat):
        return [(int(i), int(j), mat[i, j]) for i, j in zip(*np.nonzero(mat))]

    # (coupling, modulation) parts; a modulation lists (weight, trig, omega) summands
    if kind == 3:
        parts = [(coupling(B), [(0.5, "none", 0.0), (1.0, "cos", 4.0),
                                (1.0, "sin", 10.0), (-0.4, "sin", 16.0)]),
                 (coupling(C), [(1.0, "sin", 4.0), (1.0, "cos", 8.0), (2.0, "sin", 12.0)])]
    else:
        parts = [(coupling(B), [(1.0, "cos", w2)]), (coupling(C), [(1.0, "cos", 2 * w2)])]
    entries = {(k, k): [Term(s * alpha[k])] for k in range(16)}
    for pairs, modulation in parts:
        for i, j, x in pairs:
            entries.setdefault((i, j), []).extend(
                Term(weight * (s * x), 0, trig, omega) for weight, trig, omega in modulation)
    a, b = _NMR_INTERVALS[kind]
    vec = np.ones(16) if kind == 3 else np.tile([0.0, 1.0, 1.0], 6)[:16]
    return Problem(f"nmr{kind}", 16, a, b, entries, vec, vec)


_BUILTIN_FACTORIES = {
    "const3": _const3,
    "timedep5": _timedep5,
    "zero1": _zero1,
    "nmr1": lambda: nmr_generate(1),
    "nmr2": lambda: nmr_generate(2),
    "nmr3": lambda: nmr_generate(3),
}


def builtin_ids() -> list[str]:
    return sorted(_BUILTIN_FACTORIES)


def builtin(problem_id: str) -> Problem:
    """Return a built-in problem by id (const3, timedep5, zero1, nmr1/2/3).

    An unknown id raises ``ValueError`` naming the known ones.
    """
    if problem_id not in _BUILTIN_FACTORIES:
        raise ValueError(f"unknown builtin problem {problem_id!r}; "
                         f"known: {', '.join(builtin_ids())}")
    return _BUILTIN_FACTORIES[problem_id]()


def _factor_integral(power: int, trig: str, omega: float, a, tau: np.ndarray):
    """``int_a^tau t**power trig(omega t) dt`` in closed form, or ``None`` when it has none here."""
    q = power + 1
    if trig == "none" and q >= 1:
        return (tau**q - a**q) / q
    if q != 1 or omega == 0:
        return None
    if trig == "cos":
        return (np.sin(omega * tau) - np.sin(omega * a)) / omega
    return (np.cos(omega * a) - np.cos(omega * tau)) / omega


def analytic_reference(problem: Problem, mesh: Mesh) -> Reference:
    """Exact ``w^H U(t) v`` when every ``A(t)`` shares one unitary eigenbasis, read from the terms.

    The terms are grouped by time factor ``f_g(t) = t**power trig(omega t)``,
    so ``A(t) = sum_g f_g(t) C_g``.  Two contents give every ``A(t)`` the same
    unitary eigenbasis ``Q``: every ``C_g`` diagonal (``Q = I``), or one group
    whose ``C`` is exactly Hermitian or exactly skew-Hermitian (``Q`` from
    ``np.linalg.eigh``, of ``iC`` when ``C`` is skew).  Then ``A(t)`` commutes
    with itself, ``U(t) = exp(int_a^t A)`` (the first Magnus term is exact),
    and with ``C_g = Q diag(lambda_g) Q^H``, ``phase = sum_g lambda_g
    int_a^tau f_g`` and ``s = sum_k (w^H Q)_k exp(phase_k) (Q^H v)_k``.  A
    factor integrates in closed form when it is ``t^p`` with ``p >= 0`` or a
    ``cos`` or ``sin`` of power 0 with ``omega != 0``.  A term with any other
    factor, any other content (named by its first off-diagonal entry), or a
    closed form that is not finite (an overflowing ``exp``) raises
    ``ValueError``.  The ``id`` plays no part.
    """
    def refuse(why):
        return ValueError(f"no analytic reference for problem {problem.id!r}: {why}")

    n, tau = problem.n, mesh.tau
    mats, integrals = {}, {}  # per time factor (power, trig, omega): C_g, int_a^tau f_g
    with np.errstate(over="ignore", invalid="ignore"):  # overflows are caught as non-finite
        for (k, l), terms in problem.entries.items():
            for j, term in enumerate(terms):
                key = (term.power, term.trig, 0.0 if term.trig == "none" else term.omega)
                if key not in mats:
                    # numpy's power overflows to inf where a Python float's raises
                    integrals[key] = _factor_integral(*key, np.float64(problem.a), tau)
                    if integrals[key] is None:
                        raise refuse(f"term {j} of entry (k, l) = ({k + 1}, {l + 1}), {term}, "
                                     "has no closed-form integral")
                    mats[key] = np.zeros((n, n), dtype=complex)
                mats[key][k, l] += term.coeff
        cs = np.array(list(mats.values()), dtype=complex).reshape(-1, n, n)
        off = np.argwhere(cs.any(axis=0) & ~np.eye(n, dtype=bool))
        # C is Hermitian or skew-Hermitian when z C is Hermitian for z = 1 or z = i
        z = next((z for z in (1, 1j) if len(cs) == 1
                  and np.array_equal(z * cs[0], (z * cs[0]).conj().T)), None)
        if not off.size:
            lam, wq, vq = cs.diagonal(axis1=1, axis2=2), np.conj(problem.w), problem.v
        elif z is not None:
            mu, q = np.linalg.eigh(z * cs[0])
            lam, wq, vq = mu[None] / z, np.conj(problem.w) @ q, q.conj().T @ problem.v
        else:
            k, l = off[0]
            raise refuse(f"entry (k, l) = ({k + 1}, {l + 1}) is off the diagonal, and A(t) is "
                         "not one time factor times a Hermitian or skew-Hermitian matrix")
        phase = lam.T @ np.array(list(integrals.values())).reshape(-1, tau.size)
        vals = (wq[:, None] * np.exp(phase) * vq[:, None]).sum(axis=0)
    if not np.isfinite(vals).all():
        i = int(np.argmin(np.isfinite(vals)))
        raise refuse(f"the closed form is not finite at tau[{i}] = {float(tau[i])}")
    return Reference(vals)


def rk45_reference(problem: Problem, mesh: Mesh, rtol: float = 1e-10,
                   atol: float = 1e-12) -> Reference:
    """Adaptive Dormand-Prince reference: solve ``u' = A(t) u``, ``u(a) = v``.

    The integrator is the private ``_rk45`` module, a numpy transcription
    of scipy's RK45 with its dense output, equal to ``solve_ivp(method=
    "RK45", dense_output=True)`` bit for bit (the tests pin it against
    scipy), so the package needs no scipy.  The first call imports it, so
    ``import toelanczos`` does not compile it.  An ``rtol`` below
    ``100 eps`` is raised to it, with a ``UserWarning``, as scipy does.

    ``A(t)`` is compiled once per call (:meth:`Problem.compile_matrix`), so
    a right-hand-side evaluation costs a few array operations rather than a
    Python loop over the terms; the values equal those of the per-term sum.
    The dense output is evaluated at every mesh point (no nearest-sample
    matching), and ``s_hat_i = w^H u(tau_i)``; the returned reference's
    ``resample`` evaluates it on any other mesh of the interval.

    An integration that needs more than :data:`RK45_MAX_CALLS` evaluations
    of ``A(t) u``, as a stiff problem does, or whose step falls below ten
    float spacings of ``t``, raises :class:`StiffnessError`.  So does the
    first evaluation of ``A(t) u`` that holds an infinity or a NaN (a pole
    of a term, or an overflow), naming its ``t``; the integration runs under
    one ``np.errstate``, so it prints no warning.  The problem's interval
    must have ``a < b`` and its ``v`` must be finite.
    """
    from . import _rk45

    if not (0 < rtol < np.inf and 0 < atol < np.inf):
        raise ValueError(f"rtol and atol must be finite and positive, got {rtol}, {atol}")
    if rtol < _rk45.MIN_RTOL:
        warnings.warn(f"rtol = {rtol} is below 100 eps; integrating with rtol = "
                      f"{_rk45.MIN_RTOL}", stacklevel=2)
        rtol = _rk45.MIN_RTOL
    a, b = float(problem.a), float(problem.b)
    if not b > a:
        raise ValueError(f"degenerate interval [{a}, {b}]")
    y0 = problem.v.astype(complex)
    if not np.isfinite(y0).all():
        raise ValueError(f"v of problem {problem.id!r} is not finite")
    a_of_t = problem.compile_matrix()
    calls = itertools.count(1)

    def rhs(t, y):
        if next(calls) > RK45_MAX_CALLS:
            raise StiffnessError(f"integrator failed for {problem.id!r} near t = {t}: more "
                                 f"than {RK45_MAX_CALLS} evaluations of A(t) u")
        du = a_of_t(t) @ y
        # an inf or NaN entry makes |du . du| non-finite; finite entries can overflow it
        if not math.isfinite(abs(du.dot(du))) and not np.isfinite(du).all():
            raise StiffnessError(f"integrator failed for {problem.id!r} at t = {t}: "
                                 "A(t) u is not finite")
        return du

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ts, steps = _rk45.integrate(rhs, a, b, y0, rtol, atol)
    if ts[-1] < b:
        raise StiffnessError(f"integrator failed for {problem.id!r} near t = {ts[-1]}: "
                             "Required step size is less than spacing between numbers.")
    dense = _rk45.dense_output(ts, steps)

    def sample(at: Mesh) -> np.ndarray:
        return np.conj(problem.w) @ dense(at.tau)  # u is (n, M)

    return Reference(sample(mesh), sample)


def _complex_to_json(z: complex) -> dict:
    return {"re": float(np.real(z)), "im": float(np.imag(z))}


def problem_to_json(problem: Problem) -> str:
    """Serialize to the documented JSON schema (1-based entry indices)."""
    doc = {
        "id": problem.id,
        "n": problem.n,
        "interval": [problem.a, problem.b],
        "v": [_complex_to_json(z) for z in problem.v],
        "w": [_complex_to_json(z) for z in problem.w],
        "entries": [
            {
                "k": k + 1,
                "l": l + 1,
                "terms": [
                    {**_complex_to_json(term.coeff), "power": term.power,
                     "trig": term.trig, "omega": term.omega}
                    for term in terms
                ],
            }
            for (k, l), terms in sorted(problem.entries.items())
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)


_JSON_KINDS = {"object": dict, "list": list, "string": str, "number": (int, float),
               "integer": int}


def _typed(value, where: str, kind: str):
    """``value`` checked to be of JSON ``kind``, else ``ValueError`` naming ``where``.

    An integer accepts an integral float such as ``2.0``; a boolean is never
    a number, and a number must be finite: ``json`` reads the ``NaN`` and
    ``Infinity`` literals, and an integer literal can exceed the float range.
    """
    if kind == "integer" and isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, _JSON_KINDS[kind]):
        raise ValueError(f"problem file: {where} must be a JSON {kind}, got {value!r:.60}")
    if kind != "number":
        return value
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ValueError(f"problem file: {where} must be a finite number, got {value!r:.60}")
    return number


def _field(doc, key: str, kind: str, parent: str = "", default=None):
    """``doc[key]`` checked by :func:`_typed`; required unless a default is given.

    ``parent`` names ``doc`` in the document for the error messages.
    """
    where = f"{parent}.{key}" if parent else key
    if not isinstance(doc, dict):
        raise ValueError(f"problem file: {parent} must be a JSON object, got {doc!r:.60}")
    if key not in doc and default is None:
        raise ValueError(f"problem file: {where} is missing")
    return _typed(doc.get(key, default), where, kind)


def _complex_field(z, where: str) -> complex:
    return complex(_field(z, "re", "number", where), _field(z, "im", "number", where))


def problem_from_json(text: str) -> Problem:
    """Parse the JSON problem format (inverse of :func:`problem_to_json`).

    A malformed document raises ``ValueError`` naming the bad field: a
    missing field, or a value of the wrong JSON type, such as a string or
    list where a number belongs.  ``power`` must be an integer; an integral
    float such as ``2.0`` is read as ``2``, and ``1.7`` is rejected.  ``n``
    is read first, and the values it bounds are checked against it: the
    1-based ``k`` and ``l`` of each entry must lie in ``1..n``, and ``v``
    and ``w`` must hold ``n`` numbers.  ``trig`` must be one of none, cos
    and sin.  Two entries with the same ``(k, l)`` are rejected too, naming
    both.
    """
    doc = _typed(json.loads(text), "the document", "object")
    n = _field(doc, "n", "integer")
    if n < 1:
        raise ValueError(f"problem file: n must be at least 1, got {n}")
    entries, first = {}, {}  # first: (k, l) -> index of its entry
    for i, ent in enumerate(_field(doc, "entries", "list")):
        where = f"entries[{i}]"
        kl = tuple(_field(ent, key, "integer", where) for key in ("k", "l"))
        for key, index in zip(("k", "l"), kl):
            if not 1 <= index <= n:
                raise ValueError(f"problem file: {where}.{key} must be in 1..{n}, got {index}")
        if first.setdefault(kl, i) != i:
            raise ValueError(f"problem file: entries[{first[kl]}] and {where} both give "
                             f"entry (k, l) = {kl}")
        terms = []
        for j, t in enumerate(_field(ent, "terms", "list", where)):
            tw = f"{where}.terms[{j}]"
            trig = _field(t, "trig", "string", tw, "none")
            if trig not in _TRIG_KINDS:
                raise ValueError(f"problem file: {tw}.trig: unknown trig kind {trig!r:.60}, "
                                 f"expected one of {', '.join(_TRIG_KINDS)}")
            terms.append(Term(_complex_field(t, tw), _field(t, "power", "integer", tw, 0),
                              trig, _field(t, "omega", "number", tw, 0.0)))
        entries[(kl[0] - 1, kl[1] - 1)] = terms
    v, w = (np.array([_complex_field(z, f"{key}[{i}]")
                      for i, z in enumerate(_field(doc, key, "list"))]) for key in ("v", "w"))
    for key, vec in (("v", v), ("w", w)):
        if vec.size != n:
            raise ValueError(f"problem file: {key} must hold n = {n} numbers, got {vec.size}")
    interval = _field(doc, "interval", "list")
    if len(interval) != 2:
        raise ValueError(f"problem file: interval must hold two numbers, got {interval!r:.60}")
    a, b = (_typed(x, f"interval[{i}]", "number") for i, x in enumerate(interval))
    return Problem(_field(doc, "id", "string"), n, a, b, entries, v, w)
