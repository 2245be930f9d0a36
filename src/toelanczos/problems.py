"""Built-in test problems, symbolic entry functions, and reference solutions.

A :class:`Problem` describes ``A(t)`` symbolically: each matrix entry is a
sum of terms ``coeff * t**power * trig(omega * t)`` with trig one of
{1, cos, sin}, checked when the :class:`Term` is built.  That covers the
constant and polynomial/cosine test matrices as well as the
spin-simulation Hamiltonians, keeps sampling exact, and makes zero entries
structural.  :meth:`Problem.compile_matrix` is the one evaluator of the
terms: the discretization samples it and the RK45 reference integrates it.

References (the sampled true bilinear form ``w^H U(t) v``) come either from
closed forms, which :func:`analytic_reference` chooses by the problem's
content, or from an adaptive Dormand-Prince integration with dense output.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.integrate import solve_ivp

from .discretize import Mesh

__all__ = [
    "Term",
    "Problem",
    "Reference",
    "NmrCoefficients",
    "builtin",
    "builtin_ids",
    "analytic_const3",
    "analytic_nmr1",
    "analytic_reference",
    "nmr_coefficients",
    "nmr_generate",
    "rk45_reference",
    "StiffnessError",
    "problem_to_json",
    "problem_from_json",
]

DEFAULT_NMR_SEED = 20230517


class StiffnessError(RuntimeError):
    """The adaptive integrator underflowed its step size."""


@dataclass(frozen=True)
class Term:
    """One summand ``coeff * t**power * trig(omega*t)`` of a matrix entry."""

    coeff: complex
    power: int = 0
    trig: str = "none"  # none | cos | sin
    omega: float = 0.0

    def __post_init__(self):
        if self.trig not in ("none", "cos", "sin"):
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
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
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
    entries = {}
    n = len(mat)
    for k in range(n):
        for l in range(n):
            terms = mat[k][l]
            if terms:
                entries[(k, l)] = list(terms)
    return entries


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


@dataclass(frozen=True)
class NmrCoefficients:
    """Seeded synthetic coefficient set for the spin-simulation generators."""

    kind: int
    seed: int
    nu: float
    alpha: np.ndarray                  # 16 diagonal frequencies
    beta: np.ndarray | None = None     # kind 1: per-level cos(2 pi nu t) weights
    gamma: np.ndarray | None = None    # kind 1: per-level cos(4 pi nu t) weights
    B: np.ndarray | None = None        # kinds 2-3: coupling matrix
    C: np.ndarray | None = None        # kinds 2-3: second coupling matrix


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


# Default frequency scales (Hz) per experiment kind.  The intervals differ by
# orders of magnitude, so the scales are chosen to put the integrated phase
# 2*pi*alpha*tau_exp at O(1): the stated iteration counts then reach the
# discretization-limited accuracy, the regime the experiments probe.
_NMR_SCALES = {1: (4e3, 2e3), 2: (2e4, 5e3), 3: (3e2, 1.5e2)}


def nmr_coefficients(kind: int, seed: int = DEFAULT_NMR_SEED, *, nu: float = 1e4,
                     mod_scale: float | None = None,
                     gamma_scale: float | None = None) -> NmrCoefficients:
    """Draw the synthetic coefficient set for one experiment kind.

    The true coefficient data of the cited spin systems is not public, so the
    generators keep the functional forms, the 2**4 = 16 state-space size, the
    coupling sparsity style, and the experiment intervals, with values from a
    seeded uniform draw.  Diagonal frequencies are alpha ~ U(-s, s) with the
    per-kind scale s from ``_NMR_SCALES``; modulation weights and couplings
    use the second per-kind scale, and couplings get two symmetric partners
    per row.  ``nu`` is the spinning rate; ``mod_scale`` overrides the scale
    of the kind-1 modulation weights and ``gamma_scale`` that of the
    ``cos(4 pi nu t)`` weights alone (default: ``mod_scale``).
    """
    if kind not in (1, 2, 3):
        raise ValueError(f"unknown experiment kind {kind}")
    rng = np.random.default_rng(seed + 1000 * kind)
    n = 16
    nu = float(nu)
    alpha_scale, coupling_scale = _NMR_SCALES[kind]
    mod_scale = float(coupling_scale if mod_scale is None else mod_scale)
    gamma_scale = float(mod_scale if gamma_scale is None else gamma_scale)
    alpha = rng.uniform(-alpha_scale, alpha_scale, size=n)
    if kind == 1:
        beta = rng.uniform(-mod_scale, mod_scale, size=n)
        gamma = rng.uniform(-gamma_scale, gamma_scale, size=n)
        return NmrCoefficients(kind, seed, nu, alpha, beta=beta, gamma=gamma)
    B = _symmetric_sparse(rng, n, coupling_scale)
    C = _symmetric_sparse(rng, n, coupling_scale, complex_values=(kind == 3))
    return NmrCoefficients(kind, seed, nu, alpha, B=B, C=C)


def _nmr_vectors(kind: int) -> np.ndarray:
    if kind == 3:
        return np.ones(16)
    return np.tile([0.0, 1.0, 1.0], 6)[:16]


_NMR_INTERVALS = {1: (0.0, 5e-5), 2: (0.0, 5e-6), 3: (0.0, 1e-3)}


def nmr_generate(kind: int, seed: int = DEFAULT_NMR_SEED, *, nu: float = 1e4,
                 mod_scale: float | None = None,
                 gamma_scale: float | None = None) -> Problem:
    """Build the spin-simulation problem ``A(t) = -2*pi*i * H(t)`` for one kind.

    kind 1: diagonal ``H``, level k carrying
    ``alpha_k + beta_k cos(2 pi nu t) + gamma_k cos(4 pi nu t)``.
    kind 2: ``diag(alpha) + B cos(2 pi nu t) + C cos(4 pi nu t)`` with real
    symmetric sparse couplings.
    kind 3: ``diag(alpha) + B (0.5 + cos 4t + sin 10t - 0.4 sin 16t)
    + C (sin 4t + cos 8t + 2 sin 12t)`` with real B and complex Hermitian C.

    Probe vectors default to the repeating (0, 1, 1) pattern for kinds 1-2 and
    all-ones for kind 3; intervals default to [0, 5e-5], [0, 5e-6], [0, 1e-3].
    Identical seeds give bit-identical problems.  ``nu``, ``mod_scale`` and
    ``gamma_scale`` are passed to :func:`nmr_coefficients`.
    """
    coeffs = nmr_coefficients(kind, seed, nu=nu, mod_scale=mod_scale,
                              gamma_scale=gamma_scale)
    s = -2j * np.pi  # A(t) = -i 2 pi H(t)
    w2 = 2 * np.pi * coeffs.nu
    entries: dict[tuple[int, int], list[Term]] = {}
    if kind == 1:
        for k in range(16):
            entries[(k, k)] = [
                Term(s * coeffs.alpha[k]),
                Term(s * coeffs.beta[k], 0, "cos", w2),
                Term(s * coeffs.gamma[k], 0, "cos", 2 * w2),
            ]
    elif kind == 2:
        for k in range(16):
            entries[(k, k)] = [Term(s * coeffs.alpha[k])]
        for (i, j) in zip(*np.nonzero(coeffs.B)):
            entries.setdefault((int(i), int(j)), []).append(Term(s * coeffs.B[i, j], 0, "cos", w2))
        for (i, j) in zip(*np.nonzero(coeffs.C)):
            entries.setdefault((int(i), int(j)), []).append(Term(s * coeffs.C[i, j], 0, "cos", 2 * w2))
    else:
        for k in range(16):
            entries[(k, k)] = [Term(s * coeffs.alpha[k])]
        # B * (0.5 + cos 4t + sin 10t - 0.4 sin 16t)
        for (i, j) in zip(*np.nonzero(coeffs.B)):
            c = s * coeffs.B[i, j]
            entries.setdefault((int(i), int(j)), []).extend([
                Term(0.5 * c),
                Term(c, 0, "cos", 4.0),
                Term(c, 0, "sin", 10.0),
                Term(-0.4 * c, 0, "sin", 16.0),
            ])
        # C * (sin 4t + cos 8t + 2 sin 12t)
        for (i, j) in zip(*np.nonzero(coeffs.C)):
            c = s * coeffs.C[i, j]
            entries.setdefault((int(i), int(j)), []).extend([
                Term(c, 0, "sin", 4.0),
                Term(c, 0, "cos", 8.0),
                Term(2.0 * c, 0, "sin", 12.0),
            ])
    a, b = _NMR_INTERVALS[kind]
    vec = _nmr_vectors(kind)
    prob = Problem(f"nmr{kind}", 16, a, b, entries, vec, vec,
                   meta={"kind": kind, "seed": seed, "coefficients": coeffs})
    return prob


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
    """Return a built-in problem by id (const3, timedep5, zero1, nmr1/2/3)."""
    try:
        factory = _BUILTIN_FACTORIES[problem_id]
    except KeyError:
        raise KeyError(f"unknown builtin problem {problem_id!r}; "
                       f"known: {', '.join(builtin_ids())}") from None
    return factory()


def analytic_const3(mesh: Mesh) -> Reference:
    """Closed-form (exp(A t))_{11} for the constant 3x3 problem.

    The spectrum is {-2, sqrt(2), -sqrt(2)}, giving
    ``-sinh(2t)/2 + cosh(2t)/2 + cosh(sqrt(2) t)/2``.
    """
    t = mesh.tau
    vals = -0.5 * np.sinh(2 * t) + 0.5 * np.cosh(2 * t) + 0.5 * np.cosh(np.sqrt(2) * t)
    return Reference(vals)


def analytic_nmr1(problem: Problem, mesh: Mesh) -> Reference:
    """Exact ``w^H U(t) v`` for a generated diagonal (kind 1) experiment.

    ``A(t)`` is diagonal and commutes with itself, so each level evolves by
    the exponential of the antiderivative:

        u_k(t) = exp(-2 pi i [alpha_k t + beta_k sin(2 pi nu t)/(2 pi nu)
                              + gamma_k sin(4 pi nu t)/(4 pi nu)])

    The coefficients come from the problem's ``meta`` and the probes are
    the problem's own ``v`` and ``w``.  Any other problem raises
    ``ValueError``.
    """
    if problem.meta.get("kind") != 1:
        raise ValueError("analytic solution is available for a generated kind-1 problem only")
    coeffs = problem.meta["coefficients"]
    t = mesh.tau[None, :]
    w2 = 2 * np.pi * coeffs.nu
    phase = (coeffs.alpha[:, None] * t
             + coeffs.beta[:, None] * np.sin(w2 * t) / w2
             + coeffs.gamma[:, None] * np.sin(2 * w2 * t) / (2 * w2))
    diag = np.exp(-2j * np.pi * phase)
    vals = (np.conj(problem.w)[:, None] * diag * problem.v[:, None]).sum(axis=0)
    return Reference(vals)


def _same_content(p: Problem, q: Problem) -> bool:
    def terms(problem):
        return {key: ts for key, ts in problem.entries.items() if ts}
    return (p.n == q.n and (p.a, p.b) == (q.a, q.b) and terms(p) == terms(q)
            and np.array_equal(p.v, q.v) and np.array_equal(p.w, q.w))


def analytic_reference(problem: Problem, mesh: Mesh) -> Reference:
    """The closed-form reference for a problem that admits one, chosen by content.

    A problem with no terms (``A = 0``) gets the constant ``w^H v``; one whose
    entries, interval and probe vectors equal the builtin const3's gets
    :func:`analytic_const3`; a generated kind-1 spin problem (its ``meta``
    carries the coefficients) gets :func:`analytic_nmr1`.  The ``id`` plays
    no part.  Any other problem raises ``ValueError``.
    """
    if not any(problem.entries.values()):
        return Reference(np.full(mesh.m, np.vdot(problem.w, problem.v)))
    if _same_content(problem, _const3()):
        return analytic_const3(mesh)
    if problem.meta.get("kind") == 1:
        return analytic_nmr1(problem, mesh)
    raise ValueError(f"no analytic reference for problem {problem.id!r}")


def rk45_reference(problem: Problem, mesh: Mesh, rtol: float = 1e-10,
                   atol: float = 1e-12) -> Reference:
    """Adaptive Dormand-Prince reference: solve ``u' = A(t) u``, ``u(a) = v``.

    ``A(t)`` is compiled once per call (:meth:`Problem.compile_matrix`), so
    a right-hand-side evaluation costs a few array operations rather than a
    Python loop over the terms; the values equal those of the per-term sum.
    The dense output is evaluated at every mesh point (no nearest-sample
    matching), and ``s_hat_i = w^H u(tau_i)``; the returned reference's
    ``resample`` evaluates it on any other mesh of the interval.
    """
    if not (0 < rtol < np.inf and 0 < atol < np.inf):
        raise ValueError(f"rtol and atol must be finite and positive, got {rtol}, {atol}")
    y0 = problem.v.astype(complex)
    a_of_t = problem.compile_matrix()
    sol = solve_ivp(lambda t, y: a_of_t(t) @ y,
                    (problem.a, problem.b), y0,
                    method="RK45", rtol=rtol, atol=atol, dense_output=True)
    if not sol.success:
        t_fail = sol.t[-1] if sol.t.size else problem.a
        raise StiffnessError(
            f"integrator failed for {problem.id!r} near t = {t_fail}: {sol.message}")

    def sample(at: Mesh) -> np.ndarray:
        u = sol.sol(at.tau)  # (n, M)
        return np.conj(problem.w) @ u

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
    float such as ``2.0`` is read as ``2``, and ``1.7`` is rejected.
    """
    doc = _typed(json.loads(text), "the document", "object")
    entries = {}
    for i, ent in enumerate(_field(doc, "entries", "list")):
        where = f"entries[{i}]"
        terms = []
        for j, t in enumerate(_field(ent, "terms", "list", where)):
            tw = f"{where}.terms[{j}]"
            terms.append(Term(_complex_field(t, tw), _field(t, "power", "integer", tw, 0),
                              _field(t, "trig", "string", tw, "none"),
                              _field(t, "omega", "number", tw, 0.0)))
        entries[(_field(ent, "k", "integer", where) - 1,
                 _field(ent, "l", "integer", where) - 1)] = terms
    v, w = (np.array([_complex_field(z, f"{key}[{i}]")
                      for i, z in enumerate(_field(doc, key, "list"))]) for key in ("v", "w"))
    interval = _field(doc, "interval", "list")
    if len(interval) != 2:
        raise ValueError(f"problem file: interval must hold two numbers, got {interval!r:.60}")
    a, b = (_typed(x, f"interval[{i}]", "number") for i, x in enumerate(interval))
    return Problem(_field(doc, "id", "string"), _field(doc, "n", "integer"),
                   a, b, entries, v, w)
