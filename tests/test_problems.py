import dataclasses
import hashlib
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from toelanczos import (
    Problem,
    Term,
    analytic_reference,
    build_mesh,
    builtin,
    builtin_ids,
    nmr_generate,
    problem_from_json,
    problem_to_json,
    rk45_reference,
)
from toelanczos.problems import _NMR_NU, DEFAULT_NMR_SEED, StiffnessError

from oracles import (const3_closed_form, entry_per_term, matrix_per_term, nmr1_closed_form,
                     reference_per_term)

CONST3 = np.array([[-1.0, 1, 1], [1, 0, 1], [1, 1, -1]])


class TestBuiltins:
    def test_registry(self):
        assert set(builtin_ids()) == {"const3", "timedep5", "zero1", "nmr1", "nmr2", "nmr3"}
        with pytest.raises(ValueError, match="unknown builtin problem 'nope'"):
            builtin("nope")

    def test_const3_entries(self):
        p = builtin("const3")
        assert p.n == 3 and (p.a, p.b) == (0.0, 1.0)
        terms = p.entries[(0, 0)]
        assert len(terms) == 1 and terms[0].coeff == -1 and terms[0].power == 0
        assert (1, 1) not in p.entries
        t = np.linspace(0, 1, 7)
        for k in range(3):
            for l in range(3):
                assert np.allclose(entry_per_term(p, k, l, t), CONST3[k, l])

    def test_timedep5_entries(self):
        p = builtin("timedep5")
        assert (p.a, p.b) == (1e-4, 1.0)
        # entry (5, 3) in math numbering is -6t - 1
        vals = entry_per_term(p, 4, 2, np.array([0.0, 0.5, 1.0]))
        assert np.allclose(vals, [-1.0, -4.0, -7.0])
        # entry (2, 2) is cos(t) - t
        vals = entry_per_term(p, 1, 1, np.array([0.0, 1.0]))
        assert np.allclose(vals, [1.0, np.cos(1.0) - 1.0])

    def test_timedep5_matrix_matches_display(self):
        p = builtin("timedep5")
        t = 0.37
        c = np.cos(t)
        expected = np.array([
            [c, 0, 1, 2, 1],
            [0, c - t, 1 - 3 * t, t, 0],
            [0, t, 2 * t + c, 0, 0],
            [0, 1, 2 * t + 1, t + c, t],
            [t, -t - 1, -6 * t - 1, 1 - 2 * t, c - 2 * t],
        ])
        assert np.allclose(p.compile_matrix()(t), expected, rtol=1e-14)

    def test_zero1(self):
        p = builtin("zero1")
        assert p.n == 1 and not p.entries


class TestAnalyticConst3:
    def test_value_at_zero_is_one(self):
        assert const3_closed_form(0.0) == pytest.approx(1.0)

    def test_value_at_one(self):
        mesh = build_mesh(0.0, 1.0, 4)
        ref = analytic_reference(builtin("const3"), mesh)
        assert ref.values[-1].real == pytest.approx(expm(CONST3)[0, 0], rel=1e-12)

    def test_matches_matrix_exponential(self):
        rng = np.random.default_rng(42)
        ts = rng.uniform(0, 1, size=20)
        for t in ts:
            assert abs(const3_closed_form(t) - expm(CONST3 * t)[0, 0]) < 1e-12

    @pytest.mark.parametrize("m", [10, 40, 250, 1000])
    def test_matches_the_hand_formula(self, m):
        # read from the terms (a Hermitian C), against the spectrum worked out by hand
        mesh = build_mesh(0.0, 1.0, m)
        want = const3_closed_form(mesh.tau)
        got = analytic_reference(builtin("const3"), mesh).values
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


class TestNmrGenerators:
    def test_kind1_is_diagonal_with_three_terms(self):
        p = builtin("nmr1")
        assert p.n == 16
        assert set(p.entries) == {(k, k) for k in range(16)}
        for terms in p.entries.values():
            kinds = [(t.trig, t.omega) for t in terms]
            assert kinds == [("none", 0.0), ("cos", 2 * np.pi * _NMR_NU),
                             ("cos", 4 * np.pi * _NMR_NU)]

    @pytest.mark.parametrize("kind,digest", [
        (1, "b5c5f13378c114f9752e0e6c83ffa52fbf32c074e84a07d1b0b1c615ad08fd70"),
        (2, "a000e3d885197f6d22e07a76dc01662e8a37f6aa758f19fe0b6ec734e0bf8a68"),
        (3, "2c98008887210864bfe5eef59720d9d4dbf9fd1c9a68c0b70dcf2444aad9c304"),
    ])
    def test_generated_content_pinned(self, kind, digest):
        # the problem file of each kind at the default seed, byte for byte
        text = problem_to_json(nmr_generate(kind))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_determinism(self):
        p1 = nmr_generate(2, seed=7)
        p2 = nmr_generate(2, seed=7)
        assert p1.entries.keys() == p2.entries.keys()
        for key in p1.entries:
            for t1, t2 in zip(p1.entries[key], p2.entries[key]):
                assert t1 == t2

    def test_kind2_noncommuting(self):
        p = builtin("nmr2")
        t1, t2 = 1e-6, 3e-6
        a_of_t = p.compile_matrix()
        a1, a2 = a_of_t(t1), a_of_t(t2)
        assert np.linalg.norm(a1 @ a2 - a2 @ a1) > 1e-6

    def test_vectors_and_intervals(self):
        assert np.array_equal(builtin("nmr1").v.real, np.tile([0, 1, 1], 6)[:16])
        assert np.array_equal(builtin("nmr3").v.real, np.ones(16))
        assert builtin("nmr1").b == pytest.approx(5e-5)
        assert builtin("nmr2").b == pytest.approx(5e-6)
        assert builtin("nmr3").b == pytest.approx(1e-3)

    def test_kind3_has_complex_coupling(self):
        # C's sin(4t) term carries -2 pi i C[k, l] (B's 4t term is a cos)
        c = np.zeros((16, 16), dtype=complex)
        for (k, l), terms in nmr_generate(3).entries.items():
            for t in terms:
                if (t.trig, t.omega) == ("sin", 4.0):
                    c[k, l] = t.coeff / (-2j * np.pi)
        assert np.linalg.norm(c.imag) > 0
        assert np.allclose(c, c.conj().T)

    def test_invalid_kind(self):
        with pytest.raises(ValueError):
            nmr_generate(4)

    @pytest.mark.parametrize("name", ["mod_scal", "alpha_scale", "coupling_scale",
                                      "pairs_per_row", "a", "b"])
    def test_unknown_override_raises(self, name):
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{name}'"):
            nmr_generate(1, **{name: 0.0})


def without_modulation(p):
    """A generated kind-1 problem with both modulation weights of every level zeroed."""
    entries = {key: [t if t.trig == "none" else dataclasses.replace(t, coeff=0j) for t in terms]
               for key, terms in p.entries.items()}
    return dataclasses.replace(p, entries=entries)


class TestAnalyticNmr1:
    def test_matches_rk45_with_modulation_off(self):
        p = without_modulation(nmr_generate(1, seed=3))
        mesh = build_mesh(p.a, p.b, 40)
        ref = analytic_reference(p, mesh)
        ode = rk45_reference(p, mesh, rtol=1e-10, atol=1e-13)
        assert np.linalg.norm(ref.values - ode.values) / np.linalg.norm(ref.values) < 1e-8

    def test_matches_rk45_default(self):
        p = builtin("nmr1")
        mesh = build_mesh(p.a, p.b, 50)
        ref = analytic_reference(p, mesh)
        ode = rk45_reference(p, mesh, rtol=1e-10, atol=1e-13)
        assert np.linalg.norm(ref.values - ode.values) / np.linalg.norm(ref.values) < 1e-7

    def test_uses_the_problems_probes(self):
        # replaced probes: the closed form must follow them, as RK45 does
        p = dataclasses.replace(nmr_generate(1, seed=5), v=np.ones(16), w=np.ones(16))
        mesh = build_mesh(p.a, p.b, 40)
        ref = analytic_reference(p, mesh)
        ode = rk45_reference(p, mesh, rtol=1e-10, atol=1e-13)
        assert np.linalg.norm(ref.values - ode.values) / np.linalg.norm(ref.values) < 1e-7

    def test_kind_guard(self):
        # the closed form is read from the content: nmr2 couples its levels,
        # and nmr1 read back from its file is the generated problem
        mesh = build_mesh(0.0, 1.0, 4)
        with pytest.raises(ValueError, match="'nmr2': entry .* is off the diagonal"):
            analytic_reference(nmr_generate(2), mesh)
        p = builtin("nmr1")
        mesh = build_mesh(p.a, p.b, 40)
        from_file = analytic_reference(problem_from_json(problem_to_json(p)), mesh)
        assert np.array_equal(from_file.values, analytic_reference(p, mesh).values)

    @pytest.mark.parametrize("seed", [DEFAULT_NMR_SEED, 1, 3, 7, 41])
    def test_matches_the_drawn_coefficients(self, seed):
        # the terms' integrals against the closed form written from the draw
        p = nmr_generate(1, seed=seed)
        for m in (10, 40, 250, 1000):
            mesh = build_mesh(p.a, p.b, m)
            want = nmr1_closed_form(seed, mesh, p.v, p.w)
            got = analytic_reference(p, mesh).values
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


# a diagonal A(t) on [0.5, 2] with a t^2, a sin, a cos and a constant term
DIAG2 = Problem("diag2", 2, 0.5, 2.0, {
    (0, 0): [Term(-0.5, 2), Term(2j, 0, "sin", 3.0)],
    (1, 1): [Term(1 - 1j, 0, "cos", 5.0), Term(-0.3)]}, [1.0, 0.5], [1.0, 2.0])


class TestAnalyticDiagonal:
    @pytest.mark.parametrize("m", [10, 40, 250])
    def test_matches_rk45(self, m):
        mesh = build_mesh(DIAG2.a, DIAG2.b, m)
        ref = analytic_reference(DIAG2, mesh).values
        ode = rk45_reference(DIAG2, mesh, rtol=1e-12, atol=1e-14).values
        assert np.max(np.abs(ref - ode)) <= 1e-10 * np.max(np.abs(ref))

    @pytest.mark.parametrize("problem", [
        builtin("zero1"),
        Problem("quiet", 2, 0.0, 1.0, {(0, 1): []}, [1.0, 2.0], [3.0, 1j]),
    ], ids=["zero1", "empty-entry"])
    def test_zero_operator_gets_w_h_v(self, problem):
        mesh = build_mesh(problem.a, problem.b, 7)
        assert np.array_equal(analytic_reference(problem, mesh).values,
                              np.full(7, np.vdot(problem.w, problem.v)))

    @pytest.mark.parametrize("entries,interval,message", [
        ({(0, 1): [Term(0.1)]}, (0.0, 2.0), "entry (k, l) = (1, 2) is off the diagonal"),
        ({(0, 0): [Term(1.0, -1)]}, (0.0, 2.0), "term 0 of entry (k, l) = (1, 1)"),
        ({(1, 1): [Term(1.0, 1, "cos", 5.0)]}, (0.0, 2.0), "term 0 of entry (k, l) = (2, 2)"),
        ({(1, 1): [Term(-0.3), Term(1.0, 0, "sin", 0.0)]}, (0.0, 2.0),
         "term 1 of entry (k, l) = (2, 2)"),
        ({(0, 0): [Term(1.0, 400)]}, (0.0, 2.0), "the closed form is not finite at tau[4] = 1.25"),
        # a^401 itself overflows
        ({(0, 0): [Term(1.0, 400)]}, (6.0, 7.0),
         "the closed form is not finite at tau[0] = 6.125"),
    ], ids=["off-diagonal", "negative-power", "cos-power-1", "sin-omega-0", "overflow",
            "overflow-at-a"])
    def test_refuses_other_content(self, entries, interval, message):
        a, b = interval
        p = dataclasses.replace(DIAG2, a=a, b=b, entries={**DIAG2.entries, **entries})
        with pytest.raises(ValueError) as info:
            analytic_reference(p, build_mesh(p.a, p.b, 8))
        assert str(info.value).startswith("no analytic reference for problem 'diag2': ")
        assert message in str(info.value)


HERMITIAN3 = np.array([[1.0, 2 - 1j, 0.5j], [2 + 1j, -1.0, 1.0], [-0.5j, 1.0, 0.5]])
SYMMETRIC3 = np.array([[1.0, 0.5, -1.0], [0.5, 0.0, 2.0], [-1.0, 2.0, -0.5]])


def one_factor(ident, mat, power=0, trig="none", omega=0.0):
    """A problem on [0.5, 2] with ``A(t) = t**power trig(omega t) mat``."""
    entries = {(k, l): [Term(mat[k, l], power, trig, omega)]
               for k in range(len(mat)) for l in range(len(mat)) if mat[k, l]}
    return Problem(ident, len(mat), 0.5, 2.0, entries, [1.0, 0.5, -1j][:len(mat)],
                   [1.0, 2.0, 0.5][:len(mat)])


class TestAnalyticSharedEigenbasis:
    """One time factor times a Hermitian or skew-Hermitian matrix: ``A(t)`` commutes with itself."""

    @pytest.mark.parametrize("m", [10, 250])
    @pytest.mark.parametrize("problem", [
        one_factor("skew3", -2j * np.pi * HERMITIAN3 / 10, 0, "cos", 3.0),
        one_factor("sym3", SYMMETRIC3, 2),
        one_factor("herm3", HERMITIAN3 / 5),
    ], ids=["cos-skew", "t2-symmetric", "const-hermitian"])
    def test_matches_rk45(self, problem, m):
        mesh = build_mesh(problem.a, problem.b, m)
        ref = analytic_reference(problem, mesh).values
        ode = rk45_reference(problem, mesh, rtol=1e-12, atol=1e-14).values
        assert np.max(np.abs(ref - ode)) <= 1e-10 * np.max(np.abs(ref))

    @pytest.mark.parametrize("problem,message", [
        # neither Hermitian nor skew-Hermitian: not diagonalizable at all
        (one_factor("nonnormal", np.array([[0.0, 1.0], [0.0, 0.0]])), "'nonnormal': entry "
         "(k, l) = (1, 2) is off the diagonal"),
        # off the diagonal with three time factors (1, t and cos t)
        (builtin("timedep5"), "'timedep5': entry (k, l) = (1, 3) is off the diagonal"),
    ], ids=["non-normal", "timedep5"])
    def test_refuses_other_content(self, problem, message):
        want = re.escape(f"no analytic reference for problem {message}")
        with pytest.raises(ValueError, match=want):
            analytic_reference(problem, build_mesh(problem.a, problem.b, 8))


class TestRk45Reference:
    def test_zero_problem_is_constant(self):
        p = builtin("zero1")
        mesh = build_mesh(p.a, p.b, 9)
        ref = rk45_reference(p, mesh)
        assert np.allclose(ref.values, 1.0, atol=1e-12)

    def test_const3_matches_analytic(self):
        p = builtin("const3")
        mesh = build_mesh(p.a, p.b, 25)
        rtol = 1e-8
        ref = rk45_reference(p, mesh, rtol=rtol, atol=1e-12)
        exact = const3_closed_form(mesh.tau)
        err = np.max(np.abs(ref.values - exact))
        assert err < max(10 * rtol, 1e-9)

    def test_scalar_cosine_closed_form(self):
        p = Problem("cos1", 1, 0.0, 1.0, {(0, 0): [Term(1.0, 0, "cos", 1.0)]},
                    np.array([1.0]), np.array([1.0]))
        mesh = build_mesh(0.0, 1.0, 30)
        rtol = 1e-9
        ref = rk45_reference(p, mesh, rtol=rtol, atol=1e-13)
        assert np.max(np.abs(ref.values - np.exp(np.sin(mesh.tau)))) < 10 * rtol

    def test_self_convergence(self):
        p = builtin("timedep5")
        mesh = build_mesh(p.a, p.b, 12)
        loose = rk45_reference(p, mesh, rtol=1e-6, atol=1e-9)
        tight = rk45_reference(p, mesh, rtol=1e-8, atol=1e-11)
        assert np.max(np.abs(loose.values - tight.values)) < 10 * 1e-6

    def test_rejects_bad_tolerances(self):
        p = builtin("zero1")
        mesh = build_mesh(p.a, p.b, 4)
        with pytest.raises(ValueError):
            rk45_reference(p, mesh, rtol=0.0)

    @pytest.mark.parametrize("tols", [{"rtol": np.nan}, {"atol": np.nan},
                                      {"rtol": np.inf}, {"atol": np.inf}],
                             ids=["rtol-nan", "atol-nan", "rtol-inf", "atol-inf"])
    def test_rejects_non_finite_tolerances(self, tols):
        # a NaN rtol passes a "<= 0" check and leaves solve_ivp stepping forever
        p = builtin("const3")
        with pytest.raises(ValueError, match="finite"):
            rk45_reference(p, build_mesh(p.a, p.b, 20), **tols)

    @pytest.mark.parametrize("problem_id", ["const3", "nmr3"])
    def test_equals_per_term_integration(self, problem_id):
        p = builtin(problem_id)
        mesh = build_mesh(p.a, p.b, 20)
        assert np.array_equal(rk45_reference(p, mesh).values, reference_per_term(p, mesh))

    def test_unknown_trig_kind(self):
        # the kind is checked once, when the term is built, so no evaluator sees it
        with pytest.raises(ValueError, match="unknown trig kind 'tan'"):
            Term(1.0, 0, "tan", 1.0)
        text = problem_to_json(builtin("const3")).replace('"trig": "none"', '"trig": "tan"', 1)
        with pytest.raises(ValueError, match="unknown trig kind 'tan'"):
            problem_from_json(text)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_stiffness_error(self):
        # growth rate 1e308 forces steps far below float spacing around t = 1
        p = Problem("stiff", 1, 1.0, 2.0, {(0, 0): [Term(1e308)]},
                    np.array([1.0]), np.array([1.0]))
        mesh = build_mesh(1.0, 2.0, 4)
        with pytest.raises(StiffnessError, match="stiff"):
            rk45_reference(p, mesh, rtol=1e-10, atol=1e-12)


def matrix_per_entry(p, t):
    return np.array([[entry_per_term(p, k, l, t) for l in range(p.n)] for k in range(p.n)])


TERMS = st.lists(st.builds(
    Term,
    coeff=st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
    power=st.integers(0, 5),
    trig=st.sampled_from(["none", "cos", "sin"]),
    omega=st.floats(-20, 20)), max_size=3)


@st.composite
def random_problems(draw):
    n = draw(st.integers(1, 4))
    index = st.integers(0, n - 1)
    entries = draw(st.dictionaries(st.tuples(index, index), TERMS))
    return Problem("random", n, -1.0, 1.0, entries, np.ones(n), np.ones(n))


class TestCompiledMatrix:
    """``compile_matrix`` equals the per-entry term sums bit for bit."""

    TIMES = (-0.7, 0.0, 3e-7, 0.5, 1.0)

    @pytest.mark.parametrize("problem_id", sorted(builtin_ids()))
    def test_builtins(self, problem_id):
        p = builtin(problem_id)
        a_of_t = p.compile_matrix()
        for t in (*self.TIMES, p.a, p.b, (p.a + p.b) / 3):
            assert np.array_equal(a_of_t(t), matrix_per_entry(p, t))
            assert np.array_equal(a_of_t(t), matrix_per_term(p, t))

    @pytest.mark.parametrize("kind", [1, 2, 3])
    @pytest.mark.parametrize("seed", [3, 41])
    def test_nmr_seeds(self, kind, seed):
        p = nmr_generate(kind, seed=seed)
        a_of_t = p.compile_matrix()
        for t in np.linspace(p.a, p.b, 7):
            assert np.array_equal(a_of_t(t), matrix_per_entry(p, t))

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(p=random_problems(), times=st.lists(st.floats(-3, 3), min_size=1, max_size=4))
    def test_random_problems(self, p, times):
        a_of_t = p.compile_matrix()
        for t in times:
            assert np.array_equal(a_of_t(t), matrix_per_entry(p, t))

    def test_entries_read_when_compiled(self):
        p = builtin("const3")
        a_of_t = p.compile_matrix()
        p.entries[(1, 1)] = [Term(5.0)]
        assert a_of_t(0.5)[1, 1] == 0 and p.compile_matrix()(0.5)[1, 1] == 5.0


class TestProblemJson:
    def test_round_trip(self):
        p = builtin("timedep5")
        q = problem_from_json(problem_to_json(p))
        assert q.id == p.id and q.n == p.n and (q.a, q.b) == (p.a, p.b)
        assert np.array_equal(q.v, p.v) and np.array_equal(q.w, p.w)
        assert q.entries.keys() == p.entries.keys()
        t = np.linspace(p.a, p.b, 5)
        for key in p.entries:
            assert np.allclose(entry_per_term(q, *key, t), entry_per_term(p, *key, t),
                               rtol=0, atol=0)

    def test_integral_float_power_is_read_as_integer(self):
        doc = json.loads(problem_to_json(builtin("const3")))
        doc["entries"][0]["terms"][0]["power"] = 2.0
        term = problem_from_json(json.dumps(doc)).entries[(0, 0)][0]
        assert term.power == 2 and isinstance(term.power, int)

    @pytest.mark.parametrize("field,value", [("power", 1.7), ("power", "2"), ("re", "1"),
                                             ("im", [0.0]), ("omega", True),
                                             ("omega", float("inf")), ("re", float("nan"))])
    def test_mistyped_term_field_names_it(self, field, value):
        doc = json.loads(problem_to_json(builtin("const3")))
        doc["entries"][2]["terms"][0][field] = value
        with pytest.raises(ValueError, match=rf"entries\[2\]\.terms\[0\]\.{field}"):
            problem_from_json(json.dumps(doc))

    @pytest.mark.parametrize("change,field", [
        (lambda doc: doc.pop("n"), "n is missing"),
        (lambda doc: doc.update(interval=[0.0]), "interval"),
        (lambda doc: doc.update(w=[{"re": 1.0}]), r"w\[0\]\.im is missing"),
        (lambda doc: doc["entries"].append(3), r"entries\[8\] must be a JSON object"),
        # json reads NaN and Infinity; float() overflows on a long integer literal
        (lambda doc: doc["v"][1].update(re=float("nan")), r"v\[1\]\.re must be a finite"),
        (lambda doc: doc.update(interval=[float("-inf"), 1.0]), r"interval\[0\] must be a finite"),
        (lambda doc: doc["w"][0].update(im=10**400), r"w\[0\]\.im must be a finite"),
        (lambda doc: doc["entries"].append({**doc["entries"][0], "terms": [{"re": 2, "im": 0}]}),
         r"entries\[0\] and entries\[8\] both give entry \(k, l\) = \(1, 1\)"),
        (lambda doc: doc.update(n=0, v=[], w=[], entries=[]), "n must be at least 1, got 0"),
        # k and l are 1-based in the file
        (lambda doc: doc["entries"][1].update(k=0), r"entries\[1\]\.k must be in 1\.\.3, got 0$"),
        (lambda doc: doc["entries"][1].update(l=0), r"entries\[1\]\.l must be in 1\.\.3, got 0$"),
        (lambda doc: doc["entries"][2]["terms"][0].update(trig="tan"),
         r"entries\[2\]\.terms\[0\]\.trig: unknown trig kind 'tan', expected one of "
         r"none, cos, sin$"),
        (lambda doc: doc.update(v=doc["v"][:2]), r"v must hold n = 3 numbers, got 2$"),
    ], ids=["n-missing", "short-interval", "im-missing", "entry-not-object", "v-re-nan",
            "interval-minus-infinity", "integer-beyond-float", "duplicate-entry", "n-zero",
            "k-zero", "l-zero", "trig-unknown", "v-short"])
    def test_malformed_document_names_the_field(self, change, field):
        doc = json.loads(problem_to_json(builtin("const3")))
        change(doc)
        with pytest.raises(ValueError, match=field):
            problem_from_json(json.dumps(doc))

    def test_complex_round_trip(self):
        p = nmr_generate(3, seed=11)
        q = problem_from_json(problem_to_json(p))
        t = np.linspace(p.a, p.b, 3)
        for key in p.entries:
            assert np.allclose(entry_per_term(q, *key, t), entry_per_term(p, *key, t),
                               rtol=0, atol=0)
