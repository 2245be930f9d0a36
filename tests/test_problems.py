import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from toelanczos import (
    Problem,
    Term,
    analytic_const3,
    analytic_nmr1,
    build_mesh,
    builtin,
    builtin_ids,
    nmr_coefficients,
    nmr_generate,
    problem_from_json,
    problem_to_json,
    rk45_reference,
)
from toelanczos.problems import StiffnessError

from oracles import entry_per_term, matrix_per_term, reference_per_term

CONST3 = np.array([[-1.0, 1, 1], [1, 0, 1], [1, 1, -1]])


class TestBuiltins:
    def test_registry(self):
        assert set(builtin_ids()) == {"const3", "timedep5", "zero1", "nmr1", "nmr2", "nmr3"}
        with pytest.raises(KeyError):
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
        f = lambda t: -0.5 * np.sinh(2 * t) + 0.5 * np.cosh(2 * t) + 0.5 * np.cosh(np.sqrt(2) * t)
        assert f(0.0) == pytest.approx(1.0)

    def test_value_at_one(self):
        mesh = build_mesh(0.0, 1.0, 4)
        ref = analytic_const3(mesh)
        assert ref.values[-1].real == pytest.approx(expm(CONST3)[0, 0], rel=1e-12)

    def test_matches_matrix_exponential(self):
        rng = np.random.default_rng(42)
        ts = rng.uniform(0, 1, size=20)
        f = lambda t: -0.5 * np.sinh(2 * t) + 0.5 * np.cosh(2 * t) + 0.5 * np.cosh(np.sqrt(2) * t)
        for t in ts:
            assert abs(f(t) - expm(CONST3 * t)[0, 0]) < 1e-12


class TestNmrGenerators:
    def test_kind1_is_diagonal_with_three_terms(self):
        p = builtin("nmr1")
        assert p.n == 16
        assert set(p.entries) == {(k, k) for k in range(16)}
        for terms in p.entries.values():
            kinds = [(t.trig, t.omega) for t in terms]
            nu = p.meta["coefficients"].nu
            assert kinds == [("none", 0.0), ("cos", 2 * np.pi * nu), ("cos", 4 * np.pi * nu)]

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
        coeffs = nmr_coefficients(3)
        assert np.iscomplexobj(coeffs.C) and np.linalg.norm(coeffs.C.imag) > 0
        assert np.allclose(coeffs.C, coeffs.C.conj().T)

    def test_invalid_kind(self):
        with pytest.raises(ValueError):
            nmr_generate(4)

    @pytest.mark.parametrize("name", ["mod_scal", "alpha_scale", "coupling_scale",
                                      "pairs_per_row", "a", "b"])
    def test_unknown_override_raises(self, name):
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{name}'"):
            nmr_generate(1, **{name: 0.0})
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{name}'"):
            nmr_coefficients(2, **{name: 0.0})

    def test_overrides_change_the_draw(self):
        base = nmr_coefficients(1, seed=3)
        off = nmr_coefficients(1, seed=3, mod_scale=0.0)
        assert np.array_equal(off.alpha, base.alpha)
        assert not np.any(off.beta) and not np.any(off.gamma)
        no_gamma = nmr_coefficients(1, seed=3, nu=2e4, gamma_scale=0.0)
        assert no_gamma.nu == 2e4 and np.array_equal(no_gamma.beta, base.beta)
        assert not np.any(no_gamma.gamma)


class TestAnalyticNmr1:
    def test_matches_rk45_with_modulation_off(self):
        p = nmr_generate(1, seed=3, mod_scale=0.0)
        mesh = build_mesh(p.a, p.b, 40)
        ref = analytic_nmr1(p, mesh)
        ode = rk45_reference(p, mesh, rtol=1e-10, atol=1e-13)
        assert np.linalg.norm(ref.values - ode.values) / np.linalg.norm(ref.values) < 1e-8

    def test_matches_rk45_default(self):
        p = builtin("nmr1")
        mesh = build_mesh(p.a, p.b, 50)
        ref = analytic_nmr1(p, mesh)
        ode = rk45_reference(p, mesh, rtol=1e-10, atol=1e-13)
        assert np.linalg.norm(ref.values - ode.values) / np.linalg.norm(ref.values) < 1e-7

    def test_uses_the_problems_probes(self):
        # replaced probes: the closed form must follow them, as RK45 does
        p = dataclasses.replace(nmr_generate(1, seed=5), v=np.ones(16), w=np.ones(16))
        mesh = build_mesh(p.a, p.b, 40)
        ref = analytic_nmr1(p, mesh)
        ode = rk45_reference(p, mesh, rtol=1e-10, atol=1e-13)
        assert np.linalg.norm(ref.values - ode.values) / np.linalg.norm(ref.values) < 1e-7

    def test_kind_guard(self):
        mesh = build_mesh(0.0, 1.0, 4)
        with pytest.raises(ValueError):
            analytic_nmr1(nmr_generate(2), mesh)
        with pytest.raises(ValueError):
            analytic_nmr1(problem_from_json(problem_to_json(builtin("nmr1"))), mesh)


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
        exact = analytic_const3(mesh)
        err = np.max(np.abs(ref.values - exact.values))
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
                                             ("im", [0.0]), ("omega", True)])
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
    ], ids=["n-missing", "short-interval", "im-missing", "entry-not-object"])
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
