import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toelanczos import (
    ResolventSingularError,
    approx_solution,
    build_mesh,
    builtin,
    discretize_problem,
    solution_to_csv,
    star_resolvent_11,
    tensor_lanczos,
)
from toelanczos.lanczos import TriTensor
from oracles import assemble_tridiag, lu_resolvent_11, neumann_resolvent, solution_via_series


class TestStarResolvent11:
    def test_zero_alpha_gives_identity(self):
        m = 4
        tri = TriTensor(m, [np.zeros((m, m), dtype=complex)], [])
        assert np.allclose(star_resolvent_11(tri), np.eye(m), atol=1e-15)

    def test_nilpotent_alpha_matches_neumann_sum(self):
        rng = np.random.default_rng(0)
        m = 5
        alpha = np.tril(rng.standard_normal((m, m)), -1) + 0j
        tri = TriTensor(m, [alpha], [])
        r = star_resolvent_11(tri)
        # strictly lower triangular: the geometric series terminates at m terms
        acc = np.zeros((m, m), dtype=complex)
        power = np.eye(m)
        for _ in range(m + 1):
            acc += power
            power = power @ alpha
        assert np.linalg.norm(r - acc) < 1e-13

    def test_const3_matches_series_resolvent(self):
        p = builtin("const3")
        mesh = build_mesh(p.a, p.b, 10)
        a4 = discretize_problem(p, mesh)
        res = tensor_lanczos(a4, p.v, p.w, 3)
        r_frac = star_resolvent_11(res.tri)
        r_series = neumann_resolvent(assemble_tridiag(res.tri), max_terms=3 * 10)
        num = np.linalg.norm(r_frac - r_series.data[0, 0])
        assert num / np.linalg.norm(r_series.data[0, 0]) < 1e-11

    def test_singularity_reports_depth(self):
        m = 3
        tri = TriTensor(m, [np.eye(m, dtype=complex)], [])  # I - alpha = 0
        with pytest.raises(ResolventSingularError) as err:
            star_resolvent_11(tri)
        assert err.value.depth == 1

    @pytest.mark.parametrize("problem_id,m,n", [("const3", 10, 3), ("timedep5", 20, 5),
                                                ("zero1", 5, 1), ("nmr1", 100, 4),
                                                ("nmr2", 40, 4), ("nmr3", 40, 4)])
    def test_strict_upper_triangle_exactly_zero(self, problem_id, m, n):
        # a pivoted LU leaves roundoff above the diagonal (5.3e-22 on nmr1 at M=100)
        p = builtin(problem_id)
        a4 = discretize_problem(p, build_mesh(p.a, p.b, m))
        res = tensor_lanczos(a4, p.v, p.w, n)
        assert res.status.completed
        assert np.all(np.triu(star_resolvent_11(res.tri), 1) == 0)

    @pytest.mark.parametrize("which", ["alpha", "beta"])
    def test_rejects_non_triangular_coefficients(self, which):
        m = 4
        coeffs = {"alpha": [np.zeros((m, m), dtype=complex) for _ in range(2)],
                  "beta": [np.zeros((m, m), dtype=complex)]}
        coeffs[which][0][0, m - 1] = 1e-30
        tri = TriTensor(m, coeffs["alpha"], coeffs["beta"])
        with pytest.raises(ValueError, match="lower-triangular"):
            star_resolvent_11(tri)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(m=st.integers(1, 8), n=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
    def test_matches_pivoted_lu_fraction(self, m, n, seed):
        # coefficients of 2-norm 1/8 keep every level within 0.31 of I (the
        # fixed point of e = (1 + 1/(1 - e))/8), so each level's condition
        # number stays below 2
        rng = np.random.default_rng(seed)

        def coefficient():
            x = np.tril(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
            return x / (8 * np.linalg.norm(x, 2))

        tri = TriTensor(m, [coefficient() for _ in range(n)],
                        [coefficient() for _ in range(n - 1)])
        got = star_resolvent_11(tri)
        want = lu_resolvent_11(tri)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_condition_log(self):
        p = builtin("const3")
        mesh = build_mesh(p.a, p.b, 8)
        a4 = discretize_problem(p, mesh)
        res = tensor_lanczos(a4, p.v, p.w, 3)
        log = []
        star_resolvent_11(res.tri, cond_log=log)
        assert len(log) == 3 and all(c >= 1.0 for c in log)


class TestApproxSolution:
    def test_zero_problem_gives_ones(self):
        p = builtin("zero1")
        mesh = build_mesh(p.a, p.b, 7)
        a4 = discretize_problem(p, mesh)
        res = tensor_lanczos(a4, p.v, p.w, 1)
        sol = approx_solution(res.tri, mesh, res.normalization)
        assert np.allclose(sol.values, 1.0, atol=1e-14)

    def test_scalar_exponential(self):
        from toelanczos import Problem, Term

        p = Problem("exp1", 1, 0.0, 1.0, {(0, 0): [Term(1.0)]},
                    np.array([1.0]), np.array([1.0]))
        mesh = build_mesh(0.0, 1.0, 100)
        a4 = discretize_problem(p, mesh)
        res = tensor_lanczos(a4, p.v, p.w, 1)
        sol = approx_solution(res.tri, mesh, res.normalization)
        rel = np.abs(sol.values - np.exp(mesh.tau)) / np.exp(mesh.tau)
        assert np.max(rel) < 0.03

    def test_first_entry_near_inner_product(self):
        p = builtin("const3")
        for m in (10, 50, 200):
            mesh = build_mesh(p.a, p.b, m)
            a4 = discretize_problem(p, mesh)
            res = tensor_lanczos(a4, p.v, p.w, 3)
            sol = approx_solution(res.tri, mesh, res.normalization)
            assert abs(sol.values[0] - 1.0) < 5.0 * mesh.h


class TestSeriesOracle:
    def test_full_dimension_equivalence_const3(self):
        p = builtin("const3")
        mesh = build_mesh(p.a, p.b, 30)
        a4 = discretize_problem(p, mesh)
        res = tensor_lanczos(a4, p.v, p.w, 3)
        s_frac = approx_solution(res.tri, mesh, res.normalization).values
        s_series = solution_via_series(a4, p.v, p.w, mesh).values
        assert np.linalg.norm(s_frac - s_series) / np.linalg.norm(s_series) < 1e-8

    def test_series_on_zero_problem(self):
        p = builtin("zero1")
        mesh = build_mesh(p.a, p.b, 5)
        a4 = discretize_problem(p, mesh)
        s = solution_via_series(a4, p.v, p.w, mesh)
        assert np.allclose(s.values, 1.0, atol=1e-15)


class TestCsv:
    def test_solution_csv_schema(self):
        p = builtin("zero1")
        mesh = build_mesh(p.a, p.b, 3)
        a4 = discretize_problem(p, mesh)
        res = tensor_lanczos(a4, p.v, p.w, 1)
        sol = approx_solution(res.tri, mesh, res.normalization)
        text = solution_to_csv(sol)
        lines = text.strip().split("\n")
        assert lines[0] == "tau,re_s,im_s"
        assert len(lines) == 4
        tau, re_s, im_s = lines[1].split(",")
        assert float(tau) == pytest.approx(mesh.tau[0])
        assert float(re_s) == pytest.approx(1.0)
        assert float(im_s) == 0.0
