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
from toelanczos.cli import solve
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

    @pytest.mark.parametrize("alphas,betas,depth", [
        pytest.param([np.zeros((2, 2)), np.diag([1.0, 0.0])], [np.eye(2)], 2,
                     id="zero-diagonal-inner"),
        pytest.param([np.array([[1 - 2.0**-52, 0.0], [1e300, 1 - 2.0**-52]])], [], 1,
                     id="inverse-overflows"),
        pytest.param([np.array([[0.0, 0.0], [-1e200, 0.0]])], [], 1,
                     id="condition-overflows"),
        pytest.param([np.zeros((2, 2)), 0.5 * np.eye(2)], [1e308 * np.eye(2)], 1,
                     id="inner-term-overflows"),
    ])
    def test_unusable_level_logs_inf_at_its_depth(self, alphas, betas, depth):
        log = []
        with pytest.raises(ResolventSingularError) as err:
            star_resolvent_11(TriTensor(2, alphas, betas), cond_log=log)
        assert err.value.depth == depth
        assert len(log) == len(alphas) - depth + 1 and log[-1] == np.inf

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

    @pytest.mark.parametrize("problem_id,dtype", [("const3", np.float64), ("timedep5", np.float64),
                                                  ("nmr2", np.complex128)])
    def test_levels_in_the_coefficients_dtype(self, problem_id, dtype):
        # a real Lanczos run gives a real resolvent; the i-mapped nmr2
        # coefficients stay complex
        p = builtin(problem_id)
        _, res, sol = solve(p, 12, 3)
        log, log_c = [], []
        got = star_resolvent_11(res.tri, cond_log=log)
        as_complex = TriTensor(res.tri.m, [x.astype(complex) for x in res.tri.alphas],
                               [x.astype(complex) for x in res.tri.betas])
        want = star_resolvent_11(as_complex, cond_log=log_c)
        assert got.dtype == dtype
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)
        assert np.allclose(log, log_c, rtol=1e-12)
        assert sol.values.dtype == np.complex128

    def test_non_finite_beta_raises_value_error(self):
        m = 3
        beta = np.tril(np.ones((m, m)))
        beta[2, 0] = np.nan
        tri = TriTensor(m, [np.zeros((m, m)), np.zeros((m, m))], [beta])
        with pytest.raises(ValueError, match="infs or NaNs"):
            star_resolvent_11(tri)

    def test_condition_log(self):
        # the log holds each level's exact kappa_1, not an estimate of it; on
        # the two outermost nmr1 levels a one-norm estimator reads 22-29% low
        for problem_id, m, n in [("const3", 8, 3), ("nmr1", 100, 4)]:
            p = builtin(problem_id)
            a4 = discretize_problem(p, build_mesh(p.a, p.b, m))
            tri = tensor_lanczos(a4, p.v, p.w, n).tri
            log = []
            star_resolvent_11(tri, cond_log=log)
            assert len(log) == n and all(c >= 1.0 for c in log)
            level = np.eye(m) - tri.alphas[n - 1]
            levels = [level]
            for k in range(n - 1, 0, -1):
                level = np.eye(m) - tri.alphas[k - 1] - np.linalg.solve(level, tri.betas[k - 1])
                levels.append(level)
            want = [np.linalg.cond(s, 1) for s in levels]
            assert np.allclose(log, want, rtol=1e-12, atol=0), (problem_id, log, want)


class TestApproxSolution:
    def test_zero_problem_gives_ones(self):
        p = builtin("zero1")
        _, _, sol = solve(p, 7, 1)
        assert np.allclose(sol.values, 1.0, atol=1e-14)

    def test_scalar_exponential(self):
        from toelanczos import Problem, Term

        p = Problem("exp1", 1, 0.0, 1.0, {(0, 0): [Term(1.0)]},
                    np.array([1.0]), np.array([1.0]))
        mesh, _, sol = solve(p, 100, 1)
        rel = np.abs(sol.values - np.exp(mesh.tau)) / np.exp(mesh.tau)
        assert np.max(rel) < 0.03

    def test_first_entry_near_inner_product(self):
        p = builtin("const3")
        for m in (10, 50, 200):
            mesh, _, sol = solve(p, m, 3)
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
        mesh, _, sol = solve(p, 3, 1)
        text = solution_to_csv(sol)
        lines = text.strip().split("\n")
        assert lines[0] == "tau,re_s,im_s"
        assert len(lines) == 4
        tau, re_s, im_s = lines[1].split(",")
        assert float(tau) == pytest.approx(mesh.tau[0])
        assert float(re_s) == pytest.approx(1.0)
        assert float(im_s) == 0.0
