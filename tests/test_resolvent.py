from dataclasses import replace

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
    tensor_lanczos,
)
from toelanczos import lanczos, resolvent
from toelanczos.cli import solve
from toelanczos.lanczos import TriTensor
from toelanczos.resolvent import _resolvent_column
from oracles import (assemble_tridiag, dense_resolvent_column, lu_resolvent_11,
                     neumann_resolvent, solution_via_series)

BUILTIN_N = {"const3": 3, "timedep5": 5, "zero1": 1, "nmr1": 4, "nmr2": 4, "nmr3": 4}


class TestResolventColumn:
    """The first column ``R_11 e_1`` of the resolvent's (1, 1) block, row by row over the mesh."""

    def test_zero_alpha_gives_identity(self):
        m = 4
        tri = TriTensor(m, [np.zeros((m, m), dtype=complex)], [])
        assert np.array_equal(_resolvent_column(tri), np.eye(m)[:, 0])

    def test_nilpotent_alpha_matches_neumann_sum(self):
        rng = np.random.default_rng(0)
        m = 5
        alpha = np.tril(rng.standard_normal((m, m)), -1) + 0j
        tri = TriTensor(m, [alpha], [])
        r = _resolvent_column(tri)
        # strictly lower triangular: the geometric series terminates at m terms
        acc = np.zeros((m, m), dtype=complex)
        power = np.eye(m)
        for _ in range(m + 1):
            acc += power
            power = power @ alpha
        assert np.linalg.norm(r - acc[:, 0]) < 1e-13

    def test_const3_matches_series_resolvent(self):
        p = builtin("const3")
        mesh = build_mesh(p.a, p.b, 10)
        a4 = discretize_problem(p, mesh)
        res = tensor_lanczos(a4, p.v, p.w, 3)
        r_col = _resolvent_column(res.tri)
        r_series = neumann_resolvent(assemble_tridiag(res.tri), max_terms=3 * 10)
        want = r_series[0, 0][:, 0]
        assert np.linalg.norm(r_col - want) / np.linalg.norm(want) < 1e-11

    def test_singular_row_reports_its_index(self):
        m = 3
        tri = TriTensor(m, [np.eye(m, dtype=complex)], [])  # D_j = 1 - 1 = 0 on every row
        with pytest.raises(ResolventSingularError, match="mesh row 1 has kappa_1 = inf") as err:
            _resolvent_column(tri)
        assert err.value.row == 1 and err.value.cond == np.inf

    @pytest.mark.parametrize("alphas,betas,row,value", [
        # D_2 = [[1, -1], [-1, 1]] is exactly singular
        pytest.param([np.zeros((2, 2)), np.diag([1.0, 0.0])], [np.eye(2)], 2, np.inf,
                     id="zero-diagonal-inner"),
        # row 2 reads alpha_1[1, 0] x_1[0] = 1e300 * 2^52, which overflows to inf
        pytest.param([np.array([[1 - 2.0**-52, 0.0], [1e300, 1 - 2.0**-52]])], [], 2, np.inf,
                     id="inverse-overflows"),
        # both D_j = [1]: the exact column (1, -1e200)
        pytest.param([np.array([[0.0, 0.0], [-1e200, 0.0]])], [], None, [1.0, -1e200],
                     id="condition-overflows"),
        # beta_2 = 1e308 I, which a continued fraction overflowed on; balanced,
        # D_1 = [[1, -1e154], [-1e154, 0.5]] is well conditioned, and the column
        # is the exact 1 / (1 - 2e308), a subnormal
        pytest.param([np.zeros((2, 2)), 0.5 * np.eye(2)], [1e308 * np.eye(2)], None,
                     [0.5 / (0.5 - 1e308), 0.0], id="inner-term-overflows"),
        # beta_2[j, j] = 0 leaves D_j = [[1, -1], [0, 1]] unbalanced; row 2 reads
        # beta_2[1, 0] x_1[0] = 1, so x[:, 1] = D_2^{-1} (0, 1) = (1, 1)
        pytest.param([np.zeros((2, 2)), np.zeros((2, 2))], [np.array([[0.0, 0.0], [1.0, 0.0]])],
                     None, [1.0, 1.0], id="zero-beta-diagonal"),
        # D_j = [[1, -1], [-(1 - 2^-52), 1]] has kappa_1 = 4 * 2^52 (balanced alike)
        pytest.param([np.zeros((2, 2)), np.zeros((2, 2))], [(1 - 2.0**-52) * np.eye(2)],
                     1, 2.0**54, id="near-singular"),
    ])
    def test_solves_or_names_the_unusable_mesh_row(self, alphas, betas, row, value):
        tri = TriTensor(2, alphas, betas)
        if row is None:
            assert _resolvent_column(tri) == pytest.approx(value, rel=1e-12, abs=0)
            return
        with pytest.raises(ResolventSingularError) as err:
            _resolvent_column(tri)
        assert err.value.row == row
        assert err.value.cond == pytest.approx(value, rel=1e-12)
        assert str(err.value).startswith(f"resolvent mesh row {row} has kappa_1 = {value:.3e}")

    def test_condition_is_scale_invariant(self):
        # const3 with every coefficient times 1e10 is as well posed as const3
        # (the column matches the pivoted-LU oracle within 5.2e-15); the plain D_j has
        # kappa_1 3.1e25 there, the balanced one the same ~1 as unscaled
        for scale in (1.0, 1e10, 1e100):
            p = builtin("const3")
            p = replace(p, entries={kl: [replace(t, coeff=t.coeff * scale) for t in terms]
                                    for kl, terms in p.entries.items()})
            _, res, sol = solve(p, 20, 3)
            want = np.cumsum(lu_resolvent_11(res.tri)[:, 0])
            got = np.cumsum(_resolvent_column(res.tri))
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want)), scale

    @pytest.mark.parametrize("which", ["alpha", "beta"])
    def test_rejects_non_triangular_coefficients(self, which):
        m = 4
        coeffs = {"alpha": [np.zeros((m, m), dtype=complex) for _ in range(2)],
                  "beta": [np.zeros((m, m), dtype=complex)]}
        coeffs[which][0][0, m - 1] = 1e-30
        tri = TriTensor(m, coeffs["alpha"], coeffs["beta"])
        with pytest.raises(ValueError, match="lower-triangular"):
            _resolvent_column(tri)

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    @pytest.mark.parametrize("entry", [(0, 1), (2, 3), (1, 3), (0, 3)])
    def test_rejects_any_entry_above_the_diagonal(self, entry, dtype):
        # the check reads the strict upper triangle in place: each of its
        # entries counts, in each coefficient, and nothing on or below the diagonal
        m, rng = 4, np.random.default_rng(3)
        alphas = [0.1 * np.tril(rng.standard_normal((m, m))).astype(dtype) for _ in range(2)]
        betas = [np.tril(rng.standard_normal((m, m))).astype(dtype)]
        assert np.isfinite(_resolvent_column(TriTensor(m, alphas, betas))).all()
        for coeffs in (alphas[0], alphas[1], betas[0]):
            coeffs[entry] = 1e-300
            with pytest.raises(ValueError, match="lower-triangular"):
                _resolvent_column(TriTensor(m, alphas, betas))
            coeffs[entry] = 0

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(m=st.integers(1, 8), n=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
    def test_matches_pivoted_lu_fraction(self, m, n, seed):
        # coefficients of 2-norm 1/8 keep every level of the fraction within
        # 0.31 of I (the fixed point of e = (1 + 1/(1 - e))/8), so each level's
        # condition number stays below 2
        rng = np.random.default_rng(seed)

        def coefficient():
            x = np.tril(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
            return x / (8 * np.linalg.norm(x, 2))

        tri = TriTensor(m, [coefficient() for _ in range(n)],
                        [coefficient() for _ in range(n - 1)])
        got = _resolvent_column(tri)
        want = lu_resolvent_11(tri)[:, 0]
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("m", [40, 120, 250])
    @pytest.mark.parametrize("problem_id", sorted(BUILTIN_N))
    def test_matches_both_oracles_on_builtins(self, problem_id, m):
        # the continued fraction and one dense (nM) x (nM) solve, compared
        # after the cumulative sum that gives the solution
        _, res, sol = solve(builtin(problem_id), m, BUILTIN_N[problem_id])
        assert res.status.completed
        s = np.cumsum(_resolvent_column(res.tri))
        for want in (lu_resolvent_11(res.tri)[:, 0], dense_resolvent_column(res.tri)):
            want = np.cumsum(want)
            assert np.max(np.abs(s - want)) <= 1e-14 * np.max(np.abs(want))
        assert np.array_equal(sol.values, res.normalization * s)

    @pytest.mark.parametrize("problem_id,dtype", [("const3", np.float64), ("timedep5", np.float64),
                                                  ("nmr2", np.complex128)])
    def test_column_in_the_coefficients_dtype(self, problem_id, dtype):
        # a real Lanczos run gives a real column; the i-mapped nmr2
        # coefficients stay complex
        p = builtin(problem_id)
        _, res, sol = solve(p, 12, 3)
        got = _resolvent_column(res.tri)
        as_complex = TriTensor(res.tri.m, [x.astype(complex) for x in res.tri.alphas],
                               [x.astype(complex) for x in res.tri.betas])
        want = _resolvent_column(as_complex)
        assert got.dtype == dtype
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)
        assert sol.values.dtype == np.complex128

    def test_non_finite_beta_raises_value_error(self):
        m = 3
        beta = np.tril(np.ones((m, m)))
        beta[2, 0] = np.nan
        tri = TriTensor(m, [np.zeros((m, m)), np.zeros((m, m))], [beta])
        with pytest.raises(ValueError, match="infs or NaNs"):
            _resolvent_column(tri)

    @pytest.mark.parametrize("problem_id,m,n", [("nmr2", 40, 4), ("timedep5", 30, 5)])
    def test_forms_no_m_by_m_inverse(self, monkeypatch, problem_id, m, n):
        # the column is O(n M^2): no M x M inverse or solve may come back
        mesh, res, want = solve(builtin(problem_id), m, n)

        def refusing(fn):
            def guarded(a, *args, **kwargs):
                if np.shape(a)[-2:] == (m, m):
                    raise AssertionError(f"{fn.__name__} on an M x M operand")
                return fn(a, *args, **kwargs)
            return guarded

        for name in ("inv", "solve"):
            monkeypatch.setattr(np.linalg, name, refusing(getattr(np.linalg, name)))
        monkeypatch.setattr(lanczos, "_inverse_lower", refusing(lanczos._inverse_lower))
        monkeypatch.setattr(resolvent, "_inverse_lower", refusing(lanczos._inverse_lower),
                            raising=False)
        got = approx_solution(res.tri, mesh, res.normalization)
        assert np.array_equal(got.values, want.values)


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
