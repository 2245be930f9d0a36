import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toelanczos import (
    HyperVec,
    Problem,
    Term,
    approx_solution,
    build_mesh,
    builtin,
    classify_breakdown,
    discretize_problem,
    err_moments,
    lift,
    lift_dual,
    split_unit_vectors,
    star_inner,
    star_mul_tt,
    tensor_lanczos,
)
from toelanczos.lanczos import TriTensor
from oracles import assemble_tridiag, v_basis_tensor, w_basis_tensor


def const_problem(mat, interval=(0.0, 1.0), ident="anon"):
    n = len(mat)
    entries = {}
    for k in range(n):
        for l in range(n):
            if mat[k][l] != 0:
                entries[(k, l)] = [Term(complex(mat[k][l]))]
    e1 = np.zeros(n)
    e1[0] = 1.0
    return Problem(ident, n, interval[0], interval[1], entries, e1, e1)


def run_const3(m, n=3):
    p = builtin("const3")
    mesh = build_mesh(p.a, p.b, m)
    a4 = discretize_problem(p, mesh)
    return p, mesh, a4, tensor_lanczos(a4, p.v, p.w, n)


class TestBasicRuns:
    def test_zero_tensor_alpha_is_zero(self):
        p = builtin("zero1")
        mesh = build_mesh(p.a, p.b, 6)
        a4 = discretize_problem(p, mesh)
        res = tensor_lanczos(a4, p.v, p.w, 1)
        assert res.status.completed
        assert np.array_equal(res.tri.alphas[0], np.zeros((6, 6)))

    def test_alpha1_equals_first_block(self):
        p, mesh, a4, res = run_const3(10)
        # with v = w = e1 the first coefficient is exactly the (1,1) block
        assert np.array_equal(res.tri.alphas[0], a4.to_tensor4().data[0, 0])

    def test_completed_shape(self):
        _, _, _, res = run_const3(8)
        assert res.status.completed
        assert res.tri.n == 3
        assert len(res.v_basis) == 3 and len(res.w_basis) == 3
        assert len(res.tri.betas) == 2

    def test_moment_matching_exercises_theorem(self):
        p, mesh, a4, res = run_const3(10)
        errs = err_moments(res, a4)
        assert errs.shape == (6,)
        assert np.all(errs < 1e-12)

    def test_low_moments_exact(self):
        p, mesh, a4, res = run_const3(12)
        wv = star_inner(res.w_basis[0], res.v_basis[0])
        assert np.linalg.norm(wv - np.eye(12)) < 1e-14
        errs = err_moments(res, a4, k_max=2)
        assert np.all(errs < 1e-14)

    def test_normalization_reported_and_applied(self):
        p = builtin("const3")
        mesh = build_mesh(p.a, p.b, 10)
        a4 = discretize_problem(p, mesh)
        base = tensor_lanczos(a4, p.v, p.w, 3)
        scaled = tensor_lanczos(a4, 2.0 * p.v, p.w, 3)
        assert scaled.normalization == pytest.approx(2.0)
        s1 = approx_solution(base.tri, mesh, base.normalization).values
        s2 = approx_solution(scaled.tri, mesh, scaled.normalization).values
        assert np.allclose(s2, 2.0 * s1, rtol=1e-12)

    def test_rejects_dense_operator(self):
        # the triangular beta solves rely on the profile form's lower-triangular slices
        p = builtin("const3")
        a4 = discretize_problem(p, build_mesh(p.a, p.b, 5))
        with pytest.raises(TypeError, match="ProfileTensor"):
            tensor_lanczos(a4.to_tensor4(), p.v, p.w, 2)

    @pytest.mark.parametrize("eps", [{"eps_lucky": np.nan}, {"eps_serious": np.nan}],
                             ids=["eps_lucky", "eps_serious"])
    def test_rejects_nan_thresholds(self, eps):
        # a comparison with NaN is always false, so a NaN threshold switches its check off
        p = builtin("const3")
        a4 = discretize_problem(p, build_mesh(p.a, p.b, 5))
        with pytest.raises(ValueError, match="NaN"):
            tensor_lanczos(a4, p.v, p.w, 2, **eps)

    def test_rejects_orthogonal_probes(self):
        p = builtin("const3")
        mesh = build_mesh(p.a, p.b, 5)
        a4 = discretize_problem(p, mesh)
        w = np.array([0.0, 1.0, 0.0])
        with pytest.raises(ValueError, match="w\\^H v"):
            tensor_lanczos(a4, p.v, w, 2)


class TestLowerTriangularInvariants:
    @pytest.mark.parametrize("problem_id,m,n", [("const3", 9, 3), ("timedep5", 8, 5),
                                                ("nmr1", 7, 3), ("nmr2", 7, 4), ("nmr3", 7, 4)])
    def test_strict_upper_triangles_exactly_zero(self, problem_id, m, n):
        p = builtin(problem_id)
        a4 = discretize_problem(p, build_mesh(p.a, p.b, m))
        res = tensor_lanczos(a4, p.v, p.w, n)
        assert res.status.completed and res.tri.n == n
        mats = [*res.tri.alphas, *res.tri.betas, res.residual_v.data, res.residual_w.data]
        for hv in res.v_basis + res.w_basis:
            mats.extend(hv.data)
        for mat in mats:
            assert np.all(np.triu(mat, 1) == 0)


class TestClassifyBreakdown:
    def test_exact_zero_residual_is_lucky_v(self):
        m = 3
        z = HyperVec(np.zeros((2, m, m)), "right")
        w = HyperVec(np.ones((2, m, m)), "dual")
        check = classify_breakdown(z, w, 1.0, 1.0, np.eye(m), 1e-13, 1e13)
        assert check.kind == "lucky_breakdown" and check.side == "v"

    def test_identity_beta_is_fine(self):
        m = 3
        v = HyperVec(np.ones((2, m, m)), "right")
        w = HyperVec(np.ones((2, m, m)), "dual")
        check = classify_breakdown(v, w, 1.0, 1.0, np.eye(m), 1e-13, 1e13)
        assert check is None

    def test_huge_condition_is_serious(self):
        v = HyperVec(np.ones((2, 2, 2)), "right")
        w = HyperVec(np.ones((2, 2, 2)), "dual")
        beta = np.diag([1.0, 1e-20])
        check = classify_breakdown(v, w, 1.0, 1.0, beta, 1e-13, 1e13)
        assert check.kind == "serious_breakdown"
        assert check.cond > 1e19

    def test_lucky_takes_precedence(self):
        z = HyperVec(np.zeros((2, 2, 2)), "right")
        w = HyperVec(np.ones((2, 2, 2)), "dual")
        check = classify_breakdown(z, w, 1.0, 1.0, np.zeros((2, 2)), 1e-13, 1e13)
        assert check.kind == "lucky_breakdown"

    # residual scales far from eps_lucky = 1e-13 and condition numbers 10**j
    # far from eps_serious = 10**(e + 0.5), so no case sits on a threshold
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(1, 3), m=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
           v_scale=st.sampled_from([0.0, 1e-30, 1.0]),
           w_scale=st.sampled_from([0.0, 1e-30, 1.0]),
           exps=st.lists(st.integers(-20, 3), min_size=1, max_size=4),
           zero_sigma=st.booleans(), e_serious=st.integers(0, 15))
    def test_rules(self, n, m, seed, v_scale, w_scale, exps, zero_sigma, e_serious):
        rng = np.random.default_rng(seed)
        draw = lambda: rng.uniform(0.5, 1.0, (n, m, m)) * rng.choice([-1, 1], (n, m, m))
        v = HyperVec(v_scale * draw(), "right")
        w = HyperVec(w_scale * draw(), "dual")
        sigma = 10.0 ** np.resize(np.array(exps, dtype=float), m)
        if zero_sigma:
            sigma[-1] = 0.0
        beta = np.diag(sigma)[::-1]  # a permuted diagonal: same singular values
        eps_serious = 10.0 ** (e_serious + 0.5)
        check = classify_breakdown(v, w, 1.0, 1.0, beta, 1e-13, eps_serious)
        cond = np.inf if sigma.min() == 0 else sigma.max() / sigma.min()
        if v_scale < 1.0 or w_scale < 1.0:
            # lucky beats serious, and the V side is checked first
            assert check.kind == "lucky_breakdown"
            assert check.side == ("v" if v_scale < 1.0 else "w")
            assert check.cond is None
        elif cond > eps_serious:
            assert check.kind == "serious_breakdown" and check.side is None
            assert check.cond == pytest.approx(cond, rel=1e-12)
        else:
            assert check is None
        assert check is None or check.k is None


class TestBreakdownRuns:
    def test_diagonal_problem_luckily_breaks(self):
        p = const_problem([[1, 0], [0, 2]], ident="diag2")
        mesh = build_mesh(0.0, 1.0, 6)
        a4 = discretize_problem(p, mesh)
        res = tensor_lanczos(a4, p.v, p.w, 2)
        assert res.status.kind == "lucky_breakdown"
        assert res.status.k == 1
        assert res.tri.n == 1

    def test_constructed_serious_breakdown(self):
        p = const_problem([[0, 1, 1], [1, 0, 0], [-1, 0, 0]], ident="serious3")
        mesh = build_mesh(0.0, 1.0, 8)
        a4 = discretize_problem(p, mesh)
        res = tensor_lanczos(a4, p.v, p.w, 3)
        assert res.status.kind == "serious_breakdown"
        assert res.status.k == 1
        assert res.status.cond > 1e13
        # the completed prefix is still usable
        assert res.tri.n == 1
        assert np.linalg.norm(res.residual_v.data) > 0
        assert np.linalg.norm(res.residual_w.data) > 0


class TestAssembleTridiag:
    def test_single_iteration(self):
        alpha = np.arange(4.0).reshape(2, 2) + 0j
        t4 = assemble_tridiag(TriTensor(2, [alpha], []))
        assert t4.data.shape == (1, 1, 2, 2)
        assert np.array_equal(t4.data[0, 0], alpha)

    def test_two_iteration_pattern(self):
        m = 2
        a1, a2 = np.eye(m) * 2.0, np.eye(m) * 3.0
        beta = np.array([[1.0, 2.0], [0.5, 1.0]])
        t4 = assemble_tridiag(TriTensor(m, [a1, a2], [beta]))
        assert np.array_equal(t4.data[0, 1], np.eye(m))
        assert np.array_equal(t4.data[1, 0], beta)
        assert np.array_equal(t4.data[0, 0], a1)
        assert np.array_equal(t4.data[1, 1], a2)

    def test_projection_identity(self):
        # T_n = W_n * A * V_n pins the off-diagonal placement
        p, mesh, a4, res = run_const3(10)
        tri_t = assemble_tridiag(res.tri)
        proj = star_mul_tt(star_mul_tt(w_basis_tensor(res), a4.to_tensor4()), v_basis_tensor(res))
        num = np.linalg.norm((proj.data - tri_t.data).ravel())
        assert num / np.linalg.norm(tri_t.data.ravel()) < 1e-10


class TestSplitUnitVectors:
    def test_pairs(self):
        (w1, v1), (w2, v2) = split_unit_vectors(0, 0, 2)
        assert np.array_equal(w1, [2.0, 1.0])
        assert np.array_equal(v1, [1.0, 0.0])
        assert np.array_equal(w2, [1.0, 1.0])
        assert np.array_equal(v2, [1.0, 0.0])

    def test_degenerate_single(self):
        (w1, v1), (w2, v2) = split_unit_vectors(0, 0, 1)
        assert np.array_equal(w1, [2.0]) and np.array_equal(w2, [1.0])
        assert np.array_equal(v1, [1.0]) and np.array_equal(v2, [1.0])

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            split_unit_vectors(0, 3, 3)

    def test_subtraction_recovers_direct_run(self):
        p = builtin("const3")
        mesh = build_mesh(p.a, p.b, 10)
        a4 = discretize_problem(p, mesh)
        direct = tensor_lanczos(a4, p.v, p.w, 3)
        s_direct = approx_solution(direct.tri, mesh, direct.normalization).values
        parts = []
        for w, v in split_unit_vectors(0, 0, 3):
            res = tensor_lanczos(a4, v, w, 3)
            # the all-ones probe exhausts its Krylov space on this matrix at
            # n = 2; the lucky prefix is exact, so it is still usable here
            assert res.status.kind in ("completed", "lucky_breakdown")
            parts.append(approx_solution(res.tri, mesh, res.normalization).values)
        recovered = parts[0] - parts[1]
        assert np.linalg.norm(recovered - s_direct) / np.linalg.norm(s_direct) < 1e-10
