import tracemalloc
from collections import Counter

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from toelanczos import (
    HyperVec,
    Problem,
    ProfileTensor,
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
    star_mul_tv,
    star_mul_vt,
    tensor_lanczos,
)
from toelanczos import cli, diagnostics, lanczos, resolvent
from toelanczos.cli import solve
from toelanczos.lanczos import TriTensor, _inverse_lower, _v_update, _w_update
from toelanczos.tensor_core import ShapeError, star_mul_tt, vec_times_coef
from oracles import (
    assemble_tridiag,
    complex_lanczos,
    dense_mul_tv,
    dense_mul_vt,
    residual_v,
    residual_w,
    solve_lower,
    times_inverse_right,
    to_tensor4,
    v_basis,
    v_basis_tensor,
    w_basis,
    w_basis_tensor,
)


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
    return p, mesh, a4, tensor_lanczos(a4, p.v, p.w, n, keep_walk=True)


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
        assert np.array_equal(res.tri.alphas[0], to_tensor4(a4).data[0, 0])

    def test_completed_shape(self):
        _, _, _, res = run_const3(8)
        assert res.status.completed
        assert res.tri.n == 3
        assert len(res.walk.v_basis) == 3 and len(res.walk.w_basis) == 3
        assert len(res.tri.betas) == 2

    def test_moment_matching_exercises_theorem(self):
        p, mesh, a4, res = run_const3(10)
        errs = err_moments(res)
        assert errs.shape == (6,)
        assert np.all(errs < 1e-12)

    def test_low_moments_exact(self):
        p, mesh, a4, res = run_const3(12)
        wv = star_inner(w_basis(res)[0], v_basis(res)[0])
        assert np.linalg.norm(wv - np.eye(12)) < 1e-14
        errs = err_moments(res, k_max=2)
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
        # the exact-zero beta inverse relies on the profile form's lower-triangular slices
        p = builtin("const3")
        a4 = discretize_problem(p, build_mesh(p.a, p.b, 5))
        with pytest.raises(TypeError, match="ProfileTensor"):
            tensor_lanczos(to_tensor4(a4), p.v, p.w, 2)

    @pytest.mark.parametrize("eps", [{"eps_lucky": np.nan}, {"eps_serious": np.nan}],
                             ids=["eps_lucky", "eps_serious"])
    def test_rejects_nan_thresholds(self, eps):
        # a comparison with NaN is always false, so a NaN threshold switches its check off
        p = builtin("const3")
        a4 = discretize_problem(p, build_mesh(p.a, p.b, 5))
        with pytest.raises(ValueError, match="NaN"):
            tensor_lanczos(a4, p.v, p.w, 2, **eps)

    def test_rejects_non_square_operator(self):
        with pytest.raises(ShapeError, match="square outer modes"):
            tensor_lanczos(ProfileTensor(np.ones((2, 3, 5))), np.ones(2), np.ones(2), 2)

    def test_rejects_probes_of_the_wrong_length(self):
        with pytest.raises(ShapeError, match="length N"):
            tensor_lanczos(ProfileTensor(np.ones((3, 3, 5))), np.ones(2), np.ones(2), 2)

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
        res = tensor_lanczos(a4, p.v, p.w, n, keep_walk=True)
        assert res.status.completed and res.tri.n == n
        mats = [*res.tri.alphas, *res.tri.betas, residual_v(res).data, residual_w(res).data]
        for hv in v_basis(res) + w_basis(res):
            mats.extend(hv.data)
        for mat in mats:
            assert np.all(np.triu(mat, 1) == 0)


class TestRunArithmetic:
    """The recurrence runs in float64 where the data allow it, and maps back exactly."""

    @pytest.mark.parametrize("problem_id,dtype,scale", [
        ("const3", np.float64, 1), ("timedep5", np.float64, 1), ("zero1", np.float64, 1),
        ("nmr1", np.float64, 1j), ("nmr2", np.float64, 1j), ("nmr3", np.complex128, 1)])
    def test_run_dtype_per_builtin(self, problem_id, dtype, scale):
        p = builtin(problem_id)
        a4 = discretize_problem(p, build_mesh(p.a, p.b, 8))
        res = tensor_lanczos(a4, p.v, p.w, min(p.n, 3), keep_walk=True)
        assert res.status.completed and res.scale == scale
        run = [*res.run_tri.alphas, *res.run_tri.betas, res.run_residual_v.data,
               res.run_residual_w.data, *(hv.data for hv in res.walk.v_basis + res.walk.w_basis)]
        assert all(x.dtype == dtype for x in run)
        # the i*B coefficients are mapped to complex ones; a real run's stay real
        want = np.complex128 if scale == 1j else dtype
        assert all(c.dtype == want for c in (*res.tri.alphas, *res.tri.betas))

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(big_n=st.integers(2, 4), m=st.integers(1, 8), data=st.data(),
           seed=st.integers(0, 2**32 - 1))
    def test_real_and_imaginary_profiles_match_complex_iteration(self, big_n, m, data, seed):
        # n < N keeps the Krylov space from running out, where the residual is
        # pure roundoff; kappa <= 10 keeps the non-Hermitian process from
        # amplifying the roundoff of the differently ordered reference kernels
        n = data.draw(st.integers(1, big_n - 1))
        rng = np.random.default_rng(seed)
        b = rng.standard_normal((big_n, big_n, m))
        v, w = rng.standard_normal(big_n), rng.standard_normal(big_n)
        for scale in (1, 1j):
            a4 = ProfileTensor(scale * b)
            dense = to_tensor4(a4)
            ref = complex_lanczos(dense, v, w, n)
            kappa = max(np.linalg.norm(x) * np.linalg.norm(y) / m
                        for x, y in zip(ref["v_basis"], ref["w_basis"]))
            assume(kappa <= 10)
            res = tensor_lanczos(a4, v, w, n, keep_walk=True)
            assert res.status.completed and res.scale == scale
            assert not np.iscomplexobj(res.run_tri.alphas[0])
            pairs = [*zip(res.tri.alphas, ref["alphas"]), *zip(res.tri.betas, ref["betas"]),
                     *((hv.data, x) for hv, x in zip(v_basis(res), ref["v_basis"])),
                     *((hv.data, x) for hv, x in zip(w_basis(res), ref["w_basis"]))]
            for got, want in pairs:
                assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
            # a residual is a difference of the products it came from: measure
            # it against them
            av = dense_mul_tv(dense, HyperVec(ref["v_basis"][-1], "right")).data
            wa = dense_mul_vt(HyperVec(ref["w_basis"][-1], "dual"), dense).data
            for got, want, scale_of in ((residual_v(res), ref["residual_v"], av),
                                        (residual_w(res), ref["residual_w"], wa)):
                assert np.linalg.norm(got.data - want) <= 1e-12 * np.linalg.norm(scale_of)

    def test_float_data_not_copied(self):
        rng = np.random.default_rng(0)
        profiles, slices = rng.standard_normal((2, 2, 5)), rng.standard_normal((2, 5, 5))
        assert ProfileTensor(profiles).data is profiles
        assert HyperVec(slices).data is slices
        p = builtin("nmr2")
        a4 = discretize_problem(p, build_mesh(p.a, p.b, 6))
        res = tensor_lanczos(a4, p.v, p.w, 2)
        # the run's operator is a view of the imaginary profiles
        assert np.shares_memory(res.operator.data, a4.data)


def random_lower(rng, m, complex_):
    """Lower triangular with diagonals of size 0.25..1 under entries up to 4.

    Partial pivoting on this orientation would swap rows.
    """
    x = np.tril(rng.uniform(-4, 4, (m, m)), -1)
    if complex_:
        x = x + 1j * np.tril(rng.uniform(-4, 4, (m, m)), -1)
    return x + np.diag(rng.uniform(0.25, 1, m) * rng.choice([-1, 1], m))


class TestTriangularSolves:
    """``beta^{-1}`` and the resolvent levels: one exact-zero inverse on numpy's LAPACK."""

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(m=st.integers(1, 8), big_n=st.integers(1, 4), complex_=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_both_call_sites_match_scipy(self, m, big_n, complex_, seed):
        rng = np.random.default_rng(seed)
        beta = random_lower(rng, m, complex_)
        slices = np.stack([random_lower(rng, m, complex_) for _ in range(big_n)])
        inverse, cond = _inverse_lower(beta)
        # the loop's GEMM on the stacked slices, and a resolvent level's
        # inverse and Schur term
        cases = [((slices.reshape(-1, m) @ inverse).reshape(slices.shape),
                  times_inverse_right(slices, beta))]
        cases += [(inverse, solve_lower(beta, np.eye(m))),
                  (inverse @ slices[0], solve_lower(beta, slices[0]))]
        tol = 16 * m * np.linalg.cond(beta, 1) * np.finfo(float).eps
        # the condition number that the breakdown test and the resolvent read
        assert cond == pytest.approx(np.linalg.cond(beta, 1), rel=tol)
        for got, want in cases:
            assert np.linalg.norm(got - want) <= tol * np.linalg.norm(want)
            assert np.all(np.triu(got, 1) == 0)

    @pytest.mark.parametrize("operand", ["u", "b"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_operand_raises(self, monkeypatch, operand, bad):
        # "u": the inverted matrix itself, which the helper reports as
        # unusable; "b": the residual that the loop's GEMM multiplies, which
        # reaches the loop's guard through beta = W^D * V_hat
        if operand == "u":
            l = np.tril(np.ones((3, 3)))
            l[2, 0] = bad
            x, cond = _inverse_lower(l)
            assert x is None and cond == np.inf
            return
        v_update = lanczos._v_update

        def poisoned(*args, **kwargs):
            out = v_update(*args, **kwargs)
            out[0, 2, 0] = bad
            return out

        monkeypatch.setattr(lanczos, "_v_update", poisoned)
        monkeypatch.setattr(lanczos, "classify_breakdown", lambda *args: None)
        p = builtin("timedep5")
        a4 = discretize_problem(p, build_mesh(p.a, p.b, 8))
        with pytest.raises(ValueError, match="k=1: beta_2 contains infs or NaNs"):
            tensor_lanczos(a4, p.v, p.w, 3)

    def test_nan_residual_stopped_at_the_solve(self, monkeypatch):
        # the loop's coefficient check stops a NaN profile at alpha_1, before
        # the breakdown check (bypassed here) and the inverse of beta
        p = builtin("timedep5")
        a4 = discretize_problem(p, build_mesh(p.a, p.b, 8))
        profiles = a4.data.copy()
        profiles[0, 1, 3] = np.nan
        monkeypatch.setattr(lanczos, "classify_breakdown", lambda *args: None)
        with pytest.raises(ValueError, match="infs or NaNs"):
            tensor_lanczos(ProfileTensor(profiles), p.v, p.w, 3)

    @pytest.mark.parametrize("l", [
        pytest.param(np.diag([1.0, 0.0, 2.0]), id="zero-diagonal"),
        pytest.param(np.tril(np.full((4, 4), 1e300), -1) + 1e-300 * np.eye(4),
                     id="inverse-overflows"),
    ])
    def test_unusable_inverse_is_none_with_infinite_condition(self, l):
        x, cond = _inverse_lower(l)
        assert x is None and cond == np.inf

    @pytest.mark.parametrize("problem_id,m,n", [("timedep5", 25, 5), ("nmr3", 20, 4)])
    def test_no_solve_triangular_or_svd_in_pipeline(self, monkeypatch, problem_id, m, n):
        # scipy's wheel bundles its own OpenBLAS; alternating its thread pool
        # with numpy's oversubscribes the cores.  The breakdown test reads
        # kappa_1 from the inverse the loop forms, so no SVD runs either.
        def refuse(*args, **kwargs):
            raise AssertionError("solve_triangular runs on scipy's OpenBLAS")

        def refuse_svd(*args, **kwargs):
            raise AssertionError("an SVD on the solve path")

        for namespace in (scipy.linalg, lanczos, resolvent):
            monkeypatch.setattr(namespace, "solve_triangular", refuse, raising=False)
        monkeypatch.setattr(np.linalg, "svd", refuse_svd)
        p = builtin(problem_id)
        _, res, sol = solve(p, m, n)
        assert res.status.completed and res.tri.n == n
        assert np.all(np.isfinite(sol.values))


class TestTracedKernels:
    """The benchmark times ``star_mul_tv``, ``star_mul_vt`` and ``star_inner`` by name.

    Its tracer wraps them where ``lanczos`` and ``diagnostics`` import them;
    a kernel reached another way would drop out of its ``tensor_core.*``
    metrics without an error, so the counts are pinned here.
    """

    KERNELS = ("star_mul_tv", "star_mul_vt", "star_inner")

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = Counter()

        def counted(fn, key):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        for module in (lanczos, diagnostics):
            for name in self.KERNELS:
                key = (module.__name__.rsplit(".", 1)[-1], name)
                monkeypatch.setattr(module, name, counted(getattr(module, name), key))
        monkeypatch.setattr(lanczos, "_inverse_lower",
                            counted(lanczos._inverse_lower, ("lanczos", "_inverse_lower")))
        return calls

    @pytest.mark.parametrize("problem_id,n,m", [
        pytest.param("timedep5", 4, 12, id="timedep5-4"),
        pytest.param("nmr3", 3, 12, id="nmr3-3"),
        # two mesh strips: the strip loops stay inside the traced kernels
        pytest.param("timedep5", 3, 130, id="timedep5-3-M130"),
    ])
    def test_call_counts(self, calls, tmp_path, problem_id, n, m):
        p = builtin(problem_id)
        res = tensor_lanczos(discretize_problem(p, build_mesh(p.a, p.b, m)), p.v, p.w, n)
        assert res.status.completed
        # one inverse of each beta_2..beta_n
        loop = {("lanczos", "star_mul_tv"): n, ("lanczos", "star_mul_vt"): n,
                ("lanczos", "star_inner"): 2 * n - 1, ("lanczos", "_inverse_lower"): n - 1}
        assert calls == Counter(loop)
        calls.clear()
        assert cli.main(["run", "--problem", problem_id, "--M", str(m), "--n", str(n),
                         "--output", str(tmp_path / "r")]) == 0
        # the loop records the walk that the recurrences and biorthogonality
        # read, so it runs once; moments: 2n-1 products, and no inner product,
        # since they read the probe w as a vector; biorthogonality: the n x n table
        assert calls == Counter({**loop, ("diagnostics", "star_mul_tv"): 2 * n - 1,
                                 ("diagnostics", "star_inner"): n * n})
        # loop and moments: a walk rebuilt after the loop would add n
        tv = sum(c for (_, name), c in calls.items() if name == "star_mul_tv")
        assert tv == n + (2 * n - 1)


class TestClassifyBreakdown:
    def test_exact_zero_residual_is_lucky_v(self):
        m = 3
        z = HyperVec(np.zeros((2, m, m)), "right")
        w = HyperVec(np.ones((2, m, m)), "dual")
        check = classify_breakdown(z, w, 1.0, 1.0, 1.0, 1e-13, 1e13)
        assert check.kind == "lucky_breakdown" and check.side == "v"

    def test_identity_beta_is_fine(self):
        m = 3
        v = HyperVec(np.ones((2, m, m)), "right")
        w = HyperVec(np.ones((2, m, m)), "dual")
        _, cond = _inverse_lower(np.eye(m))
        assert cond == 1.0
        check = classify_breakdown(v, w, 1.0, 1.0, cond, 1e-13, 1e13)
        assert check is None

    def test_huge_condition_is_serious(self):
        v = HyperVec(np.ones((2, 2, 2)), "right")
        w = HyperVec(np.ones((2, 2, 2)), "dual")
        _, cond = _inverse_lower(np.diag([1.0, 1e-20]))
        check = classify_breakdown(v, w, 1.0, 1.0, cond, 1e-13, 1e13)
        assert check.kind == "serious_breakdown"
        assert check.cond > 1e19

    def test_lucky_takes_precedence(self):
        z = HyperVec(np.zeros((2, 2, 2)), "right")
        w = HyperVec(np.ones((2, 2, 2)), "dual")
        check = classify_breakdown(z, w, 1.0, 1.0, np.inf, 1e-13, 1e13)
        assert check.kind == "lucky_breakdown"

    # residual scales far from eps_lucky = 1e-13 and condition numbers 10**j
    # far from eps_serious = 10**(e + 0.5), so no case sits on a threshold;
    # an infinite eps_serious still stops at an infinite condition number
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(1, 3), m=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
           v_scale=st.sampled_from([0.0, 1e-30, 1.0]),
           w_scale=st.sampled_from([0.0, 1e-30, 1.0]),
           exps=st.lists(st.integers(-20, 3), min_size=1, max_size=4),
           zero_sigma=st.booleans(), e_serious=st.sampled_from([*range(16), np.inf]))
    def test_rules(self, n, m, seed, v_scale, w_scale, exps, zero_sigma, e_serious):
        rng = np.random.default_rng(seed)
        draw = lambda: rng.uniform(0.5, 1.0, (n, m, m)) * rng.choice([-1, 1], (n, m, m))
        v = HyperVec(v_scale * draw(), "right")
        w = HyperVec(w_scale * draw(), "dual")
        sigma = 10.0 ** np.resize(np.array(exps, dtype=float), m)
        if zero_sigma:
            sigma[-1] = 0.0
        # a diagonal beta: kappa_1 = kappa_2 = max / min
        _, beta_cond = _inverse_lower(np.diag(sigma))
        eps_serious = 10.0 ** (e_serious + 0.5)
        check = classify_breakdown(v, w, 1.0, 1.0, beta_cond, 1e-13, eps_serious)
        cond = np.inf if sigma.min() == 0 else sigma.max() / sigma.min()
        if v_scale < 1.0 or w_scale < 1.0:
            # lucky beats serious, and the V side is checked first
            assert check.kind == "lucky_breakdown"
            assert check.side == ("v" if v_scale < 1.0 else "w")
            assert check.cond is None
        elif cond == np.inf or cond > eps_serious:
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
        assert np.linalg.norm(res.run_residual_v.data) > 0
        assert np.linalg.norm(res.run_residual_w.data) > 0

    @pytest.mark.parametrize("m", [12, 130, 250])
    def test_criterion9_breakdown_at_every_strip_count(self, m):
        # beta_2 is exactly singular only if star_inner keeps each entry's
        # ascending slice sum; at M=130 and 250 it runs over 2 and 3 strips.
        # An infinite condition number stops the run whatever eps_serious is.
        p = const_problem([[0, 1, 1], [1, 1, 1], [-1, 0, 2]], ident="serious3")
        a4 = discretize_problem(p, build_mesh(0.0, 1.0, m))
        for eps_serious in (lanczos.DEFAULT_EPS_SERIOUS, np.inf):
            res = tensor_lanczos(a4, p.v, p.w, 3, eps_serious=eps_serious)
            assert res.status.kind == "serious_breakdown", eps_serious
            assert res.status.k == 1 and res.status.cond == float("inf")

    def test_nmr3_m200_stops_at_k7_with_a_usable_prefix(self):
        # beta_8 has kappa_1 = 6.7e13 above eps_serious = 1e13, and
        # kappa_2 = 8.2e12 below it; the 7-term prefix gives a finite solution
        _, res, sol = solve(builtin("nmr3"), 200, 9)
        assert res.status.kind == "serious_breakdown" and res.status.k == 7
        assert res.tri.n == 7 and res.status.cond > lanczos.DEFAULT_EPS_SERIOUS
        assert sol is not None and np.all(np.isfinite(sol.values))


class TestUpdates:
    """Where the residual updates are formed, and what they form.

    ``_v_update`` forms its residual in the fresh buffer of ``V_k x
    alpha_k``, never in an operand, or, given a workspace buffer ``tmp``, in
    ``A*V_k``'s own.  ``_w_update`` always forms its residual in ``W_k*A``'s
    buffer, with ``tmp`` for the coefficient products.
    """

    @staticmethod
    def second_step(problem_id):
        # M=130: the coefficient products run over two strips
        p = builtin(problem_id)
        res = tensor_lanczos(discretize_problem(p, build_mesh(p.a, p.b, 130)), p.v, p.w, 2,
                             keep_walk=True)
        tri = res.run_tri
        return res, res.walk.v_basis, res.walk.w_basis, tri.alphas[1], tri.betas[0]

    @pytest.mark.parametrize("problem_id", ["nmr2", "nmr3"])
    def test_operands_unchanged(self, problem_id):
        res, vb, _, alpha, _ = self.second_step(problem_id)
        av = star_mul_tv(res.operator, vb[1])
        operands = [av.data, *(hv.data for hv in vb), alpha]
        before = [x.copy() for x in operands]
        got = [_v_update(av, vb[1], alpha), _v_update(av, vb[1], alpha, vb[0])]
        for x, y in zip(operands, before):
            assert np.array_equal(x, y)
        # the grouping (x - y) - z, bit for bit
        v_first = av.data - vec_times_coef(vb[1], alpha).data
        want = [v_first, v_first - vb[0].data]
        for g, x in zip(got, want):
            assert np.array_equal(g, x)

        # with a workspace buffer the same bits are formed in the kernel output's buffer
        tmp = np.empty(av.mesh.shape, av.data.dtype)
        in_place = _v_update(av, vb[1], alpha, vb[0], tmp=tmp)
        assert np.shares_memory(in_place, av.data) and np.array_equal(in_place, want[1])

    @pytest.mark.parametrize("problem_id", ["nmr2", "nmr3"])
    def test_w_update_writes_only_its_product(self, problem_id):
        res, _, wb, alpha, beta = self.second_step(problem_id)
        wa = star_mul_vt(wb[1], res.operator)
        # (W_k*A - alpha_k W_k) - beta_k W_{k-1}, slice by slice; the strips
        # sum in another order (measured: equal on nmr2, 1.8e-17 relative on nmr3)
        want = (wa.data - alpha @ wb[1].data) - beta @ wb[0].data
        operands = [*(hv.data for hv in wb), alpha, beta]
        before = [x.copy() for x in operands]
        tmp = np.empty(wa.mesh.shape, wa.data.dtype)
        got = _w_update(wa, alpha, wb[1], beta, wb[0], tmp=tmp)
        for x, y in zip(operands, before):
            assert np.array_equal(x, y)
        assert np.shares_memory(got, wa.data) and got.shape == want.shape
        assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)


class TestWorkspace:
    """The loop rotates a fixed set of buffers, or keeps its bases when it records the walk.

    A recording run forms ``V_hat`` and its bases in fresh buffers; every
    kernel and update gives the same bits there as in the workspace, so it
    is the run that keeps none, bit for bit.
    """

    @staticmethod
    def run_values(res):
        return [*res.run_tri.alphas, *res.run_tri.betas, res.run_residual_v.data,
                res.run_residual_w.data]

    def assert_records_the_run(self, a4, v, w, n):
        plain, res = (tensor_lanczos(a4, v, w, n, keep_walk=keep) for keep in (False, True))
        assert plain.walk is None and res.status == plain.status
        assert all(np.array_equal(x, y) for x, y in
                   zip(self.run_values(res), self.run_values(plain), strict=True))
        walk = res.walk
        assert len(walk.v_basis) == len(walk.w_basis) == len(walk.v_rows) == res.run_tri.n
        dtype = res.operator.data.dtype
        assert all(hv.data.dtype == dtype for hv in walk.v_basis + walk.w_basis)
        # the stored residual is the last row's V_hat, and W_{k+1} is W_hat
        row = walk.v_rows[-1]
        assert row[1] == 0.0 and row[0] == row[2]
        assert diagnostics.err_recurrences(res)[1] == 0.0
        return res

    # past their Krylov dimension const3 stops lucky, timedep5 and nmr1 seriously
    @pytest.mark.parametrize("m", [40, 130])
    @pytest.mark.parametrize("problem_id,n,kind", [
        ("const3", 5, "lucky_breakdown"), ("timedep5", 7, "serious_breakdown"),
        ("zero1", 1, "completed"), ("nmr1", 8, "serious_breakdown"), ("nmr2", 4, "completed"),
        ("nmr3", 4, "completed")])
    def test_recording_is_the_run(self, problem_id, n, kind, m):
        p = builtin(problem_id)
        a4 = discretize_problem(p, build_mesh(p.a, p.b, m))
        assert self.assert_records_the_run(a4, p.v, p.w, n).status.kind == kind

    def test_recording_is_the_run_with_complex_probes(self):
        p = builtin("timedep5")
        a4 = discretize_problem(p, build_mesh(p.a, p.b, 130))
        v = p.v + 0.5j * np.arange(p.n)
        res = self.assert_records_the_run(a4, v, p.w - 0.25j, 4)
        assert res.status.completed and res.operator.data.dtype == np.complex128

    def test_measures_need_the_walk(self):
        p, _, a4, res = run_const3(10)
        plain = tensor_lanczos(a4, p.v, p.w, 3)
        assert np.array_equal(err_moments(plain), err_moments(res))
        for measure in (diagnostics.err_recurrences, diagnostics.err_biorth):
            with pytest.raises(ValueError, match="keep_walk=True"):
                measure(plain)

    @pytest.mark.parametrize("caller", [
        pytest.param(lambda p, a4, m, n: tensor_lanczos(a4, p.v, p.w, n), id="tensor_lanczos"),
        pytest.param(lambda p, a4, m, n: solve(p, m, n)[1], id="cli.solve"),
    ])
    def test_solve_path_memory_flat_in_n(self, caller):
        # nmr2 runs in float64; one hypervector is M * N * M * 8 bytes = 1.76 MiB
        p = builtin("nmr2")
        m = 120
        a4 = discretize_problem(p, build_mesh(p.a, p.b, m))
        hypervector = m * p.n * m * 8
        peaks = []
        for n in (3, 6):
            tracemalloc.start()
            try:
                res = caller(p, a4, m, n)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert res.status.completed and res.tri.n == n
            del res
        assert abs(peaks[1] - peaks[0]) < hypervector
        # the loop's seven buffers, with the coefficients and a copy of the profiles
        assert peaks[0] < 8 * hypervector

    @pytest.mark.parametrize("problem_id,m,n", [("nmr3", 80, 4), ("nmr3", 80, 6),
                                                ("timedep5", 100, 5), ("nmr2", 120, 4)])
    def test_recording_keeps_its_bases_and_frees_each_row(self, problem_id, m, n):
        # a recording run keeps the 2n bases more than a plain one; its peak
        # above what it keeps is A*V_k's buffer and the temporary, 2.0
        # hypervectors, and 3.0 if a spent V_hat outlives the next one's
        # product; the walk rebuilt after the loop held 4.0 above its bases
        p = builtin(problem_id)
        a4 = discretize_problem(p, build_mesh(p.a, p.b, m))
        traced = []
        for keep in (False, True):
            tracemalloc.start()
            try:
                res = tensor_lanczos(a4, p.v, p.w, n, keep_walk=keep)
                traced.append(tracemalloc.get_traced_memory())
            finally:
                tracemalloc.stop()
        hypervector = res.run_residual_v.data.nbytes
        (plain_kept, _), (kept, peak) = traced
        assert abs(kept - plain_kept - 2 * res.run_tri.n * hypervector) < 0.05 * hypervector
        assert peak - kept <= 2.5 * hypervector

    @pytest.mark.parametrize("problem_id,m,n", [("timedep5", 25, 5), ("timedep5", 100, 5),
                                                ("nmr3", 80, 4), ("const3", 200, 3)])
    def test_err_biorth_frees_each_entry(self, problem_id, m, n):
        # above the walk's bases, err_biorth holds one W_i * V_j entry (and
        # its deviation from I) at a time, not the n^2 of the whole table
        res = solve(builtin(problem_id), m, n, keep_walk=True)[1]
        hypervector = res.run_residual_v.data.nbytes
        tracemalloc.start()
        try:
            diagnostics.err_biorth(res)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * hypervector

    @pytest.mark.parametrize("problem_id,m,n", [("timedep5", 25, 5), ("timedep5", 100, 5),
                                                ("const3", 200, 3)])
    def test_err_moments_frees_each_pair(self, problem_id, m, n):
        # err_moments holds one moment pair at a time, beside the Krylov
        # vector, its next product and the live right-side blocks (measured
        # 4.3-4.7 hypervectors); holding all 2n pairs first peaked at 6.7-7.3
        res = solve(builtin(problem_id), m, n)[1]
        hypervector = res.run_residual_v.data.nbytes
        tracemalloc.start()
        try:
            diagnostics.err_moments(res)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 5 * hypervector


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
        proj = star_mul_tt(star_mul_tt(w_basis_tensor(res), to_tensor4(a4)), v_basis_tensor(res))
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
