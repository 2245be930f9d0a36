import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toelanczos import (
    Problem,
    Term,
    build_mesh,
    builtin,
    convergence_slope,
    discretize_problem,
    err_biorth,
    err_moments,
    err_recurrences,
    err_solution,
    frobenius,
    HyperVec,
    lift,
    lift_dual,
    star_inner,
    star_mul_tv,
    tensor_lanczos,
)
from toelanczos.diagnostics import (
    ErrorReport,
    _moment_pairs,
    report_csv_row,
    report_to_json,
    REPORT_CSV_COLUMNS,
)
from toelanczos.cli import solve
from toelanczos.lanczos import TriTensor, _row_norms, _times_i_power
from toelanczos.tensor_core import ProfileTensor

from oracles import (
    assemble_tridiag,
    dense_mul_tv,
    residual_v_tensor,
    residual_w_tensor,
    star_pow,
    to_block_matrix,
    to_tensor4,
    v_basis_tensor,
    w_basis_tensor,
)

# every builtin with a mesh and iteration count it completes at; nmr1 and
# nmr2 run in float64 on B = -iA, nmr3 in complex128
BUILTIN_RUNS = [("const3", 10, 3), ("timedep5", 10, 5), ("zero1", 6, 1), ("nmr1", 8, 3),
                ("nmr2", 8, 4), ("nmr3", 8, 4)]
# every builtin with an iteration count it completes at for M = 40..250
BENCH_RUNS = [("const3", 3), ("timedep5", 5), ("zero1", 1), ("nmr1", 4), ("nmr2", 4), ("nmr3", 4)]


def rand3():
    """A constant 3x3 problem with random real entries and probes."""
    rng = np.random.default_rng(5)
    mat = rng.standard_normal((3, 3))
    entries = {(k, l): [Term(mat[k, l])] for k in range(3) for l in range(3)}
    return Problem("rand3", 3, 0.0, 1.0, entries, rng.standard_normal(3), rng.standard_normal(3))


def run(problem, m, n):
    mesh = build_mesh(problem.a, problem.b, m)
    a4 = discretize_problem(problem, mesh)
    return a4, tensor_lanczos(a4, problem.v, problem.w, n, keep_walk=True)


def flattened_recurrences(res, a4):
    """(err_V, err_W) from the dense block matrices of the mapped bases and residuals."""
    dense = to_block_matrix(to_tensor4(a4))
    tri = to_block_matrix(assemble_tridiag(res.tri))
    vt, wt = to_block_matrix(v_basis_tensor(res)), to_block_matrix(w_basis_tensor(res))
    av = dense @ vt
    vt_flat = vt @ tri + to_block_matrix(residual_v_tensor(res))
    ev_flat = np.linalg.norm(av - vt_flat) / max(np.linalg.norm(av), np.linalg.norm(vt_flat))
    wa = wt @ dense
    tw_flat = tri @ wt + to_block_matrix(residual_w_tensor(res))
    ew_flat = np.linalg.norm(wa - tw_flat) / max(np.linalg.norm(wa), np.linalg.norm(tw_flat))
    return ev_flat, ew_flat


class TestErrSolution:
    def test_identical(self):
        assert err_solution(np.ones(5), np.ones(5)) == 0.0

    def test_simple_arithmetic(self):
        assert err_solution(np.array([1.0, 1.0]), np.array([1.0, 0.0])) == pytest.approx(1 / np.sqrt(2))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            err_solution(np.ones(3), np.ones(4))

    def test_zero_reference(self):
        with pytest.raises(ValueError, match="all zero"):
            err_solution(np.zeros(3), np.ones(3))


class TestConvergenceSlope:
    def test_exact_first_order(self):
        pts = [(m, 3.7 / m) for m in (10, 100, 1000)]
        assert convergence_slope(pts) == pytest.approx(-1.0, abs=1e-12)

    def test_second_order(self):
        pts = [(m, 2.0 / m**2) for m in (10, 40, 160)]
        assert convergence_slope(pts) == pytest.approx(-2.0, abs=1e-12)

    def test_reference_table_values(self):
        pts = [(10, 8.230e-2), (100, 7.019e-3), (1000, 6.918e-4)]
        assert convergence_slope(pts) == pytest.approx(-1.04, abs=0.01)

    def test_needs_two_points(self):
        # two errors at one M define no slope
        for pts in ([(10, 1.0)], [(10, 1.0), (10, 2.0)]):
            with pytest.raises(ValueError):
                convergence_slope(pts)


class TestMeasuresOnRuns:
    def test_zero_problem_residuals_vanish(self):
        _, res = run(builtin("zero1"), 6, 1)
        ev, ew = err_recurrences(res)
        assert ev < 1e-15 and ew == 0.0

    def test_biorth_single_iteration_exact(self):
        _, res = run(builtin("const3"), 9, 1)
        assert err_biorth(res) < 1e-14

    def test_const3_table_scale(self):
        _, res = run(builtin("const3"), 10, 3)
        assert err_biorth(res) < 1e-12
        ev, ew = err_recurrences(res)
        assert ev < 1e-12 and ew == 0.0

    @pytest.mark.parametrize("m", [40, 120, 250])
    @pytest.mark.parametrize("problem_id,n", [("const3", 3), ("timedep5", 5), ("zero1", 1),
                                              ("nmr1", 4), ("nmr2", 4), ("nmr3", 4)])
    def test_err_v_bounded_at_benchmark_sizes(self, problem_id, n, m):
        # V_{k+1} is formed with the explicit inverse of beta_{k+1}, which is
        # not backward stable the way substitution is; the largest err_V here
        # is 3.0e-13 (timedep5, M=250)
        _, res, _ = solve(builtin(problem_id), m, n, keep_walk=True)
        assert res.status.completed
        assert err_recurrences(res)[0] <= 1e-11

    @pytest.mark.parametrize("problem_id,m,n", BUILTIN_RUNS)
    def test_biorth_finite_and_recomputable(self, problem_id, m, n):
        _, res = run(builtin(problem_id), m, n)
        eo = err_biorth(res)
        assert np.isfinite(eo)
        # brute-force recomputation via flattening, on the bases of the run on A
        vt, wt = v_basis_tensor(res), w_basis_tensor(res)
        prod = to_block_matrix(wt) @ to_block_matrix(vt)
        dev = prod - np.eye(prod.shape[0])
        eo_flat = np.linalg.norm(dev) / max(frobenius(vt), frobenius(wt))
        assert eo == pytest.approx(eo_flat, rel=1e-9, abs=1e-15)

    # zero1's products and residuals are all zero: the flattened ratio is 0/0
    @pytest.mark.parametrize("problem_id,m,n", [("rand3", 8, 3)] + [
        r for r in BUILTIN_RUNS if r[0] != "zero1"])
    def test_recurrences_match_flattening_oracle(self, problem_id, m, n):
        a4, res = run(rand3() if problem_id == "rand3" else builtin(problem_id), m, n)
        assert res.status.completed
        ev, ew = err_recurrences(res)
        assert ew == 0.0
        ev_flat, ew_flat = flattened_recurrences(res, a4)
        assert abs(ev - ev_flat) < 1e-13
        assert abs(ew - ew_flat) < 1e-13

    @pytest.mark.parametrize("problem_id,m,n", [("rand3", 8, 3)] + [
        r for r in BUILTIN_RUNS if r[0] != "zero1"])
    def test_recurrences_far_above_roundoff(self, problem_id, m, n):
        # a perturbed residual lifts err_V far above roundoff, so a relative
        # comparison sees every row's share of each norm; the last row is
        # recorded against it, from its hatted vector: the residual the run
        # stored
        a4, res = run(rand3() if problem_id == "rand3" else builtin(problem_id), m, n)
        walk = res.walk
        rng = np.random.default_rng(17)
        old = res.run_residual_v
        noise = rng.standard_normal(old.data.shape)
        noise *= 1e-3 * frobenius(walk.v_basis[-1]) / np.linalg.norm(noise)
        new = HyperVec(old.data + noise, old.orientation)
        product = star_mul_tv(res.operator, walk.v_basis[-1])
        rows = walk.v_rows[:-1] + [_row_norms(product, HyperVec(old.data - new.data, "right"))]
        res = dataclasses.replace(res, walk=walk._replace(v_rows=rows), run_residual_v=new)
        ev, _ = err_recurrences(res)
        ev_flat, _ = flattened_recurrences(res, a4)
        assert ev > 1e-6
        assert ev == pytest.approx(ev_flat, rel=1e-9)

    def test_moments_zero_for_first_three(self):
        p = builtin("const3")
        _, res = run(p, 10, 3)
        errs = err_moments(res)
        assert np.all(errs[:3] < 1e-13)


def assert_moments_match_powers(res):
    """The run's iterated-product moments against explicit ``*`` powers, relative 1e-12.

    The powers are those of the run's operator ``A / scale`` and of ``T_n``
    of its coefficients ``run_tri``.
    """
    n, m = res.run_tri.n, res.run_tri.m
    t4 = assemble_tridiag(res.run_tri)
    dense = to_tensor4(res.operator)
    e1 = np.zeros(n)
    e1[0] = 1.0
    lhs, rhs = zip(*_moment_pairs(res))
    assert len(lhs) == len(rhs) == 2 * n
    for k in range(2 * n):
        want_l = star_inner(res.walk.w_basis[0],
                            dense_mul_tv(star_pow(dense, k), res.walk.v_basis[0]))
        want_r = star_inner(lift_dual(e1, m), dense_mul_tv(star_pow(t4, k), lift(e1, m)))
        for got, want in ((lhs[k], want_l), (rhs[k], want_r)):
            scale = max(np.linalg.norm(got), np.linalg.norm(want))
            assert np.linalg.norm(got - want) <= 1e-12 * scale


def lifted_left_side(res, v, w, k):
    """Moment k's left side from the lifts of the probes ``v, w`` and ``star_inner``.

    It iterates on the run's operator ``A / scale``.
    """
    m = res.run_tri.m
    cur = lift(v, m)
    for _ in range(k):
        cur = star_mul_tv(res.operator, cur)
    return star_inner(lift_dual(w, m), cur)


def dense_right_side(res, k_max):
    """Block 0 of ``T_n^k e_1`` for k = 0 .. k_max, ``T_n`` of the run's coefficients.

    Dense block-row products of :func:`assemble_tridiag`'s tensor in the
    run's dtype, every block included, each row summed in ascending block order.
    """
    tri = res.run_tri
    t = assemble_tridiag(tri)
    x = np.zeros((tri.n, tri.m, tri.m), t.dtype)
    x[0] = np.eye(tri.m)
    out = []
    for k in range(k_max + 1):
        if k:
            x = np.array([sum((t[i, j] @ x[j] for j in range(tri.n)), np.zeros_like(x[0]))
                          for i in range(tri.n)])
        out.append(x[0])
    return out


class TestMomentMatrices:
    """The moment pairs that ``diagnostics._moment_pairs`` forms and ``err_moments`` compares."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(big_n=st.integers(1, 4), m=st.integers(2, 12), data=st.data(),
           seed=st.integers(0, 2**32 - 1))
    def test_random_constant_problems(self, big_n, m, data, seed):
        n = data.draw(st.integers(1, big_n))
        rng = np.random.default_rng(seed)
        mat = rng.standard_normal((big_n, big_n)) + 1j * rng.standard_normal((big_n, big_n))
        entries = {(k, l): [Term(complex(mat[k, l]))]
                   for k in range(big_n) for l in range(big_n)}
        v, w = rng.standard_normal((2, big_n)) + 1j * rng.standard_normal((2, big_n))
        _, res = run(Problem("rand", big_n, 0.0, 1.0, entries, v, w), m, n)
        assert_moments_match_powers(res)

    @pytest.mark.parametrize("problem_id,m,n", [("const3", 8, 3), ("timedep5", 6, 5),
                                                ("zero1", 5, 1), ("nmr1", 5, 3), ("nmr2", 5, 4),
                                                ("nmr3", 5, 4)])
    def test_builtins(self, problem_id, m, n):
        _, res = run(builtin(problem_id), m, n)
        assert_moments_match_powers(res)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(m=st.integers(1, 8), data=st.data(), seed=st.integers(0, 2**32 - 1))
    def test_right_side_equals_dense_tridiag_powers(self, m, data, seed):
        # the summation order of T_n * x keeps err_m as the dense product gave it
        rng = np.random.default_rng(seed)

        def rand(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        big_n = data.draw(st.integers(1, 4))
        mat = rand(big_n, big_n)
        entries = {(k, l): [Term(complex(mat[k, l]))]
                   for k in range(big_n) for l in range(big_n)}
        p = Problem("rand", big_n, 0.0, 1.0, entries, rand(big_n), rand(big_n))
        _, res = run(p, max(m, 2), data.draw(st.integers(1, big_n)))
        tri = res.run_tri
        t4 = assemble_tridiag(tri)
        e1 = np.zeros(tri.n)
        e1[0] = 1.0
        cur = lift(e1, tri.m)
        _, rhs = zip(*_moment_pairs(res))
        for got in rhs[1:]:
            cur = dense_mul_tv(t4, cur)
            assert np.array_equal(got, star_inner(lift_dual(e1, tri.m), cur))

    @pytest.mark.parametrize("past", [0, 2], ids=["matched", "past-matched"])
    @pytest.mark.parametrize("m", [40, 130])
    @pytest.mark.parametrize("problem_id,n", BENCH_RUNS)
    def test_right_side_equals_dense_powers_on_builtins(self, problem_id, n, m, past):
        # past the matched range, k_max - k + 1 bounds the rows before n does
        _, res = run(builtin(problem_id), m, n)
        k_max = 2 * n - 1 + past
        _, rhs = zip(*_moment_pairs(res, k_max))
        want = dense_right_side(res, k_max)
        assert len(rhs) == len(want) == k_max + 1
        for got, x in zip(rhs, want):
            assert got.dtype == x.dtype and np.array_equal(got, x)

    @pytest.mark.parametrize("problem_id,m,n,products", [("nmr3", 80, 4, 28),
                                                         ("timedep5", 25, 5, 45)])
    def test_right_side_multiplies_live_blocks_only(self, problem_id, m, n, products):
        # of the (2n - 1)^2 block products of the full recurrence, those on a
        # block that is still zero or can no longer reach block 0 are skipped
        calls = []

        class Counted(np.ndarray):
            def __matmul__(self, other):
                calls.append(1)
                return np.asarray(self) @ other

        _, res = run(builtin(problem_id), m, n)
        tri = res.run_tri
        counted = dataclasses.replace(res, run_tri=TriTensor(
            tri.m, [c.view(Counted) for c in tri.alphas], [c.view(Counted) for c in tri.betas]))
        _, got = zip(*_moment_pairs(counted))
        assert len(calls) == products
        assert all(np.array_equal(x, y) for x, y in zip(got, (r for _, r in _moment_pairs(res))))

    @pytest.mark.parametrize("m", [40, 130])  # 130: star_inner runs two strips
    @pytest.mark.parametrize("problem_id,n", BENCH_RUNS)
    def test_left_side_is_the_lifted_inner_product(self, problem_id, n, m):
        _, res = run(builtin(problem_id), m, n)
        v, w = res.run_start
        lhs, _ = zip(*_moment_pairs(res))
        for k, got in enumerate(lhs):
            assert np.array_equal(got, lifted_left_side(res, v, w, k))

    @pytest.mark.parametrize("problem_id,n", [("const3", 3), ("timedep5", 5), ("nmr3", 4)])
    def test_left_side_with_complex_probes(self, problem_id, n):
        # numpy's complex multiply and zgemm may round conj(w_i) * x apart:
        # measured up to 4.6e-16 relative on these and nmr1-2 at M=40 and 130
        rng = np.random.default_rng(0)
        p = builtin(problem_id)
        v, w = rng.standard_normal((2, p.n)) + 1j * rng.standard_normal((2, p.n))
        _, res = run(dataclasses.replace(p, v=v, w=w), 40, n)
        assert res.run_start[1].dtype == np.complex128
        lhs, _ = zip(*_moment_pairs(res))
        for k, got in enumerate(lhs):
            want = lifted_left_side(res, *res.run_start, k)
            assert np.linalg.norm(got - want) <= 1e-15 * np.linalg.norm(want)

    @pytest.mark.parametrize("problem_id,n", [("timedep5", 5), ("nmr2", 4), ("nmr3", 4)])
    def test_left_side_against_the_complex_operator(self, problem_id, n):
        # the lifted product on the discretized A / scale, complex128, at two
        # strips: the float64 runs of timedep5 and of nmr2's B = -iA read the
        # same moments (measured: equal, and nmr2 within 1.9e-18 relative)
        a4, res = run(builtin(problem_id), 130, n)
        op = ProfileTensor(a4.data / res.scale)  # exact: scale is 1 or i
        assert op.data.dtype == np.complex128
        lhs, _ = zip(*_moment_pairs(res))
        cur, w1 = res.walk.v_basis[0], res.walk.w_basis[0]
        for k, got in enumerate(lhs):
            if k:
                cur = star_mul_tv(op, cur)
            want = star_inner(w1, cur)
            assert np.linalg.norm(got - want) <= 1e-15 * np.linalg.norm(want)

    @pytest.mark.parametrize("problem_id,n", BENCH_RUNS)
    def test_right_side_in_the_coefficients_dtype(self, problem_id, n):
        _, res = run(builtin(problem_id), 40, n)
        _, rhs = zip(*_moment_pairs(res))
        dtype = np.result_type(*res.run_tri.alphas, *res.run_tri.betas)
        assert [x.dtype for x in rhs] == [dtype] * (2 * n)
        assert np.array_equal(rhs[0], np.eye(res.tri.m))

    def test_err_moments_past_the_matched_range(self):
        p = builtin("const3")
        _, res = run(p, 10, 2)
        errs = err_moments(res, k_max=6)
        lhs, rhs = zip(*_moment_pairs(res, k_max=6))
        assert errs.shape == (7,)
        den = max(np.linalg.norm(lhs[5]), np.linalg.norm(rhs[5]))
        assert errs[5] == np.linalg.norm(lhs[5] - rhs[5]) / den
        # n = 2 iterations match the moments k = 0..3 only
        assert errs[:4].max() < 1e-13 and errs[4:].min() > 1e-3

    @pytest.mark.parametrize("m", [40, 130])
    @pytest.mark.parametrize("problem_id,n", [("nmr1", 4), ("nmr2", 4)])
    def test_err_moments_are_those_of_a(self, problem_id, n, m):
        # the run on B = -iA measures A's moments: the i-map multiplies both
        # sides of moment k by i^k, an exact unit factor; only the order of
        # the norms' sums may differ, measured at 4.1e-15 relative (nmr2,
        # M=250)
        _, res = run(builtin(problem_id), m, n)
        assert res.scale == 1j and res.operator.data.dtype == np.float64
        want = []
        for k, pair in enumerate(_moment_pairs(res)):
            lhs, rhs = (_times_i_power(x, k) for x in pair)
            want.append(frobenius(lhs - rhs) / max(frobenius(lhs), frobenius(rhs)))
        got = err_moments(res)
        assert got.shape == (2 * n,)
        assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))


class TestReportSerialization:
    def test_json_and_csv(self):
        report = ErrorReport(1e-15, 2e-16, 0.0, np.array([0.0, 1e-16]), 0.08,
                             meta={"problem": "const3", "M": 10, "n": 3,
                                   "status": "completed"})
        doc = json.loads(report_to_json(report))
        assert doc["err_o"] == 1e-15 and doc["err_sol"] == 0.08
        row = report_csv_row(report)
        assert len(row.split(",")) == len(REPORT_CSV_COLUMNS)
        assert row.startswith("const3,10,3,")
