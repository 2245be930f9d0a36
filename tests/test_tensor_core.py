import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toelanczos import (
    HyperVec,
    OrientationError,
    ProfileTensor,
    ShapeError,
    build_mesh,
    builtin,
    discretize_problem,
    frobenius,
    lift,
    lift_dual,
    star_inner,
    star_mul_tv,
    star_mul_vt,
    tensor_lanczos,
)
from toelanczos.tensor_core import (
    BlockStructure,
    _from_mesh,
    _mesh,
    _prefix_sum,
    _strips,
    coef_times_vec,
    star_mul_tt,
    vec_times_coef,
)
from oracles import (
    dense_mul_tv,
    dense_mul_vt,
    from_block_matrix,
    scale_t,
    scale_v,
    star_identity,
    star_pow,
    to_block_matrix,
    to_tensor4,
)


def rand_t4(rng, n1, n2, m):
    return rng.standard_normal((n1, n2, m, m)) + 1j * rng.standard_normal((n1, n2, m, m))


def rand_hv(rng, n, m, orientation="right"):
    return HyperVec(rng.standard_normal((n, m, m)) + 1j * rng.standard_normal((n, m, m)), orientation)


def rand_profile(rng, n1, m, empty=None, n2=None):
    """Random complex profiles; slices where ``empty`` is set are zero."""
    n2 = n1 if n2 is None else n2
    if empty is None:
        empty = np.zeros((n1, n2), dtype=bool)
    data = rng.standard_normal((n1, n2, m)) + 1j * rng.standard_normal((n1, n2, m))
    data[empty] = 0.0
    return ProfileTensor(data)


def rel_err(x, y):
    return np.linalg.norm((x - y).ravel()) / max(np.linalg.norm(y.ravel()), 1e-300)


class TestStarMulTT:
    def test_identity_is_neutral(self):
        rng = np.random.default_rng(0)
        a = rand_t4(rng, 2, 3, 4)
        out = star_mul_tt(a, star_identity(3, 4))
        assert np.allclose(out, a, rtol=0, atol=0)

    def test_degenerate_modes_reduce_to_scalars(self):
        a = np.array(2.0 + 1j).reshape(1, 1, 1, 1)
        b = np.array(3.0 - 1j).reshape(1, 1, 1, 1)
        out = star_mul_tt(a, b)
        assert out[0, 0, 0, 0] == (2 + 1j) * (3 - 1j)

    def test_matches_block_matrix_oracle(self):
        rng = np.random.default_rng(1)
        a = rand_t4(rng, 2, 2, 3)
        b = rand_t4(rng, 2, 2, 3)
        direct = to_block_matrix(star_mul_tt(a, b))
        oracle = to_block_matrix(a) @ to_block_matrix(b)
        assert rel_err(direct, oracle) < 1e-13

    def test_shape_error(self):
        rng = np.random.default_rng(2)
        with pytest.raises(ShapeError):
            star_mul_tt(rand_t4(rng, 2, 3, 4), rand_t4(rng, 2, 3, 4))

    @pytest.mark.parametrize("shapes", [
        ((2, 3, 4, 4), (3, 2, 5, 5)),  # inner sizes differ
        ((2, 3, 4, 5), (3, 2, 4, 5)),  # slices not square
        ((2, 3, 4), (3, 2, 4)),  # profiles, not slices
        ((2, 3, 4, 4), (3, 2, 4, 4, 1)),  # one operand of five modes
    ], ids=["inner", "nonsquare", "three_modes", "five_modes"])
    def test_nonconforming_shapes_raise(self, shapes):
        with pytest.raises(ShapeError, match="cannot \\*-multiply"):
            star_mul_tt(*(np.zeros(shape) for shape in shapes))

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128], ids=["float64", "complex128"])
    def test_product_keeps_the_operands_dtype(self, dtype):
        # a real run's dense oracle stays real: no operand is cast to complex
        rng = np.random.default_rng(37)
        a, b = rand_t4(rng, 2, 3, 4), rand_t4(rng, 3, 2, 4)
        if dtype == np.float64:
            a, b = a.real.copy(), b.real.copy()
        out = star_mul_tt(a, b)
        assert type(out) is np.ndarray and out.dtype == dtype
        assert rel_err(to_block_matrix(out), to_block_matrix(a) @ to_block_matrix(b)) < 1e-13

    def test_triangularity_closure_bit_exact(self):
        rng = np.random.default_rng(3)
        m = 5
        tri = np.tril(rng.standard_normal((2, 2, m, m)))
        out = star_mul_tt(tri, tri.copy())
        upper = np.triu(out, k=1)
        assert np.all(upper == 0.0)

    def test_zero_slices_match_block_oracle(self):
        rng = np.random.default_rng(4)
        data = rng.standard_normal((3, 3, 4, 4)) + 0j
        data[0, 1] = 0.0
        data[2, :] = 0.0
        b = rand_t4(rng, 3, 2, 4)
        out = star_mul_tt(data, b)
        oracle = to_block_matrix(data) @ to_block_matrix(b)
        assert rel_err(to_block_matrix(out), oracle) < 1e-15
        assert np.all(out[2] == 0)


class TestHyperVecProducts:
    def test_identity_action(self):
        rng = np.random.default_rng(5)
        v = rand_hv(rng, 3, 4)
        out = dense_mul_tv(star_identity(3, 4), v)
        assert np.allclose(out.data, v.data, rtol=0, atol=0)

    def test_selector_column(self):
        rng = np.random.default_rng(6)
        a = rand_profile(rng, 3, 4)
        e1 = np.zeros(3)
        e1[0] = 1.0
        out = star_mul_tv(a, lift(e1, 4))
        assert np.allclose(out.data, to_tensor4(a)[:, 0], atol=1e-15)

    def test_selector_row(self):
        rng = np.random.default_rng(7)
        a = rand_profile(rng, 3, 4)
        e1 = np.zeros(3)
        e1[0] = 1.0
        out = star_mul_vt(lift_dual(e1, 4), a)
        assert np.allclose(out.data, to_tensor4(a)[0, :], atol=1e-15)

    def test_tv_block_oracle(self):
        rng = np.random.default_rng(8)
        a = rand_profile(rng, 3, 4)
        v = rand_hv(rng, 3, 4)
        direct = star_mul_tv(a, v).data.reshape(12, 4)
        oracle = to_block_matrix(to_tensor4(a)) @ v.data.reshape(12, 4)
        assert rel_err(direct, oracle) < 1e-13

    def test_vt_block_oracle(self):
        rng = np.random.default_rng(9)
        a = rand_profile(rng, 3, 4, n2=2)
        w = rand_hv(rng, 3, 4, "dual")
        direct = star_mul_vt(w, a).data
        # dual vectors flatten to a row of blocks
        wrow = np.hstack(list(w.data))
        oracle = wrow @ to_block_matrix(to_tensor4(a))
        assert rel_err(np.hstack(list(direct)), oracle) < 1e-13

    @pytest.mark.parametrize("side", ["tv", "vt"])
    def test_dense_operator_rejected(self, side):
        # the kernels apply only the profile form; dense tensors go through the oracles
        rng = np.random.default_rng(36)
        a = rand_t4(rng, 3, 3, 4)
        with pytest.raises(TypeError, match="ProfileTensor"):
            if side == "tv":
                star_mul_tv(a, rand_hv(rng, 3, 4))
            else:
                star_mul_vt(rand_hv(rng, 3, 4, "dual"), a)

    def test_orientation_enforced(self):
        rng = np.random.default_rng(10)
        a = rand_profile(rng, 3, 4)
        with pytest.raises(OrientationError):
            star_mul_tv(a, rand_hv(rng, 3, 4, "dual"))
        with pytest.raises(OrientationError):
            star_mul_vt(rand_hv(rng, 3, 4, "right"), a)

    def test_inner_product(self):
        rng = np.random.default_rng(11)
        w = rng.standard_normal(4)
        v = rng.standard_normal(4)
        out = star_inner(lift_dual(w, 3), lift(v, 3))
        assert np.allclose(out, np.vdot(w, v) * np.eye(3), atol=1e-14)

    def test_inner_e1(self):
        e1 = np.zeros(3)
        e1[0] = 1.0
        out = star_inner(lift_dual(e1, 4), lift(e1, 4))
        assert np.array_equal(out, np.eye(4))

    def test_inner_block_oracle(self):
        rng = np.random.default_rng(12)
        w = rand_hv(rng, 3, 4, "dual")
        v = rand_hv(rng, 3, 4)
        oracle = np.hstack(list(w.data)) @ v.data.reshape(12, 4)
        assert rel_err(star_inner(w, v), oracle) < 1e-13


class TestProfileTensor:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(1, 4), m=st.integers(2, 12), data=st.data(),
           seed=st.integers(0, 2**32 - 1))
    def test_products_match_dense(self, n, m, data, seed):
        empty = np.array(data.draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n)))
        rng = np.random.default_rng(seed)
        a = rand_profile(rng, n, m, empty.reshape(n, n))
        dense = to_tensor4(a)
        v, w = rand_hv(rng, n, m), rand_hv(rng, n, m, "dual")
        for got, want in ((star_mul_tv(a, v), dense_mul_tv(dense, v)),
                          (star_mul_vt(w, a), dense_mul_vt(w, dense))):
            assert got.orientation == want.orientation
            scale = max(np.linalg.norm(want.data), 1e-300)
            assert np.linalg.norm(got.data - want.data) <= 1e-13 * scale

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(1, 4), m=st.integers(2, 12), data=st.data(),
           seed=st.integers(0, 2**32 - 1))
    def test_lower_triangular_closure_exact(self, n, m, data, seed):
        # tensor_lanczos's triangular beta solve relies on an exactly zero
        # strict upper triangle, and reruns on bit-identical products
        empty = np.array(data.draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n)))
        rng = np.random.default_rng(seed)
        a = rand_profile(rng, n, m, empty.reshape(n, n))
        v = HyperVec(np.tril(rand_hv(rng, n, m).data), "right")
        w = HyperVec(np.tril(rand_hv(rng, n, m).data), "dual")
        for product in (lambda: star_mul_tv(a, v), lambda: star_mul_vt(w, a)):
            out = product().data
            assert np.all(np.triu(out, k=1) == 0)
            assert np.array_equal(out, product().data)

    def test_to_tensor4_slices_and_flags(self):
        rng = np.random.default_rng(4)
        a = rand_profile(rng, 2, 5, np.array([[False, True], [False, False]]))
        dense = to_tensor4(a)
        assert dense.shape == (2, 2, 5, 5) and dense.dtype == a.data.dtype
        assert np.array_equal(a.block_structure, [[BlockStructure.LOWER_TRIANGULAR, BlockStructure.ZERO],
                                                  [BlockStructure.LOWER_TRIANGULAR] * 2])
        assert np.array_equal(dense[1, 0], np.diag(a.data[1, 0]) @ np.tril(np.ones((5, 5))))
        assert np.all(dense[0, 1] == 0)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ShapeError):
            ProfileTensor(np.zeros((2, 2, 3, 3)))
        with pytest.raises(ShapeError):
            ProfileTensor(np.zeros((2, 3)))

    def test_product_shape_errors(self):
        rng = np.random.default_rng(5)
        a = rand_profile(rng, 2, 4)
        with pytest.raises(ShapeError):
            star_mul_tv(a, rand_hv(rng, 3, 4))
        with pytest.raises(ShapeError):
            star_mul_vt(rand_hv(rng, 2, 5, "dual"), a)

    @pytest.mark.parametrize("call", [
        lambda a, tmp: star_mul_tt(a, a),
        lambda a, tmp: star_mul_tt(to_tensor4(a), a),
        lambda a, tmp: star_mul_tt(to_tensor4(a), lift(np.ones(3), 5)),
        lambda a, tmp: to_block_matrix(a),
    ], ids=["mul_tt", "mul_tt_mixed", "mul_tt_hypervector", "to_block_matrix"])
    def test_dense_only_operations_reject_profiles(self, call, tmp_path):
        a = rand_profile(np.random.default_rng(6), 3, 5, np.eye(3, dtype=bool))
        with pytest.raises(TypeError, match=r"expected a dense \(n1, n2, m, m\) array"):
            call(a, tmp_path)


class TestScaling:
    def test_identity_scale(self):
        rng = np.random.default_rng(13)
        a = rand_t4(rng, 2, 2, 3)
        assert np.allclose(scale_t(a, np.eye(3), "left"), a, atol=0)
        v = rand_hv(rng, 2, 3)
        assert np.allclose(scale_v(v, np.eye(3), "right").data, v.data, atol=0)

    def test_zero_scale(self):
        rng = np.random.default_rng(14)
        a = rand_t4(rng, 2, 2, 3)
        assert np.all(scale_t(a, np.zeros((3, 3)), "right") == 0)

    def test_sides_differ(self):
        rng = np.random.default_rng(15)
        a = rand_t4(rng, 1, 1, 3)
        m = rng.standard_normal((3, 3))
        left = scale_t(a, m, "left")[0, 0]
        right = scale_t(a, m, "right")[0, 0]
        assert np.allclose(left, m @ a[0, 0])
        assert np.allclose(right, a[0, 0] @ m)
        assert not np.allclose(left, right)

    def test_lift_then_scale_is_per_slice(self):
        rng = np.random.default_rng(16)
        vec = rng.standard_normal(4)
        m = rng.standard_normal((3, 3))
        out = scale_v(lift(vec, 3), m, "right")
        for i in range(4):
            assert np.allclose(out.data[i], vec[i] * m, atol=1e-15)

    def test_scale_v_block_oracle(self):
        rng = np.random.default_rng(17)
        v = rand_hv(rng, 3, 4)
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        direct = scale_v(v, m, "right").data.reshape(12, 4)
        oracle = v.data.reshape(12, 4) @ m
        assert rel_err(direct, oracle) < 1e-13


class TestLift:
    def test_e1_slices(self):
        e1 = np.zeros(3)
        e1[0] = 1.0
        out = lift(e1, 3)
        assert np.array_equal(out.data[0], np.eye(3))
        assert np.all(out.data[1:] == 0)

    def test_ones_vector(self):
        out = lift(np.ones(5), 2)
        for i in range(5):
            assert np.array_equal(out.data[i], np.eye(2))

    def test_dual_conjugates(self):
        out = lift_dual(np.array([1j, 2.0]), 2)
        assert np.allclose(out.data[0], -1j * np.eye(2))


class TestIdentityAndPowers:
    def test_identity_products(self):
        i4 = star_identity(3, 2)
        assert np.array_equal(star_mul_tt(i4, i4), i4)
        for k in range(4):
            assert np.array_equal(star_pow(i4, k), i4)

    def test_identity_flattens_to_identity(self):
        assert np.array_equal(to_block_matrix(star_identity(3, 4)), np.eye(12))

    def test_pow_basics(self):
        rng = np.random.default_rng(18)
        a = rand_t4(rng, 2, 2, 3)
        assert np.array_equal(star_pow(a, 0), star_identity(2, 3))
        assert np.allclose(star_pow(a, 1), a, atol=0)

    def test_pow_matches_flattened_cube(self):
        rng = np.random.default_rng(19)
        a = rand_t4(rng, 2, 2, 3)
        cube = np.linalg.matrix_power(to_block_matrix(a), 3)
        assert rel_err(to_block_matrix(star_pow(a, 3)), cube) < 1e-12

    def test_pow_rejects_nonsquare(self):
        rng = np.random.default_rng(20)
        with pytest.raises(ShapeError):
            star_pow(rand_t4(rng, 2, 3, 2), 2)


class TestFrobenius:
    def test_zero(self):
        assert frobenius(np.zeros((2, 2, 3, 3))) == 0.0

    def test_identity(self):
        assert frobenius(star_identity(4, 9)) == pytest.approx(6.0)

    def test_matches_flat_vector_norm(self):
        rng = np.random.default_rng(21)
        a = rand_t4(rng, 2, 3, 4)
        assert frobenius(a) == pytest.approx(np.linalg.norm(a.ravel()))


class TestBlockMatrixRoundTrip:
    def test_round_trip_exact(self):
        rng = np.random.default_rng(22)
        a = rand_t4(rng, 3, 2, 4)
        back = from_block_matrix(to_block_matrix(a), 3, 2, 4)
        assert np.array_equal(back, a)


class TestAlgebraicProperties:
    """Randomized checks of associativity, distributivity, and flattening."""

    def test_associativity_tensor_hypervec(self):
        rng = np.random.default_rng(30)
        for _ in range(20):
            n, m = rng.integers(1, 5), rng.integers(1, 7)
            a = rand_profile(rng, n, m)
            v = rand_hv(rng, n, m)
            dense = to_tensor4(a)
            left = dense_mul_tv(star_mul_tt(dense, dense), v)
            right = star_mul_tv(a, star_mul_tv(a, v))
            assert rel_err(left.data, right.data) < 1e-12

    def test_associativity_dual(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            n1, n2, m = rng.integers(1, 5), rng.integers(1, 5), rng.integers(1, 7)
            a = rand_profile(rng, n1, m, n2=n2)
            b = rand_hv(rng, n1, m, "dual")
            v = rand_hv(rng, n2, m)
            left = star_inner(star_mul_vt(b, a), v)
            right = star_inner(b, star_mul_tv(a, v))
            assert rel_err(left, right) < 1e-12

    def test_associativity_three_tensors(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            n1, n2, n3, m = (rng.integers(1, 5) for _ in range(4))
            c = rand_t4(rng, n3, n1, m)
            a = rand_t4(rng, n1, n2, m)
            b = rand_t4(rng, n2, n3, m)
            left = star_mul_tt(star_mul_tt(c, a), b)
            right = star_mul_tt(c, star_mul_tt(a, b))
            assert rel_err(left, right) < 1e-12

    def test_distributivity(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            n, m = rng.integers(1, 5), rng.integers(1, 7)
            a, b, c = (rand_t4(rng, n, n, m) for _ in range(3))
            left = star_mul_tt(a, b + c)
            right = star_mul_tt(a, b) + star_mul_tt(a, c)
            assert rel_err(left, right) < 1e-13

    def test_block_homomorphism(self):
        rng = np.random.default_rng(34)
        for _ in range(20):
            n1, n2, n3, m = (int(rng.integers(1, 5)) for _ in range(4))
            a = rand_t4(rng, n1, n2, m)
            b = rand_t4(rng, n2, n3, m)
            lhs = to_block_matrix(star_mul_tt(a, b))
            rhs = to_block_matrix(a) @ to_block_matrix(b)
            assert rel_err(lhs, rhs) < 1e-12

    def test_kronecker_lift_commutation(self):
        rng = np.random.default_rng(35)
        for _ in range(10):
            n, m, k = rng.integers(1, 4), rng.integers(1, 6), rng.integers(0, 4)
            a = rand_t4(rng, n, n, m)
            vec = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            alpha = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
            ak = star_pow(a, k)
            left = dense_mul_tv(scale_t(ak, alpha, "right"), lift(vec, m))
            right = scale_v(dense_mul_tv(ak, lift(vec, m)), alpha, "right")
            assert rel_err(left.data, right.data) < 1e-12


def is_mesh_major(hv):
    """Whether ``hv.data`` is a view onto a C-ordered mesh-major ``(m, n, m)`` buffer."""
    axes = (1, 0, 2) if hv.orientation == "right" else (2, 0, 1)
    return hv.data.transpose(axes).flags.c_contiguous


def c_ordered(hv):
    """The same values as ``hv`` in a C-ordered ``(n, m, m)`` array."""
    return HyperVec(np.ascontiguousarray(hv.data), hv.orientation)


class TestMeshMajorLayout:
    """Hypervectors stored mesh-major: the layout changes no bit of any product."""

    @pytest.fixture(params=[("nmr2", np.float64), ("nmr3", np.complex128)], ids=["nmr2", "nmr3"])
    def run(self, request):
        problem_id, dtype = request.param
        p = builtin(problem_id)
        # at M=100 BLAS rounds a float64 slice product differently when the
        # dual operand is C-ordered, so layout independence is not automatic
        res = tensor_lanczos(discretize_problem(p, build_mesh(p.a, p.b, 100)), p.v, p.w, 3,
                             keep_walk=True)
        assert res.status.completed and res.operator.data.dtype == dtype
        return res

    def test_run_stores_its_hypervectors_mesh_major(self, run):
        hvs = [*run.walk.v_basis, *run.walk.w_basis, run.run_residual_v, run.run_residual_w]
        assert all(is_mesh_major(hv) for hv in hvs)
        assert not is_mesh_major(c_ordered(run.walk.v_basis[1]))

    def test_products_bit_identical_across_layouts(self, run):
        a = run.operator
        v, w = run.walk.v_basis[1], run.walk.w_basis[1]
        c = run.run_tri.alphas[1]
        for got, want in [(star_mul_tv(a, v), star_mul_tv(a, c_ordered(v))),
                          (star_mul_vt(w, a), star_mul_vt(c_ordered(w), a)),
                          (vec_times_coef(v, c), vec_times_coef(c_ordered(v), c)),
                          (coef_times_vec(c, w), coef_times_vec(c, c_ordered(w)))]:
            assert is_mesh_major(got) and is_mesh_major(want)
            assert np.array_equal(got.data, want.data)
        inner = star_inner(w, v)
        for pair in [(c_ordered(w), v), (w, c_ordered(v)), (c_ordered(w), c_ordered(v))]:
            assert np.array_equal(star_inner(*pair), inner)

    def test_inner_is_the_ascending_slice_sum(self, run):
        # the order in which criterion 9's singular beta cancels exactly
        w, v = run.walk.w_basis[2], run.walk.v_basis[2]
        want = np.zeros_like(star_inner(w, v))
        for k in range(w.n):
            want += w.data[k] @ v.data[k]
        assert np.array_equal(star_inner(w, v), want)
        assert np.array_equal(star_inner(c_ordered(w), c_ordered(v)), want)

    def test_prefix_sum_is_cumsum(self, run):
        for hv, axes in [(run.walk.v_basis[1], (1, 0, 2)), (run.walk.w_basis[1], (2, 0, 1))]:
            x = hv.data.transpose(axes)
            assert np.array_equal(_prefix_sum(x.copy()), np.cumsum(x, axis=0))
            assert np.array_equal(_prefix_sum(x.copy(), reverse=True),
                                  np.cumsum(x[::-1], axis=0)[::-1])

    def test_coefficient_products_per_slice(self):
        rng = np.random.default_rng(40)
        v, w = rand_hv(rng, 3, 4), rand_hv(rng, 3, 4, "dual")
        c = rng.standard_normal((4, 4))
        assert rel_err(vec_times_coef(v, c).data, v.data @ c) < 1e-14
        assert rel_err(coef_times_vec(c, w).data, c @ w.data) < 1e-14
        with pytest.raises(OrientationError):
            vec_times_coef(w, c)
        with pytest.raises(OrientationError):
            coef_times_vec(c, v)
        with pytest.raises(ShapeError):
            vec_times_coef(v, np.eye(3))

    def test_lifts_are_mesh_major(self):
        vec = np.array([1.0, 2j, -3.0])
        assert is_mesh_major(lift(vec, 4)) and is_mesh_major(lift_dual(vec, 4))


def rand_lower(rng, n, m, dtype, orientation="right"):
    """A hypervector of random lower-triangular slices in ``dtype``."""
    data = rng.standard_normal((n, m, m))
    if dtype == np.complex128:
        data = data + 1j * rng.standard_normal((n, m, m))
    return HyperVec(np.tril(data), orientation)


class TestTriangularStrips:
    """The coefficient products and ``star_inner`` skip the triangular zero blocks."""

    def test_strips_are_balanced(self):
        for m in range(1, 600):
            strips = _strips(m)
            assert len(strips) == max(1, m // 64)
            assert strips[0][0] == 0 and strips[-1][1] == m
            assert all(e == s for (_, e), (s, _) in zip(strips, strips[1:]))
            widths = {e - s for s, e in strips}
            assert max(widths) - min(widths) <= 1
        assert _strips(127) == ((0, 127),) and len(_strips(128)) == 2

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128], ids=["float64", "complex128"])
    @pytest.mark.parametrize("m", [130, 200, 250])
    def test_kernels_match_dense_slices(self, m, dtype):
        rng = np.random.default_rng(m)
        v, w = rand_lower(rng, 3, m, dtype), rand_lower(rng, 3, m, dtype, "dual")
        c = rand_lower(rng, 1, m, dtype).data[0]
        upper = np.triu_indices(m, 1)
        for got, want in [(vec_times_coef(v, c).data, v.data @ c),
                          (coef_times_vec(c, w).data, c @ w.data),
                          (star_inner(w, v), sum(w.data[k] @ v.data[k] for k in range(3)))]:
            assert got.dtype == dtype
            assert rel_err(got, want) < 1e-13
            assert not got[..., upper[0], upper[1]].any()


class TestWorkspaceBuffers:
    """A kernel writes into a given buffer the bits it returns in a fresh one."""

    @staticmethod
    def mesh_major(hv):
        return _from_mesh(_mesh(hv), hv.orientation)

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128], ids=["float64", "complex128"])
    @pytest.mark.parametrize("m", [40, 130])
    def test_out_matches_the_fresh_call(self, m, dtype):
        rng = np.random.default_rng(m)
        a = ProfileTensor(rng.standard_normal((3, 3, m)) * (1j if dtype == np.complex128 else 1))
        v = self.mesh_major(rand_lower(rng, 3, m, dtype))
        w = self.mesh_major(rand_lower(rng, 3, m, dtype, "dual"))
        c = rand_lower(rng, 1, m, dtype).data[0]

        def garbage():
            # NaNs left anywhere in the result would fail array_equal
            return np.full((m, 3, m), np.nan, dtype)

        calls = [(star_mul_tv, (a, v), {"scratch": garbage()}), (star_mul_vt, (w, a), {}),
                 (vec_times_coef, (v, c), {}), (coef_times_vec, (c, w), {})]
        for kernel, args, scratch in calls:
            out = garbage()
            got = kernel(*args, out=out, **scratch)
            assert is_mesh_major(got) and np.shares_memory(got.data, out)
            assert np.array_equal(got.data, kernel(*args).data)

    def test_unusable_buffers_raise(self):
        rng = np.random.default_rng(1)
        a = rand_profile(rng, 2, 5)
        v = self.mesh_major(rand_lower(rng, 2, 5, np.complex128))
        with pytest.raises(ShapeError, match="buffer"):
            star_mul_tv(a, v, out=np.empty((5, 2, 5)))  # float64 for a complex product
        with pytest.raises(ShapeError, match="buffer"):
            vec_times_coef(v, np.eye(5), out=np.empty((5, 2, 5), complex).transpose(2, 1, 0))
        with pytest.raises(ValueError, match="share memory"):
            vec_times_coef(v, np.eye(5), out=v.mesh)
        scratch = np.empty((5, 2, 5), complex)
        with pytest.raises(ValueError, match="share memory"):
            star_mul_tv(a, v, out=scratch, scratch=scratch)
