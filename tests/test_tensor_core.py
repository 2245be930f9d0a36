import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toelanczos import (
    BlockStructure,
    HyperVec,
    OrientationError,
    ProfileTensor,
    ShapeError,
    Tensor4,
    frobenius,
    lift,
    lift_dual,
    star_inner,
    star_mul_tt,
    star_mul_tv,
    star_mul_vt,
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
    return Tensor4(rng.standard_normal((n1, n2, m, m)) + 1j * rng.standard_normal((n1, n2, m, m)))


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
        assert np.allclose(out.data, a.data, rtol=0, atol=0)

    def test_degenerate_modes_reduce_to_scalars(self):
        a = Tensor4(np.array(2.0 + 1j).reshape(1, 1, 1, 1))
        b = Tensor4(np.array(3.0 - 1j).reshape(1, 1, 1, 1))
        out = star_mul_tt(a, b)
        assert out.data[0, 0, 0, 0] == (2 + 1j) * (3 - 1j)

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

    def test_triangularity_closure_bit_exact(self):
        rng = np.random.default_rng(3)
        m = 5
        tri = np.tril(rng.standard_normal((2, 2, m, m)))
        out = star_mul_tt(Tensor4(tri), Tensor4(tri.copy()))
        upper = np.triu(out.data, k=1)
        assert np.all(upper == 0.0)

    def test_zero_slices_match_block_oracle(self):
        rng = np.random.default_rng(4)
        data = rng.standard_normal((3, 3, 4, 4)) + 0j
        data[0, 1] = 0.0
        data[2, :] = 0.0
        b = rand_t4(rng, 3, 2, 4)
        out = star_mul_tt(Tensor4(data), b)
        oracle = to_block_matrix(Tensor4(data)) @ to_block_matrix(b)
        assert rel_err(to_block_matrix(out), oracle) < 1e-15
        assert np.all(out.data[2] == 0)


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
        assert np.allclose(out.data, to_tensor4(a).data[:, 0], atol=1e-15)

    def test_selector_row(self):
        rng = np.random.default_rng(7)
        a = rand_profile(rng, 3, 4)
        e1 = np.zeros(3)
        e1[0] = 1.0
        out = star_mul_vt(lift_dual(e1, 4), a)
        assert np.allclose(out.data, to_tensor4(a).data[0, :], atol=1e-15)

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
        assert dense.data.shape == (2, 2, 5, 5)
        assert np.array_equal(a.block_structure, [[BlockStructure.LOWER_TRIANGULAR, BlockStructure.ZERO],
                                                  [BlockStructure.LOWER_TRIANGULAR] * 2])
        assert dense.block_structure is None
        assert np.array_equal(dense.data[1, 0], np.diag(a.data[1, 0]) @ np.tril(np.ones((5, 5))))
        assert np.all(dense.data[0, 1] == 0)

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
        lambda a, tmp: to_block_matrix(a),
    ], ids=["mul_tt", "mul_tt_mixed", "to_block_matrix"])
    def test_dense_only_operations_reject_profiles(self, call, tmp_path):
        a = rand_profile(np.random.default_rng(6), 3, 5, np.eye(3, dtype=bool))
        with pytest.raises(TypeError, match="expected a dense Tensor4"):
            call(a, tmp_path)


class TestScaling:
    def test_identity_scale(self):
        rng = np.random.default_rng(13)
        a = rand_t4(rng, 2, 2, 3)
        assert np.allclose(scale_t(a, np.eye(3), "left").data, a.data, atol=0)
        v = rand_hv(rng, 2, 3)
        assert np.allclose(scale_v(v, np.eye(3), "right").data, v.data, atol=0)

    def test_zero_scale(self):
        rng = np.random.default_rng(14)
        a = rand_t4(rng, 2, 2, 3)
        assert np.all(scale_t(a, np.zeros((3, 3)), "right").data == 0)

    def test_sides_differ(self):
        rng = np.random.default_rng(15)
        a = rand_t4(rng, 1, 1, 3)
        m = rng.standard_normal((3, 3))
        left = scale_t(a, m, "left").data[0, 0]
        right = scale_t(a, m, "right").data[0, 0]
        assert np.allclose(left, m @ a.data[0, 0])
        assert np.allclose(right, a.data[0, 0] @ m)
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
        assert np.array_equal(star_mul_tt(i4, i4).data, i4.data)
        for k in range(4):
            assert np.array_equal(star_pow(i4, k).data, i4.data)

    def test_identity_flattens_to_identity(self):
        assert np.array_equal(to_block_matrix(star_identity(3, 4)), np.eye(12))

    def test_pow_basics(self):
        rng = np.random.default_rng(18)
        a = rand_t4(rng, 2, 2, 3)
        assert np.array_equal(star_pow(a, 0).data, star_identity(2, 3).data)
        assert np.allclose(star_pow(a, 1).data, a.data, atol=0)

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
        assert frobenius(Tensor4(np.zeros((2, 2, 3, 3)))) == 0.0

    def test_identity(self):
        assert frobenius(star_identity(4, 9)) == pytest.approx(6.0)

    def test_matches_flat_vector_norm(self):
        rng = np.random.default_rng(21)
        a = rand_t4(rng, 2, 3, 4)
        assert frobenius(a) == pytest.approx(np.linalg.norm(a.data.ravel()))


class TestBlockMatrixRoundTrip:
    def test_round_trip_exact(self):
        rng = np.random.default_rng(22)
        a = rand_t4(rng, 3, 2, 4)
        back = from_block_matrix(to_block_matrix(a), 3, 2, 4)
        assert np.array_equal(back.data, a.data)


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
            assert rel_err(left.data, right.data) < 1e-12

    def test_distributivity(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            n, m = rng.integers(1, 5), rng.integers(1, 7)
            a, b, c = (rand_t4(rng, n, n, m) for _ in range(3))
            left = star_mul_tt(a, Tensor4(b.data + c.data))
            right = star_mul_tt(a, b).data + star_mul_tt(a, c).data
            assert rel_err(left.data, right) < 1e-13

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
