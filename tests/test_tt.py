import numpy as np
import pytest

from toelanczos import (
    Tensor4,
    build_mesh,
    builtin,
    discretize_problem,
    nmr_generate,
    tt_svd,
)
from toelanczos.tt import TTTensor, compression_factor, parameter_count, rank_report_row
from oracles import star_identity, tt_reconstruct


def rel_recon_err(a, t):
    rec = tt_reconstruct(t)
    return np.linalg.norm((a.data - rec.data).ravel()) / np.linalg.norm(a.data.ravel())


def rank_bounds_ok(t):
    sizes = t.mode_sizes
    for k in range(1, 4):
        left = int(np.prod(sizes[:k]))
        right = int(np.prod(sizes[k:]))
        if t.ranks[k] > min(left, right):
            return False
    return t.ranks[0] == 1 and t.ranks[4] == 1


class TestTTSvd:
    def test_rank_one_tensor(self):
        rng = np.random.default_rng(0)
        vecs = [rng.standard_normal(s) for s in (3, 4, 5, 5)]
        a = Tensor4(np.einsum("i,j,k,l->ijkl", *vecs) + 0j)
        t = tt_svd(a, 1e-10)
        assert t.ranks == (1, 1, 1, 1, 1)
        assert rel_recon_err(a, t) < 1e-13

    def test_identity_tensor_bounds(self):
        a = star_identity(4, 6)
        t = tt_svd(a, 1e-10)
        assert rank_bounds_ok(t)
        assert rel_recon_err(a, t) <= 1e-10

    def test_random_dense_meets_tolerance(self):
        rng = np.random.default_rng(1)
        a = Tensor4(rng.standard_normal((3, 3, 6, 6)) + 1j * rng.standard_normal((3, 3, 6, 6)))
        for tol in (0.3, 1e-5, 1e-10):
            t = tt_svd(a, tol)
            assert rel_recon_err(a, t) <= tol
            assert rank_bounds_ok(t)

    def test_known_low_rank_round_trip(self):
        rng = np.random.default_rng(2)
        ranks = (1, 2, 3, 2, 1)
        sizes = (4, 5, 6, 6)
        cores = [rng.standard_normal((ranks[k], sizes[k], ranks[k + 1]))
                 + 1j * rng.standard_normal((ranks[k], sizes[k], ranks[k + 1]))
                 for k in range(4)]
        a = tt_reconstruct(TTTensor(cores, ranks, sizes, 0.0))
        t = tt_svd(a, 1e-12)
        assert all(r1 <= r2 for r1, r2 in zip(t.ranks, ranks))
        assert rel_recon_err(a, t) < 1e-11

    def test_small_singular_values_kept(self):
        # first unfolding (4 x 75) with singular values 1, 0.5, 0.1, 1e-7:
        # the 1e-7 direction is far above tol = 1e-10 and must be kept
        rng = np.random.default_rng(3)
        u, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        vh, _ = np.linalg.qr(rng.standard_normal((75, 4)))
        a = Tensor4((u * [1.0, 0.5, 0.1, 1e-7] @ vh.T).reshape(4, 3, 5, 5) + 0j)
        t = tt_svd(a, 1e-10)
        assert t.ranks[1] == 4
        assert rel_recon_err(a, t) <= 1e-10

    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError):
            tt_svd(Tensor4(np.zeros((1, 1, 2, 2))), 0.0)

    def test_monotone_ranks_in_tolerance(self):
        p = nmr_generate(2, seed=5)
        mesh = build_mesh(p.a, p.b, 40)
        a4 = discretize_problem(p, mesh).to_tensor4()
        loose = tt_svd(a4, 1e-5)
        tight = tt_svd(a4, 1e-10)
        assert all(rt >= rl for rt, rl in zip(tight.ranks, loose.ranks))

    def test_experiment1_structure(self):
        # diagonal tensor with three trig terms per level: r1 = 16, r2 <= 3
        p = builtin("nmr1")
        mesh = build_mesh(p.a, p.b, 100)
        a4 = discretize_problem(p, mesh).to_tensor4()
        t = tt_svd(a4, 1e-10)
        assert t.ranks[1] == 16
        assert t.ranks[2] <= 3
        assert rel_recon_err(a4, t) <= 1e-10

    def test_rank_stability_across_nu(self):
        # single-modulation variant: the inner-block span is exactly
        # two-dimensional at every spinning rate, so both ranks must agree
        t_by_nu = {}
        for nu in (1e4, 1e1):
            p = nmr_generate(1, nu=nu, gamma_scale=0.0)
            mesh = build_mesh(p.a, p.b, 60)
            a4 = discretize_problem(p, mesh).to_tensor4()
            t_by_nu[nu] = tt_svd(a4, 1e-10)
        assert t_by_nu[1e4].ranks[1] == t_by_nu[1e1].ranks[1] == 16
        assert t_by_nu[1e4].ranks[2] == t_by_nu[1e1].ranks[2] == 2


class TestCompressionFactor:
    def test_rank_one_arithmetic(self):
        rng = np.random.default_rng(3)
        vecs = [rng.uniform(1, 2, size=s) for s in (16, 16, 8, 8)]
        a = Tensor4(np.einsum("i,j,k,l->ijkl", *vecs) + 0j)
        t = tt_svd(a, 1e-10)
        assert parameter_count(t) == 16 + 16 + 8 + 8
        assert compression_factor(t, a) == pytest.approx(48 / 16384)

    def test_reference_table_arithmetic(self):
        # ranks (1, 16, 2, 500, 1) on modes (16, 16, 500, 500) with the
        # published nonzero count reproduce the published compression factor
        ranks = (1, 16, 2, 500, 1)
        sizes = (16, 16, 500, 500)
        params = sum(ranks[k] * sizes[k] * ranks[k + 1] for k in range(4))
        assert params == 750768
        loose = (1, 16, 2, 498, 1)
        params_loose = sum(loose[k] * sizes[k] * loose[k + 1] for k in range(4))
        assert params_loose == 747768
        assert round(params_loose / 2004000, 5) == 0.37314

    def test_nnz_counts_exact_nonzeros(self):
        p = builtin("nmr1")
        mesh = build_mesh(p.a, p.b, 20)
        a4 = discretize_problem(p, mesh).to_tensor4()
        t = tt_svd(a4, 1e-8)
        nnz = np.count_nonzero(a4.data)
        assert nnz == 16 * (20 * 21) // 2
        assert compression_factor(t, a4) == pytest.approx(parameter_count(t) / nnz)

    def test_rank_report_row(self):
        rng = np.random.default_rng(5)
        vecs = [rng.uniform(1, 2, size=s) for s in (2, 2, 3, 3)]
        a = Tensor4(np.einsum("i,j,k,l->ijkl", *vecs) + 0j)
        t = tt_svd(a, 1e-10)
        row = rank_report_row(t, a, 3)
        fields = row.split(",")
        assert fields[0] == "3"
        assert fields[3:8] == ["1", "1", "1", "1", "1"]

    def test_zero_tensor_is_a_value_error(self):
        # an all-zero operator has no compression factor; the CLI maps this to exit 2
        a = Tensor4(np.zeros((2, 2, 3, 3)))
        with pytest.raises(ValueError, match="no nonzeros"):
            rank_report_row(tt_svd(a, 1e-8), a, 3)
