import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toelanczos import (
    ProfileTensor,
    build_mesh,
    builtin,
    discretize_problem,
    nmr_generate,
    tt_svd,
)
from toelanczos.tt import TTTensor, compression_factor, parameter_count, rank_report_row
from oracles import (
    dense_rank_report_row,
    dense_tt_svd,
    star_identity,
    to_tensor4,
    tt_reconstruct,
)


def single_modulation_nmr1(nu):
    """nmr1 with its ``cos(4 pi nu t)`` weights zeroed and spinning at ``nu`` Hz.

    Each level's terms are ``alpha_k``, ``beta_k cos(2 pi nu t)`` and
    ``gamma_k cos(4 pi nu t)``, scaled by ``-2 pi i``; the draw is the default one.
    """
    p = nmr_generate(1)
    w2 = 2 * np.pi * nu
    entries = {key: [const, dataclasses.replace(beta, omega=w2),
                     dataclasses.replace(gamma, coeff=0j, omega=2 * w2)]
               for key, (const, beta, gamma) in p.entries.items()}
    return dataclasses.replace(p, entries=entries)


def rel_recon_err(a, t):
    rec = tt_reconstruct(t)
    return np.linalg.norm((a - rec).ravel()) / np.linalg.norm(a.ravel())


def rank_bounds_ok(t):
    sizes = t.mode_sizes
    for k in range(1, 4):
        left = int(np.prod(sizes[:k]))
        right = int(np.prod(sizes[k:]))
        if t.ranks[k] > min(left, right):
            return False
    return t.ranks[0] == 1 and t.ranks[4] == 1


def operator(problem_id, m):
    p = builtin(problem_id)
    return discretize_problem(p, build_mesh(p.a, p.b, m))


class TestTTSvd:
    # the unfolding sweep on general dense tensors, through the oracle
    def test_rank_one_tensor(self):
        rng = np.random.default_rng(0)
        vecs = [rng.standard_normal(s) for s in (3, 4, 5, 5)]
        a = np.einsum("i,j,k,l->ijkl", *vecs)
        t = dense_tt_svd(a, 1e-10)
        assert t.ranks == (1, 1, 1, 1, 1)
        assert rel_recon_err(a, t) < 1e-13

    def test_identity_tensor_bounds(self):
        a = star_identity(4, 6)
        t = dense_tt_svd(a, 1e-10)
        assert rank_bounds_ok(t)
        assert rel_recon_err(a, t) <= 1e-10

    def test_random_dense_meets_tolerance(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((3, 3, 6, 6)) + 1j * rng.standard_normal((3, 3, 6, 6))
        for tol in (0.3, 1e-5, 1e-10):
            t = dense_tt_svd(a, tol)
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
        t = dense_tt_svd(a, 1e-12)
        assert all(r1 <= r2 for r1, r2 in zip(t.ranks, ranks))
        assert rel_recon_err(a, t) < 1e-11

    def test_small_singular_values_kept(self):
        # first unfolding (4 x 75) with singular values 1, 0.5, 0.1, 1e-7:
        # the 1e-7 direction is far above tol = 1e-10 and must be kept
        rng = np.random.default_rng(3)
        u, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        vh, _ = np.linalg.qr(rng.standard_normal((75, 4)))
        a = (u * [1.0, 0.5, 0.1, 1e-7] @ vh.T).reshape(4, 3, 5, 5)
        t = dense_tt_svd(a, 1e-10)
        assert t.ranks[1] == 4
        assert rel_recon_err(a, t) <= 1e-10

    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError):
            tt_svd(ProfileTensor(np.zeros((1, 1, 2))), 0.0)

    @pytest.mark.parametrize("tol", [np.nan, np.inf])
    def test_rejects_non_finite_tol(self, tol):
        # NaN passes a "<= 0" check and keeps every rank
        with pytest.raises(ValueError, match="finite"):
            tt_svd(ProfileTensor(np.ones((1, 1, 2))), tol)

    @pytest.mark.parametrize("call", [
        lambda op, dense: tt_svd(dense, 1e-8),
        lambda op, dense: compression_factor(tt_svd(op, 1e-8), dense),
        lambda op, dense: rank_report_row(tt_svd(op, 1e-8), dense),
    ], ids=["tt_svd", "compression_factor", "rank_report_row"])
    def test_rejects_dense_operator(self, call):
        # a dense array's entries would broadcast into a wrong nonzero count
        op = ProfileTensor(np.random.default_rng(6).standard_normal((3, 3, 5)))
        with pytest.raises(TypeError, match="ProfileTensor"):
            call(op, to_tensor4(op))

    def test_monotone_ranks_in_tolerance(self):
        p = nmr_generate(2, seed=5)
        mesh = build_mesh(p.a, p.b, 40)
        op = discretize_problem(p, mesh)
        loose = tt_svd(op, 1e-5)
        tight = tt_svd(op, 1e-10)
        assert all(rt >= rl for rt, rl in zip(tight.ranks, loose.ranks))

    def test_experiment1_structure(self):
        # diagonal tensor with three trig terms per level: r1 = 16, r2 <= 3
        op = operator("nmr1", 100)
        t = tt_svd(op, 1e-10)
        assert t.ranks[1] == 16
        assert t.ranks[2] <= 3
        assert rel_recon_err(to_tensor4(op), t) <= 1e-10

    def test_rank_stability_across_nu(self):
        # single-modulation variant: the inner-block span is exactly
        # two-dimensional at every spinning rate, so both ranks must agree
        t_by_nu = {}
        for nu in (1e4, 1e1):
            p = single_modulation_nmr1(nu)
            mesh = build_mesh(p.a, p.b, 60)
            t_by_nu[nu] = tt_svd(discretize_problem(p, mesh), 1e-10)
        assert t_by_nu[1e4].ranks[1] == t_by_nu[1e1].ranks[1] == 16
        assert t_by_nu[1e4].ranks[2] == t_by_nu[1e1].ranks[2] == 2


class TestProfileSweep:
    """The sweep on the profiles against the unfolding sweep on the dense operator."""

    @pytest.mark.parametrize("tol", [1e-5, 1e-10])
    @pytest.mark.parametrize("problem_id", ["const3", "timedep5", "zero1", "nmr1", "nmr2", "nmr3"])
    def test_rank_rows_equal_dense_oracle(self, problem_id, tol):
        m = 12
        op = operator(problem_id, m)
        dense = to_tensor4(op)
        t, t_dense = tt_svd(op, tol), dense_tt_svd(dense, tol)
        assert t.ranks == t_dense.ranks
        if problem_id == "zero1":
            for row in (lambda: rank_report_row(t, op),
                        lambda: dense_rank_report_row(t_dense, dense)):
                with pytest.raises(ValueError, match="no nonzeros"):
                    row()
        else:
            assert rank_report_row(t, op) == dense_rank_report_row(t_dense, dense)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(n1=st.integers(1, 4), n2=st.integers(1, 4), m=st.integers(1, 10),
           is_complex=st.booleans(), tol=st.sampled_from([0.3, 1e-5, 1e-10]),
           data=st.data(), seed=st.integers(0, 2**32 - 1))
    def test_random_profiles(self, n1, n2, m, is_complex, tol, data, seed):
        # all-zero slices and all-zero mesh rows (w_j = 0 in the third sweep)
        zero_slices = np.array(data.draw(st.lists(st.booleans(), min_size=n1 * n2,
                                                  max_size=n1 * n2))).reshape(n1, n2)
        zero_rows = np.array(data.draw(st.lists(st.booleans(), min_size=m, max_size=m)))
        rng = np.random.default_rng(seed)
        profiles = rng.standard_normal((n1, n2, m))
        if is_complex:
            profiles = profiles + 1j * rng.standard_normal((n1, n2, m))
        profiles[zero_slices] = 0
        profiles[..., zero_rows] = 0
        op = ProfileTensor(profiles)
        dense = to_tensor4(op)
        t = tt_svd(op, tol)
        assert rank_bounds_ok(t)
        nnz = np.count_nonzero(dense)
        if nnz == 0:
            assert t.ranks == (1, 1, 1, 1, 1)
            with pytest.raises(ValueError, match="no nonzeros"):
                rank_report_row(t, op)
            return
        assert rel_recon_err(dense, t) <= tol
        assert rank_report_row(t, op).split(",")[2] == str(nnz)


class TestCompressionFactor:
    def test_rank_one_arithmetic(self):
        # rank-one profiles: the slices diag(z) @ tril(1) have full rank m,
        # so the ranks are (1, 1, 1, m, 1)
        rng = np.random.default_rng(3)
        vecs = [rng.uniform(1, 2, size=s) for s in (16, 16, 8)]
        op = ProfileTensor(np.einsum("i,j,k->ijk", *vecs))
        t = tt_svd(op, 1e-10)
        assert t.ranks == (1, 1, 1, 8, 1)
        assert parameter_count(t) == 16 + 16 + 8 * 8 + 8 * 8
        assert compression_factor(t, op) == pytest.approx(160 / (16 * 16 * 36))

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
        op = operator("nmr1", 20)
        t = tt_svd(op, 1e-8)
        nnz = np.count_nonzero(to_tensor4(op))
        assert nnz == 16 * (20 * 21) // 2
        assert compression_factor(t, op) == pytest.approx(parameter_count(t) / nnz)

    def test_rank_report_row(self):
        rng = np.random.default_rng(5)
        vecs = [rng.uniform(1, 2, size=s) for s in (2, 2, 3)]
        op = ProfileTensor(np.einsum("i,j,k->ijk", *vecs))
        t = tt_svd(op, 1e-10)
        row = rank_report_row(t, op)
        fields = row.split(",")
        assert fields[0] == "3"
        assert fields[2] == str(2 * 2 * 6)
        assert fields[3:8] == ["1", "1", "1", "3", "1"]

    def test_zero_tensor_is_a_value_error(self):
        # an all-zero operator keeps rank 1 and has no compression factor;
        # the CLI maps this to exit 2
        for dtype in (float, complex):
            op = ProfileTensor(np.zeros((2, 2, 3), dtype=dtype))
            t = tt_svd(op, 1e-8)
            assert t.ranks == (1, 1, 1, 1, 1)
            with pytest.raises(ValueError, match="no nonzeros"):
                rank_report_row(t, op)
