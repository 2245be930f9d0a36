import numpy as np
import pytest

from toelanczos import (
    Problem,
    Term,
    build_mesh,
    builtin,
    convergence_slope,
    discretize_problem,
    err_solution,
)
from toelanczos.cli import solve
from toelanczos.discretize import DiscretizationError
from toelanczos.tensor_core import BlockStructure

from oracles import entry_per_term, theta_matrix, to_tensor4


class TestBuildMesh:
    def test_right_endpoint_convention(self):
        mesh = build_mesh(0.0, 1.0, 10)
        assert mesh.h == pytest.approx(0.1)
        assert mesh.tau[0] == pytest.approx(0.1)
        assert mesh.tau[-1] == pytest.approx(1.0, abs=1e-15)

    def test_two_points(self):
        mesh = build_mesh(1e-4, 1.0, 2)
        assert mesh.tau[-1] == pytest.approx(1.0, abs=1e-15)
        assert mesh.tau[0] == pytest.approx(1e-4 + mesh.h)

    def test_equispaced_increasing(self):
        mesh = build_mesh(-2.0, 3.0, 17)
        d = np.diff(mesh.tau)
        assert np.all(d > 0)
        assert np.allclose(d, mesh.h, rtol=1e-12)

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            build_mesh(1.0, 1.0, 5)
        with pytest.raises(ValueError):
            build_mesh(0.0, 1.0, 1)


class TestThetaMatrix:
    def test_displayed_pattern(self):
        mesh = build_mesh(0.0, 2.0, 2)  # h = 1
        assert np.array_equal(theta_matrix(mesh), np.array([[1.0, 0.0], [1.0, 1.0]]))

    def test_scaling(self):
        mesh = build_mesh(0.0, 1.5, 3)  # h = 0.5
        expected = np.array([[0.5, 0, 0], [0.5, 0.5, 0], [0.5, 0.5, 0.5]])
        assert np.array_equal(theta_matrix(mesh), expected)

    def test_first_column_is_h_ones(self):
        mesh = build_mesh(0.0, 1.0, 7)
        e1 = np.zeros(7)
        e1[0] = 1.0
        assert np.allclose(theta_matrix(mesh) @ e1, mesh.h * np.ones(7))


class TestDiscretizeProblem:
    def test_constant_entry_gives_scaled_theta(self):
        p = builtin("const3")
        mesh = build_mesh(0.0, 1.0, 6)
        a4 = to_tensor4(discretize_problem(p, mesh))
        theta = theta_matrix(mesh)
        # A[0, 1] = +1 and A[0, 0] = -1 in the constant matrix
        assert np.array_equal(a4.data[0, 1], theta.astype(complex))
        assert np.array_equal(a4.data[0, 0], -theta.astype(complex))

    def test_zero_entry_flagged_from_samples(self):
        p = builtin("const3")
        mesh = build_mesh(0.0, 1.0, 5)
        op = discretize_problem(p, mesh)
        assert op.block_structure[1, 1] == BlockStructure.ZERO
        assert np.all(to_tensor4(op).data[1, 1] == 0)
        assert op.block_structure[0, 1] == BlockStructure.LOWER_TRIANGULAR

    def test_linear_entry_hand_values(self):
        # A(t) = t on [0, 1] with M = 3: tau = (1/3, 2/3, 1), h = 1/3
        p = Problem("lin", 1, 0.0, 1.0, {(0, 0): [Term(1.0, 1)]},
                    np.array([1.0]), np.array([1.0]))
        mesh = build_mesh(0.0, 1.0, 3)
        a4 = to_tensor4(discretize_problem(p, mesh))
        expected = np.array([
            [1 / 9, 0, 0],
            [2 / 9, 2 / 9, 0],
            [1 / 3, 1 / 3, 1 / 3],
        ])
        assert np.allclose(a4.data[0, 0], expected, rtol=1e-14)

    def test_rows_constant_below_diagonal_bit_exact(self):
        p = builtin("timedep5")
        mesh = build_mesh(p.a, p.b, 8)
        a4 = to_tensor4(discretize_problem(p, mesh))
        for k, l in p.entries:
            block = a4.data[k, l]
            for i in range(8):
                assert np.all(block[i, : i + 1] == block[i, 0])

    @pytest.mark.parametrize("problem_id", ["const3", "timedep5", "zero1", "nmr1", "nmr2", "nmr3"])
    def test_dense_form_bit_exact(self, problem_id):
        # dense oracle: each sampled profile times the Heaviside mask
        p = builtin(problem_id)
        mesh = build_mesh(p.a, p.b, 7)
        op = discretize_problem(p, mesh)
        assert op.data.shape == (p.n, p.n, 7)
        mask = np.tril(np.ones((7, 7)))
        want = np.zeros((p.n, p.n, 7, 7), dtype=complex)
        for (k, l), terms in p.entries.items():
            if terms:
                want[k, l] = (entry_per_term(p, k, l, mesh.tau) * mesh.h)[:, None] * mask
        got = to_tensor4(op)
        assert np.array_equal(got.data, want)
        assert got.data.tobytes() == want.tobytes()
        live = np.array([[bool(p.entries.get((k, l))) for l in range(p.n)] for k in range(p.n)])
        assert np.array_equal(op.block_structure == BlockStructure.ZERO, ~live)

    @pytest.mark.parametrize("problem_id", ["const3", "timedep5", "zero1", "nmr1", "nmr2", "nmr3"])
    def test_profiles_equal_per_term_sum_at_m250(self, problem_id):
        # the compiled evaluator, sampled point by point, against each entry's
        # term sum over the whole mesh at once
        p = builtin(problem_id)
        mesh = build_mesh(p.a, p.b, 250)
        op = discretize_problem(p, mesh)
        for k in range(p.n):
            for l in range(p.n):
                want = entry_per_term(p, k, l, mesh.tau) * mesh.h
                assert op.data[k, l].tobytes() == want.tobytes()
                live = bool(p.entries.get((k, l)))
                assert (op.block_structure[k, l] == BlockStructure.ZERO) != live

    def test_nonfinite_sample_reports_location(self):
        p = Problem("blow", 1, 0.0, 10.0, {(0, 0): [Term(1e308, 2)]},
                    np.array([1.0]), np.array([1.0]))
        mesh = build_mesh(0.0, 10.0, 4)
        # 1e308 * t**2 overflows on purpose, with no RuntimeWarning: warnings fail the suite
        with pytest.raises(DiscretizationError, match=r"\(0, 0\)"):
            discretize_problem(p, mesh)


class TestOrderOfAccuracy:
    def test_scalar_cosine_problem_converges_linearly(self):
        # u' = cos(t) u has solution exp(sin t)
        p = Problem("cos1", 1, 0.0, 1.0, {(0, 0): [Term(1.0, 0, "cos", 1.0)]},
                    np.array([1.0]), np.array([1.0]))
        errs = []
        for m in (10, 40, 160):
            mesh, _, sol = solve(p, m, 1)
            ref = np.exp(np.sin(mesh.tau))
            errs.append((m, err_solution(ref, sol.values)))
        slope = convergence_slope(errs)
        assert -1.15 <= slope <= -0.85
