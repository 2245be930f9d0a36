"""Acceptance suite: one test per criterion, printing a PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criterion 2 asserts published reference values that a numerically
sound implementation undershoots by 3-4x (the reference run's own published
diagnostics show its coefficients were corrupted); it is expected to fail and
is deliberately not weakened.  Its companion test verifies the substance:
this implementation's errors are smaller and decay at the expected rate.
"""

import json
import time

import numpy as np
import pytest

import toelanczos as tl
from toelanczos.cli import EXIT_GUARD, EXIT_OK, EXIT_SERIOUS, main as cli_main, solve
from toelanczos.tensor_core import frobenius, star_mul_tt
from oracles import (
    dense_mul_tv,
    solution_via_series,
    to_block_matrix,
    to_tensor4,
    tt_reconstruct,
)


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[ACCEPTANCE] {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


def pipeline_err_sol(problem, m, n, reference="analytic"):
    mesh, _, sol = solve(problem, m, n)
    if reference == "analytic":
        ref = tl.analytic_reference(problem, mesh).values
    else:
        ref = tl.rk45_reference(problem, mesh, rtol=1e-10, atol=1e-13).values
    return tl.err_solution(ref, sol.values)


class TestCriterion01TimeIndependentTable:
    def test_err_sol_small_meshes(self):
        p = tl.builtin("const3")
        errs = {m: pipeline_err_sol(p, m, 3) for m in (10, 100)}
        ok10 = abs(errs[10] - 8.230e-2) / 8.230e-2 < 0.05
        ok100 = abs(errs[100] - 7.019e-3) / 7.019e-3 < 0.05
        report("criterion 1 (M=10,100)", ok10 and ok100,
               f"err_sol = {errs[10]:.4e} vs 8.230e-02, {errs[100]:.4e} vs 7.019e-03")

    def test_large_mesh_guarded_and_accurate(self, tmp_path):
        # the CLI refuses M=1000 without --allow-large
        code = cli_main(["run", "--problem", "const3", "--M", "1000", "--n", "3",
                         "--reference", "analytic",
                         "--output", str(tmp_path / "guarded")])
        assert code == EXIT_GUARD
        err = pipeline_err_sol(tl.builtin("const3"), 1000, 3)
        ok = abs(err - 6.918e-4) / 6.918e-4 < 0.05
        report("criterion 1 (M=1000, large)", ok, f"err_sol = {err:.4e} vs 6.918e-04")


class TestCriterion02TimeDependentTable:
    MEASURED = {}

    @classmethod
    def errors(cls):
        if not cls.MEASURED:
            p = tl.builtin("timedep5")
            cls.MEASURED.update({m: pipeline_err_sol(p, m, 5, reference="rk45")
                                 for m in (10, 100)})
        return cls.MEASURED

    def test_published_values(self):
        errs = self.errors()
        dev10 = abs(errs[10] - 2.360e-1) / 2.360e-1
        dev100 = abs(errs[100] - 2.257e-2) / 2.257e-2
        ok = dev10 < 0.05 and dev100 < 0.05
        report(
            "criterion 2 (table values)", ok,
            f"err_sol = {errs[10]:.4e} vs 2.360e-01 and {errs[100]:.4e} vs 2.257e-02; "
            "this implementation's errors are 3-4x SMALLER than the published run, "
            "whose own diagnostics show corrupted coefficients; see the decisions "
            "ledger entry on criterion 2 for the full analysis")

    def test_quality_not_worse_than_published(self):
        errs = self.errors()
        slope = tl.convergence_slope(list(errs.items()))
        ok = (errs[10] <= 2.360e-1 and errs[100] <= 2.257e-2
              and -1.3 <= slope <= -0.7)
        report("criterion 2 (substance: accuracy and rate)", ok,
               f"err_sol = {errs[10]:.4e}, {errs[100]:.4e}, slope = {slope:.3f}")


class TestCriterion03PropertySuite:
    def test_const3_error_measures(self):
        start = time.time()
        p = tl.builtin("const3")
        worst = {"err_v": 0.0, "err_w": 0.0, "err_o": 0.0, "err_m": 0.0}
        for m in (10, 50, 100):
            _, result, _ = solve(p, m, 3, keep_walk=True)
            ev, ew = tl.err_recurrences(result)
            eo = tl.err_biorth(result)
            em = tl.err_moments(result)
            worst["err_v"] = max(worst["err_v"], ev)
            worst["err_w"] = max(worst["err_w"], ew)
            worst["err_o"] = max(worst["err_o"], eo)
            worst["err_m"] = max(worst["err_m"], float(np.max(em)))
        elapsed = time.time() - start
        ok = (worst["err_v"] < 1e-12 and worst["err_w"] == 0.0
              and worst["err_o"] < 1e-12 and worst["err_m"] < 1e-12
              and elapsed < 60)
        report("criterion 3 (recurrence/biorth/moment suite)", ok,
               f"worst err_V {worst['err_v']:.2e}, err_W {worst['err_w']:.1e}, "
               f"err_o {worst['err_o']:.2e}, err_M {worst['err_m']:.2e}, "
               f"{elapsed:.1f}s")


class TestCriterion04RandomProblems:
    def test_recurrences_and_moments(self):
        rng = np.random.default_rng(12345)
        worst_rec, worst_mom = 0.0, 0.0
        runs = 0
        while runs < 20:
            n_dim = int(rng.integers(1, 5))
            m = int(rng.integers(2, 13))
            mat = rng.standard_normal((n_dim, n_dim)) + 1j * rng.standard_normal((n_dim, n_dim))
            entries = {(k, l): [tl.Term(complex(mat[k, l]))]
                       for k in range(n_dim) for l in range(n_dim)}
            v = rng.standard_normal(n_dim) + 1j * rng.standard_normal(n_dim)
            w = rng.standard_normal(n_dim) + 1j * rng.standard_normal(n_dim)
            if abs(np.vdot(w, v)) < 0.1:
                continue
            p = tl.Problem(f"rand{runs}", n_dim, 0.0, 1.0, entries, v, w)
            mesh = tl.build_mesh(0.0, 1.0, m)
            a4 = tl.discretize_problem(p, mesh)
            result = tl.tensor_lanczos(a4, v, w, n_dim, keep_walk=True)
            if not result.status.completed:
                continue
            ev, ew = tl.err_recurrences(result)
            em = tl.err_moments(result, k_max=2 * n_dim - 1)
            worst_rec = max(worst_rec, ev, ew)
            worst_mom = max(worst_mom, float(np.max(em)))
            runs += 1
        ok = worst_rec < 1e-10 and worst_mom < 1e-10
        report("criterion 4 (20 random problems)", ok,
               f"worst recurrence residual {worst_rec:.2e}, worst moment {worst_mom:.2e}")


class TestCriterion05AlgebraChecks:
    def test_two_hundred_randomized_identities(self):
        rng = np.random.default_rng(777)
        start = time.time()
        checks = 0
        worst = 0.0

        def rand_t4(n1, n2, m):
            return (rng.standard_normal((n1, n2, m, m))
                    + 1j * rng.standard_normal((n1, n2, m, m)))

        def rand_profile(n1, n2, m):
            return tl.ProfileTensor(rng.standard_normal((n1, n2, m))
                                    + 1j * rng.standard_normal((n1, n2, m)))

        def rand_hv(n, m, orient="right"):
            return tl.HyperVec(rng.standard_normal((n, m, m))
                               + 1j * rng.standard_normal((n, m, m)), orient)

        def rel(x, y):
            return float(np.linalg.norm((x - y).ravel()) / np.linalg.norm(y.ravel()))

        # identities 1 and 2 check the profile kernels against the dense product
        for _ in range(40):
            n, m = int(rng.integers(1, 5)), int(rng.integers(1, 7))
            a, v = rand_profile(n, n, m), rand_hv(n, m)
            dense = to_tensor4(a)
            worst = max(worst, rel(dense_mul_tv(star_mul_tt(dense, dense), v).data,
                                   tl.star_mul_tv(a, tl.star_mul_tv(a, v)).data))
            checks += 1
        for _ in range(40):
            n1, n2, m = (int(rng.integers(1, 5)) for _ in range(3))
            a, b, v = rand_profile(n1, n2, m), rand_hv(n1, m, "dual"), rand_hv(n2, m)
            worst = max(worst, rel(tl.star_inner(tl.star_mul_vt(b, a), v),
                                   tl.star_inner(b, tl.star_mul_tv(a, v))))
            checks += 1
        for _ in range(40):
            n1, n2, n3, m = (int(rng.integers(1, 5)) for _ in range(4))
            c, a, b = rand_t4(n3, n1, m), rand_t4(n1, n2, m), rand_t4(n2, n3, m)
            worst = max(worst, rel(star_mul_tt(star_mul_tt(c, a), b),
                                   star_mul_tt(c, star_mul_tt(a, b))))
            checks += 1
        for _ in range(40):
            n, m = int(rng.integers(1, 5)), int(rng.integers(1, 7))
            a, b, c = (rand_t4(n, n, m) for _ in range(3))
            worst = max(worst, rel(star_mul_tt(a, b + c),
                                   star_mul_tt(a, b) + star_mul_tt(a, c)))
            checks += 1
        for _ in range(40):
            n1, n2, n3, m = (int(rng.integers(1, 5)) for _ in range(4))
            a, b = rand_t4(n1, n2, m), rand_t4(n2, n3, m)
            worst = max(worst, rel(to_block_matrix(star_mul_tt(a, b)),
                                   to_block_matrix(a) @ to_block_matrix(b)))
            checks += 1
        elapsed = time.time() - start
        ok = checks == 200 and worst < 1e-12 and elapsed < 10
        report("criterion 5 (200 algebra checks)", ok,
               f"{checks} checks, worst deviation {worst:.2e}, {elapsed:.2f}s")


class TestCriterion06ResolventOracle:
    def test_fraction_equals_series_at_full_dimension(self):
        worst = 0.0
        for pid, n in (("const3", 3), ("timedep5", 5)):
            p = tl.builtin(pid)
            for m in (20, 50):
                mesh = tl.build_mesh(p.a, p.b, m)
                a4 = tl.discretize_problem(p, mesh)
                result = tl.tensor_lanczos(a4, p.v, p.w, n)
                s_frac = tl.approx_solution(result.tri, mesh, result.normalization).values
                s_series = solution_via_series(a4, p.v, p.w, mesh).values
                worst = max(worst, float(np.linalg.norm(s_frac - s_series)
                                         / np.linalg.norm(s_series)))
        ok = worst < 1e-8
        report("criterion 6 (continued fraction vs series)", ok,
               f"worst relative gap {worst:.2e}")


class TestCriterion07NmrExperiments:
    def test_analytic_oracle_agrees_with_rk45(self):
        p = tl.builtin("nmr1")
        mesh = tl.build_mesh(p.a, p.b, 50)
        ana = tl.analytic_reference(p, mesh).values
        ode = tl.rk45_reference(p, mesh, rtol=1e-10, atol=1e-13).values
        gap = float(np.linalg.norm(ana - ode) / np.linalg.norm(ana))
        report("criterion 7 (experiment-1 oracle vs RK45)", gap < 1e-7,
               f"relative gap {gap:.2e}")

    @pytest.mark.parametrize("kind,n_iter", [(1, 3), (2, 4), (3, 4)])
    def test_synthetic_experiments_converge(self, kind, n_iter):
        p = tl.builtin(f"nmr{kind}")
        reference = "analytic" if kind == 1 else "rk45"
        errs = []
        for m in (5, 50, 500):
            errs.append((m, pipeline_err_sol(p, m, n_iter, reference=reference)))
        slope = tl.convergence_slope(errs)
        vals = [e for _, e in errs]
        ok = vals[0] > vals[1] > vals[2] and -1.3 <= slope <= -0.7
        report(f"criterion 7 (experiment {kind}, synthetic coefficients)", ok,
               f"err_sol = {vals[0]:.3e} / {vals[1]:.3e} / {vals[2]:.3e}, "
               f"slope = {slope:.3f}")


class TestCriterion08TensorTrain:
    def test_ranks_compression_reconstruction(self):
        details = []
        ok = True
        # structural ranks of an experiment-1-style tensor
        p = tl.builtin("nmr1")
        mesh = tl.build_mesh(p.a, p.b, 100)
        op = tl.discretize_problem(p, mesh)
        a4 = to_tensor4(op)
        t = tl.tt_svd(op, 1e-10)
        rec = tt_reconstruct(t)
        rec_err = float(np.linalg.norm((a4 - rec).ravel()) / np.linalg.norm(a4.ravel()))
        ok &= t.ranks[1] == 16 and t.ranks[2] <= 3 and rec_err <= 1e-10
        details.append(f"exp-1 ranks {t.ranks} (r2 bound 3), recon {rec_err:.1e}")
        # published compression-factor arithmetic from its own columns
        sizes = (16, 16, 500, 500)
        loose = (1, 16, 2, 498, 1)
        params = sum(loose[k] * sizes[k] * loose[k + 1] for k in range(4))
        ok &= params == 747768 and round(params / 2004000, 5) == 0.37314
        details.append(f"747768/2004000 = {round(params / 2004000, 5)}")
        # unfolding bounds and tolerance contract across problems and tols
        for pid, m in (("const3", 30), ("timedep5", 25), ("nmr2", 30)):
            prob = tl.builtin(pid)
            mesh = tl.build_mesh(prob.a, prob.b, m)
            op = tl.discretize_problem(prob, mesh)
            a = to_tensor4(op)
            for tol in (1e-5, 1e-10):
                tt = tl.tt_svd(op, tol)
                re = float(np.linalg.norm((a - tt_reconstruct(tt)).ravel())
                           / np.linalg.norm(a.ravel()))
                ok &= re <= tol
                szs = tt.mode_sizes
                for k in range(1, 4):
                    bound = min(int(np.prod(szs[:k])), int(np.prod(szs[k:])))
                    ok &= tt.ranks[k] <= bound
        details.append("bounds + recon <= tol on const3/timedep5/nmr2 at 1e-5/1e-10")
        report("criterion 8 (tensor-train suite)", bool(ok), "; ".join(details))


class TestCriterion09Breakdown:
    def serious_problem(self):
        mat = [[0, 1, 1], [1, 1, 1], [-1, 0, 2]]
        entries = {}
        for k in range(3):
            for l in range(3):
                if mat[k][l]:
                    entries[(k, l)] = [tl.Term(complex(mat[k][l]))]
        e1 = np.zeros(3)
        e1[0] = 1.0
        return tl.Problem("serious3", 3, 0.0, 1.0, entries, e1, e1)

    def test_serious_detected_and_recovered(self, tmp_path):
        p = self.serious_problem()
        mesh = tl.build_mesh(p.a, p.b, 12)
        a4 = tl.discretize_problem(p, mesh)
        res = tl.tensor_lanczos(a4, p.v, p.w, 3)
        detected = res.status.kind == "serious_breakdown"
        # same failure surfaces through the CLI exit code
        path = tmp_path / "p.json"
        path.write_text(tl.problem_to_json(p))
        code = cli_main(["run", "--problem-file", str(path), "--M", "12", "--n", "3",
                         "--output", str(tmp_path / "s")])
        detected &= code == EXIT_SERIOUS
        # full-vector splitting reproduces the direct (series) answer
        parts = []
        completed = True
        for w, v in tl.split_unit_vectors(0, 0, 3):
            r = tl.tensor_lanczos(a4, v, w, 3)
            completed &= r.status.kind in ("completed", "lucky_breakdown")
            parts.append(tl.approx_solution(r.tri, mesh, r.normalization).values)
        recovered = parts[0] - parts[1]
        direct = solution_via_series(a4, p.v, p.w, mesh).values
        gap = float(np.linalg.norm(recovered - direct) / np.linalg.norm(direct))
        ok = detected and completed and gap < 1e-8
        report("criterion 9 (serious breakdown + splitting recovery)", ok,
               f"detected={detected}, split gap {gap:.2e}")

    def test_split_consistency_without_breakdown(self):
        p = tl.builtin("const3")
        mesh = tl.build_mesh(p.a, p.b, 10)
        a4 = tl.discretize_problem(p, mesh)
        direct = tl.tensor_lanczos(a4, p.v, p.w, 3)
        s_direct = tl.approx_solution(direct.tri, mesh, direct.normalization).values
        parts = []
        for w, v in tl.split_unit_vectors(0, 0, 3):
            r = tl.tensor_lanczos(a4, v, w, 3)
            parts.append(tl.approx_solution(r.tri, mesh, r.normalization).values)
        gap = float(np.linalg.norm(parts[0] - parts[1] - s_direct)
                    / np.linalg.norm(s_direct))
        report("criterion 9 (split self-consistency)", gap < 1e-10, f"gap {gap:.2e}")


class TestCriterion10Determinism:
    COMMANDS = [
        ["run", "--problem", "const3", "--M", "10", "--n", "3",
         "--reference", "analytic"],
        ["run", "--problem", "timedep5", "--M", "10", "--n", "5",
         "--reference", "rk45"],
        ["convergence", "--problem", "nmr1", "--M", "5,15", "--n", "3",
         "--reference", "analytic"],
        ["ttranks", "--problem", "nmr1", "--M", "15", "--tol-tt", "1e-5,1e-10"],
    ]

    def test_byte_identical_outputs(self, tmp_path):
        digests = []
        for tag in ("a", "b"):
            root = tmp_path / tag
            root.mkdir()
            blobs = []
            for i, cmd in enumerate(self.COMMANDS):
                out = root / f"cmd{i}"
                code = cli_main([*cmd, "--output", str(out)])
                assert code == EXIT_OK
                for f in sorted(root.glob(f"cmd{i}*")):
                    blobs.append((f.name, f.read_bytes()))
            digests.append(blobs)
        ok = digests[0] == digests[1]
        names = sorted({n for n, _ in digests[0]})
        report("criterion 10 (byte-identical reruns)", ok,
               f"{len(names)} files compared across every acceptance command")
