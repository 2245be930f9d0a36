import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from toelanczos import (
    Problem,
    Reference,
    ResolventSingularError,
    Term,
    approx_solution,
    build_mesh,
    builtin,
    builtin_ids,
    discretize_problem,
    problem_to_json,
    tensor_lanczos,
)
from toelanczos import _rk45, cli, diagnostics, problems
from toelanczos.cli import (
    EXIT_GUARD,
    EXIT_IO,
    EXIT_LUCKY,
    EXIT_OK,
    EXIT_RESOLVENT,
    EXIT_SERIOUS,
    EXIT_SHAPE,
    main,
    solve,
)
from oracles import dense_resolvent_column

README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(*argv):
    return main(list(argv))


def run_fresh(*argv, cwd, timeout=120):
    """Run ``python`` with ``argv`` in a new interpreter on this checkout's sources.

    Its warnings go to its stderr, untouched by the test session's filters.
    """
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    return subprocess.run([sys.executable, *argv], cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=timeout)


# A(t) = cos(3t) (-2 pi i H / 10) on [0.5, 2], H complex Hermitian
HERMITIAN3 = np.array([[1.0, 2 - 1j, 0.5j], [2 + 1j, -1.0, 1.0], [-0.5j, 1.0, 0.5]])
SKEW3 = Problem("skew3", 3, 0.5, 2.0, {
    (k, l): [Term(-2j * np.pi * HERMITIAN3[k, l] / 10, 0, "cos", 3.0)]
    for k in range(3) for l in range(3) if HERMITIAN3[k, l]}, [1.0, 0.5, -1j], [1.0, 2.0, 0.5])

# prints whether any scipy module is loaded
SCIPY_LOADED = "print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"


def strict_json(path):
    """Parse a JSON file, refusing the NaN and Infinity extensions."""
    def reject(name):
        raise ValueError(f"{path.name} holds {name}")
    return json.loads(path.read_text(), parse_constant=reject)


# a 3x3 problem whose second Lanczos beta is exactly singular
SERIOUS3 = {
    "id": "serious3", "n": 3, "interval": [0.0, 1.0],
    "v": [{"re": 1.0, "im": 0.0}, {"re": 0.0, "im": 0.0}, {"re": 0.0, "im": 0.0}],
    "w": [{"re": 1.0, "im": 0.0}, {"re": 0.0, "im": 0.0}, {"re": 0.0, "im": 0.0}],
    "entries": [
        {"k": 1, "l": 2, "terms": [{"re": 1.0, "im": 0.0, "power": 0, "trig": "none", "omega": 0.0}]},
        {"k": 1, "l": 3, "terms": [{"re": 1.0, "im": 0.0, "power": 0, "trig": "none", "omega": 0.0}]},
        {"k": 2, "l": 1, "terms": [{"re": 1.0, "im": 0.0, "power": 0, "trig": "none", "omega": 0.0}]},
        {"k": 3, "l": 1, "terms": [{"re": -1.0, "im": 0.0, "power": 0, "trig": "none", "omega": 0.0}]},
    ],
}


class TestRun:
    def test_const3_against_analytic(self, tmp_path):
        out = tmp_path / "c3"
        code = run_cli("run", "--problem", "const3", "--M", "10", "--n", "3",
                       "--reference", "analytic", "--output", str(out))
        assert code == EXIT_OK
        report = json.loads((tmp_path / "c3_report.json").read_text())
        assert report["err_sol"] == pytest.approx(8.230e-2, rel=0.05)
        assert report["meta"]["status"] == "completed"
        csv = (tmp_path / "c3_solution.csv").read_text().strip().split("\n")
        assert csv[0] == "tau,re_s,im_s"
        assert len(csv) == 11

    def test_zero_problem_solution_constant(self, tmp_path):
        out = tmp_path / "z"
        code = run_cli("run", "--problem", "zero1", "--M", "5", "--n", "1",
                       "--output", str(out))
        assert code == EXIT_OK
        rows = (tmp_path / "z_solution.csv").read_text().strip().split("\n")[1:]
        vals = [float(r.split(",")[1]) for r in rows]
        assert np.allclose(vals, 1.0, atol=1e-14)

    def test_json_solution_format(self, tmp_path):
        out = tmp_path / "j"
        code = run_cli("run", "--problem", "zero1", "--M", "4", "--n", "1",
                       "--format", "json", "--output", str(out))
        assert code == EXIT_OK
        doc = json.loads((tmp_path / "j_solution.json").read_text())
        assert len(doc["tau"]) == 4

    def test_problem_file(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(problem_to_json(builtin("const3")))
        out = tmp_path / "f"
        code = run_cli("run", "--problem-file", str(path), "--M", "8", "--n", "3",
                       "--reference", "analytic", "--output", str(out))
        assert code == EXIT_OK

    def test_unknown_problem_is_shape_error(self, tmp_path, capsys):
        code = run_cli("run", "--problem", "bogus", "--M", "5", "--n", "1",
                       "--output", str(tmp_path / "x"))
        assert code == EXIT_SHAPE
        # the message itself, not the quoted str() of its KeyError
        assert capsys.readouterr().err.startswith("error: unknown builtin problem 'bogus'")

    def test_serious_breakdown_exit_code(self, tmp_path):
        path = tmp_path / "serious.json"
        path.write_text(json.dumps(SERIOUS3))
        out = tmp_path / "s"
        code = run_cli("run", "--problem-file", str(path), "--M", "8", "--n", "3",
                       "--output", str(out))
        assert code == EXIT_SERIOUS
        report = json.loads((tmp_path / "s_report.json").read_text())
        assert report["meta"]["status"] == "serious_breakdown"

    def test_singular_beta_cond_is_null(self, tmp_path):
        # an exactly singular beta has an infinite condition number: null, not Infinity
        path = tmp_path / "serious.json"
        path.write_text(json.dumps(SERIOUS3))
        code = run_cli("run", "--problem-file", str(path), "--M", "8", "--n", "3",
                       "--output", str(tmp_path / "s"))
        assert code == EXIT_SERIOUS
        report = strict_json(tmp_path / "s_report.json")
        assert report["meta"]["status"] == "serious_breakdown"
        assert report["meta"]["breakdown_cond"] is None

    def test_unknown_trig_kind_is_shape_error(self, tmp_path, capsys):
        doc = json.loads(problem_to_json(builtin("zero1")))
        doc["entries"] = [{"k": 1, "l": 1, "terms": [
            {"re": 1.0, "im": 0.0, "power": 0, "trig": "tan", "omega": 1.0}]}]
        path = tmp_path / "tan.json"
        path.write_text(json.dumps(doc))
        code = run_cli("run", "--problem-file", str(path), "--M", "4", "--n", "1",
                       "--reference", "rk45", "--output", str(tmp_path / "t"))
        assert code == EXIT_SHAPE
        assert "unknown trig kind 'tan'" in capsys.readouterr().err
        assert [f.name for f in tmp_path.iterdir()] == ["tan.json"]

    def test_zero_reference_is_shape_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(problems, "rk45_reference",
                            lambda problem, mesh, **tols: Reference(np.zeros(mesh.m)))
        code = run_cli("run", "--problem", "const3", "--M", "6", "--n", "2",
                       "--reference", "rk45", "--output", str(tmp_path / "z"))
        assert code == EXIT_SHAPE
        assert "all zero" in capsys.readouterr().err

    def test_integrator_failure_is_shape_error(self, tmp_path):
        # u' = 1e300 u: RK45 needs steps below the float spacing near t = 0
        doc = json.loads(problem_to_json(builtin("zero1")))
        doc["entries"] = [{"k": 1, "l": 1, "terms": [
            {"re": 1e300, "im": 0.0, "power": 0, "trig": "none", "omega": 0.0}]}]
        (tmp_path / "stiff.json").write_text(json.dumps(doc))
        proc = run_fresh("-m", "toelanczos.cli", "run", "--problem-file", "stiff.json",
                         "--M", "20", "--n", "1", "--reference", "rk45", "--output", "s",
                         cwd=tmp_path)
        assert proc.returncode == EXIT_SHAPE
        assert "error: integrator failed" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert [f.name for f in tmp_path.iterdir()] == ["stiff.json"]

    def test_stiff_decay_fails_within_call_budget(self, tmp_path):
        # u' = -1e50 u: RK45 takes steps near 1e-50 and would never reach t = 1
        doc = json.loads(problem_to_json(builtin("zero1")))
        doc["entries"] = [{"k": 1, "l": 1, "terms": [
            {"re": -1e50, "im": 0.0, "power": 0, "trig": "none", "omega": 0.0}]}]
        (tmp_path / "stiff.json").write_text(json.dumps(doc))
        proc = run_fresh("-m", "toelanczos.cli", "run", "--problem-file", "stiff.json",
                         "--M", "20", "--n", "1", "--reference", "rk45", "--output", "s",
                         cwd=tmp_path, timeout=30)
        assert proc.returncode == EXIT_SHAPE
        assert "error: integrator failed" in proc.stderr
        assert f"more than {problems.RK45_MAX_CALLS} evaluations" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert [f.name for f in tmp_path.iterdir()] == ["stiff.json"]

    @pytest.mark.parametrize("coeff,power,b,message", [
        # a pole at t = a: the integrator stops at its first evaluation
        (-1.0, -1, 1.0, "integrator failed for 'const3' at t = 0.0: A(t) u is not finite"),
        # t**400 overflows past t = 5.9: the discretization names the sample
        (-1.0, 400, 10.0,
         "entry (0, 0) of problem 'const3', scaled by h = 1.25, is not finite at tau[4] = 6.25"),
        # a finite sample that overflows when scaled by h
        (1e307, 0, 1000.0,
         "entry (0, 0) of problem 'const3', scaled by h = 125.0, is not finite at tau[0] = 125.0"),
    ], ids=["pole", "overflow", "h-overflow"])
    def test_non_finite_term_fails_with_one_error_line(self, tmp_path, coeff, power, b, message):
        doc = json.loads(problem_to_json(builtin("const3")))
        doc["interval"] = [0.0, b]
        doc["entries"][0]["terms"][0].update(re=coeff, power=power)
        (tmp_path / "term.json").write_text(json.dumps(doc))
        proc = run_fresh("-m", "toelanczos.cli", "run", "--problem-file", "term.json",
                         "--M", "8", "--n", "3", "--reference", "rk45", "--output", "p",
                         cwd=tmp_path, timeout=30)
        assert proc.returncode == EXIT_SHAPE
        assert proc.stderr.splitlines() == ["error: " + message], proc.stderr
        assert [f.name for f in tmp_path.iterdir()] == ["term.json"]

    @staticmethod
    def run_scaled_const3(tmp_path, scale):
        """``run`` on const3 with every coefficient times ``scale``, in a fresh interpreter."""
        doc = json.loads(problem_to_json(builtin("const3")))
        for entry in doc["entries"]:
            for term in entry["terms"]:
                term["re"] *= scale
        (tmp_path / "big.json").write_text(json.dumps(doc))
        return run_fresh("-m", "toelanczos.cli", "run", "--problem-file", "big.json",
                         "--M", "20", "--n", "3", "--output", "b", cwd=tmp_path)

    @pytest.mark.parametrize("scale", [1e150, 1e300])
    def test_overflowing_run_fails_with_one_error_line(self, tmp_path, scale):
        # the coefficients overflow: the loop stops at the first non-finite
        # alpha or beta, before any warning or LAPACK message
        proc = self.run_scaled_const3(tmp_path, scale)
        assert proc.returncode == EXIT_SHAPE
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: Lanczos iteration k="), proc.stderr
        assert [f.name for f in tmp_path.iterdir()] == ["big.json"]

    @pytest.mark.parametrize("scale", [1e60, 1e100])
    def test_overflowing_diagnostics_fail_with_one_error_line(self, tmp_path, scale):
        # the run completes with finite coefficients, but the norms of the
        # operator's powers overflow: the first measure to read one is named,
        # with no warning
        proc = self.run_scaled_const3(tmp_path, scale)
        assert proc.returncode == EXIT_SHAPE
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: err_"), proc.stderr
        assert [f.name for f in tmp_path.iterdir()] == ["big.json"]

    def test_import_leaves_integrator_unloaded(self, tmp_path):
        # only an RK45 reference imports the package's integrator, and nothing loads scipy
        proc = run_fresh("-c", "import sys, toelanczos; print('toelanczos._rk45' in sys.modules); "
                         + SCIPY_LOADED, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "False"]

    def test_runs_without_rk45_load_no_scipy(self, tmp_path):
        # cos(3t) C with C skew-Hermitian: the closed form takes an eigenbasis;
        # the RK45 runs, a single pass and a sweep, load no scipy either
        write_problem(tmp_path, SKEW3, "skew3")
        runs = [
            ["run", "--problem", "const3", "--M", "40", "--n", "3", "--reference", "analytic",
             "--output", "r"],
            ["run", "--problem-file", "skew3.json", "--M", "40", "--n", "3",
             "--reference", "analytic", "--output", "s"],
            ["ttranks", "--problem", "nmr2", "--M", "120", "--output", "t"],
            ["run", "--problem", "nmr3", "--M", "40", "--n", "4", "--reference", "rk45",
             "--output", "u"],
            ["convergence", "--problem", "timedep5", "--M", "10,20", "--n", "5",
             "--reference", "rk45", "--output", "v"],
        ]
        code = ("import contextlib, io, sys; from toelanczos import cli\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                f"    codes = [cli.main(argv) for argv in {runs!r}]\n"
                "print(*codes); " + SCIPY_LOADED)
        proc = run_fresh("-c", code, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == [str(EXIT_OK)] * len(runs) + ["False"]

    @pytest.mark.parametrize("argv", [
        pytest.param(["run", "--problem", "timedep5", "--M", "12", "--n", "5",
                      "--reference", "rk45"], id="timedep5-5"),
        pytest.param(["run", "--problem", "nmr2", "--M", "12", "--n", "4",
                      "--reference", "rk45"], id="nmr2-4"),
        pytest.param(["ttranks", "--problem", "nmr2", "--M", "12",
                      "--tol-tt", "1e-5,1e-10"], id="ttranks-nmr2"),
    ])
    def test_forms_no_dense_tensor(self, tmp_path, monkeypatch, argv):
        # the diagnostics read the run's own bases and the TT sweep reads the
        # profiles: no dense tensor is formed
        def refuse(*args, **kwargs):
            raise AssertionError("a dense * product was formed")
        monkeypatch.setattr(diagnostics, "star_mul_tt", refuse)
        code = run_cli(*argv, "--output", str(tmp_path / "d"))
        assert code == EXIT_OK

    def test_large_guard(self, tmp_path):
        code = run_cli("run", "--problem", "const3", "--M", "2000", "--n", "3",
                       "--output", str(tmp_path / "g"))
        assert code == EXIT_GUARD


    def test_empty_m_list_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("run", "--problem", "const3", "--M", ",", "--n", "3",
                    "--output", str(tmp_path / "e"))
        assert exc.value.code == EXIT_SHAPE
        assert "--M" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_several_m_values_exit_2(self, tmp_path, capsys):
        code = run_cli("run", "--problem", "const3", "--M", "10,20", "--n", "3",
                       "--output", str(tmp_path / "two"))
        assert code == EXIT_SHAPE
        assert "one --M value" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


def write_problem(tmp_path, problem, ident, **changes):
    """Write ``problem`` as a problem file under the id ``ident``."""
    doc = json.loads(problem_to_json(problem))
    doc.update(id=ident, **changes)
    path = tmp_path / f"{ident}.json"
    path.write_text(json.dumps(doc))
    return path


def _with_term(field, value):
    def change(doc):
        doc["entries"][0]["terms"][0][field] = value
        return doc
    return change


class TestMalformedProblemFile:
    @pytest.mark.parametrize("change,field", [
        (lambda doc: {**doc, "v": [1]}, "v[0]"),
        (_with_term("re", "1"), "entries[0].terms[0].re"),
        (lambda doc: [doc], "the document"),
        (_with_term("power", 1.7), "entries[0].terms[0].power"),
        (lambda doc: {**doc, "v": [doc["v"][0], {"re": float("nan"), "im": 0.0},
                                   doc["v"][2]]}, "v[1].re"),
        (_with_term("omega", float("inf")), "entries[0].terms[0].omega"),
        # entry (1, 1) twice, the second with no terms: no A(t) is solved
        (lambda doc: {**doc, "entries": [*doc["entries"], {"k": 1, "l": 1, "terms": []}]},
         "entries[0] and entries[8] both give entry (k, l) = (1, 1)"),
        (lambda doc: {**doc, "n": 0, "v": [], "w": [], "entries": []},
         "n must be at least 1, got 0"),
        # k and l are 1-based in the file
        (lambda doc: {**doc, "entries": [{**doc["entries"][1], "k": 0}]},
         "entries[0].k must be in 1..3, got 0"),
        (lambda doc: {**doc, "entries": [{**doc["entries"][1], "l": 0}]},
         "entries[0].l must be in 1..3, got 0"),
        (_with_term("trig", "tan"), "entries[0].terms[0].trig: unknown trig kind 'tan'"),
        (lambda doc: {**doc, "v": doc["v"][:2]}, "v must hold n = 3 numbers, got 2"),
    ], ids=["v-item-not-object", "re-string", "top-level-array", "fractional-power",
            "v-re-nan", "omega-infinity", "duplicate-entry", "n-zero", "k-zero", "l-zero",
            "trig-unknown", "v-short"])
    def test_exits_2_naming_the_field(self, tmp_path, capsys, change, field):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(change(json.loads(problem_to_json(builtin("const3"))))))
        code = run_cli("run", "--problem-file", str(path), "--M", "8", "--n", "3",
                       "--output", str(tmp_path / "x"))
        assert code == EXIT_SHAPE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and field in err
        assert [f.name for f in tmp_path.iterdir()] == ["bad.json"]


# a diagonal A(t): (1, 1) is -t^2/2 + 2i sin 3t, (2, 2) is (1 - i) cos 5t - 0.3
DIAG2 = Problem("diag2", 2, 0.5, 2.0, {
    (0, 0): [Term(-0.5, 2), Term(2j, 0, "sin", 3.0)],
    (1, 1): [Term(1 - 1j, 0, "cos", 5.0), Term(-0.3)]}, [1.0, 0.5], [1.0, 2.0])


class TestAnalyticReference:
    """``--reference analytic`` picks the closed form by content, never by id."""

    def run_file(self, path, out, m="8", n="3"):
        return run_cli("run", "--problem-file", str(path), "--M", m, "--n", n,
                       "--reference", "analytic", "--output", str(out))

    def test_no_terms_gets_constant(self, tmp_path):
        p = Problem("const3", 2, 0.0, 1.0, {(0, 1): []}, np.array([1.0, 2.0]),
                    np.array([3.0, 1.0]))
        code = self.run_file(write_problem(tmp_path, p, "quiet"), tmp_path / "q", n="1")
        assert code == EXIT_OK
        report = json.loads((tmp_path / "q_report.json").read_text())
        assert report["err_sol"] < 1e-14

    def test_const3_content_under_another_id(self, tmp_path):
        code = self.run_file(write_problem(tmp_path, builtin("const3"), "mine"),
                             tmp_path / "f")
        assert code == EXIT_OK
        run_cli("run", "--problem", "const3", "--M", "8", "--n", "3",
                "--reference", "analytic", "--output", str(tmp_path / "b"))
        got = json.loads((tmp_path / "f_report.json").read_text())
        want = json.loads((tmp_path / "b_report.json").read_text())
        assert got["err_sol"] == want["err_sol"]

    @pytest.mark.parametrize("source,changes", [("timedep5", {})])
    def test_other_content_under_const3_id_exits_2(self, tmp_path, capsys, source, changes):
        path = write_problem(tmp_path, builtin(source), "const3", **changes)
        code = self.run_file(path, tmp_path / "x")
        assert code == EXIT_SHAPE
        assert "no analytic reference" in capsys.readouterr().err
        assert [f.name for f in tmp_path.iterdir()] == ["const3.json"]

    @pytest.mark.parametrize("changes", [
        {"interval": [0.0, 2.0]},
        {"w": [{"re": 1.0, "im": 0.0}, {"re": 1.0, "im": 0.0}, {"re": 0.0, "im": 0.0}]},
    ], ids=["interval", "w"])
    def test_other_const3_content_gets_its_closed_form(self, tmp_path, changes):
        # const3's A is one constant Hermitian matrix on any interval and for any probes
        path = write_problem(tmp_path, builtin("const3"), "const3", **changes)
        assert self.run_file(path, tmp_path / "x") == EXIT_OK
        p = problems.problem_from_json(path.read_text())
        mesh, _, sol = solve(p, 8, 3)
        ref = problems.analytic_reference(p, mesh).values
        ode = problems.rk45_reference(p, mesh, rtol=1e-12, atol=1e-14).values
        assert np.max(np.abs(ref - ode)) <= 1e-10 * np.max(np.abs(ref))
        report = strict_json(tmp_path / "x_report.json")
        assert report["err_sol"] == diagnostics.err_solution(ref, sol.values)

    def test_refused_closed_form_fails_before_the_solve(self, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("solve ran before the reference was refused")
        monkeypatch.setattr(cli, "solve", refuse)
        code = run_cli("run", "--problem", "nmr2", "--M", "200", "--n", "4",
                       "--reference", "analytic", "--output", str(tmp_path / "x"))
        assert code == EXIT_SHAPE
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1, lines
        assert lines[0].startswith("error: no analytic reference for problem 'nmr2': ")
        assert list(tmp_path.iterdir()) == []

    def test_generated_nmr1(self, tmp_path):
        code = run_cli("run", "--problem", "nmr1", "--M", "20", "--n", "2", "--seed", "5",
                       "--reference", "analytic", "--output", str(tmp_path / "n"))
        assert code == EXIT_OK
        report = json.loads((tmp_path / "n_report.json").read_text())
        assert 0.0 < report["err_sol"] < 0.1

    def test_nmr1_file_gets_the_generated_reference(self, tmp_path):
        # the closed form is read from the terms, which the file holds in full
        code = self.run_file(write_problem(tmp_path, builtin("nmr1"), "nmr1"), tmp_path / "f")
        assert code == EXIT_OK
        assert run_cli("run", "--problem", "nmr1", "--M", "8", "--n", "3", "--reference",
                       "analytic", "--output", str(tmp_path / "b")) == EXIT_OK
        got = strict_json(tmp_path / "f_report.json")
        assert got["err_sol"] == strict_json(tmp_path / "b_report.json")["err_sol"] > 0

    @pytest.mark.parametrize("change,message", [
        (lambda doc: doc["entries"].append({"k": 1, "l": 2, "terms": [{"re": 0.1, "im": 0.0}]}),
         "entry (k, l) = (1, 2) is off the diagonal"),
        (lambda doc: doc["entries"][0]["terms"][0].update(power=-1),
         "term 0 of entry (k, l) = (1, 1)"),
        (lambda doc: doc["entries"][1]["terms"][0].update(power=1),
         "term 0 of entry (k, l) = (2, 2)"),
        (lambda doc: doc["entries"][1]["terms"][0].update(omega=0.0),
         "term 0 of entry (k, l) = (2, 2)"),
        # exp of the integral of t^400 overflows: the reference is refused, not written as NaN
        (lambda doc: doc["entries"][0]["terms"][0].update(re=1.0, power=400),
         "the closed form is not finite at tau[4] = 1.25"),
    ], ids=["off-diagonal", "power-minus-1", "cos-power-1", "cos-omega-0", "overflow"])
    def test_content_without_closed_form_exits_2(self, tmp_path, capsys, change, message):
        doc = json.loads(problem_to_json(DIAG2))
        doc["interval"] = [0.0, 2.0]
        change(doc)
        (tmp_path / "diag2.json").write_text(json.dumps(doc))
        code = self.run_file(tmp_path / "diag2.json", tmp_path / "x", n="2")
        assert code == EXIT_SHAPE
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1, lines
        assert lines[0].startswith("error: no analytic reference for problem 'diag2': ")
        assert message in lines[0]
        assert [f.name for f in tmp_path.iterdir()] == ["diag2.json"]


# the integer values span the float range: 10**110 cubed and 10**400 overflow it
HUGE_111, HUGE_401 = "1" + "0" * 110, "1" + "0" * 400
BEYOND_MEMORY = "1" + "0" * 17
NUMERIC_VALUES = {"zero": "0", "negative": "-3", "111digits": HUGE_111, "401digits": HUGE_401,
                  "nan": "nan", "inf": "inf", "underflow": "1e-400"}
SOLVE_FLAGS = ["--M", "--n", "--seed", "--rtol", "--atol", "--eps-lucky", "--eps-serious"]
NUMERIC_FLAGS = [(command, flag) for command, flags in (("run", SOLVE_FLAGS),
                                                        ("convergence", SOLVE_FLAGS),
                                                        ("ttranks", ["--M", "--seed", "--tol-tt"]))
                 for flag in flags]
DOCUMENTED_EXITS = {EXIT_OK, EXIT_SHAPE, EXIT_LUCKY, EXIT_SERIOUS, EXIT_RESOLVENT, EXIT_IO,
                    EXIT_GUARD}


class TestOptions:
    @pytest.mark.parametrize("value", NUMERIC_VALUES.values(), ids=NUMERIC_VALUES.keys())
    @pytest.mark.parametrize("command,flag", NUMERIC_FLAGS,
                             ids=[f"{c}{f}" for c, f in NUMERIC_FLAGS])
    def test_no_numeric_value_gives_a_traceback(self, tmp_path, capsys, command, flag, value):
        # every value is refused before a solve or runs nmr2 at M=10 within a second
        options = {"--M": "10"} if command == "ttranks" else {"--M": "10", "--n": "3"}
        options[flag] = value
        argv = [command, "--problem", "nmr2", *(x for item in options.items() for x in item),
                "--output", str(tmp_path / "x")]
        try:
            code = run_cli(*argv)
        except SystemExit as exc:  # argparse refuses the value
            code = exc.code
        assert code in DOCUMENTED_EXITS
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("argv,want", [
        (["run", "--problem", "const3", "--M", HUGE_111, "--n", "3"], EXIT_GUARD),
        (["run", "--problem", "const3", "--M", "10", "--n", HUGE_401], EXIT_GUARD),
        (["convergence", "--problem", "const3", "--M", "10,1" + "0" * 103, "--n", "3"],
         EXIT_GUARD),
        (["ttranks", "--problem", "const3", "--M", HUGE_111, "--allow-large"], EXIT_SHAPE),
        # beyond the address space, so numpy refuses the mesh before touching memory
        (["ttranks", "--problem", "const3", "--M", BEYOND_MEMORY, "--allow-large"], EXIT_SHAPE),
        (["run", "--problem", "const3", "--M", BEYOND_MEMORY, "--n", "1", "--allow-large"],
         EXIT_SHAPE),
    ], ids=["run-M", "run-n", "convergence-M", "ttranks-allow-large", "ttranks-beyond-memory",
            "run-beyond-memory"])
    def test_budget_takes_any_integer(self, tmp_path, capsys, argv, want):
        # the work count is an exact integer: no M or n overflows the guard
        assert run_cli(*argv, "--output", str(tmp_path / "x")) == want
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert ("--allow-large" in err[0]) == (want == EXIT_GUARD)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["convergence", "ttranks"])
    def test_format_only_on_run(self, tmp_path, capsys, command):
        argv = [command, "--problem", "const3", "--M", "10,20", "--format", "json",
                "--output", str(tmp_path / "f")]
        if command == "convergence":
            argv += ["--n", "3", "--reference", "analytic"]
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == EXIT_SHAPE
        assert "--format" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ("run", "--reference", "rk45", "--rtol", "nan"),
        ("run", "--reference", "rk45", "--atol", "inf"),
        ("run", "--reference", "rk45", "--rtol", "0"),
        ("run", "--eps-lucky", "nan"),
        ("run", "--eps-serious", "nan"),
        ("convergence", "--eps-serious", "-1"),
        ("ttranks", "--tol-tt", "nan"),
        ("ttranks", "--tol-tt", "1e-5,inf"),
    ], ids=["rtol-nan", "atol-inf", "rtol-zero", "eps-lucky-nan", "eps-serious-nan",
            "eps-serious-negative", "tol-tt-nan", "tol-tt-inf-item"])
    def test_non_finite_or_non_positive_value_exits_2(self, tmp_path, capsys, argv):
        command, *flag = argv
        extra = [] if command == "ttranks" else ["--n", "3"]
        with pytest.raises(SystemExit) as exc:
            run_cli(command, "--problem", "const3", "--M", "20", *extra, *flag,
                    "--output", str(tmp_path / "x"))
        assert exc.value.code == EXIT_SHAPE
        assert flag[-2] in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("source", [
        pytest.param(["--problem", "nmr2", "--problem-file", "p.json"], id="both"),
        pytest.param([], id="neither"),
    ])
    def test_problem_source_exactly_one(self, tmp_path, capsys, source):
        (tmp_path / "p.json").write_text(problem_to_json(builtin("const3")))
        with pytest.raises(SystemExit) as exc:
            run_cli("run", *source, "--M", "8", "--n", "3", "--output", str(tmp_path / "x"))
        assert exc.value.code == EXIT_SHAPE
        assert "--problem-file" in capsys.readouterr().err
        assert [f.name for f in tmp_path.iterdir()] == ["p.json"]

    def test_seed_with_unknown_nmr_id_names_builtins(self, tmp_path, capsys):
        code = run_cli("run", "--problem", "nmrx", "--seed", "1", "--M", "8", "--n", "3",
                       "--output", str(tmp_path / "x"))
        assert code == EXIT_SHAPE
        assert "unknown builtin problem 'nmrx'; known: " in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_seed_leaves_timedep5_unchanged(self, tmp_path):
        files = {}
        for tag, seed in (("plain", []), ("seeded", ["--seed", "7"])):
            code = run_cli("convergence", "--problem", "timedep5", "--M", "10,20", "--n", "3",
                           "--reference", "rk45", *seed, "--output", str(tmp_path / tag))
            assert code == EXIT_OK
            files[tag] = [(tmp_path / f"{tag}{suffix}").read_bytes()
                          for suffix in ("_convergence.csv", "_slope.json")]
        assert files["plain"] == files["seeded"]


class TestConvergence:
    def test_const3_sweep_slope(self, tmp_path):
        out = tmp_path / "conv"
        code = run_cli("convergence", "--problem", "const3", "--M", "10,40,160",
                       "--n", "3", "--reference", "analytic", "--output", str(out))
        assert code == EXIT_OK
        doc = json.loads((tmp_path / "conv_slope.json").read_text())
        assert -1.2 <= doc["slope"] <= -0.8
        rows = (tmp_path / "conv_convergence.csv").read_text().strip().split("\n")
        assert rows[0].startswith("problem,M,n,")
        assert len(rows) == 4

    def test_rk45_reference_integrated_once(self, tmp_path, monkeypatch):
        calls = []
        integrate = _rk45.integrate

        def counting_integrate(*args, **kwargs):
            calls.append(1)
            return integrate(*args, **kwargs)
        monkeypatch.setattr(_rk45, "integrate", counting_integrate)
        argv = ["convergence", "--problem", "timedep5", "--M", "10,20,30", "--n", "5",
                "--reference", "rk45"]
        assert run_cli(*argv, "--output", str(tmp_path / "once")) == EXIT_OK
        assert len(calls) == 1
        # a fresh integration per mesh writes the same bytes
        monkeypatch.setattr(cli, "_sweep_reference", lambda problem, args: lambda mesh: (
            problems.rk45_reference(problem, mesh, rtol=args.rtol, atol=args.atol).values))
        assert run_cli(*argv, "--output", str(tmp_path / "each")) == EXIT_OK
        assert len(calls) == 4
        for suffix in ("_convergence.csv", "_slope.json"):
            once = (tmp_path / f"once{suffix}").read_bytes()
            assert once == (tmp_path / f"each{suffix}").read_bytes()

    def test_exact_points_give_null_slope(self, tmp_path):
        # A = 0 is solved exactly (err_sol == 0), so no point has a logarithm
        code = run_cli("convergence", "--problem", "zero1", "--M", "10,20", "--n", "1",
                       "--reference", "analytic", "--output", str(tmp_path / "z"))
        assert code == EXIT_OK
        doc = strict_json(tmp_path / "z_slope.json")
        assert doc["slope"] is None
        assert [err for _, err in doc["points"]] == [0.0, 0.0]

    def test_one_distinct_m_gives_null_slope(self, tmp_path):
        # two points at one M define no slope
        code = run_cli("convergence", "--problem", "const3", "--M", "10,10", "--n", "3",
                       "--reference", "analytic", "--output", str(tmp_path / "d"))
        assert code == EXIT_OK
        doc = strict_json(tmp_path / "d_slope.json")
        assert doc["slope"] is None
        assert [m for m, _ in doc["points"]] == [10, 10]

    def test_empty_m_list_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("convergence", "--problem", "const3", "--M", ",", "--n", "3",
                    "--reference", "analytic", "--output", str(tmp_path / "e"))
        assert exc.value.code == EXIT_SHAPE
        assert "--M" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestTTRanks:
    def test_nmr1_small(self, tmp_path):
        out = tmp_path / "tt"
        code = run_cli("ttranks", "--problem", "nmr1", "--M", "20,40",
                       "--tol-tt", "1e-5,1e-10", "--output", str(out))
        assert code == EXIT_OK
        rows = (tmp_path / "tt_ttranks.csv").read_text().strip().split("\n")
        assert rows[0] == "M,tol,nnz,r0,r1,r2,r3,r4,params,cf"
        assert len(rows) == 5

    def test_nmr2_csv_bytes(self, tmp_path):
        # integers, repr(tol) and repr(params / nnz): the table as the dense
        # unfolding sweep wrote it
        code = run_cli("ttranks", "--problem", "nmr2", "--M", "30",
                       "--tol-tt", "1e-5,1e-10", "--output", str(tmp_path / "n2"))
        assert code == EXIT_OK
        assert (tmp_path / "n2_ttranks.csv").read_bytes() == (
            b"M,tol,nnz,r0,r1,r2,r3,r4,params,cf\n"
            b"30,1e-05,60450,1,16,3,30,1,4624,0.07649296939619521\n"
            b"30,1e-10,60450,1,16,3,30,1,4624,0.07649296939619521\n")

    def test_empty_tol_list_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("ttranks", "--problem", "nmr1", "--M", "10", "--tol-tt", ",",
                    "--output", str(tmp_path / "e"))
        assert exc.value.code == EXIT_SHAPE
        assert "--tol-tt" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_zero_operator_exits_2(self, tmp_path, capsys):
        code = run_cli("ttranks", "--problem", "zero1", "--M", "5",
                       "--output", str(tmp_path / "z"))
        assert code == EXIT_SHAPE
        assert "no nonzeros" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


# a 1x1 problem A = 10 on [0, 1]: at M = 10, h*A = 1 makes I - alpha_1 singular
SINGULAR1 = {
    "id": "singular1", "n": 1, "interval": [0.0, 1.0],
    "v": [{"re": 1.0, "im": 0.0}], "w": [{"re": 1.0, "im": 0.0}],
    "entries": [{"k": 1, "l": 1, "terms": [
        {"re": 10.0, "im": 0.0, "power": 0, "trig": "none", "omega": 0.0}]}],
}

# A(t) = 1/t on [0, 1]: h * A(tau_1) = 1 makes I - alpha_1 singular on every mesh
POLE1 = {**SINGULAR1, "id": "pole1", "entries": [{"k": 1, "l": 1, "terms": [
    {"re": 1.0, "im": 0.0, "power": -1, "trig": "none", "omega": 0.0}]}]}

BUILTIN_N = {"const3": 3, "timedep5": 5, "zero1": 1, "nmr1": 4, "nmr2": 4, "nmr3": 4}


class TestSolve:
    @pytest.mark.parametrize("problem_id", builtin_ids())
    def test_equals_the_hand_wired_chain(self, problem_id):
        p, n = builtin(problem_id), BUILTIN_N[problem_id]
        mesh = build_mesh(p.a, p.b, 40)
        res = tensor_lanczos(discretize_problem(p, mesh), p.v, p.w, n)
        sol = approx_solution(res.tri, mesh, res.normalization)
        got_mesh, got_res, got_sol = solve(p, 40, n)
        assert np.array_equal(got_mesh.tau, mesh.tau)
        for got, want in ((got_res.tri.alphas, res.tri.alphas),
                          (got_res.tri.betas, res.tri.betas)):
            assert len(got) == len(want)
            assert all(np.array_equal(x, y) and x.dtype == y.dtype for x, y in zip(got, want))
        assert np.array_equal(got_sol.values, sol.values)

    def test_breakdown_prefix_keeps_its_solution(self, tmp_path):
        # nmr3 at M=100 breaks down seriously at k=9; the 9-level prefix is usable
        _, res, sol = solve(builtin("nmr3"), 100, 12)
        assert res.status.kind == "serious_breakdown" and res.status.k == 9
        assert res.tri.n == 9
        assert sol is not None and np.all(np.isfinite(sol.values))
        code = run_cli("run", "--problem", "nmr3", "--M", "100", "--n", "12",
                       "--output", str(tmp_path / "b"))
        assert code == EXIT_SERIOUS

    def test_completed_run_with_singular_mesh_row_raises(self, tmp_path, capsys):
        path = tmp_path / "singular1.json"
        path.write_text(json.dumps(SINGULAR1))
        p = problems.problem_from_json(path.read_text())
        mesh = build_mesh(p.a, p.b, 10)
        assert tensor_lanczos(discretize_problem(p, mesh), p.v, p.w, 1).status.completed
        with pytest.raises(ResolventSingularError, match="mesh row 1 "):
            solve(p, 10, 1)
        code = run_cli("run", "--problem-file", str(path), "--M", "10", "--n", "1",
                       "--output", str(tmp_path / "s"))
        assert code == EXIT_RESOLVENT
        assert capsys.readouterr().err.splitlines() == [
            "error: resolvent mesh row 1 has kappa_1 = inf, above 1/eps = 4.504e+15: "
            "the solution cannot be evaluated at this M and n"]
        assert [f.name for f in tmp_path.iterdir()] == ["singular1.json"]

    @pytest.mark.parametrize("source,argv,row", [
        ("file", ["--M", "4", "--n", "1"], 1),
        ("file", ["--M", "100", "--n", "1"], 1),
        # completes, past its usable n: the continued fraction's level 12 had
        # kappa_1 = 1.3e19, but no mesh row's D_j is ill-conditioned
        ("nmr3", ["--M", "80", "--n", "12", "--eps-serious", "1e20"], None),
    ], ids=["pole-M4", "pole-M100", "nmr3-past-usable-n"])
    def test_singular_mesh_row_promises_no_remedy(self, tmp_path, capsys, source, argv, row):
        # a finer mesh does not help a pole at t = a, and the message does not suggest one
        path = tmp_path / "pole1.json"
        path.write_text(json.dumps(POLE1))
        problem = ["--problem-file", str(path)] if source == "file" else ["--problem", source]
        code = run_cli("run", *problem, *argv, "--output", str(tmp_path / "s"))
        lines = capsys.readouterr().err.splitlines()
        if row is None:
            assert code == EXIT_OK and lines == []
            assert sorted(f.name for f in tmp_path.iterdir()) == [
                "pole1.json", "s_report.json", "s_solution.csv"]
            return
        assert code == EXIT_RESOLVENT
        assert len(lines) == 1, lines
        assert lines[0].startswith(f"error: resolvent mesh row {row} has kappa_1 = inf")
        assert "small enough h" not in lines[0]
        assert [f.name for f in tmp_path.iterdir()] == ["pole1.json"]

    @pytest.mark.parametrize("problem_id,m,n_used,err_sol,max_cond", [
        # completes; the continued fraction raised at level 12 (kappa_1 = 1.3e19)
        ("nmr3", 80, 12, 2.088e-2, 1.13),
        # stops seriously at k=6; the fraction of the 6-term prefix was unusable
        ("nmr1", 40, 6, 4.745e-3, 1.10),
    ])
    def test_runs_past_usable_n_return_their_solution(self, problem_id, m, n_used, err_sol,
                                                      max_cond):
        p = builtin(problem_id)
        mesh, res, sol = solve(p, m, 12, eps_serious=1e20)
        assert res.tri.n == sol.n_used == n_used
        want = res.normalization * np.cumsum(dense_resolvent_column(res.tri))
        assert np.max(np.abs(sol.values - want)) <= 1e-14 * np.max(np.abs(want))
        ref = (problems.rk45_reference(p, mesh, rtol=1e-12, atol=1e-14) if problem_id == "nmr3"
               else problems.analytic_reference(p, mesh))
        assert diagnostics.err_solution(ref.values, sol.values) == pytest.approx(err_sol, rel=1e-3)
        # the row systems D_j, balanced: sqrt|beta_k[j, j]| on both off-diagonals
        d = np.zeros((m, res.tri.n, res.tri.n), dtype=complex)
        for k in range(res.tri.n):
            d[:, k, k] = 1 - res.tri.alphas[k].diagonal()
            if k:
                r = np.sqrt(np.abs(res.tri.betas[k - 1].diagonal()))
                d[:, k, k - 1] = -res.tri.betas[k - 1].diagonal() / r
                d[:, k - 1, k] = -r
        assert max(np.linalg.cond(dj, 1) for dj in d) == pytest.approx(max_cond, rel=0.01)

    def test_breakdown_prefix_past_usable_n_writes_its_solution(self, tmp_path):
        # nmr1 at M=20 and 40 stops seriously at k=6, and the 6-term prefix's
        # column is usable (the continued fraction was not)
        flags = ["--problem", "nmr1", "--n", "12", "--eps-serious", "1e20",
                 "--reference", "analytic"]
        assert run_cli("run", *flags, "--M", "40", "--output", str(tmp_path / "r")) == EXIT_SERIOUS
        report = strict_json(tmp_path / "r_report.json")
        assert report["meta"]["status"] == "serious_breakdown" and report["meta"]["breakdown_k"] == 6
        assert report["meta"]["resolvent_error"] is None
        assert report["err_sol"] == pytest.approx(4.745e-3, rel=1e-3)
        code = run_cli("convergence", *flags, "--M", "20,40", "--output", str(tmp_path / "c"))
        assert code == EXIT_SERIOUS
        header, *rows = (tmp_path / "c_convergence.csv").read_text().splitlines()
        col = header.split(",").index("err_sol")
        assert len(rows) == 2 and float(rows[1].split(",")[col]) == report["err_sol"]
        assert strict_json(tmp_path / "c_slope.json")["slope"] == pytest.approx(-1.0, abs=0.05)
        assert sorted(f.name for f in tmp_path.iterdir()) == [
            "c_convergence.csv", "c_slope.json", "r_report.json", "r_solution.csv"]

    def test_unusable_prefix_names_its_row(self, tmp_path):
        # a lucky breakdown at k=1 whose 1-term prefix has D_1 exactly singular
        path = tmp_path / "pole1.json"
        path.write_text(json.dumps(POLE1))
        error = solve(problems.problem_from_json(path.read_text()), 10, 3)[2]
        assert isinstance(error, ResolventSingularError) and error.row == 1
        code = run_cli("run", "--problem-file", str(path), "--M", "10", "--n", "3",
                       "--reference", "rk45", "--output", str(tmp_path / "p"))
        assert code == EXIT_LUCKY
        report = strict_json(tmp_path / "p_report.json")
        assert report["err_sol"] is None
        assert report["meta"]["resolvent_error"] == str(error)
        assert report["meta"]["resolvent_error"].startswith(
            "resolvent mesh row 1 has kappa_1 = inf")
        assert sorted(f.name for f in tmp_path.iterdir()) == ["p_report.json", "pole1.json"]

    def test_commands_call_solve_once_per_mesh(self, tmp_path, monkeypatch):
        calls = []

        def counting_solve(*args, **kwargs):
            calls.append(args[1])
            return solve(*args, **kwargs)
        monkeypatch.setattr(cli, "solve", counting_solve)
        assert run_cli("run", "--problem", "const3", "--M", "10", "--n", "3",
                       "--output", str(tmp_path / "r")) == EXIT_OK
        assert calls == [10]
        assert run_cli("convergence", "--problem", "const3", "--M", "10,20,30", "--n", "3",
                       "--reference", "analytic", "--output", str(tmp_path / "c")) == EXIT_OK
        assert calls == [10, 10, 20, 30]

    def test_entry_point_runs_without_warning(self, tmp_path):
        # importing cli from the package would make runpy warn on -m toelanczos.cli
        proc = run_fresh("-m", "toelanczos.cli", "--help", cwd=tmp_path)
        assert proc.returncode == 0
        assert "Warning" not in proc.stderr


class TestDeterminism:
    def test_repeat_runs_byte_identical(self, tmp_path):
        files = {}
        for tag in ("one", "two"):
            out = tmp_path / tag
            run_cli("run", "--problem", "const3", "--M", "10", "--n", "3",
                    "--reference", "analytic", "--output", str(out))
            run_cli("ttranks", "--problem", "nmr1", "--M", "15",
                    "--tol-tt", "1e-5", "--output", str(out))
            files[tag] = [
                (tmp_path / f"{tag}_report.json").read_bytes(),
                (tmp_path / f"{tag}_solution.csv").read_bytes(),
                (tmp_path / f"{tag}_ttranks.csv").read_bytes(),
            ]
        assert files["one"] == files["two"]


class TestReadme:
    """The README's problem-file example and its command run as documented."""

    def test_problem_file_example_runs(self, tmp_path):
        text = README.read_text()
        example = re.search(r"```json\n(.*?)```", text, re.S).group(1)
        p = problems.problem_from_json(example)
        assert p.n == 2 and sorted(p.entries) == [(0, 0), (0, 1), (1, 0)]
        path = tmp_path / "example2.json"
        path.write_text(example)
        command = re.search(r"toelanczos (run --problem-file example2\.json .*)", text)
        argv = [str(path) if arg == "example2.json" else arg
                for arg in command.group(1).split()[:-1]]
        assert run_cli(*argv, str(tmp_path / "e")) == EXIT_OK
        assert strict_json(tmp_path / "e_report.json")["meta"]["status"] == "completed"
        assert (tmp_path / "e_solution.csv").exists()

    def test_exit_codes_are_listed(self):
        text = README.read_text()
        codes = {value for name, value in vars(cli).items() if name.startswith("EXIT_")}
        assert all(f"\n| {code} | " in text for code in codes)
