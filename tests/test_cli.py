import json

import numpy as np
import pytest

from toelanczos import Problem, builtin, problem_to_json
from toelanczos import cli, diagnostics, problems, tensor_core
from toelanczos.cli import (
    EXIT_GUARD,
    EXIT_OK,
    EXIT_SERIOUS,
    EXIT_SHAPE,
    main,
)


def run_cli(*argv):
    return main(list(argv))


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

    def test_unknown_problem_is_shape_error(self, tmp_path):
        code = run_cli("run", "--problem", "bogus", "--M", "5", "--n", "1",
                       "--output", str(tmp_path / "x"))
        assert code == EXIT_SHAPE

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
        monkeypatch.setattr(cli, "_reference_values",
                            lambda problem, mesh, *rest: np.zeros(mesh.m))
        code = run_cli("run", "--problem", "const3", "--M", "6", "--n", "2",
                       "--reference", "rk45", "--output", str(tmp_path / "z"))
        assert code == EXIT_SHAPE
        assert "all zero" in capsys.readouterr().err

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
            raise AssertionError("a dense Tensor4 product was formed")
        monkeypatch.setattr(diagnostics, "star_mul_tt", refuse)
        monkeypatch.setattr(tensor_core.Tensor4, "__post_init__", refuse)
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
    ], ids=["v-item-not-object", "re-string", "top-level-array", "fractional-power",
            "v-re-nan", "omega-infinity"])
    def test_exits_2_naming_the_field(self, tmp_path, capsys, change, field):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(change(json.loads(problem_to_json(builtin("const3"))))))
        code = run_cli("run", "--problem-file", str(path), "--M", "8", "--n", "3",
                       "--output", str(tmp_path / "x"))
        assert code == EXIT_SHAPE
        assert field in capsys.readouterr().err
        assert [f.name for f in tmp_path.iterdir()] == ["bad.json"]


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

    @pytest.mark.parametrize("source,changes", [
        ("timedep5", {}),
        ("const3", {"interval": [0.0, 2.0]}),
        ("const3", {"w": [{"re": 1.0, "im": 0.0}, {"re": 1.0, "im": 0.0},
                          {"re": 0.0, "im": 0.0}]}),
    ])
    def test_other_content_under_const3_id_exits_2(self, tmp_path, capsys, source, changes):
        path = write_problem(tmp_path, builtin(source), "const3", **changes)
        code = self.run_file(path, tmp_path / "x")
        assert code == EXIT_SHAPE
        assert "no analytic reference" in capsys.readouterr().err
        assert [f.name for f in tmp_path.iterdir()] == ["const3.json"]

    def test_generated_nmr1(self, tmp_path):
        code = run_cli("run", "--problem", "nmr1", "--M", "20", "--n", "2", "--seed", "5",
                       "--reference", "analytic", "--output", str(tmp_path / "n"))
        assert code == EXIT_OK
        report = json.loads((tmp_path / "n_report.json").read_text())
        assert 0.0 < report["err_sol"] < 0.1

    def test_nmr1_file_has_no_closed_form(self, tmp_path, capsys):
        # a problem file carries no generator coefficients
        code = self.run_file(write_problem(tmp_path, builtin("nmr1"), "nmr1"), tmp_path / "x")
        assert code == EXIT_SHAPE
        assert "no analytic reference" in capsys.readouterr().err


class TestOptions:
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
        solve_ivp = problems.solve_ivp

        def counting_solve_ivp(*args, **kwargs):
            calls.append(1)
            return solve_ivp(*args, **kwargs)
        monkeypatch.setattr(problems, "solve_ivp", counting_solve_ivp)
        argv = ["convergence", "--problem", "timedep5", "--M", "10,20,30", "--n", "5",
                "--reference", "rk45"]
        assert run_cli(*argv, "--output", str(tmp_path / "once")) == EXIT_OK
        assert len(calls) == 1
        # a fresh integration per mesh writes the same bytes
        monkeypatch.setattr(cli, "_sweep_reference", lambda problem, args: lambda mesh: (
            cli._reference_values(problem, mesh, args.reference, args.rtol, args.atol)))
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
