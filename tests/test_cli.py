import json

import numpy as np
import pytest

from toelanczos import Problem, Term, builtin, problem_to_json
from toelanczos import cli
from toelanczos.cli import (
    EXIT_GUARD,
    EXIT_OK,
    EXIT_SERIOUS,
    EXIT_SHAPE,
    main,
)


def run_cli(*argv):
    return main(list(argv))


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
        doc = {
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
        path = tmp_path / "serious.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "s"
        code = run_cli("run", "--problem-file", str(path), "--M", "8", "--n", "3",
                       "--output", str(out))
        assert code == EXIT_SERIOUS
        report = json.loads((tmp_path / "s_report.json").read_text())
        assert report["meta"]["status"] == "serious_breakdown"

    def test_unknown_trig_kind_is_shape_error(self, tmp_path, capsys):
        p = Problem("tan1", 1, 0.0, 1.0, {(0, 0): [Term(1.0, 0, "tan", 1.0)]},
                    np.array([1.0]), np.array([1.0]))
        path = tmp_path / "tan.json"
        path.write_text(problem_to_json(p))
        code = run_cli("run", "--problem-file", str(path), "--M", "4", "--n", "1",
                       "--reference", "rk45", "--output", str(tmp_path / "t"))
        assert code == EXIT_SHAPE
        assert "unknown trig kind 'tan'" in capsys.readouterr().err

    def test_zero_reference_is_shape_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "_reference_values",
                            lambda problem, mesh, *rest: np.zeros(mesh.m))
        code = run_cli("run", "--problem", "const3", "--M", "6", "--n", "2",
                       "--reference", "rk45", "--output", str(tmp_path / "z"))
        assert code == EXIT_SHAPE
        assert "all zero" in capsys.readouterr().err

    def test_large_guard(self, tmp_path):
        code = run_cli("run", "--problem", "const3", "--M", "2000", "--n", "3",
                       "--output", str(tmp_path / "g"))
        assert code == EXIT_GUARD


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


class TestTTRanks:
    def test_nmr1_small(self, tmp_path):
        out = tmp_path / "tt"
        code = run_cli("ttranks", "--problem", "nmr1", "--M", "20,40",
                       "--tol-tt", "1e-5,1e-10", "--output", str(out))
        assert code == EXIT_OK
        rows = (tmp_path / "tt_ttranks.csv").read_text().strip().split("\n")
        assert rows[0] == "M,tol,nnz,r0,r1,r2,r3,r4,params,cf"
        assert len(rows) == 5


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
