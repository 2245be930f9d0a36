"""Command-line driver wiring problems through the full pipeline.

:func:`solve` runs one discretize -> Lanczos -> resolvent pass and returns
``(mesh, result, solution)``; it is the one place that wires the pipeline.
Import it as ``from toelanczos.cli import solve``.  Three subcommands:

``run``          one (problem, M, n) pipeline pass; writes the solution CSV
                 and a JSON report with the error measures and run status.
``convergence``  a sweep over M values; writes one report row per M plus the
                 fitted log-log slope.
``ttranks``      TT decompositions of the discretized tensor over (M, tol)
                 pairs; writes the rank/compression table.

Outputs are deterministic: identical configuration and seed give
byte-identical files.  JSON outputs hold no NaN or Infinity: the report's
``breakdown_cond`` (beta's 1-norm condition number) is ``null`` when it is
infinite, and the slope is ``null`` when fewer than two distinct M values
have a positive ``err_sol``.  Exit codes: 0 success, 2 shape/config
error (both or neither of ``--problem`` and ``--problem-file`` among them), a
refused closed form or a failed RK45 reference integration, 3 lucky
breakdown, 4 serious breakdown, 5 singular resolvent, 6 I/O error, 7 guarded
workload without --allow-large.

Workloads with M^3 * N^2 * n above 1e10 require ``--allow-large``.  That
count was the cost of the dense operator products; the profile-form
operator applies in ``O(N^2 M^2)`` and the resolvent's column takes
``O(n M^2)``, so the remaining ``M^3`` work is the per-slice coefficient
products and the inverses of ``beta``, and the budget is kept as it is
until it is re-derived for that cost model.  ``ttranks`` is checked with
n = 1; it decomposes the profiles in ``O(N^2 M min(N^2, M) + M^3)`` and
forms no dense operator.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import diagnostics as diag
from . import problems as prob
from .discretize import build_mesh, discretize_problem
from .lanczos import DEFAULT_EPS_LUCKY, DEFAULT_EPS_SERIOUS, tensor_lanczos
from .resolvent import ResolventSingularError, approx_solution, solution_to_csv
from .tensor_core import ShapeError
from .tt import RANK_CSV_COLUMNS, rank_report_row, tt_svd

EXIT_OK = 0
EXIT_SHAPE = 2
EXIT_LUCKY = 3
EXIT_SERIOUS = 4
EXIT_RESOLVENT = 5
EXIT_IO = 6
EXIT_GUARD = 7

WORK_BUDGET = 1e10

_STATUS_EXIT = {"completed": EXIT_OK,
                "lucky_breakdown": EXIT_LUCKY,
                "serious_breakdown": EXIT_SERIOUS}


class GuardError(RuntimeError):
    pass


def _load_problem(args) -> prob.Problem:
    if args.problem_file is not None:
        with open(args.problem_file) as fh:
            return prob.problem_from_json(fh.read())
    if args.problem in ("nmr1", "nmr2", "nmr3") and args.seed is not None:
        return prob.nmr_generate(int(args.problem[3:]), seed=args.seed)
    return prob.builtin(args.problem)


def _check_budget(m: int, n_outer: int, iters: int, allow_large: bool) -> None:
    # exact in integers and printed through Decimal: no M or n overflows a float here
    work = m**3 * n_outer**2 * iters
    if work > WORK_BUDGET and not allow_large:
        from decimal import Decimal  # imported on this path only: a run never loads it
        raise GuardError(
            f"workload M^3*N^2*n = {Decimal(work):.2e} exceeds the budget {WORK_BUDGET:.0e}; "
            "pass --allow-large to run it anyway")


def _sweep_reference(problem, args):
    """``mesh -> reference values`` (``None`` without a reference) for one command.

    An analytic reference is evaluated on every mesh of the command here, so
    a refused closed form fails before any solve.  An RK45 reference is
    integrated once, on the first mesh that needs it, and its dense output
    is sampled on every later one: the values are those of a new integration
    per mesh, because the integration never sees the mesh.  Nothing outlives
    the command.
    """
    if args.reference == "none":
        return lambda mesh: None
    if args.reference == "analytic":
        exact = {m: prob.analytic_reference(problem, build_mesh(problem.a, problem.b, m)).values
                 for m in args.M}
        return lambda mesh: exact[mesh.m]
    first = None

    def values(mesh):
        nonlocal first
        if first is None:
            first = prob.rk45_reference(problem, mesh, rtol=args.rtol, atol=args.atol)
            return first.values
        return first.resample(mesh)

    return values


def solve(problem, m, n, **options):
    """``(mesh, result, solution)`` of one discretize -> Lanczos -> resolvent pass.

    ``options`` go to :func:`~toelanczos.lanczos.tensor_lanczos`: the
    breakdown thresholds, and ``keep_walk`` for a result that the
    diagnostics read.  A breakdown prefix still defines a (shorter)
    resolvent: it is evaluated, and when its column is unusable ``solution``
    is the :class:`ResolventSingularError` that says why (its mesh row and
    ``kappa_1``).  On a completed run an unusable column raises it.
    """
    mesh = build_mesh(problem.a, problem.b, m)
    result = tensor_lanczos(discretize_problem(problem, mesh), problem.v, problem.w, n,
                            **options)
    try:
        return mesh, result, approx_solution(result.tri, mesh, result.normalization)
    except ResolventSingularError as exc:
        if result.status.completed:
            raise
        return mesh, result, exc


def _pipeline_once(problem, m, n, args, reference):
    """One :func:`solve` pass plus its diagnostics, on the walk the loop recorded.

    ``reference`` maps the mesh to the reference values, or to ``None``.  The
    report's ``resolvent_error`` says why a breakdown prefix has no solution.
    """
    mesh, result, solution = solve(problem, m, n, eps_lucky=args.eps_lucky,
                                   eps_serious=args.eps_serious, keep_walk=True)
    error = None
    if isinstance(solution, ResolventSingularError):
        error, solution = str(solution), None
    status = result.status
    ref = None if solution is None else reference(mesh)
    report_err_sol = None if ref is None else diag.err_solution(ref, solution.values)
    err_v, err_w = diag.err_recurrences(result)
    err_o = diag.err_biorth(result)
    result.walk = None  # the moments read no basis: the 2n bases are freed before they run
    err_m = diag.err_moments(result)
    report = diag.ErrorReport(err_o, err_v, err_w, err_m, report_err_sol,
                              meta={"problem": problem.id, "M": m, "n": n,
                                    "status": status.kind,
                                    "breakdown_k": status.k,
                                    "breakdown_side": status.side,
                                    "breakdown_cond": (status.cond if status.cond is None
                                                       or math.isfinite(status.cond) else None),
                                    "reference": args.reference,
                                    "resolvent_error": error})
    return report, solution


def cmd_run(args) -> int:
    if len(args.M) != 1:
        raise ValueError(f"run takes one --M value, got {len(args.M)}; "
                         "use convergence for a sweep")
    problem = _load_problem(args)
    _check_budget(args.M[0], problem.n, args.n, args.allow_large)
    report, solution = _pipeline_once(problem, args.M[0], args.n, args,
                                      _sweep_reference(problem, args))
    base = args.output
    text = diag.report_to_json(report)
    with open(base + "_report.json", "w") as fh:
        fh.write(text + "\n")
    if solution is not None and args.format == "csv":
        with open(base + "_solution.csv", "w") as fh:
            fh.write(solution_to_csv(solution))
    elif solution is not None:
        doc = {"tau": list(solution.mesh.tau),
               "re_s": list(solution.values.real),
               "im_s": list(solution.values.imag)}
        text = json.dumps(doc, indent=2, allow_nan=False)
        with open(base + "_solution.json", "w") as fh:
            fh.write(text + "\n")
    return _STATUS_EXIT[report.meta["status"]]


def cmd_convergence(args) -> int:
    problem = _load_problem(args)
    for m in args.M:
        _check_budget(m, problem.n, args.n, args.allow_large)
    reference = _sweep_reference(problem, args)
    results = [_pipeline_once(problem, m, args.n, args, reference) for m in args.M]
    rows = [",".join(diag.REPORT_CSV_COLUMNS)]
    points = []
    worst_exit = EXIT_OK
    for m, (report, _) in zip(args.M, results):
        rows.append(diag.report_csv_row(report))
        worst_exit = max(worst_exit, _STATUS_EXIT[report.meta["status"]])
        if report.err_sol is not None:
            points.append((m, report.err_sol))
    # log-log fit: an exact point (err_sol == 0) has no logarithm, and points
    # at fewer than two distinct M values have no slope
    try:
        slope = diag.convergence_slope([(m, err) for m, err in points if err > 0])
    except ValueError:
        slope = None
    text = json.dumps({"slope": slope, "points": points}, indent=2, allow_nan=False)
    with open(args.output + "_convergence.csv", "w") as fh:
        fh.write("\n".join(rows) + "\n")
    with open(args.output + "_slope.json", "w") as fh:
        fh.write(text + "\n")
    if slope is not None:
        print(f"convergence slope: {slope:.4f}")
    return worst_exit


def cmd_ttranks(args) -> int:
    problem = _load_problem(args)
    rows = [",".join(RANK_CSV_COLUMNS)]
    for m in args.M:
        _check_budget(m, problem.n, 1, args.allow_large)
        mesh = build_mesh(problem.a, problem.b, m)
        a4 = discretize_problem(problem, mesh)
        for tol in args.tol_tt:
            rows.append(rank_report_row(tt_svd(a4, tol), a4))
    with open(args.output + "_ttranks.csv", "w") as fh:
        fh.write("\n".join(rows) + "\n")
    return EXIT_OK


def _positive_float(text: str) -> float:
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"expected a finite number > 0, got {text!r}")
    return value


def _comma_list(text: str, kind) -> list:
    values = [kind(x) for x in text.split(",") if x]
    if not values:
        raise argparse.ArgumentTypeError(f"expected at least one value, got {text!r}")
    return values


def _comma_ints(text: str) -> list[int]:
    return _comma_list(text, int)


def _comma_positive_floats(text: str) -> list[float]:
    return _comma_list(text, _positive_float)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toelanczos",
        description="Approximate bilinear forms of time-ordered exponentials.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, need_n=True):
        source = p.add_mutually_exclusive_group(required=True)
        source.add_argument("--problem",
                            help="builtin problem id (const3, timedep5, zero1, nmr1/2/3)")
        source.add_argument("--problem-file", help="path to a problem JSON file")
        p.add_argument("--M", type=_comma_ints, required=True,
                       help="mesh size, or comma list for sweeps")
        if need_n:
            p.add_argument("--n", type=int, required=True, help="Lanczos iterations")
            p.add_argument("--reference", choices=["analytic", "rk45", "none"],
                           default="none")
            p.add_argument("--rtol", type=_positive_float, default=1e-10)
            p.add_argument("--atol", type=_positive_float, default=1e-12)
            p.add_argument("--eps-lucky", type=_positive_float, default=DEFAULT_EPS_LUCKY)
            p.add_argument("--eps-serious", type=_positive_float, default=DEFAULT_EPS_SERIOUS,
                           help="bound on the 1-norm condition number of beta_{k+1}")
        p.add_argument("--seed", type=int, default=None,
                       help="seed for the generated problems nmr1/2/3; "
                            "the other problems ignore it")
        p.add_argument("--output", required=True, help="output path prefix")
        p.add_argument("--allow-large", action="store_true", dest="allow_large")

    p_run = sub.add_parser("run", help="single pipeline pass")
    common(p_run)
    p_run.add_argument("--format", choices=["csv", "json"], default="csv",
                       help="format of the solution file")
    p_run.set_defaults(func=cmd_run)

    p_conv = sub.add_parser("convergence", help="error sweep over M")
    common(p_conv)
    p_conv.set_defaults(func=cmd_convergence)

    p_tt = sub.add_parser("ttranks", help="TT rank/compression table")
    common(p_tt, need_n=False)
    p_tt.add_argument("--tol-tt", type=_comma_positive_floats, default=[1e-5, 1e-10],
                      dest="tol_tt", help="comma list of TT tolerances")
    p_tt.set_defaults(func=cmd_ttranks)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except GuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (ShapeError, ValueError, prob.StiffnessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SHAPE
    except ResolventSingularError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOLVENT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
