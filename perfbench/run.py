"""Benchmark for toelanczos: time, memory and accuracy of ``w^H U(t) v``.

Run from the root of a checkout:

    python3 perfbench/run.py --workload solve-nmr2 --seed 1 --seconds 20 --trace 0

One run builds nothing; it imports the package from ``src/`` of the checkout,
measures set-up in fresh interpreters, then runs passes of one workload back
to back (closed loop, one pass after another) until ``--seconds`` have
passed, checking each pass's outputs.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` alternates untraced and traced passes and prints the
per-module metrics.  A human-readable report goes to standard output, the
full result (environment header, samples, checks, spans) to
``.perfbench_out/`` in the checkout, and the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 5
ERR_SOL_RTOL = 0.05  # the tolerance the acceptance tests put on pinned err_sol values
SLOPE_RANGE = (-1.3, -0.7)  # acceptance criterion 2's O(1/M) rate window


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str                    # "solve" (library calls), "run" or "convergence" (CLI)
    problem: str
    ms: tuple[int, ...]
    n: int
    # the accuracy every seed must reach at the largest M
    err_ceiling: float
    # err_sol of the seed commit at DEFAULT_NMR_SEED (every seed for
    # problems the seed does not change), largest M
    pinned_err_sol: float | None


WORKLOADS = {w.name: w for w in [
    Workload("solve-nmr2",
             "library path on nmr2 at M=250, n=4: bound by the dense tensor "
             "kernels and a 244 MiB operator; diagnostics bypassed",
             "solve", "nmr2", (250,), 4, 1e-3, 0.00021743886724652102),
    Workload("run-nmr3",
             "CLI run on nmr3 at M=80, n=4 with the full diagnostics: bound "
             "by err_moments, kernels a small share",
             "run", "nmr3", (80,), 4, 1e-1, 0.01789439181640514),
    Workload("sweep-timedep5",
             "CLI convergence sweep on timedep5 over M=25..100, n=5: the "
             "paper's O(1/M) experiment, four pipelines of growing M in one process",
             "convergence", "timedep5", (25, 50, 75, 100), 5, 1e-2, 0.005949711758245902),
]}


def _fail_setup(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


# ------------------------------------------------------------ environment

def _blas_threads():
    import ctypes
    import glob

    import numpy as np
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed: int) -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
            timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "toelanczos").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "blas_vendor": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "toelanczos_threads": os.environ.get("TOELANCZOS_THREADS", "unset (default 1)"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


# ------------------------------------------------------------------ set-up

def _build_snippet(wl: Workload, seed: int) -> str:
    if wl.problem.startswith("nmr"):
        return f"toelanczos.nmr_generate({int(wl.problem[3:])}, seed={seed})"
    return f"toelanczos.builtin({wl.problem!r})"


def measure_setup(wl: Workload, seed: int, repeats: int) -> list[float]:
    """Wall time of fresh interpreters that import toelanczos and build the Problem."""
    code = f"import toelanczos\n{_build_snippet(wl, seed)}\n"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
                       capture_output=True, timeout=120)
        times.append(time.perf_counter() - t0)
    return times


# ------------------------------------------------------------------ passes

def _solve_pass(wl: Workload, seed: int, workdir: Path) -> dict:
    """Library path: build, discretize, Lanczos, resolvent, RK45 reference, err_sol."""
    from toelanczos import diagnostics, discretize, lanczos, problems, resolvent
    problem = problems.nmr_generate(int(wl.problem[3:]), seed=seed)
    mesh = discretize.build_mesh(problem.a, problem.b, wl.ms[-1])
    a4 = discretize.discretize_problem(problem, mesh)
    result = lanczos.tensor_lanczos(a4, problem.v, problem.w, wl.n)
    sol = resolvent.approx_solution(result.tri, mesh, result.normalization)
    ref = problems.rk45_reference(problem, mesh)
    err = diagnostics.err_solution(ref.values, sol.values)
    return {"status": result.status.kind, "values": sol.values, "m": mesh.m, "err_sol": err}


def _cli_pass(wl: Workload, seed: int, workdir: Path) -> dict:
    """CLI path: from argv to the output files being written."""
    from toelanczos import cli
    prefix = str(workdir / "out")
    argv = [wl.kind, "--problem", wl.problem, "--M", ",".join(map(str, wl.ms)),
            "--n", str(wl.n), "--reference", "rk45", "--seed", str(seed), "--output", prefix]
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    return {"exit": code, "prefix": prefix}


def _finite(values) -> bool:
    return all(math.isfinite(float(x)) for x in values)


def _check_err_sol(wl: Workload, seed: int, err) -> list[str]:
    from toelanczos.problems import DEFAULT_NMR_SEED
    if err is None or not math.isfinite(err):
        return [f"err_sol is {err!r}"]
    out = []
    if err > wl.err_ceiling:
        out.append(f"err_sol {err:.4e} above the stated accuracy {wl.err_ceiling:.0e}")
    pinned = wl.pinned_err_sol is not None and (
        not wl.problem.startswith("nmr") or seed == DEFAULT_NMR_SEED)
    if pinned and abs(err - wl.pinned_err_sol) > ERR_SOL_RTOL * wl.pinned_err_sol:
        out.append(f"err_sol {err!r} differs from the seed commit's {wl.pinned_err_sol!r} "
                   f"by more than {ERR_SOL_RTOL:.0%}")
    return out


def check_pass(wl: Workload, seed: int, out: dict) -> tuple[list[str], float | None]:
    """Failures found in one pass's outputs, and its err_sol (largest M)."""
    from toelanczos.diagnostics import REPORT_CSV_COLUMNS
    if wl.kind == "solve":
        fails = [] if out["status"] == "completed" else [f"status {out['status']}"]
        if len(out["values"]) != out["m"] or not _finite(
                [*out["values"].real, *out["values"].imag]):
            fails.append("solution values missing or not finite")
        return fails + _check_err_sol(wl, seed, out["err_sol"]), out["err_sol"]

    fails = [] if out["exit"] == 0 else [f"exit code {out['exit']}"]
    prefix = out["prefix"]
    try:
        if wl.kind == "run":
            report = json.loads(Path(prefix + "_report.json").read_text())
            with open(prefix + "_solution.csv", newline="") as fh:
                rows = list(csv.reader(fh))
            if rows[0] != ["tau", "re_s", "im_s"] or len(rows) != wl.ms[-1] + 1:
                fails.append("solution CSV header or row count")
            if not _finite(x for row in rows[1:] for x in row):
                fails.append("solution CSV holds non-finite values")
            if report["meta"]["status"] != "completed":
                fails.append(f"status {report['meta']['status']}")
            if not _finite([report["err_o"], report["err_v"], report["err_w"],
                            *report["err_m"]]):
                fails.append("report error measures not finite")
            err = report["err_sol"]
        else:
            with open(prefix + "_convergence.csv", newline="") as fh:
                header, *body = list(csv.reader(fh))
            if header != REPORT_CSV_COLUMNS:
                fails.append("convergence CSV header differs from REPORT_CSV_COLUMNS")
            rows = [dict(zip(header, r)) for r in body]
            if [int(r["M"]) for r in rows] != list(wl.ms):
                fails.append("convergence CSV rows do not match the M list")
            if any(r["status"] != "completed" for r in rows):
                fails.append("a sweep entry did not complete")
            numeric = ["err_o", "err_v", "err_w", "err_m_max", "err_sol"]
            if not _finite(r[c] for r in rows for c in numeric):
                fails.append("convergence CSV holds non-finite values")
            slope = json.loads(Path(prefix + "_slope.json").read_text())["slope"]
            if slope is None or not SLOPE_RANGE[0] <= slope <= SLOPE_RANGE[1]:
                fails.append(f"slope {slope!r} outside {SLOPE_RANGE}")
            err = float(rows[-1]["err_sol"])
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return fails + [f"unreadable output: {exc!r}"], None
    return fails + _check_err_sol(wl, seed, err), err


# --------------------------------------------------------------- measuring

def percentile_summary(samples: list[float]) -> dict:
    """Median plus the highest listed percentile with at least 10 samples beyond it."""
    n = len(samples)
    out = {"median": statistics.median(samples), "n": n, "tail_p": None, "tail": None}
    for p in (99.9, 99, 90):
        if n * (1 - p / 100) >= 10:
            out["tail_p"] = p
            out["tail"] = statistics.quantiles(samples, n=1000, method="inclusive")[
                round(p * 10) - 1]
            break
    return out


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool,
                 setup_repeats: int = SETUP_REPEATS) -> dict:
    """Set up, run passes for ``seconds``, check each; return the full result."""
    setup = measure_setup(wl, seed, setup_repeats)
    tracer = tracing.Tracer() if trace else None
    pass_fn = _solve_pass if wl.kind == "solve" else _cli_pass
    OUT_DIR.mkdir(exist_ok=True)
    walls = {False: [], True: []}
    errs, checks = [], []
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        traced = trace and i % 2 == 1
        workdir = Path(tempfile.mkdtemp(prefix="pass-", dir=OUT_DIR))
        out, fails = None, []
        t0 = time.perf_counter()
        try:
            if traced:
                tracer.pass_id = i
                with tracing.instrument(tracer), tracer.span("pass"):
                    out = pass_fn(wl, seed, workdir)
            else:
                out = pass_fn(wl, seed, workdir)
        except Exception:  # a failed pass is counted, never fatal
            fails.append(traceback.format_exc(limit=3))
        walls[traced].append(time.perf_counter() - t0)
        if out is not None:
            more, err = check_pass(wl, seed, out)
            fails += more
            errs.append(err)
        shutil.rmtree(workdir, ignore_errors=True)
        checks.append({"pass": i, "traced": traced, "failures": fails})
        for f in fails:
            print(f"perfbench: pass {i} failed: {f}", file=sys.stderr)
        i += 1
        # stop before a pass that would end past the deadline, so a run lasts
        # about --seconds; a traced run needs one untraced and one traced pass
        typical = statistics.median(walls[False] + walls[True])
        if i >= (2 if trace else 1) and time.perf_counter() + typical > deadline:
            break

    failed = sum(1 for c in checks if c["failures"])
    valid_errs = [e for e in errs if e is not None]
    result = {
        "workload": wl.name, "why": wl.why, "seconds": seconds, "trace": trace,
        "env": environment(seed),
        "attempted": len(checks), "failed": failed,
        "failed_frac": failed / len(checks),
        "err_sol": statistics.median(valid_errs) if valid_errs else None,
        "checks": checks,
        "samples": {"setup_s": setup, "wall_s": walls[False], "traced_wall_s": walls[True]},
    }
    if not trace:
        result["end_to_end"] = {
            "setup_s": {**percentile_summary(setup), "unit": "s"},
            "wall_s": {**percentile_summary(walls[False]), "unit": "s"},
            "peak_rss_mib": {"median": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                             "n": 1, "unit": "MiB"},
        }
    else:
        per_pass = [tracing.pass_metrics(tracer.spans, c["pass"]) for c in checks if c["traced"]]
        layers = tracing.median_metrics(per_pass)
        layers["trace.overhead_s"] = (statistics.median(walls[True])
                                      - statistics.median(walls[False]))
        layers["diagnostics.err_sol"] = result["err_sol"]
        result["per_layer"] = layers
        result["spans"] = tracer.to_json()
    return result


# ----------------------------------------------------------------- output

def summary_metrics(result: dict, bench: dict) -> dict:
    if result["trace"]:
        return {m["name"]: {"value": result["per_layer"][m["name"]], "unit": m["unit"]}
                for m in bench["per_layer"]}
    return {m["name"]: {"value": result["end_to_end"][m["name"]]["median"], "unit": m["unit"]}
            for m in bench["end_to_end"]}


def print_report(result: dict, bench: dict) -> None:
    env = result["env"]
    print(f"perfbench {result['workload']}  seed={env['seed']}  trace={int(result['trace'])}"
          f"  seconds={result['seconds']}")
    print("env: " + "  ".join(f"{k}={v}" for k, v in env.items()))
    print(f"passes: {result['attempted']} attempted, {result['failed']} failed"
          f"  failed_frac={result['failed_frac']:.3f}")
    err = result["err_sol"]
    print(f"err_sol (largest M, median over passes): "
          f"{'n/a' if err is None else format(err, '.6e')}")
    if not result["trace"]:
        for name, m in result["end_to_end"].items():
            tail = ("no percentile has 10 samples beyond it" if m.get("tail_p") is None
                    else f"p{m['tail_p']:g} {m['tail']:.4f}")
            print(f"  {name:<14} {m['median']:>12.4f} {m['unit']:<4} (n={m['n']}; {tail})")
        return
    units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for name, value in result["per_layer"].items():
        label = " (computed)" if name in ("tensor_core.flops", "tensor_core.bytes",
                                          "lanczos.model_work") else ""
        print(f"  {name:<28} {value:>16.6g} {units.get(name, '')}{label}")
    print("  self time by span name over all traced passes, share of their wall time:")
    spans = [tracing.Span(**d) for d in result["spans"]]
    selfs = tracing.self_times(spans)
    wall = sum(s.duration for s in spans if s.name == "pass")
    by_name: dict[str, float] = {}
    for s, t in zip(spans, selfs):
        by_name[s.name] = by_name.get(s.name, 0.0) + t
    for name, t in sorted(by_name.items(), key=lambda kv: -kv[1]):
        label = "unattributed" if name == "pass" else name
        print(f"    {label:<28} {t:>10.4f} s  {t / wall:6.1%}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: toelanczos DEFAULT_NMR_SEED)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "toelanczos" / "__init__.py").is_file():
        _fail_setup(f"no toelanczos sources under {SRC}; run from a full checkout")
    bench_file = ROOT / "BENCHMARK.json"
    if not bench_file.is_file():
        _fail_setup(f"missing {bench_file}")
    bench = json.loads(bench_file.read_text())
    sys.path.insert(0, str(SRC))
    # the sweep thread pool stays at its default of one worker
    os.environ.pop("TOELANCZOS_THREADS", None)
    # importing here also compiles the package before the set-up probes time it
    from toelanczos.problems import DEFAULT_NMR_SEED
    seed = DEFAULT_NMR_SEED if args.seed is None else args.seed

    result = run_workload(WORKLOADS[args.workload], seed, args.seconds, bool(args.trace))
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{args.workload}-seed{seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1, default=float) + "\n")
    print_report(result, bench)
    print(f"full result: {path}")
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": summary_metrics(result, bench)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
