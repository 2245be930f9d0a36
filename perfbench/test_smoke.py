"""Smoke test of the benchmark harness at tiny M.

Run from the root of a checkout with ``python3 -m pytest perfbench``.  It
checks that every metric BENCHMARK.json names is emitted for every workload,
and that traced spans nest inside their parent and share its pass id.
"""

import dataclasses
import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY_MS = {"solve-nmr2": (8,), "run-nmr3": (8,), "sweep-timedep5": (10, 20)}


def tiny(name):
    # pinned errors and the stated accuracy hold only at the full sizes
    return dataclasses.replace(run.WORKLOADS[name], ms=TINY_MS[name],
                               err_ceiling=math.inf, pinned_err_sol=None)


def test_workloads_match_benchmark_json():
    assert [(w["name"], w["why"]) for w in BENCH["workloads"]] == [
        (w.name, w.why) for w in run.WORKLOADS.values()]


@pytest.mark.parametrize("name", list(run.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_emitted(name, trace):
    res = run.run_workload(tiny(name), seed=1, seconds=0, trace=trace, setup_repeats=1)
    assert res["attempted"] == (2 if trace else 1)
    assert res["failed"] == 0, res["checks"]
    metrics = run.summary_metrics(res, BENCH)
    wanted = [m["name"] for m in BENCH["per_layer" if trace else "end_to_end"]]
    assert sorted(metrics) == sorted(wanted)
    assert all(math.isfinite(m["value"]) for m in metrics.values())
    if not trace:
        assert all(m["value"] > 0 for m in metrics.values())
        return

    spans = [tracing.Span(**d) for d in res["spans"]]
    roots = [s for s in spans if s.parent is None]
    assert [s.name for s in roots] == ["pass"]
    for s in spans:
        assert s.start <= s.end
        if s.parent is not None:
            p = spans[s.parent]
            assert p.start <= s.start and s.end <= p.end
            assert p.pass_id == s.pass_id
    layers = res["per_layer"]
    assert layers["lanczos.iterations"] >= 1
    assert layers["tensor_core.flops"] > 0
    if name == "sweep-timedep5":
        assert layers["cli.passes"] == len(TINY_MS[name])
