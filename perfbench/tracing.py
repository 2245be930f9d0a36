"""Spans around the calls into toelanczos modules, for the traced run.

The benchmark records spans from its own code: :func:`instrument` swaps the
public functions a module calls for wrappers that open a span, call the
original and close the span, and puts the originals back afterwards.
Nothing under ``src/`` is edited.  The tensor products and
``classify_breakdown`` are wrapped where ``lanczos`` and ``diagnostics``
import them, not inside ``tensor_core``, so the products that ``star_pow``
makes internally stay in the self time of ``diagnostics.moments``.

Spans stay in memory and the caller writes them out at the end.  Each span
carries computed counts (flops, bytes, slices) taken from the operands'
shapes and structure flags; they repeat exactly from run to run.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

import numpy as np

COMPLEX_BYTES = 16


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    pass_id: int
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; spans nest by call order on one thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.pass_id = 0

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.pass_id))
        self._open.append(idx)
        try:
            yield self.spans[idx]
        finally:
            self._open.pop()
            self.spans[idx].end = time.perf_counter()

    def wrap(self, fn, name: str, count=None):
        def traced(*args, **kwargs):
            with self.span(name) as sp:
                out = fn(*args, **kwargs)
            if count is not None:
                sp.counts.update(count(*args, out=out))
            return out
        return traced

    def to_json(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


# ---------------------------------------------------------------- counts

def _live(t4) -> np.ndarray:
    """Mask of the slices a product actually multiplies (not flagged ZERO)."""
    from toelanczos.tensor_core import BlockStructure
    if t4.block_structure is None:
        return np.ones((t4.n1, t4.n2), dtype=bool)
    return t4.block_structure != BlockStructure.ZERO


def _product_counts(products: int, outputs: int, m: int) -> dict:
    # one M x M complex matmul is 8*M^3 real flops; it reads two operand
    # slices, and each output slice is written once
    return {"flops": 8 * m**3 * products,
            "bytes": COMPLEX_BYTES * m * m * (2 * products + outputs)}


def _count_tv(a, v, out):
    return _product_counts(int(_live(a).sum()), a.n1, a.m)


def _count_vt(w, a, out):
    return _product_counts(int(_live(a).sum()), a.n2, a.m)


def _count_inner(w, v, out):
    return _product_counts(w.n, 1, w.m)


def _count_tt(a, b, out):
    pairs = _live(a).astype(np.int64) @ _live(b).astype(np.int64)
    return _product_counts(int(pairs.sum()), a.n1 * b.n2, a.m)


def _count_lanczos(a, *args, out, **kwargs):
    iters = out.tri.n
    return {"iterations": iters, "model_work": a.m**3 * a.n1**2 * iters}


def _count_discretize(problem, mesh, out):
    return {"operator_bytes": out.data.nbytes, "nonzero_slices": int(_live(out).sum())}


def _count_resolvent(*args, out, **kwargs):
    return {"levels": out.n_used}


def _targets():
    """(module, attribute, span name, counter) for every wrapped call site."""
    from toelanczos import cli, diagnostics, discretize, lanczos, problems, resolvent

    products = [("star_mul_tv", "tensor_core.mul_tv", _count_tv),
                ("star_mul_vt", "tensor_core.mul_vt", _count_vt),
                ("star_inner", "tensor_core.inner", _count_inner)]
    out = [(lanczos, attr, name, c) for attr, name, c in products]
    out += [(diagnostics, attr, name, c) for attr, name, c in products]
    out += [
        (diagnostics, "star_mul_tt", "tensor_core.mul_tt", _count_tt),
        (lanczos, "classify_breakdown", "lanczos.classify", None),
        (lanczos, "tensor_lanczos", "lanczos", _count_lanczos),
        (cli, "tensor_lanczos", "lanczos", _count_lanczos),
        (discretize, "discretize_problem", "discretize", _count_discretize),
        (cli, "discretize_problem", "discretize", _count_discretize),
        (resolvent, "approx_solution", "resolvent", _count_resolvent),
        (cli, "approx_solution", "resolvent", _count_resolvent),
        (diagnostics, "err_moments", "diagnostics.moments", None),
        (diagnostics, "err_recurrences", "diagnostics.recurrences", None),
        (diagnostics, "err_biorth", "diagnostics.biorth", None),
        (diagnostics, "err_solution", "diagnostics.solution", None),
        (problems, "nmr_generate", "problems.build", None),
        (problems, "builtin", "problems.build", None),
        (problems, "rk45_reference", "problems.reference", None),
        (cli, "main", "cli", None),
    ]
    return out


@contextmanager
def instrument(tracer: Tracer):
    """Wrap every target for the duration of the block, then restore it."""
    saved = []
    try:
        for module, attr, name, count in _targets():
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(original, name, count))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


# ---------------------------------------------------------- aggregation

# per-layer metric -> span name
TIMES = {
    "tensor_core.mul_tv.s": "tensor_core.mul_tv",
    "tensor_core.mul_vt.s": "tensor_core.mul_vt",
    "tensor_core.inner.s": "tensor_core.inner",
    "tensor_core.mul_tt.s": "tensor_core.mul_tt",
    "lanczos.s": "lanczos",
    "lanczos.classify.s": "lanczos.classify",
    "discretize.s": "discretize",
    "resolvent.s": "resolvent",
    "diagnostics.moments.s": "diagnostics.moments",
    "diagnostics.recurrences.s": "diagnostics.recurrences",
    "diagnostics.biorth.s": "diagnostics.biorth",
    "diagnostics.solution.s": "diagnostics.solution",
    "problems.build_s": "problems.build",
    "problems.reference_s": "problems.reference",
    "cli.s": "cli",
}
SELF_TIMES = {"lanczos.self_s": "lanczos", "cli.self_s": "cli",
              "trace.unattributed_s": "pass"}
CALLS = {f"tensor_core.{k}.calls": f"tensor_core.{k}"
         for k in ("mul_tv", "mul_vt", "inner", "mul_tt")}


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.duration
    return [s.duration - c for s, c in zip(spans, covered)]


def _ancestors(spans: list[Span], span: Span):
    p = span.parent
    while p is not None:
        yield spans[p]
        p = spans[p].parent


def pass_metrics(spans: list[Span], pass_id: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass (parent indices are into ``spans``)."""
    mine = [i for i, s in enumerate(spans) if s.pass_id == pass_id]
    sub = [spans[i] for i in mine]
    selfs = self_times(spans)

    def total_counts(name, key, reduce=sum):
        vals = [s.counts.get(key, 0) for s in sub if s.name == name]
        return reduce(vals) if vals else 0

    out = {}
    for metric, name in TIMES.items():
        # a span nested in one of the same name (builtin -> nmr_generate) counts once
        out[metric] = sum(s.duration for s in sub if s.name == name
                          and all(a.name != name for a in _ancestors(spans, s)))
    for metric, name in SELF_TIMES.items():
        out[metric] = sum(selfs[i] for i in mine if spans[i].name == name)
    for metric, name in CALLS.items():
        out[metric] = sum(1 for s in sub if s.name == name)
    # only the tensor product spans carry flops and bytes
    out["tensor_core.flops"] = sum(s.counts.get("flops", 0) for s in sub)
    out["tensor_core.bytes"] = sum(s.counts.get("bytes", 0) for s in sub)
    product_s = sum(out[f"{name}.s"] for name in CALLS.values())
    out["tensor_core.gflops_per_s"] = out["tensor_core.flops"] / product_s / 1e9 if product_s else 0.0
    out["lanczos.iterations"] = total_counts("lanczos", "iterations")
    out["lanczos.model_work"] = total_counts("lanczos", "model_work")
    out["discretize.operator_bytes"] = total_counts("discretize", "operator_bytes", max)
    out["discretize.nonzero_slices"] = total_counts("discretize", "nonzero_slices", max)
    out["resolvent.levels"] = total_counts("resolvent", "levels")
    out["cli.passes"] = sum(1 for s in sub if s.name == "lanczos"
                            and any(a.name == "cli" for a in _ancestors(spans, s)))
    out["trace.wall_s"] = sum(s.duration for s in sub if s.name == "pass")
    return out


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(d[k] for d in per_pass) for k in per_pass[0]}
