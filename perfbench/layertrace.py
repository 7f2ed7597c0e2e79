"""Per-layer tracing for the benchmark, done from the benchmark's side.

The program is not edited.  `Tracer.patched()` replaces each public entry
point of a layer, at every module or class attribute it is looked up
under, by a wrapper that records calls, total time and self time (total
minus the time of nested traced calls), and restores the originals on
exit.  `splu` is wrapped so the factorization it returns is a proxy whose
`solve` is traced as well.

LAYER_METRICS is the per-layer metric table: each metric, its unit, the
end-to-end metric it should move and the workloads on which it should
move it.  It is the one list of them in code: Tracer.layer_values reads
each value off its name, and selftest.py checks BENCHMARK.json's
per_layer against it.  A workload that never reaches a layer reports 0
for it.
"""

from __future__ import annotations

import os
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# name, unit, end-to-end metric(s) it should move, workloads that reach it
LAYER_METRICS = (
    ("blending.sample_beta.ms", "ms", "setup_s", "all"),
    ("blending.pair_weight_field.calls", "count", "eval_ms_p50", "sweep-ref"),
    ("potential.phi_xx.calls", "count", "eval_ms_p50", "sweep-ref"),
    ("operators.assemble_linear.calls", "count", "eval_ms_p50; case_ms_p50", "sweep-ref; deform-cli"),
    ("operators.assemble_linear.ms", "ms", "eval_ms_p50; case_ms_p50", "sweep-ref; deform-cli"),
    ("operators.to_sparse.calls", "count", "eval_ms_p50", "sweep-ref"),
    ("operators.to_sparse.ms", "ms", "eval_ms_p50", "sweep-ref"),
    ("operators.apply_values.calls", "count", "cmin_ms.*", "cmin-ladder"),
    ("stability.bmat.ms", "ms", "eval_ms_p50", "sweep-ref"),
    ("stability.evals_per_sweep", "count", "wall_s", "sweep-ref"),
    ("stability.coercivity_constant.calls", "count", "eval_ms_*; cmin_ms.*", "sweep-ref; cmin-ladder"),
    ("stability.coercivity_constant.self_ms", "ms", "eval_ms_*; cmin_ms.*", "sweep-ref; cmin-ladder"),
    ("stability.eigsh.calls", "count", "cmin_ms.M8000; eval_ms_p50", "cmin-ladder; sweep-ref"),
    ("stability.eigsh.self_ms", "ms", "cmin_ms.M8000; eval_ms_p50", "cmin-ladder; sweep-ref"),
    ("stability.splu.calls", "count", "eval_ms_p50; cmin_ms.*", "sweep-ref; cmin-ladder"),
    ("stability.splu.ms", "ms", "eval_ms_p50; cmin_ms.*", "sweep-ref; cmin-ladder"),
    ("stability.lu_nnz", "count", "eval_ms_p50; cmin_ms.*", "sweep-ref; cmin-ladder"),
    ("stability.lu_solve.calls", "count", "eval_ms_p50; cmin_ms.*", "sweep-ref; cmin-ladder"),
    ("stability.lu_solve.ms", "ms", "eval_ms_p50; cmin_ms.*", "sweep-ref; cmin-ladder"),
    ("stability.refactor_share", "share", "eval_ms_p95", "sweep-ref"),
    ("stability.critical_strain.self_ms", "ms", "wall_s", "sweep-ref"),
    ("experiments.solve_mean_zero.calls", "count", "case_ms_p50", "deform-cli"),
    ("experiments.solve_mean_zero.ms", "ms", "case_ms_p50", "deform-cli"),
    ("experiments.lu_nnz", "count", "case_ms_p50", "deform-cli"),
    ("experiments.write_csv.ms", "ms", "case_ms_p50", "deform-cli"),
    ("experiments.csv_bytes", "bytes", "case_ms_p50", "deform-cli"),
    ("experiments.solve_deformation.self_ms", "ms", "case_ms_p50", "deform-cli"),
    ("cli.main.self_ms", "ms", "case_ms_p50", "deform-cli"),
    ("setup.import_ms", "ms", "setup_s", "all"),
    ("trace.overhead_share", "share", "none", "all"),
)

# Metrics that are counts of work, which repeat exactly between runs of
# one seed; the rest are times or ratios of times.
COUNT_METRICS = tuple(
    name for name, unit, _, _ in LAYER_METRICS if unit in ("count", "bytes")
) + ("stability.refactor_share",)


class _TracedLU:
    """Factorization proxy whose solve calls are traced."""

    def __init__(self, tracer, lu, solve_name):
        self._tracer = tracer
        self._lu = lu
        self._solve_name = solve_name

    def solve(self, *args, **kwargs):
        return self._tracer.span(self._solve_name, self._lu.solve, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    """Aggregates calls, total and self seconds per traced name."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.nnz = defaultdict(int)
        self.csv_bytes = 0
        self.multi_factor_evals = 0
        self._child = []  # time of traced children, one entry per open span

    def span(self, name, fn, *args, **kwargs):
        self._child.append(0.0)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            child = self._child.pop()
            self.calls[name] += 1
            self.total[name] += dt
            self.self_time[name] += dt - child
            if self._child:
                self._child[-1] += dt

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        return traced

    def _wrap_splu(self, prefix, fn):
        def traced(*args, **kwargs):
            lu = self.span(f"{prefix}.splu", fn, *args, **kwargs)
            self.nnz[prefix] += lu.nnz  # SuperLU's own count; .L/.U would copy the factors
            return _TracedLU(self, lu, f"{prefix}.lu_solve")

        return traced

    def _wrap_coercivity(self, fn):
        def traced(*args, **kwargs):
            before = self.calls["stability.splu"]
            try:
                return self.span("stability.coercivity_constant", fn, *args, **kwargs)
            finally:
                if self.calls["stability.splu"] - before > 1:
                    self.multi_factor_evals += 1

        return traced

    def _wrap_write_csv(self, fn):
        def traced(table, path):
            self.span("experiments.write_csv", fn, table, path)
            self.csv_bytes += os.path.getsize(path)

        return traced

    def targets(self):
        """(owner, attribute, wrapper factory) for every traced lookup."""
        import bqcf
        from bqcf import blending, cli, experiments, operators, potential, stability

        def plain(name):
            return lambda fn: self._wrap(name, fn)

        table = [
            ((blending, bqcf, stability, experiments), "sample_beta", plain("blending.sample_beta")),
            ((blending, operators), "pair_weight_field", plain("blending.pair_weight_field")),
            ((potential.PairPotential,), "phi_xx", plain("potential.phi_xx")),
            ((operators, bqcf, stability, experiments), "assemble_linear", plain("operators.assemble_linear")),
            ((operators.BandedPeriodicOperator,), "to_sparse", plain("operators.to_sparse")),
            ((operators.BandedPeriodicOperator,), "apply_values", plain("operators.apply_values")),
            ((stability,), "bmat", plain("stability.bmat")),
            ((stability, experiments), "coercivity_constant", self._wrap_coercivity),
            ((stability,), "eigsh", plain("stability.eigsh")),
            ((stability,), "splu", lambda fn: self._wrap_splu("stability", fn)),
            ((stability, experiments), "critical_strain", plain("stability.critical_strain")),
            ((experiments,), "splu", lambda fn: self._wrap_splu("experiments", fn)),
            ((experiments,), "solve_mean_zero", plain("experiments.solve_mean_zero")),
            ((experiments.ResultTable,), "write_csv", self._wrap_write_csv),
            ((experiments,), "solve_deformation", plain("experiments.solve_deformation")),
            ((cli,), "main", plain("cli.main")),
        ]
        return [(owner, attr, factory) for owners, attr, factory in table for owner in owners]

    @contextmanager
    def patched(self):
        """Install the wrappers; the originals are restored on exit."""
        saved = []
        try:
            for owner, attr, factory in self.targets():
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, factory(original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def layer_values(self):
        """Every per-layer metric of LAYER_METRICS traced so far (times in ms).

        A name ending in `.calls`, `.ms` or `.self_ms` reads the calls, total
        or self time of the span it names; the few others are ratios and
        sizes computed in DERIVED.  setup.import_ms and trace.overhead_share
        are measured outside the tracer and are filled in by the caller.
        """
        out = {}
        for name, _, _, _ in LAYER_METRICS:
            if name in DERIVED:
                out[name] = DERIVED[name](self)
                continue
            span, kind = name.rsplit(".", 1)
            if kind == "calls":
                out[name] = self.calls[span]
            elif kind == "ms":
                out[name] = self.total[span] * 1e3
            elif kind == "self_ms":
                out[name] = self.self_time[span] * 1e3
        return out


def _per(num, den):
    return num / den if den else 0


DERIVED = {
    "stability.evals_per_sweep": lambda t: _per(
        t.calls["stability.coercivity_constant"], t.calls["stability.critical_strain"]
    ),
    "stability.lu_nnz": lambda t: _per(t.nnz["stability"], t.calls["stability.splu"]),
    "stability.lu_solve.calls": lambda t: _per(
        t.calls["stability.lu_solve"], t.calls["stability.coercivity_constant"]
    ),
    "stability.refactor_share": lambda t: _per(
        t.multi_factor_evals, t.calls["stability.coercivity_constant"]
    ),
    "experiments.lu_nnz": lambda t: _per(t.nnz["experiments"], t.calls["experiments.splu"]),
    "experiments.csv_bytes": lambda t: t.csv_bytes,
}
