"""Layer boundaries of grover_ite_lab, and the per-layer metrics of a trace.

The traced run wraps the module attributes the program calls through.  Where
one module imported a name from another, that binding is wrapped too (for
example ``bench.fit_ite_phases``, ``bench._dr_forward``, ``bench.run_schedule``),
and ``bench.RUNNERS``/``bench.CHECKS`` are wrapped entry by entry because the
CLI looks them up there.  ``errors`` does no work and is not wrapped.
"""

from __future__ import annotations

from grover_ite_lab import (
    bench,
    cli,
    geometry,
    grover_engine,
    ite_flow,
    pf_compiler,
    qsp_engine,
)

LAYERS = ("cli", "bench", "qsp_engine", "grover_engine", "pf_compiler", "geometry",
          "ite_flow", "search_core")

# Bytes a sweep moves per (step, signal point), computed from the array sizes in
# qsp_engine._dr_forward/_dr_backward, not measured: complex values are 16 B.
# forward: read state 32 + read x, sqrt(1-x^2) 16 + write state 32 + write prefix 32
FORWARD_BYTES_PER_POINT = 112
# backward: read cochain 32 + read prefix entry 16 + read x, sqrt(1-x^2) 16 + write 32
BACKWARD_BYTES_PER_POINT = 96

# Metrics that are already ratios; every other metric is a total, divided by passes.
_RATIOS = {"qsp_engine.solves_at_cap_share", "qsp_engine.cost_eval_us",
           "qsp_engine.sweep_ns_per_point", "grover_engine.iterate_us"}

_ROW_FUNCTIONS = {
    "fig_a_rows": lambda r: r,
    "fig_b_rows": lambda r: r,
    "fig_c_rows": lambda r: r[0],
    "fixed_point_rows": lambda r: r[0],
    "custom_rows": lambda r: r[1],
    "_overlap_rows": lambda r: r,
    "_ite_infidelities": lambda r: r,
}


def _sweep_points(args) -> int:
    # _dr_forward(a, xs) and _dr_backward(pre, seed, a, xs): K = len(a), n_d = len(xs)
    return len(args[-2]) * len(args[-1])


def _record_solve(span, args, result):
    span.extra.update(nit=int(result.nit), nfev=int(result.nfev),
                      at_cap=int(result.status == 1))


def _row_counter(extract):
    def record(span, args, result):
        span.extra["rows"] = len(extract(result))
    return record


def instrument(tracer):
    """Plan the wrappers for every layer boundary of the package."""
    span, agg = tracer.span, tracer.aggregate
    span(cli, "main", "cli", "cli")

    for name in list(bench.RUNNERS):
        span(bench.RUNNERS, name, "runner", "bench")
    for name in list(bench.CHECKS):
        span(bench.CHECKS, name, "check", "bench")
    span(bench, "fitted_ite_phases", "cache", "bench")
    span(bench, "fitted_sign_schedule", "cache", "bench")
    for name, extract in _ROW_FUNCTIONS.items():
        span(bench, name, "row", "bench", on_exit=_row_counter(extract))
    span(bench, "render_csv", "render", "bench")

    for owner in (qsp_engine, bench):
        span(owner, "fit_ite_phases", "fit", "qsp_engine")
        span(owner, "fixed_point_via_sign", "fit", "qsp_engine")
    span(qsp_engine, "fit_phases", "fit", "qsp_engine")
    span(qsp_engine, "_lbfgs", "solve", "qsp_engine", on_exit=_record_solve)
    for name in ("contract_cost_grad", "_mse_cost_grad", "_statematch_cost_grad"):
        agg(qsp_engine, name, "cost_eval", "qsp_engine")
    agg(qsp_engine, "_dr_forward", "sweep_forward", "qsp_engine", _sweep_points)
    agg(bench, "_dr_forward", "sweep_forward", "qsp_engine", _sweep_points)
    agg(qsp_engine, "_dr_backward", "sweep_backward", "qsp_engine", _sweep_points)

    span(grover_engine, "run_schedule", "schedule_run", "grover_engine")
    span(bench, "run_schedule", "schedule_run", "grover_engine")
    agg(grover_engine, "grover_iterate", "iterate", "grover_engine")

    span(geometry, "measured_gci_error", "gci_error", "geometry")
    span(geometry, "gci_error_bound", "gci_bound", "geometry")
    span(geometry, "operator_norm", "svd", "geometry")
    span(geometry, "diffusion_matrix", "dense_build", "search_core")
    span(geometry, "oracle_matrix", "dense_build", "search_core")
    for owner in (ite_flow, geometry, pf_compiler):
        span(owner, "exact_commutator_exponential", "exact_exp", "ite_flow")
    span(pf_compiler, "measure_formula_error", "formula_error", "pf_compiler")
    span(pf_compiler, "fit_order", "order_fit", "pf_compiler")
    span(pf_compiler, "schedule_unitary", "schedule_unitary", "pf_compiler")
    agg(pf_compiler, "compile_formula", "compile", "pf_compiler")


class _Totals:
    """Count, inclusive time and self time of the spans or calls of one kind."""

    def __init__(self):
        self.count = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.weight = 0

    def add(self, count, total_s, self_s, weight=0):
        self.count += count
        self.total_s += total_s
        self.self_s += self_s
        self.weight += weight

    def mean(self, scale: float) -> float:
        return self.total_s / self.count * scale if self.count else 0.0


def layer_metrics(spans, passes: int) -> dict[str, float]:
    """Per-layer metrics per pass, from the spans of ``passes`` traced passes."""
    by_id = {s.id: s for s in spans}
    children: dict[int, list] = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)

    def has_ancestor(s, kind) -> bool:
        p = s.parent
        while p is not None:
            if by_id[p].kind == kind:
                return True
            p = by_id[p].parent
        return False

    kinds: dict[str, _Totals] = {}
    layer_self = {layer: 0.0 for layer in LAYERS + ("perfbench",)}  # perfbench: own code
    for s in spans:
        kinds.setdefault(s.kind, _Totals()).add(1, s.duration, s.self_s)
        layer_self[s.layer] += s.self_s
        for kind, (layer, count, total_s, self_s, weight) in s.agg.items():
            kinds.setdefault(kind, _Totals()).add(count, total_s, self_s, weight)
            layer_self[layer] += self_s
    get = lambda kind: kinds.get(kind, _Totals())

    fits = [s for s in spans if s.kind == "fit" and not has_ancestor(s, "fit")]
    solves = [s for s in spans if s.kind == "solve"]
    caches = [s for s in spans if s.kind == "cache"]
    misses = sum(any(c.kind == "fit" for c in children.get(s.id, ())) for s in caches)
    rows_out = [s for s in spans if s.kind == "row" and not has_ancestor(s, "row")]
    in_checks = [has_ancestor(s, "check") for s in rows_out]
    fwd, bwd = get("sweep_forward"), get("sweep_backward")
    sweep_points = fwd.weight + bwd.weight

    m = {
        "qsp_engine.fit_s": sum(s.duration for s in fits),
        "qsp_engine.solves": len(solves),
        "qsp_engine.solve_iters": sum(s.extra.get("nit", 0) for s in solves),
        "qsp_engine.solves_at_cap_share": (
            sum(s.extra.get("at_cap", 0) for s in solves) / len(solves) if solves else 0.0),
        "qsp_engine.cost_evals": get("cost_eval").count,
        "qsp_engine.cost_eval_us": get("cost_eval").mean(1e6),
        "qsp_engine.sweeps": fwd.count + bwd.count,
        "qsp_engine.sweep_points": sweep_points,
        "qsp_engine.sweep_ns_per_point": (
            (fwd.total_s + bwd.total_s) / sweep_points * 1e9 if sweep_points else 0.0),
        "qsp_engine.sweep_bytes_computed": (
            FORWARD_BYTES_PER_POINT * fwd.weight + BACKWARD_BYTES_PER_POINT * bwd.weight),
        "qsp_engine.solver_self_s": get("solve").self_s,
        "qsp_engine.eval_self_s": get("cost_eval").self_s,
        "bench.cache_hits": len(caches) - misses,
        "bench.cache_misses": misses,
        "bench.cache_s": get("cache").self_s,
        "bench.rows": sum(s.extra.get("rows", 0) for s, c in zip(rows_out, in_checks) if not c),
        "bench.row_s": get("row").self_s,
        "bench.render_s": get("render").total_s,
        "bench.check_s": get("check").total_s,
        "bench.check_rows": sum(s.extra.get("rows", 0) for s, c in zip(rows_out, in_checks) if c),
        "grover_engine.schedule_runs": get("schedule_run").count,
        "grover_engine.schedule_run_s": get("schedule_run").total_s,
        "grover_engine.iterates": get("iterate").count,
        "grover_engine.iterate_us": get("iterate").mean(1e6),
        "cli.commands": get("cli").count,
        "search_core.dense_builds": get("dense_build").count,
        "search_core.dense_build_s": get("dense_build").total_s,
        "ite_flow.exact_exps": get("exact_exp").count,
        "ite_flow.exact_exp_s": get("exact_exp").total_s,
        "pf_compiler.schedule_unitaries": get("schedule_unitary").count,
        "pf_compiler.schedule_unitary_s": get("schedule_unitary").total_s,
        "geometry.svds": get("svd").count,
        "geometry.svd_s": get("svd").total_s,
    }
    for layer, value in layer_self.items():
        m[f"{layer}.self_s"] = value
    m["trace.spans"] = len(spans)
    return {name: value if name in _RATIOS else value / passes for name, value in m.items()}
