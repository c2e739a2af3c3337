"""Reference computations the benchmark checks the program's outputs against.

Each check takes another route than the one that produced the output, or
tests a property the method must have; none compares with stored output.

* Flow-target rows are recomputed through the 2x2 sequence product
  ``qsp_engine.qsp_matrix`` instead of the vectorised ``_dr_forward`` sweep.
  The sequence state must have unit norm.  For a sample of marked counts the
  mapped Grover schedule is also run on the dense state and compared with the
  exact commutator-flow state.
* Fixed-point rows are compared with their closed forms: the quasi-Chebyshev
  schedule reaches 1 - delta^2 T_L(gamma sqrt(1 - e0))^2 (Yoder, Low & Chuang,
  PRL 113, 210501, 2014), the original pi schedule sin^2((2N+1) arcsin sqrt e0).
* Dense operator results must stay under the proved group-commutator bound,
  and each empirical order must lie near the formula's claimed order.

Every check returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations

import math

import numpy as np

from grover_ite_lab import grover_engine, ite_flow, qsp_engine, search_core

TOL = 1e-10
ORDER_TOL = 0.1


def flow_reference(phases, s: float, n: int) -> tuple[np.ndarray, float]:
    """Infidelity for M = 1..N-1 through the 2x2 product, and the worst norm defect."""
    big_n = 1 << n
    infs = np.empty(big_n - 1)
    norm_defect = 0.0
    for m in range(1, big_n):
        x = math.sqrt(m / big_n)
        state = qsp_engine.qsp_matrix(phases, x)[:, 0]
        norm_defect = max(norm_defect, abs(float(np.linalg.norm(state)) - 1.0))
        theta = s * x * math.sqrt(1.0 - x * x)
        overlap = math.cos(theta) * state[0] + math.sin(theta) * state[1]
        infs[m - 1] = 1.0 - abs(overlap) ** 2
    return infs, norm_defect


def _norm_problems(norm_defect: float, label: str) -> list[str]:
    return [] if norm_defect <= TOL else [f"{label}: sequence state norm off by {norm_defect:.2e}"]


def check_flow_rows(rows, reference: tuple[np.ndarray, float], label: str) -> list[str]:
    """rows: (M, infidelity) for every M = 1..N-1 in order."""
    infs, norm_defect = reference
    problems = _norm_problems(norm_defect, label)
    ms = [m for m, _ in rows]
    if ms != list(range(1, len(infs) + 1)):
        return problems + [f"{label}: rows cover M={ms[:3]}.. not 1..{len(infs)}"]
    err = float(np.max(np.abs(np.array([inf for _, inf in rows]) - infs)))
    if not err <= TOL:
        problems.append(f"{label}: rows differ from the 2x2 product by {err:.2e}")
    return problems


def check_mean_row(mean: float, reference: tuple[np.ndarray, float], label: str) -> list[str]:
    infs, norm_defect = reference
    problems = _norm_problems(norm_defect, label)
    err = abs(mean - float(np.mean(infs)))
    if not err <= TOL:
        problems.append(f"{label}: mean row differs from the 2x2 product by {err:.2e}")
    return problems


def dense_flow_infidelity(phases, s: float, n: int, marked) -> float:
    """Infidelity of the mapped schedule run on the dense state, against the flow."""
    inst = search_core.SearchInstance(n, tuple(int(i) for i in marked))
    final, _ = grover_engine.run_schedule(inst, qsp_engine.qsp_to_grover(phases), mode="full")
    flow = search_core.embed_state(inst, ite_flow.commutator_flow_state(inst, s).state)
    return 1.0 - abs(np.vdot(flow, final)) ** 2


def dense_sample(phases, s: float, n: int, sample) -> dict[int, float]:
    """Dense infidelity for each marked index set of the sample, keyed by its size."""
    return {len(marked): dense_flow_infidelity(phases, s, n, marked) for marked in sample}


def check_dense_sample(rows, dense: dict[int, float], label: str) -> list[str]:
    """rows: (M, infidelity); each dense value is compared with the row at its M."""
    by_m = dict(rows)
    problems = []
    for m, value in dense.items():
        err = abs(value - by_m.get(m, math.nan))
        if not err <= TOL:
            problems.append(f"{label}: dense run at M={m} differs by {err:.2e}")
    return problems


def chebyshev_overlap(e0: float, iterations: int, delta2: float) -> float:
    big_l = 2 * iterations + 1
    delta = math.sqrt(delta2)
    gamma = math.cosh(math.acosh(1.0 / delta) / big_l)
    x = gamma * math.sqrt(1.0 - e0)
    t_l = math.cos(big_l * math.acos(x)) if x <= 1.0 else math.cosh(big_l * math.acosh(x))
    return 1.0 - delta2 * t_l ** 2


def original_pi_overlap(e0: float, iterations: int) -> float:
    return math.sin((2 * iterations + 1) * math.asin(math.sqrt(e0))) ** 2


def check_closed_form(rows, closed_form, label: str) -> list[str]:
    """rows: (e0, final overlap); closed_form maps e0 to the expected overlap."""
    if not rows:
        return [f"{label}: no rows"]
    err = float(np.max(np.abs([ov - closed_form(e0) for e0, ov in rows])))
    return [] if err <= TOL else [f"{label}: rows differ from the closed form by {err:.2e}"]


def check_under_bound(measured: float, bound: float, label: str) -> list[str]:
    if measured <= bound:
        return []
    return [f"{label}: measured error {measured:.3e} above the bound {bound:.3e}"]


def check_order(slope: float, claimed: float, label: str) -> list[str]:
    if abs(slope - claimed) <= ORDER_TOL:
        return []
    return [f"{label}: fitted order {slope:.3f}, claimed {claimed:.3f}"]


def p95_digits(infidelities) -> float:
    """-log10 of the 95th percentile of a set of infidelities."""
    return -math.log10(float(np.quantile(np.asarray(infidelities), 0.95)))
