"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.  The figure-reproduction
criteria read their phase fits from a temporary copy of the committed
.fit_cache/ (the `committed_cache` fixture), so they take seconds and write
nothing into the repository; a fit missing from it runs anew (minutes) on
every run.
"""

import math
import time

import numpy as np
import pytest

from grover_ite_lab import bench
from grover_ite_lab.bench import ExperimentConfig
from grover_ite_lab.geometry import (
    QUERY_BOUND_CONSTANT,
    gci_error_bound,
    measured_gci_error,
    query_bound,
)
from grover_ite_lab.grover_engine import reduced_iterate_product, run_schedule
from grover_ite_lab.ite_flow import commutator_flow_state, duration_from_tau, ite_state, optimal_duration
from grover_ite_lab.pf_compiler import (
    GroupCommutator,
    ThirdOrder,
    compile_formula,
    fit_order,
    measure_formula_error,
)
from grover_ite_lab.qsp_engine import QspPhases, grover_to_qsp, jacobi_anger, qsp_matrix, sign_poly
from grover_ite_lab.search_core import SearchInstance, embed_state, make_initial, make_solution


pytestmark = pytest.mark.usefixtures("committed_cache")


def _family():
    out = []
    for n in range(2, 9):
        big_n = 1 << n
        for m in sorted({1, big_n // 4, big_n // 2, big_n - 1}):
            if 1 <= m <= big_n - 1:
                out.append(SearchInstance(n, tuple(range(m))))
    return out


def _report(num, text):
    print(f"\nACCEPTANCE {num}: PASS - {text}")


def test_criterion_01_flow_equivalence():
    start = time.time()
    family = _family()
    assert len(family) >= 20
    taus = np.logspace(-3, math.log10(30.0), 40)
    worst = 0.0
    for inst in family:
        for tau in taus:
            lhs = ite_state(inst, float(tau))
            rhs = embed_state(
                inst, commutator_flow_state(inst, duration_from_tau(inst, float(tau))).state
            )
            worst = max(worst, float(np.linalg.norm(lhs - rhs)))
    elapsed = time.time() - start
    assert worst < 1e-10
    assert elapsed < 10.0
    _report(1, f"flow equivalence worst residual {worst:.2e} over "
               f"{len(family)} instances x 40 taus in {elapsed:.2f}s")


def test_criterion_02_optimal_duration_exact():
    start = time.time()
    worst = 1.0
    for inst in _family():
        final = embed_state(inst, commutator_flow_state(inst, optimal_duration(inst)).state)
        fid = abs(np.vdot(make_solution(inst), final)) ** 2
        worst = min(worst, fid)
    elapsed = time.time() - start
    assert worst >= 1.0 - 1e-12
    assert elapsed < 1.0
    _report(2, f"flow at optimal duration reaches the solution, worst fidelity {worst:.15f} "
               f"in {elapsed:.2f}s")


def test_criterion_03_sequence_identity():
    start = time.time()
    rng = np.random.default_rng(2024)
    zero = np.array([1.0, 0.0], dtype=complex)
    worst = 0.0
    for i in range(100):
        n_iter = 1 + i % 5
        pairs = [tuple(rng.uniform(-math.pi, math.pi, 2)) for _ in range(n_iter)]
        phases = grover_to_qsp(pairs)
        for e0 in (0.1, 0.25, 0.5):
            x = math.sqrt(e0)
            prod = reduced_iterate_product(e0, pairs)
            seq = qsp_matrix(phases, x)
            worst = max(worst, float(np.abs(prod @ zero - seq @ zero).max()))
            stripped = QspPhases((0.0,) + phases.phases[1:], "R")
            tracked = np.exp(1j * phases.phases[0]) * qsp_matrix(stripped, x)
            worst = max(worst, float(np.abs(prod - tracked).max()))
    elapsed = time.time() - start
    assert worst < 1e-12
    assert elapsed < 1.0
    _report(3, f"iterate product vs mapped sequence, max entry error {worst:.2e} "
               f"(100 schedules x 3 overlaps) in {elapsed:.2f}s")


def test_criterion_04_commutator_error_bound():
    start = time.time()
    worst_ratio = 0.0
    count = 0
    for n in (2, 4, 6):
        big_n = 1 << n
        for m in sorted({1, big_n // 4, big_n // 2, big_n - 1}):
            if not 1 <= m <= big_n - 1:
                continue
            inst = SearchInstance(n, tuple(range(m)))
            for s in (0.1, 0.5, 1.0, 2.0, math.pi ** 2):
                measured = measured_gci_error(inst, s)
                bound = gci_error_bound(inst, s)
                assert measured <= bound
                worst_ratio = max(worst_ratio, measured / bound)
                count += 1
    elapsed = time.time() - start
    assert elapsed < 30.0
    _report(4, f"group-commutator error under the bound at all {count} points "
               f"(worst ratio {worst_ratio:.3f}) in {elapsed:.2f}s")


def test_criterion_05_formula_orders():
    start = time.time()
    inst = SearchInstance(4, (3,))
    grid = np.logspace(-3, -1, 8)
    slope_gc = fit_order(measure_formula_error(inst, GroupCommutator(), grid))
    slope_third = fit_order(measure_formula_error(inst, ThirdOrder(), grid))
    elapsed = time.time() - start
    assert 1.25 <= slope_gc <= 1.75
    assert slope_third >= slope_gc + 0.4
    assert elapsed < 30.0
    _report(5, f"order slopes: group-commutator {slope_gc:.3f}, third-order {slope_third:.3f} "
               f"in {elapsed:.2f}s")


def test_criterion_06_query_bound():
    start = time.time()
    assert query_bound(1.0, 0.0) == 51
    for d in (0.0, 0.2, 1.0):
        raw = QUERY_BOUND_CONSTANT / abs(math.pi / 2 - d)
        for eps in (1.0, 0.5, 0.25):
            assert query_bound(eps, d) == math.ceil(raw / eps ** 2)
    for eps in (1.0, 0.5, 0.25):
        for k in range(1, 13):
            e0 = 2.0 ** -k
            qb = query_bound(eps, math.acos(math.sqrt(e0)))
            assert qb * math.sqrt(e0) <= QUERY_BOUND_CONSTANT / eps ** 2 + 1.0
    elapsed = time.time() - start
    assert elapsed < 1.0
    _report(6, f"query bound value 51 at (eps=1, d=0), exact 1/eps^2 scaling, "
               f"sqrt-envelope down to e0=2^-12 in {elapsed:.2f}s")


def test_criterion_07_fig_a_reproduction():
    config = ExperimentConfig.for_experiment("fig-a", seed=0)
    rows = bench.fig_a_rows(config)
    assert len(rows) == 3 * 255
    stats = []
    for s in sorted(config.s_values):
        infs = np.array([inf for ss, _, _, inf in rows if ss == s])
        med = float(np.median(infs))
        p95 = float(np.quantile(infs, 0.95))
        assert med <= 1e-2, f"s={s} median {med}"
        assert p95 <= 2e-2, f"s={s} p95 {p95}"
        stats.append(f"s={s}: med {med:.1e}, p95 {p95:.1e}")
    _report(7, "fitted-sequence infidelity at (iters=16, n=8): " + "; ".join(stats))


def test_criterion_08_fig_b_reproduction():
    config = ExperimentConfig.for_experiment("fig-b", seed=0)
    rows = bench.fig_b_rows(config)
    assert len(rows) == 9
    stats = []
    for s in sorted(config.s_values):
        means = [mean for _, ss, mean in rows if ss == s]
        lo, hi = min(means), max(means)
        assert hi - lo <= 10.0 * lo, f"s={s}: spread {hi - lo} vs min {lo}"
        stats.append(f"s={s}: means in [{lo:.2e}, {hi:.2e}]")
    _report(8, "size independence at (iters=8, n=4/6/8): " + "; ".join(stats))


def test_criterion_09_fixed_point_comparison():
    config = ExperimentConfig.for_experiment("fixed-point", seed=0)
    rows, valid_from = bench.fixed_point_rows(config)
    assert valid_from is not None
    by = {}
    for name, m, e0, ov in rows:
        by.setdefault(name, []).append((e0, ov))
    cheb_valid = [ov for e0, ov in by["fixed-point-chebyshev"] if e0 >= valid_from]
    assert min(cheb_valid) >= 0.9 - 1e-9
    pi_min = min(ov for _, ov in by["original-pi"])
    assert pi_min < 0.5
    sign_valid = [ov for e0, ov in by["sign-qsp"] if e0 >= valid_from]
    frac = float(np.mean([ov >= 0.85 for ov in sign_valid]))
    assert frac >= 0.9
    _report(9, f"fixed-point (iters=20, n=8, delta2=0.1): chebyshev min {min(cheb_valid):.3f} "
               f"on e0 >= {valid_from:.4f}; pi-schedule overshoot min {pi_min:.3f}; "
               f"sign schedule >= 0.85 on {100 * frac:.1f}% of the valid range")


def test_criterion_10_polynomial_contracts():
    start = time.time()
    poly = jacobi_anger("cos", 1.0, 1e-8)
    grid = np.linspace(-1, 1, 2001)
    ja_err = float(np.abs(poly(grid) - np.cos(grid)).max())
    assert ja_err <= 1e-8
    sgn = sign_poly(0.1, 0.05)
    xs = np.linspace(-2, 2, 4001)
    vals = sgn(xs)
    outside = np.abs(xs) >= 0.1
    sgn_err = float(np.abs(vals - np.sign(xs))[outside].max())
    assert sgn_err <= 0.05
    assert float(np.abs(vals).max()) <= 1.0
    elapsed = time.time() - start
    assert elapsed < 5.0
    _report(10, f"bessel-series grid error {ja_err:.2e} <= 1e-8; sign approximant "
                f"error {sgn_err:.3f} <= 0.05 with |p| <= 1 on [-2,2] in {elapsed:.2f}s")


def test_criterion_11_property_suite():
    start = time.time()
    # norm preservation across state-producing operations
    for inst in _family()[:12]:
        for v in (make_initial(inst), make_solution(inst), ite_state(inst, 2.0)):
            assert abs(np.linalg.norm(v) - 1.0) < 1e-12

    # full vs reduced trajectories on representative schedules
    from grover_ite_lab.grover_engine import NamedSchedule
    from grover_ite_lab.search_core import reduce_state

    inst = SearchInstance(6, (1, 17, 40))
    for sched in (
        NamedSchedule("original-pi", 5),
        NamedSchedule("fixed-point-chebyshev", 10, delta2=0.1),
        compile_formula(GroupCommutator(), 1.5, fragments=2),
    ):
        full_state, tr_full = run_schedule(inst, sched, mode="full")
        red_state, tr_red = run_schedule(inst, sched, mode="reduced")
        assert np.abs(np.array(tr_full) - np.array(tr_red)).max() < 1e-10
        red_of_full, residual = reduce_state(inst, full_state)
        assert residual < 1e-10
        assert abs(red_of_full.c0 - red_state.c0) < 1e-10
        assert abs(red_of_full.c1 - red_state.c1) < 1e-10

    # schedule-inverse identity
    from grover_ite_lab.pf_compiler import schedule_unitary

    sched = compile_formula(ThirdOrder(), 0.9)
    u = schedule_unitary(SearchInstance(4, (3, 5)), sched)
    v = schedule_unitary(SearchInstance(4, (3, 5)), sched.inverse())
    assert np.abs(u @ v - np.eye(16)).max() < 1e-12

    # bitwise CSV determinism, including across a cache hit
    config = ExperimentConfig.for_experiment(
        "custom", n_qubits=(4,), iterations=2, s_values=(0.5,), seed=9
    )
    first, _ = bench.run(config)
    second, _ = bench.run(config)
    assert first == second

    elapsed = time.time() - start
    assert elapsed < 60.0
    _report(11, f"norms, full/reduced agreement, schedule inverses, and bitwise "
                f"CSV determinism verified in {elapsed:.2f}s")
