import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from grover_ite_lab import grover_engine
from grover_ite_lab.errors import DomainError, EmptyMarkedSet, NumericalDomain
from grover_ite_lab.grover_engine import (
    NamedSchedule,
    diffusion,
    diffusion_reduced,
    fixed_point_angles,
    grover_iterate,
    oracle,
    oracle_reduced,
    reduced_iterate_product,
    run_reduced,
    run_schedule,
    success_probability,
)
from grover_ite_lab.pf_compiler import (
    AngleSchedule,
    Generator,
    GroupCommutator,
    Pulse,
    compile_formula,
)
from grover_ite_lab.search_core import (
    SearchInstance,
    make_initial,
    make_perp,
    make_solution,
    reduce_state,
)

INST = SearchInstance(4, (2, 9))


def basis_matrix(inst):
    return np.column_stack([make_initial(inst), make_perp(inst)])


def test_diffusion_identity_angles(rng):
    v = rng.normal(size=16) + 1j * rng.normal(size=16)
    v /= np.linalg.norm(v)
    for alpha in (0.0, 2 * np.pi):
        assert np.linalg.norm(diffusion(INST, alpha, v) - v) < 1e-12


def test_oracle_identity_and_pi_flip():
    v = make_initial(INST)
    assert np.linalg.norm(oracle(INST, 0.0, v) - v) < 1e-15
    flipped = oracle(INST, np.pi, v)
    expect = v.copy()
    expect[[2, 9]] *= -1
    assert np.linalg.norm(flipped - expect) < 1e-12


def test_full_vs_reduced_operators(rng):
    b = basis_matrix(INST)
    for _ in range(5):
        alpha, beta = rng.uniform(-np.pi, np.pi, 2)
        # conjugate the full operators into the 2D basis and compare
        n = INST.n_states
        d_full = np.eye(n, dtype=complex)
        u_full = np.eye(n, dtype=complex)
        for j in range(n):
            e = np.zeros(n, dtype=complex)
            e[j] = 1.0
            d_full[:, j] = diffusion(INST, alpha, e)
            u_full[:, j] = oracle(INST, beta, e)
        assert np.abs(b.conj().T @ d_full @ b - diffusion_reduced(alpha)).max() < 1e-12
        assert np.abs(b.conj().T @ u_full @ b - oracle_reduced(INST.e0, beta)).max() < 1e-12


def pair_schedule(pairs):
    """Alternating schedule whose iterate k applies O(beta_k) then D(alpha_k)."""
    pulses = []
    for alpha, beta in pairs:
        pulses += [Pulse(Generator.ORACLE, beta), Pulse(Generator.DIFFUSION, alpha)]
    return AngleSchedule(tuple(pulses))


def test_iterate_full_vs_reduced(rng):
    for _ in range(5):
        alpha, beta = rng.uniform(-np.pi, np.pi, 2)
        full = grover_iterate(INST, alpha, beta, make_initial(INST))
        red, _ = run_schedule(INST, pair_schedule([(alpha, beta)]), mode="reduced")
        via_full, residual = reduce_state(INST, full)
        assert residual < 1e-12
        assert abs(via_full.c0 - red.c0) < 1e-12
        assert abs(via_full.c1 - red.c1) < 1e-12


def test_success_probability_values(instance_family):
    for inst in instance_family:
        assert success_probability(inst, make_solution(inst)) == pytest.approx(1.0, abs=1e-12)
        assert success_probability(inst, make_initial(inst)) == pytest.approx(
            inst.e0, abs=1e-12
        )
        assert success_probability(inst, make_perp(inst)) == pytest.approx(
            1.0 - inst.e0, abs=1e-12
        )
    with pytest.raises(EmptyMarkedSet):
        success_probability(SearchInstance(2, ()), make_initial(SearchInstance(2, ())))


def test_original_pi_exact_hit():
    inst = SearchInstance(2, (1,))  # e0 = 1/4: one pi-iterate lands exactly
    _, trace = run_schedule(inst, NamedSchedule("original-pi", 1))
    assert trace[-1] == pytest.approx(1.0, abs=1e-12)


def test_original_pi_overshoots():
    inst = SearchInstance(6, (0,))
    _, trace = run_schedule(inst, NamedSchedule("original-pi", 12))
    peak = int(np.argmax(trace))
    assert peak < len(trace) - 1
    assert trace[-1] < max(trace) - 0.05


def test_pi_over_three_monotone_small_overlap():
    inst = SearchInstance(8, (17,))
    _, trace = run_schedule(inst, NamedSchedule("pi-over-three", 24))
    assert all(b >= a - 1e-12 for a, b in zip(trace, trace[1:]))
    assert trace[-1] > trace[0]


def test_run_schedule_full_reduced_agree():
    schedules = [
        NamedSchedule("original-pi", 6),
        NamedSchedule("fixed-point-chebyshev", 8, delta2=0.1),
        compile_formula(GroupCommutator(), 2.0, fragments=3),
    ]
    for sched in schedules:
        full_state, tr_full = run_schedule(INST, sched, mode="full")
        red_state, tr_red = run_schedule(INST, sched, mode="reduced")
        assert np.abs(np.array(tr_full) - np.array(tr_red)).max() < 1e-10
        red_of_full, residual = reduce_state(INST, full_state)
        assert residual < 1e-10
        assert abs(red_of_full.c0 - red_state.c0) < 1e-10
        assert abs(red_of_full.c1 - red_state.c1) < 1e-10


def test_run_schedule_nonalternating_falls_back_to_pulses():
    sched = compile_formula(GroupCommutator(), 0.5).inverse()  # starts with diffusion
    state, trace = run_schedule(INST, sched, mode="reduced")
    assert len(trace) == 4
    assert state.norm == pytest.approx(1.0, abs=1e-12)


def test_fixed_point_angles_structure():
    sched = fixed_point_angles(9, math.sqrt(0.1))
    pairs = sched.grover_pairs()
    alphas = [a for a, _ in pairs]
    betas = [b for _, b in pairs]
    assert betas == alphas[::-1]  # bitwise reversal symmetry
    assert all(-np.pi <= a < 0 or True for a in alphas)
    with pytest.raises(DomainError):
        fixed_point_angles(0, 0.3)
    with pytest.raises(DomainError):
        fixed_point_angles(4, 1.0)


def test_fixed_point_angles_regression_lock():
    # guards the arccot branch and the L = 2*iters + 1 convention
    pairs = fixed_point_angles(3, math.sqrt(0.1)).grover_pairs()
    expect_alphas = [-2.524698300419969, -4.819451352309129, -3.3851067314510113]
    got = [a for a, _ in pairs]
    assert got == pytest.approx(expect_alphas, abs=1e-12)


def test_fixed_point_terminal_fidelity_subset():
    delta2 = 0.1
    sched = NamedSchedule("fixed-point-chebyshev", 12, delta2=delta2)
    for m in (2, 7, 40, 200):
        inst = SearchInstance(8, tuple(range(m)))
        _, trace = run_schedule(inst, sched, mode="reduced")
        assert trace[-1] >= 1.0 - delta2 - 1e-9


def test_reduced_iterate_product_matches_run():
    pairs = [(0.3, -1.1), (2.0, 0.4), (-0.7, 0.9)]
    u = reduced_iterate_product(INST.e0, pairs)
    state, _ = run_schedule(INST, pair_schedule(pairs), mode="reduced")
    assert np.abs(u @ np.array([1.0, 0.0]) - state.to_array()).max() < 1e-12
    assert np.abs(u @ u.conj().T - np.eye(2)).max() < 1e-13


angles = st.one_of(st.just(0.0), st.floats(-2 * np.pi, 2 * np.pi))
# free pulse lists (any order, odd counts, leading diffusion, cancelling pulses)
# and alternating oracle-first lists, which run as Grover iterates
pulse_lists = st.one_of(
    st.lists(st.builds(Pulse, st.sampled_from(Generator), angles), max_size=8),
    st.lists(st.tuples(angles, angles), max_size=4).map(
        lambda pairs: list(pair_schedule(pairs).pulses)),
)


@given(pulse_lists)
@example([])
@example([Pulse(Generator.ORACLE, 0.4), Pulse(Generator.ORACLE, -0.4)])
@settings(max_examples=40, deadline=None)
def test_run_reduced_matches_full_runs(pulses):
    n = 3
    sched = AngleSchedule(tuple(pulses))
    ms = range(1, 1 << n)
    final, trace = run_reduced(sched, [m / (1 << n) for m in ms])
    for i, m in enumerate(ms):
        inst = SearchInstance(n, tuple(range(m)))
        full_state, tr_full = run_schedule(inst, sched, mode="full")
        assert trace.shape == (len(tr_full), len(ms))
        assert np.abs(trace[:, i] - tr_full).max(initial=0.0) < 1e-10
        red_of_full, residual = reduce_state(inst, full_state)
        assert residual < 1e-10
        assert np.abs(final[:, i] - red_of_full.to_array()).max() < 1e-10


@pytest.mark.parametrize("e0", [math.nan, math.inf, 2.0, -0.25])
def test_run_reduced_rejects_overlaps_outside_the_unit_interval(e0):
    """A NaN overlap once came back as NaN states and traces."""
    with pytest.raises(DomainError, match="overlap"):
        run_reduced(NamedSchedule("original-pi", 2), [0.25, e0])


def test_run_reduced_norm_guard_trips_on_nan(monkeypatch):
    def nan_sweep(a, xs):
        return np.full((len(a) + 1, 2, len(xs)), np.nan, dtype=complex)

    monkeypatch.setattr(grover_engine, "_dr_forward", nan_sweep)
    with pytest.raises(NumericalDomain, match="norm drift"):
        run_reduced(NamedSchedule("original-pi", 2), [0.25])


@pytest.mark.parametrize("make", [
    lambda: NamedSchedule("original-pi", 2.5).angle_pairs(),
    lambda: NamedSchedule("pi-over-three", "3").angle_pairs(),
    lambda: NamedSchedule("fixed-point-chebyshev", 2.5, delta2=0.1).angle_pairs(),
    lambda: fixed_point_angles(2.5, 0.3),
    lambda: fixed_point_angles(True, 0.3),
], ids=["original-pi", "pi-over-three-str", "fixed-point-chebyshev", "fixed-point-angles",
        "fixed-point-angles-bool"])
def test_non_integer_iteration_counts_raise_domain_error(make):
    """These once raised TypeError from list repetition or range(), or took True as 1."""
    with pytest.raises(DomainError, match="integer"):
        make()
