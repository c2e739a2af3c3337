import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grover_ite_lab.errors import (
    DegenerateInstance,
    DepthExceeded,
    DomainError,
    InsufficientData,
    NegativeDuration,
    NonAlternatingSchedule,
)
from grover_ite_lab.geometry import gci_error_bound, measured_gci_error, operator_norm
from grover_ite_lab.ite_flow import exact_commutator_exponential
from grover_ite_lab.pf_compiler import (
    AngleSchedule,
    FiveCopies,
    Generator,
    GroupCommutator,
    JeanKoseleff,
    Pulse,
    ThirdOrder,
    TwoCopies,
    compile_formula,
    fit_order,
    formula_error,
    formula_order,
    measure_formula_error,
    require_duration,
    schedule_unitary,
)
from grover_ite_lab.qsp_engine import fit_ite_phases, jacobi_anger, target_ite_component
from grover_ite_lab.search_core import MAX_QUBITS, SearchInstance

INST = SearchInstance(4, (3,))
# the six formula kinds of the dense-operators benchmark workload
KINDS = (GroupCommutator(), ThirdOrder(), TwoCopies(GroupCommutator()),
         JeanKoseleff(GroupCommutator()), FiveCopies(GroupCommutator()),
         JeanKoseleff(ThirdOrder()))

pulse_lists = st.lists(
    st.tuples(st.sampled_from([Generator.ORACLE, Generator.DIFFUSION]), st.floats(-3, 3)),
    min_size=0,
    max_size=10,
).map(lambda ps: AngleSchedule(tuple(Pulse(g, a) for g, a in ps)))


def test_group_commutator_single_fragment():
    s = 0.49
    c = math.sqrt(s)
    sched = compile_formula(GroupCommutator(), s)
    assert sched.claimed_order == 3
    assert [(p.generator, p.angle) for p in sched.pulses] == [
        (Generator.ORACLE, -c),
        (Generator.DIFFUSION, -c),
        (Generator.ORACLE, c),
        (Generator.DIFFUSION, c),
    ]


def test_pi_angle_correspondence():
    # sqrt(2 s / n_iter) = pi  <=>  s = pi^2 n_iter / 2 reproduces the pi schedule
    n_iter = 4
    s = math.pi ** 2 * n_iter / 2
    sched = compile_formula(GroupCommutator(), s, fragments=n_iter // 2)
    assert len(sched.pulses) == 2 * n_iter
    assert all(abs(abs(p.angle) - math.pi) < 1e-12 for p in sched.pulses)
    pi_pulses = AngleSchedule(
        tuple(
            Pulse(g, math.pi)
            for _ in range(n_iter)
            for g in (Generator.ORACLE, Generator.DIFFUSION)
        )
    )
    diff = schedule_unitary(INST, sched) - schedule_unitary(INST, pi_pulses)
    assert np.abs(diff).max() < 1e-12


def test_third_order_pattern():
    phi = (math.sqrt(5) - 1) / 2
    sched = compile_formula(ThirdOrder(), 1.0)
    assert sched.claimed_order == 4
    angles = [p.angle for p in sched.pulses]
    assert angles == pytest.approx([1.0, 1.0 - phi, -(phi + 1.0), -1.0, phi, phi])


def test_formula_orders_and_validation():
    assert formula_order(TwoCopies(GroupCommutator())) == 4
    assert formula_order(JeanKoseleff(ThirdOrder())) == 5
    assert formula_order(FiveCopies(GroupCommutator())) == 4
    with pytest.raises(DomainError):
        compile_formula(TwoCopies(ThirdOrder()), 0.1)  # odd-order base
    with pytest.raises(NegativeDuration):
        compile_formula(GroupCommutator(), -1.0)
    for fragments in (0, 1.5, 2.0, "2"):
        with pytest.raises(DomainError, match="fragments"):
            compile_formula(GroupCommutator(), 0.5, fragments=fragments)
    deep = GroupCommutator()
    for _ in range(7):
        deep = FiveCopies(deep)
    with pytest.raises(DepthExceeded):
        compile_formula(deep, 0.1)


def test_schedule_unitary_identity_and_inverse():
    empty = AngleSchedule(())
    assert np.abs(schedule_unitary(INST, empty) - np.eye(16)).max() == 0.0
    sched = compile_formula(JeanKoseleff(GroupCommutator()), 0.7)
    u = schedule_unitary(INST, sched)
    assert np.abs(u @ u.conj().T - np.eye(16)).max() < 1e-12
    v = schedule_unitary(INST, sched.inverse())
    assert np.abs(v @ u - np.eye(16)).max() < 1e-12


def test_small_s_error_below_gci_bound():
    s = 0.01
    err = operator_norm(
        schedule_unitary(INST, compile_formula(GroupCommutator(), s))
        - exact_commutator_exponential(INST, s)
    )
    assert err < gci_error_bound(INST, s)


def test_compiled_schedules_converge_to_identity():
    for kind in (GroupCommutator(), ThirdOrder(), TwoCopies(GroupCommutator())):
        u = schedule_unitary(INST, compile_formula(kind, 1e-10))
        assert np.abs(u - np.eye(16)).max() < 1e-4


@given(pulse_lists)
@settings(max_examples=30, deadline=None)
def test_canonicalization_preserves_unitary(sched):
    inst = SearchInstance(3, (1, 4))
    u = schedule_unitary(inst, sched)
    v = schedule_unitary(inst, sched.canonical())
    assert np.abs(u - v).max() < 1e-14
    # canonical form alternates generators
    gens = [p.generator for p in sched.canonical().pulses]
    assert all(a != b for a, b in zip(gens, gens[1:]))


def test_canonical_merges_and_drops():
    sched = AngleSchedule(
        (
            Pulse(Generator.ORACLE, 0.5),
            Pulse(Generator.ORACLE, -0.5),
            Pulse(Generator.DIFFUSION, 0.25),
            Pulse(Generator.DIFFUSION, 0.25),
        )
    )
    assert sched.canonical().pulses == (Pulse(Generator.DIFFUSION, 0.5),)


def test_grover_pairs_and_phase():
    sched = compile_formula(GroupCommutator(), 0.3)
    pairs = sched.grover_pairs()
    c = math.sqrt(0.3)
    assert pairs == [(-c, -c), (c, c)]
    assert sched.grover_phase == 1.0  # (-1)^2
    with pytest.raises(NonAlternatingSchedule):
        AngleSchedule((Pulse(Generator.DIFFUSION, 0.1),)).grover_pairs()


def test_measurement_and_orders():
    grid = np.logspace(-3, -1, 8)
    points = measure_formula_error(INST, GroupCommutator(), grid)
    assert all(e >= 0 for _, e in points)
    assert measure_formula_error(INST, GroupCommutator(), [0.0])[0][1] < 1e-14
    slope_gc = fit_order(points)
    assert 1.25 <= slope_gc <= 1.75
    slope_third = fit_order(measure_formula_error(INST, ThirdOrder(), grid))
    assert slope_third >= slope_gc + 0.4


def test_recursive_orders_match_claims():
    inst = SearchInstance(3, (2,))
    grid = np.logspace(-3, -1, 8)
    for kind in (TwoCopies(GroupCommutator()), JeanKoseleff(GroupCommutator()),
                 FiveCopies(GroupCommutator()), JeanKoseleff(ThirdOrder())):
        slope = fit_order(measure_formula_error(inst, kind, grid))
        assert abs(slope - formula_order(kind) / 2.0) <= 0.25


def test_fragmentation_inequality():
    s = 1.6
    for frags in (2, 4):
        whole = measure_formula_error(INST, GroupCommutator(), [s], fragments=frags)[0][1]
        single = measure_formula_error(INST, GroupCommutator(), [s / frags])[0][1]
        assert whole <= frags * single + 1e-12


def test_measure_formula_error_equals_the_out_of_place_difference():
    # the reduced 2x2 value against the full SVD of the dense N x N difference,
    # over n = 3..9, M in {1, N/4, N/2, N-1}, every kind and 1 or 3 fragments;
    # s cycles through the grid so each instance sees every duration
    s_values = itertools.cycle([0.0, 1e-3, 0.1, 1.0, math.pi ** 2])
    for n in range(3, 10):
        big_n = 1 << n
        for m in sorted({1, big_n // 4, big_n // 2, big_n - 1}):
            inst = SearchInstance(n, tuple(range(m)))
            for kind in KINDS:
                for frags in (1, 3):
                    s = next(s_values)
                    dense = (schedule_unitary(inst, compile_formula(kind, s, frags))
                             - exact_commutator_exponential(inst, s))
                    [(_, error)] = measure_formula_error(inst, kind, [s], fragments=frags)
                    assert error == pytest.approx(
                        float(np.linalg.svd(dense, compute_uv=False)[0]), abs=1e-13)


def test_compiled_oracle_angles_sum_to_zero():
    # why the reduced error needs no complement term: e^{i sum theta_O} = 1
    kinds = KINDS + (FiveCopies(ThirdOrder()), JeanKoseleff(JeanKoseleff(GroupCommutator())))
    for kind in kinds:
        for frags in (1, 3):
            for s in (1e-3, 0.1, 1.0, math.pi ** 2):
                sched = compile_formula(kind, s, frags)
                turn = sum(p.angle for p in sched.pulses if p.generator is Generator.ORACLE)
                assert abs(turn) <= 1e-14


def test_group_commutator_order_at_max_qubits():
    # the s^{3/2} term scales with sqrt(v0), as the bound does, so the slope
    # shows 1.5 only for s well below v0: at M = 1 (v0 = 6.1e-5) the grid
    # [1e-3, 1e-1] reads 1.76, and [1e-6, 1e-4] reads 1.50
    big_n = 1 << MAX_QUBITS
    for m, grid in [(1, np.logspace(-6, -4, 8)),
                    (big_n // 2, np.logspace(-3, -1, 8)),
                    (big_n - 1, np.logspace(-3, -1, 8))]:
        inst = SearchInstance(MAX_QUBITS, tuple(range(m)))
        points = measure_formula_error(inst, GroupCommutator(), grid)
        assert abs(fit_order(points) - 1.5) <= 0.1


DURATION_ENTRY_POINTS = {
    "require_duration": require_duration,
    "jacobi_anger": lambda s: jacobi_anger("cos", s, 1e-3),
    "target_ite_component": lambda s: target_ite_component(s, 1e-3),
    "fit_ite_phases": lambda s: fit_ite_phases(s, 8),
    "gci_error_bound": lambda s: gci_error_bound(INST, s),
    "measured_gci_error": lambda s: measured_gci_error(INST, s),
}


@pytest.mark.parametrize("entry", sorted(DURATION_ENTRY_POINTS))
@pytest.mark.parametrize("s", [1j, "1", True, math.nan, math.inf, -1.0], ids=repr)
def test_durations_must_be_finite_nonnegative_reals(entry, s):
    with pytest.raises(DomainError, match="s must be a finite nonnegative real number"):
        DURATION_ENTRY_POINTS[entry](s)


def test_formula_error_rejects_bad_durations_and_degenerate_instances():
    for s in (math.inf, -math.inf, math.nan):
        with pytest.raises(DomainError, match="^s must be finite"):
            formula_error(INST, GroupCommutator(), s)
    for bad in ("a", None, 1j):
        with pytest.raises(DomainError, match="^s must be a real number"):
            measure_formula_error(INST, GroupCommutator(), [bad])
    with pytest.raises(NegativeDuration):
        formula_error(INST, GroupCommutator(), -0.5)
    for marked in ((), tuple(range(16))):
        with pytest.raises(DegenerateInstance):
            formula_error(SearchInstance(4, marked), ThirdOrder(), 0.1)
        with pytest.raises(DegenerateInstance):
            measure_formula_error(SearchInstance(4, marked), GroupCommutator(), [0.1])


@pytest.mark.parametrize("s", ["0.1", True, False], ids=repr)
def test_formula_error_rejects_numeric_strings_and_booleans(s):
    """float() would take these: '0.1' as 0.1 and True as a duration of 1."""
    with pytest.raises(DomainError, match="^s must be a real number"):
        compile_formula(GroupCommutator(), s)
    with pytest.raises(DomainError, match="^s must be a real number"):
        formula_error(INST, GroupCommutator(), s)
    with pytest.raises(DomainError, match="^s must be a real number"):
        measure_formula_error(INST, GroupCommutator(), [0.1, s])


def test_fit_order_synthetic():
    ss = np.logspace(-3, -1, 8)
    assert fit_order([(s, s ** 1.5) for s in ss]) == pytest.approx(1.5, abs=1e-6)
    assert fit_order([(s, 3 * s ** 2) for s in ss]) == pytest.approx(2.0, abs=1e-6)
    with pytest.raises(InsufficientData):
        fit_order([(0.1, 1e-20), (0.2, 1e-20), (0.3, 1e-16), (0.4, 1e-15)])


def test_fit_order_needs_four_distinct_durations():
    # repeated points at one s leave the slope undetermined
    with pytest.raises(InsufficientData):
        fit_order([(0.1, 1e-3)] * 4)
    ss = [0.01, 0.02, 0.04]
    with pytest.raises(InsufficientData):
        fit_order([(s, s ** 1.5) for s in ss + ss])
    assert fit_order([(s, s ** 1.5) for s in ss + [0.08, 0.08]]) == pytest.approx(1.5, abs=1e-6)


def test_fit_order_drops_non_finite_points():
    ss = list(np.logspace(-3, -1, 6))
    clean = [(s, 2 * s ** 1.5) for s in ss]
    noisy = clean + [(0.5, math.inf), (0.6, math.nan), (math.inf, 1.0), (math.nan, 1.0)]
    assert fit_order(noisy) == fit_order(clean)
    with pytest.raises(InsufficientData):
        fit_order(clean[:3] + [(0.5, math.inf), (0.6, math.nan)])


def test_schedule_json_roundtrip():
    sched = compile_formula(FiveCopies(GroupCommutator()), 0.42, fragments=2)
    text = sched.to_json()
    payload = json.loads(text)
    assert list(payload.keys()) == ["s_target", "claimed_order", "pulses"]
    back = AngleSchedule.from_json(text)
    assert back == sched
