import math

import numpy as np
import pytest
from scipy.linalg import expm

from grover_ite_lab.errors import DomainError, NullDirection, NumericalDomain, ZeroVariance
from grover_ite_lab.ite_flow import (
    TAU_MAX,
    _safe_arccos,
    commutator_flow_state,
    duration_from_tau,
    exact_commutator_exponential,
    ite_state,
    optimal_duration,
    synth_linear_step,
)
from grover_ite_lab.search_core import (
    SearchInstance,
    embed_state,
    initial_projector_matrix,
    make_initial,
    make_solution,
    projector_matrix,
)


def fidelity(a, b):
    return abs(np.vdot(a, b)) ** 2


def test_tau_zero_is_initial(instance_family):
    for inst in instance_family:
        assert np.linalg.norm(ite_state(inst, 0.0) - make_initial(inst)) < 1e-14


def test_large_tau_converges(instance_family):
    for inst in instance_family:
        assert fidelity(ite_state(inst, 50.0), make_solution(inst)) >= 1 - 1e-10


def test_ite_closed_form_hand_value():
    # tau = ln 2, n=2, marked={0}: unnormalized (2, 1, 1, 1) / (2 sqrt N) -> (2,1,1,1)/sqrt(7)
    inst = SearchInstance(2, (0,))
    expected = np.array([2.0, 1.0, 1.0, 1.0]) / np.sqrt(7.0)
    got = ite_state(inst, np.log(2.0))
    assert np.abs(got - expected).max() < 1e-14
    # independent oracle: dense matrix exponential of tau * H_f
    dense = expm(np.log(2.0) * projector_matrix(inst)) @ make_initial(inst)
    dense /= np.linalg.norm(dense)
    assert np.abs(got - dense).max() < 1e-14


def test_tau_clamp_keeps_values_finite():
    inst = SearchInstance(3, (1,))
    v = ite_state(inst, 5000.0)
    assert np.isfinite(v).all()
    assert np.linalg.norm(v - ite_state(inst, 700.0)) < 1e-14


def test_flow_endpoints(instance_family):
    for inst in instance_family:
        p0 = commutator_flow_state(inst, 0.0).state
        assert (p0.c0, p0.c1) == (1.0, 0.0)
        ps = commutator_flow_state(inst, optimal_duration(inst)).state
        assert abs(ps.c0 - np.sqrt(inst.e0)) < 1e-12
        assert abs(ps.c1 - np.sqrt(1 - inst.e0)) < 1e-12


def test_flow_matches_expm_oracle():
    inst = SearchInstance(4, (3, 7, 8))
    w = projector_matrix(inst) @ initial_projector_matrix(inst) - initial_projector_matrix(
        inst
    ) @ projector_matrix(inst)
    for s in (0.3, 1.7, 4.0):
        via_flow = embed_state(inst, commutator_flow_state(inst, s).state)
        via_expm = expm(s * w) @ make_initial(inst)
        assert np.linalg.norm(via_flow - via_expm) < 1e-10


def test_duration_map(instance_family):
    for inst in instance_family:
        assert duration_from_tau(inst, 0.0) == 0.0
        taus = np.linspace(0.0, 20.0, 41)
        ss = [duration_from_tau(inst, t) for t in taus]
        assert all(b >= a - 1e-13 for a, b in zip(ss, ss[1:]))
        s_opt = optimal_duration(inst)
        assert all(s <= s_opt + 1e-12 for s in ss)
        assert duration_from_tau(inst, 30.0) == pytest.approx(s_opt, abs=1e-6)


def test_flow_equivalence_on_log_grid(instance_family):
    taus = np.logspace(-3, np.log10(30.0), 40)
    for inst in instance_family:
        for tau in taus:
            lhs = ite_state(inst, tau)
            rhs = embed_state(inst, commutator_flow_state(inst, duration_from_tau(inst, tau)).state)
            assert np.linalg.norm(lhs - rhs) < 1e-10


def test_optimal_duration_values(instance_family):
    inst = SearchInstance(1, (0,))  # e0 = 1/2
    assert optimal_duration(inst) == pytest.approx(np.pi / 2, abs=1e-14)
    for other in instance_family:
        s_opt = optimal_duration(other)
        assert s_opt * np.sqrt(other.v0) <= np.pi / 2 + 1e-14
        final = embed_state(other, commutator_flow_state(other, s_opt).state)
        assert fidelity(final, make_solution(other)) == pytest.approx(1.0, abs=1e-12)


def test_ite_fidelity_monotone_flow_overshoots(instance_family):
    for inst in instance_family[:8]:
        sol = make_solution(inst)
        taus = np.linspace(0, 12, 60)
        fids = [fidelity(ite_state(inst, t), sol) for t in taus]
        assert all(b >= a - 1e-12 for a, b in zip(fids, fids[1:]))
        s_opt = optimal_duration(inst)
        ss = np.linspace(s_opt, s_opt + 1.0, 12)
        f_flow = [
            fidelity(embed_state(inst, commutator_flow_state(inst, s).state), sol) for s in ss
        ]
        assert all(b < a for a, b in zip(f_flow, f_flow[1:]))


def test_exact_commutator_exponential_properties():
    inst = SearchInstance(3, (2, 5))
    assert np.abs(exact_commutator_exponential(inst, 0.0) - np.eye(8)).max() < 1e-14
    u = exact_commutator_exponential(inst, 1.3)
    assert np.abs(u @ u.conj().T - np.eye(8)).max() < 1e-12
    w = projector_matrix(inst) @ initial_projector_matrix(inst) - initial_projector_matrix(
        inst
    ) @ projector_matrix(inst)
    for n in (2, 4, 6):
        inst_n = SearchInstance(n, (0,))
        wn = projector_matrix(inst_n) @ initial_projector_matrix(inst_n)
        wn = wn - wn.conj().T
        for s in (0.2, 1.0, 3.3):
            diff = exact_commutator_exponential(inst_n, s) - expm(s * wn)
            assert np.abs(diff).max() < 1e-10
    state = u @ make_initial(inst)
    assert np.linalg.norm(state - embed_state(inst, commutator_flow_state(inst, 1.3).state)) < 1e-12


def test_synth_linear_step_identity_direction():
    inst = SearchInstance(3, (1, 4))
    s, a, b = synth_linear_step(projector_matrix(inst), make_initial(inst), 1.0, 0.0)
    assert (s, a, b) == (0.0, 1.0, 0.0)


def test_synth_linear_step_matches_duration_map():
    inst = SearchInstance(4, (2, 3, 11))
    for tau in (0.2, 1.0, 3.7):
        s, a, b = synth_linear_step(
            projector_matrix(inst), make_initial(inst), 1.0, np.exp(tau) - 1.0
        )
        assert s == pytest.approx(duration_from_tau(inst, tau), abs=1e-12)
        target = ite_state(inst, tau)
        via_ab = (a * np.eye(16) + b * projector_matrix(inst)) @ make_initial(inst)
        assert np.linalg.norm(via_ab - target) < 1e-10


def test_synth_linear_step_random_hermitian(rng):
    h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = (h + h.conj().T) / 2
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    psi /= np.linalg.norm(psi)
    for x, y in ((0.7, 1.3), (0.5, -2.0), (-0.4, 0.9)):
        s, a, b = synth_linear_step(h, psi, x, y)
        direct = (x * np.eye(4) + y * h) @ psi
        direct /= np.linalg.norm(direct)
        via_ab = (a * np.eye(4) + b * h) @ psi
        assert np.linalg.norm(via_ab - direct) < 1e-10
        # and the step really is the flow exponential
        proj = np.outer(psi, psi.conj())
        via_flow = expm(s * (h @ proj - proj @ h)) @ psi
        assert np.linalg.norm(via_flow - direct) < 1e-10


def test_synth_linear_step_errors():
    inst = SearchInstance(2, (1,))
    with pytest.raises(NullDirection):
        synth_linear_step(projector_matrix(inst), make_initial(inst), 0.0, 0.0)
    with pytest.raises(ZeroVariance):
        synth_linear_step(np.eye(4), make_initial(inst), 1.0, 1.0)


NAN_INST = SearchInstance(4, (3,))


@pytest.mark.parametrize("call", [
    lambda: duration_from_tau(NAN_INST, math.nan),
    lambda: ite_state(NAN_INST, math.nan),
    lambda: commutator_flow_state(NAN_INST, math.nan),
    lambda: commutator_flow_state(NAN_INST, math.inf),
    lambda: exact_commutator_exponential(NAN_INST, math.nan),
    lambda: exact_commutator_exponential(NAN_INST, -math.inf),
    lambda: synth_linear_step(np.diag([1.0, 0.0]), np.array([0.6, 0.8]), math.nan, 1.0),
    lambda: synth_linear_step(np.diag([1.0, 0.0]), np.array([0.6, 0.8]), 1.0, math.inf),
], ids=["duration_from_tau-nan", "ite_state-nan", "flow_state-nan", "flow_state-inf",
        "exponential-nan", "exponential-minus-inf", "synth-x-nan", "synth-y-inf"])
def test_non_finite_durations_and_coefficients_raise(call):
    """NaN once passed through: duration_from_tau(., nan) returned 12.98, above
    its documented bound optimal_duration (5.445), and the others NaN values."""
    with pytest.raises(DomainError):
        call()


def test_infinite_tau_clamps_to_tau_max():
    assert duration_from_tau(NAN_INST, math.inf) == duration_from_tau(NAN_INST, TAU_MAX)
    assert duration_from_tau(NAN_INST, math.inf) <= optimal_duration(NAN_INST)
    assert np.array_equal(ite_state(NAN_INST, math.inf), ite_state(NAN_INST, TAU_MAX))


def test_safe_arccos_rejects_nan():
    with pytest.raises(NumericalDomain):
        _safe_arccos(math.nan)
