import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grover_ite_lab.errors import DimensionTooLarge, DomainError, NotOrthonormal, NumericalDomain
from grover_ite_lab.geometry import (
    QUERY_BOUND_CONSTANT,
    fs_distance,
    gci_error_bound,
    geodesic_point,
    instance_fs_distance,
    measured_gci_error,
    operator_norm,
    query_bound,
    su_geodesic_length,
)
from grover_ite_lab.geometry import _sketched_norm
from grover_ite_lab.ite_flow import commutator_flow_state, exact_commutator_exponential
from grover_ite_lab.pf_compiler import (
    FiveCopies,
    GroupCommutator,
    JeanKoseleff,
    ThirdOrder,
    TwoCopies,
    compile_formula,
    schedule_unitary,
)
from grover_ite_lab.search_core import (
    MAX_QUBITS,
    SearchInstance,
    diffusion_matrix,
    embed_state,
    initial_projector_matrix,
    make_initial,
    make_perp,
    make_solution,
    oracle_matrix,
    projector_matrix,
)


def test_fs_distance_basics():
    a = np.array([1, 0], dtype=complex)
    b = np.array([0, 1], dtype=complex)
    assert fs_distance(a, a) == 0.0
    assert fs_distance(a, b) == pytest.approx(np.pi / 2, abs=1e-15)


@given(st.floats(0, 2 * np.pi), st.floats(0, 2 * np.pi))
@settings(max_examples=40, deadline=None)
def test_fs_distance_phase_invariant_and_symmetric(t1, t2):
    rng = np.random.default_rng(7)
    a = rng.normal(size=6) + 1j * rng.normal(size=6)
    b = rng.normal(size=6) + 1j * rng.normal(size=6)
    a /= np.linalg.norm(a)
    b /= np.linalg.norm(b)
    d = fs_distance(a, b)
    assert fs_distance(b, a) == pytest.approx(d, abs=1e-13)
    assert fs_distance(np.exp(1j * t1) * a, np.exp(1j * t2) * b) == pytest.approx(d, abs=1e-12)


def test_fs_distance_initial_to_solution(instance_family):
    for inst in instance_family:
        assert instance_fs_distance(inst) == pytest.approx(
            math.acos(math.sqrt(inst.e0)), abs=1e-13
        )


def test_geodesic_point_endpoints_and_flow():
    inst = SearchInstance(4, (1, 6, 7))
    psi0, perp = make_initial(inst), make_perp(inst)
    assert np.linalg.norm(geodesic_point(psi0, perp, 0.0) - psi0) < 1e-14
    assert np.linalg.norm(geodesic_point(psi0, perp, np.pi / 2) - perp) < 1e-14
    for s in (0.4, 1.9):
        lhs = geodesic_point(psi0, perp, s * math.sqrt(inst.v0))
        rhs = embed_state(inst, commutator_flow_state(inst, s).state)
        assert np.linalg.norm(lhs - rhs) < 1e-12
    with pytest.raises(NotOrthonormal):
        geodesic_point(psi0, psi0, 0.3)


def test_su_geodesic_length(instance_family):
    inst = SearchInstance(2, (0, 1))  # e0 = 1/2
    assert su_geodesic_length(inst) == pytest.approx(math.sqrt(2) * np.pi / 4, abs=1e-12)
    for other in instance_family:
        ratio = su_geodesic_length(other) / instance_fs_distance(other)
        assert ratio == pytest.approx(math.sqrt(2), abs=1e-12)
    # endpoint-coincidence limit: M = N-1 at the largest family size
    big = SearchInstance(8, tuple(range(255)))
    assert su_geodesic_length(big) < 0.1


def test_query_bound_values():
    assert query_bound(1.0, 0.0) == 51
    assert QUERY_BOUND_CONSTANT == pytest.approx(8 * np.pi ** 2)
    # 1/eps^2 scaling, exact up to the ceiling
    for d in (0.0, 0.3, 1.2):
        raw = QUERY_BOUND_CONSTANT / abs(np.pi / 2 - d)
        for eps in (1.0, 0.5, 0.25):
            assert query_bound(eps, d) == math.ceil(raw / eps ** 2)
    with pytest.raises(DomainError):
        query_bound(0.0, 0.1)
    with pytest.raises(DomainError):
        query_bound(2.0, 0.1)
    with pytest.raises(DomainError):
        query_bound(1.0, np.pi / 2)


def test_query_bound_sqrt_envelope():
    for eps in (1.0, 0.5):
        for k in range(1, 13):
            e0 = 2.0 ** -k
            d = math.acos(math.sqrt(e0))
            qb = query_bound(eps, d)
            assert qb * math.sqrt(e0) <= QUERY_BOUND_CONSTANT / eps ** 2 + 1.0
            assert qb <= QUERY_BOUND_CONSTANT / eps ** 2 * (1.0 / math.sqrt(e0) + 1.0)


def test_gci_bound_zero_and_positive():
    inst = SearchInstance(3, (0,))
    assert gci_error_bound(inst, 0.0) == 0.0
    assert measured_gci_error(inst, 0.0) < 1e-14


def test_double_commutator_norms_below_sqrt_2v0(small_family):
    for inst in small_family:
        h = projector_matrix(inst)
        p = initial_projector_matrix(inst)
        comm = h @ p - p @ h
        lhs1 = operator_norm(h @ comm - comm @ h)
        comm2 = p @ h - h @ p
        lhs2 = operator_norm(p @ comm2 - comm2 @ p)
        cap = math.sqrt(2 * inst.v0) + 1e-12
        assert lhs1 <= cap
        assert lhs2 <= cap


def test_measured_error_below_bound_spot():
    inst = SearchInstance(6, (0,))
    assert measured_gci_error(inst, 1.0) < gci_error_bound(inst, 1.0)


def test_measured_error_below_bound_grid(small_family):
    for inst in small_family:
        for s in (0.1, 0.5, 1.0, 2.0, np.pi ** 2):
            assert measured_gci_error(inst, s) <= gci_error_bound(inst, s)


def test_operator_norm():
    assert operator_norm(np.eye(5)) == pytest.approx(1.0, abs=1e-12)
    assert operator_norm(np.diag([3.0, -5.0])) == pytest.approx(5.0, abs=1e-12)
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32)))
    assert operator_norm(q) == pytest.approx(1.0, abs=1e-10)
    with pytest.raises(DimensionTooLarge):
        operator_norm(np.zeros((5000, 5000)))


def test_geodesic_spec_distance_invariant():
    from grover_ite_lab.geometry import GeodesicSpec

    inst = SearchInstance(3, (2, 6))
    spec = GeodesicSpec.between(make_initial(inst), make_solution(inst))
    assert spec.d_fs == pytest.approx(math.acos(math.sqrt(inst.e0)), abs=1e-13)


def _svd_norm(op):
    return float(np.linalg.svd(op, compute_uv=False)[0])


def test_gci_error_rejects_non_finite_duration():
    inst = SearchInstance(3, (0,))
    for s in (math.nan, math.inf, -math.inf, -0.5):
        with pytest.raises(DomainError):
            gci_error_bound(inst, s)
        with pytest.raises(DomainError):
            measured_gci_error(inst, s)


def test_operator_norm_rejects_edge_inputs():
    for bad in (np.zeros((0, 0)), np.zeros((0, 3)), np.zeros(4), np.array(2.0),
                np.zeros((2, 2, 2))):
        with pytest.raises(DomainError):
            operator_norm(bad)
    for value in (math.nan, math.inf):
        op = np.eye(16, dtype=complex)
        op[3, 5] = value
        with pytest.raises(NumericalDomain):
            operator_norm(op)


def test_operator_norm_sketch_matches_svd_on_pulse_differences():
    # the n=9 differences are numerically rank 2, so the certified sketch answers
    inst = SearchInstance(9, (17,))
    kinds = (GroupCommutator(), ThirdOrder(), TwoCopies(GroupCommutator()),
             JeanKoseleff(GroupCommutator()), FiveCopies(GroupCommutator()),
             JeanKoseleff(ThirdOrder()))
    for kind, s in [(kind, 1e-3) for kind in kinds] + [(GroupCommutator(), math.pi ** 2)]:
        diff = (schedule_unitary(inst, compile_formula(kind, s))
                - exact_commutator_exponential(inst, s))
        assert _sketched_norm(diff) is not None
        exact = _svd_norm(diff)
        assert abs(operator_norm(diff) - exact) <= 1e-6 * exact


def test_operator_norm_full_rank_falls_back_to_svd():
    rng = np.random.default_rng(11)
    dense = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
    unitary, _ = np.linalg.qr(dense)
    for op in (dense, unitary):
        assert _sketched_norm(op) is None
        assert abs(operator_norm(op) - _svd_norm(op)) <= 1e-12 * _svd_norm(op)
    assert operator_norm(np.zeros((64, 64), dtype=complex)) == 0.0
    assert operator_norm(np.zeros((3, 3))) == 0.0


def test_operator_norm_repeats_bit_for_bit():
    inst = SearchInstance(7, (5, 90))
    diff = (schedule_unitary(inst, compile_formula(ThirdOrder(), 0.2))
            - exact_commutator_exponential(inst, 0.2))
    assert operator_norm(diff) == operator_norm(diff)
    assert operator_norm(diff.copy()) == operator_norm(diff)


def test_gci_error_matches_dense_pulse_product():
    # reference route: the group commutator as four dense pulse builds and
    # their products, independent of schedule_unitary's in-place update
    for n in range(3, 7):
        big_n = 1 << n
        for m in sorted({1, big_n // 4, big_n // 2, big_n - 1}):
            inst = SearchInstance(n, tuple(range(m)))
            for s in (0.1, 1.0, math.pi ** 2):
                c = math.sqrt(s)
                product = (diffusion_matrix(inst, c) @ oracle_matrix(inst, c)
                           @ diffusion_matrix(inst, -c) @ oracle_matrix(inst, -c))
                scheduled = schedule_unitary(inst, compile_formula(GroupCommutator(), s))
                assert np.abs(scheduled - product).max() < 1e-13
                exact = _svd_norm(product - exact_commutator_exponential(inst, s))
                assert measured_gci_error(inst, s) == pytest.approx(exact, abs=1e-13)


@pytest.mark.parametrize("m", [1, 16, 32, 63])
def test_measured_gci_error_equals_the_out_of_place_difference(m):
    # the reduced 2x2 value against the full SVD of the dense N x N difference;
    # m is the marked count at n=6, one of 1, N/4, N/2, N-1, taken alike at
    # every n from 3 to 9
    for n in range(3, 10):
        big_n = 1 << n
        marked = {1: 1, 16: big_n // 4, 32: big_n // 2, 63: big_n - 1}[m]
        inst = SearchInstance(n, tuple(range(marked)))
        for s in (1e-3, 0.1, 1.0, math.pi ** 2):
            product = schedule_unitary(inst, compile_formula(GroupCommutator(), s))
            expected = _svd_norm(product - exact_commutator_exponential(inst, s))
            assert measured_gci_error(inst, s) == pytest.approx(expected, abs=1e-13)


def test_measured_gci_error_below_bound_at_max_qubits():
    # no N x N operator is built, so the largest instance is measured too
    big_n = 1 << MAX_QUBITS
    for m in (1, big_n // 2, big_n - 1):
        inst = SearchInstance(MAX_QUBITS, tuple(range(m)))
        for s in (1e-3, 0.1, 1.0, math.pi ** 2):
            assert measured_gci_error(inst, s) < gci_error_bound(inst, s)


def test_operator_norm_leaves_its_input_unchanged():
    inst = SearchInstance(6, (5, 40))
    rng = np.random.default_rng(5)
    diff = (schedule_unitary(inst, compile_formula(ThirdOrder(), 0.3))
            - exact_commutator_exponential(inst, 0.3))
    full_rank = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
    for op in (diff, full_rank, diff.real):
        before = op.copy()
        operator_norm(op)
        assert np.array_equal(op, before)
