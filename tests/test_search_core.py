import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grover_ite_lab.errors import DegenerateInstance, EmptyMarkedSet
from grover_ite_lab.search_core import (
    ReducedState,
    SearchInstance,
    apply_projector,
    embed_state,
    make_initial,
    make_perp,
    make_solution,
    reduce_state,
)

instances = st.integers(1, 8).flatmap(
    lambda n: st.sets(st.integers(0, (1 << n) - 1), min_size=1, max_size=(1 << n) - 1).map(
        lambda m: SearchInstance(n, tuple(m))
    )
)


def test_initial_uniform():
    assert np.allclose(make_initial(SearchInstance(1, (0,))), [2 ** -0.5, 2 ** -0.5])
    assert np.allclose(make_initial(SearchInstance(2, (0,))), [0.5, 0.5, 0.5, 0.5])


def test_solution_vectors():
    assert np.allclose(make_solution(SearchInstance(2, (3,))), [0, 0, 0, 1])
    assert np.allclose(make_solution(SearchInstance(2, (1, 2))), [0, 2 ** -0.5, 2 ** -0.5, 0])


def test_solution_requires_marked():
    with pytest.raises(EmptyMarkedSet):
        make_solution(SearchInstance(2, ()))


@given(instances)
@settings(max_examples=60, deadline=None)
def test_initial_solution_overlap_is_sqrt_e0(inst):
    ov = abs(np.vdot(make_initial(inst), make_solution(inst)))
    assert ov == pytest.approx(np.sqrt(inst.e0), abs=1e-12)


@given(instances)
@settings(max_examples=60, deadline=None)
def test_unit_norms_and_perp_orthogonality(inst):
    psi0 = make_initial(inst)
    perp = make_perp(inst)
    assert abs(np.linalg.norm(psi0) - 1) < 1e-12
    assert abs(np.linalg.norm(make_solution(inst)) - 1) < 1e-12
    assert abs(np.linalg.norm(perp) - 1) < 1e-12
    assert abs(np.vdot(psi0, perp)) < 1e-12


def test_perp_hand_value_single_qubit():
    # (H_f - e0) psi0 / sqrt(v0) with n=1, marked={1}: e0=1/2, v0=1/4
    inst = SearchInstance(1, (1,))
    expected = np.array([-1.0, 1.0]) / np.sqrt(2.0)
    assert np.allclose(make_perp(inst), expected, atol=1e-15)
    # dense-matrix cross-check of the same formula
    h = np.diag([0.0, 1.0])
    psi0 = np.full(2, 2 ** -0.5)
    dense = (h - 0.5 * np.eye(2)) @ psi0 / 0.5
    assert np.allclose(make_perp(inst), dense, atol=1e-15)


@given(instances)
@settings(max_examples=40, deadline=None)
def test_span_contains_solution(inst):
    psi0 = make_initial(inst)
    perp = make_perp(inst)
    sol = make_solution(inst)
    residual = sol - np.vdot(psi0, sol) * psi0 - np.vdot(perp, sol) * perp
    assert np.linalg.norm(residual) < 1e-12


@given(instances)
@settings(max_examples=40, deadline=None)
def test_projector_idempotent_and_norms(inst):
    psi0 = make_initial(inst)
    once = apply_projector(inst, psi0)
    twice = apply_projector(inst, once)
    assert np.abs(once - twice).max() < 1e-14
    assert np.vdot(once, once).real == pytest.approx(inst.e0, abs=1e-14)


@given(instances)
@settings(max_examples=40, deadline=None)
def test_projected_perp_is_scaled_solution(inst):
    lhs = apply_projector(inst, make_perp(inst))
    rhs = np.sqrt(1.0 - inst.e0) * make_solution(inst)
    assert np.abs(lhs - rhs).max() < 1e-12


def test_reduce_basis_rows():
    inst = SearchInstance(4, (2, 9, 11))
    r0, res0 = reduce_state(inst, make_initial(inst))
    assert abs(r0.c0 - 1) < 1e-12 and abs(r0.c1) < 1e-12 and res0 < 1e-12
    r1, res1 = reduce_state(inst, make_solution(inst))
    assert r1.c0 == pytest.approx(np.sqrt(inst.e0), abs=1e-12)
    assert r1.c1 == pytest.approx(np.sqrt(1 - inst.e0), abs=1e-12)
    assert res1 < 1e-12


def test_reduce_residual_of_orthogonal_state(rng):
    inst = SearchInstance(4, (0, 5))
    psi0 = make_initial(inst)
    perp = make_perp(inst)
    v = rng.normal(size=16) + 1j * rng.normal(size=16)
    v -= np.vdot(psi0, v) * psi0
    v -= np.vdot(perp, v) * perp
    v /= np.linalg.norm(v)
    _, residual = reduce_state(inst, v)
    assert residual == pytest.approx(1.0, abs=1e-12)


@given(instances, st.floats(-3, 3), st.floats(-3, 3))
@settings(max_examples=40, deadline=None)
def test_embed_reduce_roundtrip_in_span(inst, a, b):
    if abs(a) + abs(b) < 1e-3:
        a = 1.0
    v = a * make_initial(inst) + b * make_perp(inst)
    v /= np.linalg.norm(v)
    red, residual = reduce_state(inst, v)
    assert residual < 1e-10
    assert np.linalg.norm(embed_state(inst, red) - v) < 1e-10


def test_instance_validation():
    with pytest.raises(ValueError):
        SearchInstance(0, ())
    with pytest.raises(ValueError):
        SearchInstance(15, (0,))
    with pytest.raises(ValueError):
        SearchInstance(2, (4,))
    # non-integers and bools are rejected, not truncated or taken as 1
    for n, marked in ((2.5, (0,)), (True, (0,)), (2, (1.5,)), (2, ("1",)), (2, (True,))):
        with pytest.raises(ValueError, match="integer"):
            SearchInstance(n, marked)
    assert SearchInstance(np.int64(2), (np.int64(3), np.uint8(1))).marked == (1, 3)
    # duplicates collapse, order normalizes
    assert SearchInstance(2, (3, 1, 3)).marked == (1, 3)


def test_degenerate_rejections():
    for marked in ((), tuple(range(4))):
        inst = SearchInstance(2, marked)
        with pytest.raises(DegenerateInstance):
            make_perp(inst)
        with pytest.raises(DegenerateInstance):
            reduce_state(inst, make_initial(inst))


def test_reduced_state_array_roundtrip():
    r = ReducedState(0.6, 0.8j)
    assert ReducedState.from_array(r.to_array()) == r
    assert r.norm == pytest.approx(1.0)
