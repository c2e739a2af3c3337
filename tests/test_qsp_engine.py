import json
import math
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grover_ite_lab.errors import DegreeTooSmall, DomainError, NonAlternatingSchedule
from grover_ite_lab.geometry import query_bound
from grover_ite_lab.grover_engine import (NamedSchedule, fixed_point_angles,
                                          reduced_iterate_product, run_reduced)
from grover_ite_lab import bench, qsp_engine
from grover_ite_lab.pf_compiler import GroupCommutator, compile_formula
from grover_ite_lab.qsp_engine import (
    ChebyshevPoly,
    _dr_forward,
    _formula_start,
    _lsq_solve,
    _multistart,
    QspPhases,
    chebyshev_nodes,
    check_achievability,
    contract_cost_grad,
    convert_convention,
    dr_angles_to_phases,
    fit_ite_phases,
    fit_phases,
    fit_points,
    fit_residuals,
    fixed_point_via_sign,
    flow_state,
    grover_to_qsp,
    jacobi_anger,
    phases_to_dr_angles,
    qsp_matrix,
    qsp_to_grover,
    qsp_value,
    sign_poly,
    target_ite_component,
)

phase_lists = st.lists(st.floats(-math.pi, math.pi), min_size=1, max_size=9).map(
    lambda p: QspPhases(tuple(p), "R")
)


def test_qsp_value_trivial_sequences():
    assert qsp_value(QspPhases((0.0,), "R"), 0.37) == pytest.approx(1.0)
    one = QspPhases((0.0, 0.0), "R")
    for x in (-0.9, -0.2, 0.5, 1.0):
        assert qsp_value(one, x) == pytest.approx(x, abs=1e-14)


@given(phase_lists, st.floats(-1, 1))
@settings(max_examples=60, deadline=None)
def test_qsp_matrix_unitary_and_bounded(phases, x):
    u = qsp_matrix(phases, x)
    assert abs(abs(np.linalg.det(u)) - 1.0) < 1e-12
    assert np.abs(u @ u.conj().T - np.eye(2)).max() < 1e-12
    assert abs(qsp_value(phases, x)) <= 1.0 + 1e-12


@given(phase_lists)
@settings(max_examples=40, deadline=None)
def test_parity_of_value_polynomial(phases):
    xs = np.linspace(0.05, 0.95, 7)
    sign = (-1.0) ** phases.k
    for x in xs:
        p_plus = qsp_value(phases, float(x))
        p_minus = qsp_value(phases, float(-x))
        assert abs(p_minus - sign * p_plus) < 1e-11


def test_convert_convention_k1_zero_phases():
    w = QspPhases((0.0, 0.0), "W")
    r = convert_convention(w)
    assert r.convention == "R"
    assert r.phases == pytest.approx((-math.pi / 4, math.pi / 4))


@given(phase_lists, st.floats(-0.99, 0.99))
@settings(max_examples=40, deadline=None)
def test_convert_convention_preserves_top_entry(phases, x):
    other = convert_convention(phases)
    assert abs(qsp_value(phases, x) - qsp_value(other, x)) < 1e-12
    # full matrices agree after the diag(1, (-1)^K) correction
    corr = np.diag([1.0, (-1.0) ** phases.k])
    uw = qsp_matrix(other, x) if other.convention == "W" else qsp_matrix(phases, x)
    ur = qsp_matrix(phases, x) if other.convention == "W" else qsp_matrix(other, x)
    assert np.abs(uw - corr @ ur).max() < 1e-12


@given(phase_lists)
@settings(max_examples=40, deadline=None)
def test_convert_convention_roundtrip(phases):
    back = convert_convention(convert_convention(phases))
    assert back.convention == phases.convention
    for a, b in zip(back.phases, phases.phases):
        assert math.cos(a - b) == pytest.approx(1.0, abs=1e-12)


def test_grover_mapping_formula():
    phases = grover_to_qsp([(math.pi, math.pi)])
    assert phases.phases == pytest.approx((2 * math.pi, math.pi / 2, math.pi / 2))


def test_grover_qsp_identity_random(rng):
    zero = np.array([1.0, 0.0], dtype=complex)
    for n_iter in (1, 2, 5):
        for e0 in (0.1, 0.25, 0.5):
            x = math.sqrt(e0)
            for _ in range(10):
                pairs = [tuple(rng.uniform(-math.pi, math.pi, 2)) for _ in range(n_iter)]
                prod = reduced_iterate_product(e0, pairs)
                phases = grover_to_qsp(pairs)
                seq = qsp_matrix(phases, x)
                # exact state identity, global phase included
                assert np.abs(prod @ zero - seq @ zero).max() < 1e-12
                # matrix identity once phi_0 is factored out as a global phase
                stripped = QspPhases((0.0,) + phases.phases[1:], "R")
                u0 = qsp_matrix(stripped, x)
                assert np.abs(prod - np.exp(1j * phases.phases[0]) * u0).max() < 1e-12


def test_qsp_to_grover_roundtrip(rng):
    pairs = [tuple(rng.uniform(-math.pi, math.pi, 2)) for _ in range(4)]
    phases = grover_to_qsp(pairs)
    sched = qsp_to_grover(phases)
    assert sched.grover_pairs() == pytest.approx(pairs)
    assert grover_to_qsp(sched).phases == pytest.approx(phases.phases)
    with pytest.raises(NonAlternatingSchedule):
        qsp_to_grover(QspPhases((0.0, 0.1), "R"))


def test_dr_angle_phase_helpers():
    a = [0.3, -1.2, 0.8]
    phases = dr_angles_to_phases(a)
    assert phases.phases[0] == pytest.approx(sum(a) / 2)
    assert phases_to_dr_angles(phases) == pytest.approx(a)


def test_achievability_linear_and_t2():
    rep1 = check_achievability(ChebyshevPoly((0.0, 1.0), "odd"), 1)
    assert rep1.all_pass
    rep2 = check_achievability(ChebyshevPoly((0.0, 0.0, 1.0), "even"), 2)
    assert all(v.satisfied for v in rep2.verdicts[:4])


def test_achievability_catches_violations():
    too_big = ChebyshevPoly((0.0, 1.5), "odd")
    rep = check_achievability(too_big, 1)
    assert not rep.verdicts[2].satisfied  # |p| <= 1 inside fails
    wrong_parity = ChebyshevPoly((0.0, 1.0), "odd")
    rep2 = check_achievability(wrong_parity, 2)
    assert not rep2.verdicts[1].satisfied


@pytest.mark.parametrize("k", [-2, -1, 1.5, "2", True])
def test_achievability_rejects_k_below_zero_or_not_integer(k):
    with pytest.raises(DomainError, match="k must be an integer >= 0"):
        check_achievability(ChebyshevPoly((0.0, 1.0), "odd"), k)


def test_achievability_accepts_k_zero():
    assert check_achievability(ChebyshevPoly((1.0,), "even"), 0).all_pass


def test_achievability_ite_target():
    poly = target_ite_component(1.0, 1e-8)
    rep = check_achievability(poly, poly.degree)
    assert rep.all_pass


def test_jacobi_anger_cosine():
    const = jacobi_anger("cos", 0.0, 1e-10)
    xs = np.linspace(-1, 1, 101)
    assert np.abs(const(xs) - 1.0).max() < 1e-10
    poly = jacobi_anger("cos", 1.0, 1e-8)
    grid = np.linspace(-1, 1, 2001)
    assert np.abs(poly(grid) - np.cos(grid)).max() <= 1e-8
    assert poly.parity == "even"
    assert all(c == 0.0 for c in poly.coeffs[1::2])


def test_jacobi_anger_sine_and_domains():
    poly = jacobi_anger("sin", 2.0, 1e-9)
    grid = np.linspace(-1, 1, 2001)
    assert np.abs(poly(grid) - np.sin(2.0 * grid)).max() <= 1e-9
    assert poly.parity == "odd"
    with pytest.raises(DomainError):
        jacobi_anger("cos", 1.0, 0.5)  # eps >= 1/e
    with pytest.raises(DomainError):
        jacobi_anger("tan", 1.0, 1e-6)


def test_target_ite_component_contract():
    for s in (0.0, 0.5, 3.0):
        eps = 1e-8
        poly = target_ite_component(s, eps)
        grid = np.linspace(-1, 1, 2001)
        ref = np.cos(s * grid * np.sqrt(1 - grid ** 2))
        assert np.abs(poly(grid) - ref).max() <= eps
        assert abs(poly(np.array([1.0]))[0] - 1.0) <= eps
        base = jacobi_anger("cos", s, eps / 2)
        assert poly.degree <= 2 * base.degree


@pytest.mark.parametrize("s", [0.0, 0.5, 3.0, 32.0])
def test_target_ite_component_is_the_jacobi_anger_series(s):
    """cos(s x sqrt(1 - x^2)) = J_0(s/2) + 2 sum_l J_2l(s/2) T_4l(x): every other slot is 0."""
    from scipy.special import jv

    c = np.array(target_ite_component(s, 1e-8).coeffs)
    assert len(c) % 4 == 1
    slots = np.arange(0, len(c), 4)
    want = np.where(slots == 0, 1.0, 2.0) * jv(slots // 2, s / 2.0)
    np.testing.assert_allclose(c[slots], want, rtol=1e-15, atol=0.0)
    assert not np.delete(c, slots).any()


@pytest.mark.parametrize("s", [28.0, 32.0])
def test_target_ite_component_at_long_durations(s):
    """The power-basis substitution this replaced lost precision and raised from s=28 on."""
    eps = 1e-3
    poly = target_ite_component(s, eps)
    grid = np.linspace(-1, 1, 2001)
    assert np.abs(poly(grid) - np.cos(s * grid * np.sqrt(1 - grid ** 2))).max() <= eps
    assert poly.parity == "even"
    assert poly.degree <= 48


def test_sign_poly_contract():
    eta, cap = 0.1, 0.05
    poly = sign_poly(eta, cap)
    assert poly.parity == "odd"
    assert poly.halfwidth == 2.0
    xs = np.linspace(-2, 2, 4001)
    vals = poly(xs)
    assert np.abs(vals).max() <= 1.0 + 1e-12
    outside = np.abs(xs) >= eta
    assert np.abs(vals - np.sign(xs))[outside].max() <= cap
    assert abs(poly(np.array([1.0]))[0] - 1.0) <= cap
    assert abs(poly(np.array([-1.0]))[0] + 1.0) <= cap
    with pytest.raises(DomainError):
        sign_poly(0.0, 0.05)
    with pytest.raises(DomainError):
        sign_poly(0.1, 0.6)


def test_sign_poly_degree_scales_inversely_with_eta():
    d1 = sign_poly(0.1, 0.05).degree
    d2 = sign_poly(0.2, 0.05).degree
    assert 1.5 <= d1 / d2 <= 2.7


FD_XS = np.linspace(0, 1, 21)
FD_THETA = 1.7 * FD_XS * np.sqrt(1 - FD_XS ** 2)
FD_STATE = np.stack([np.cos(FD_THETA), np.sin(FD_THETA)], axis=1)  # the flow target


def assert_gradient_matches_finite_differences(cost_grad, a):
    """Central differences with step 1e-7 against the analytic gradient."""
    _, grad = cost_grad(a)
    eps = 1e-7
    for j in range(len(a)):
        step = np.zeros(len(a))
        step[j] = eps
        cp, _ = cost_grad(a + step)
        cm, _ = cost_grad(a - step)
        assert grad[j] == pytest.approx((cp - cm) / (2 * eps), abs=1e-6, rel=1e-5)


@pytest.mark.parametrize("terms", [
    dict(state=FD_STATE),
    dict(target_vals=np.cos(FD_THETA), lam1=0.01),
    dict(target_vals=np.cos(FD_THETA), lam1=0.01, lam2=0.1),
], ids=["flow", "sign", "polish"])
def test_residual_jacobian_matches_central_differences(terms, rng):
    """The backward sweep's Jacobian of the flow, sign and polish residuals, step 1e-6."""
    residuals, jacobian = fit_residuals(FD_XS, **terms)
    a = rng.normal(0, 0.8, 7)
    jac = jacobian(a)
    eps = 1e-6
    central = np.stack([(residuals(a + eps * e) - residuals(a - eps * e)) / (2 * eps)
                        for e in np.eye(len(a))], axis=1)
    assert jac.shape == central.shape
    assert np.abs(jac - central).max() < 1e-9


def test_mse_cost_gradient_matches_finite_differences(rng):
    tv = np.cos(FD_THETA)
    assert_gradient_matches_finite_differences(
        lambda a: contract_cost_grad(a, FD_XS, tv, 0.01), rng.normal(0, 0.8, 7))


def test_statematch_cost_gradient_matches_finite_differences(rng):
    assert_gradient_matches_finite_differences(
        lambda a: contract_cost_grad(a, FD_XS, state=FD_STATE), rng.normal(0, 0.8, 7))


def test_cost_is_the_sum_of_its_terms(rng):
    a = rng.normal(0, 0.8, 7)
    tv = np.cos(FD_THETA)
    terms = [contract_cost_grad(a, FD_XS, tv, 0.01), contract_cost_grad(a, FD_XS, lam2=0.1),
             contract_cost_grad(a, FD_XS, state=FD_STATE)]
    cost, grad = contract_cost_grad(a, FD_XS, tv, 0.01, 0.1, state=FD_STATE)
    assert cost == pytest.approx(sum(c for c, _ in terms), rel=1e-12)
    assert grad == pytest.approx(sum(g for _, g in terms), rel=1e-9, abs=1e-12)
    assert contract_cost_grad(a, FD_XS)[0] == 0.0
    assert_gradient_matches_finite_differences(
        lambda x: contract_cost_grad(x, FD_XS, tv, 0.01, 0.1, state=FD_STATE), a)


@pytest.mark.parametrize("s", [math.nan, math.inf])
def test_fit_ite_phases_rejects_non_finite_duration(s):
    with pytest.raises(DomainError, match="finite"):
        fit_ite_phases(s, 4)


@pytest.mark.parametrize("fit", [
    lambda: fit_ite_phases(1.0, 1.5),
    lambda: fit_ite_phases(1.0, "8"),
    lambda: fit_phases(ChebyshevPoly((0.0, 1.0), "odd"), 2.0),
    lambda: fixed_point_via_sign(2.5, 0.35, 0.05),
    lambda: fit_ite_phases(1.0, True),
    lambda: fit_ite_phases(1.0, 4, seed=1.5),
    lambda: fit_ite_phases(1.0, 4, seed=-1),
    lambda: fit_ite_phases(1.0, 4, seed=True),
    lambda: fit_phases(ChebyshevPoly((0.0, 1.0), "odd"), 1, seed="0"),
    lambda: fixed_point_via_sign(6, 0.35, 0.05, seed=-1),
], ids=["ite-float", "ite-str", "poly-float", "sign-float", "ite-bool", "ite-seed-float",
        "ite-seed-negative", "ite-seed-bool", "poly-seed-str", "sign-seed-negative"])
def test_fits_reject_non_integer_k(fit):
    with pytest.raises(DomainError, match="integer"):
        fit()


@pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf])
def test_jacobi_anger_rejects_non_finite_s(s):
    with pytest.raises(DomainError, match="finite"):
        jacobi_anger("cos", s, 1e-3)


def test_fit_ite_phases_beyond_fifty_angles_holds_off_its_nodes():
    """K = 60 fits on fit_points(60) = 61 Chebyshev nodes, meets the 1e-10 goal
    there and stays within 10x of that cost on 4001 uniform points."""
    s, k = 16.0, 60
    assert fit_points(k) == 61 and fit_points(40) == 50
    phases, cost = fit_ite_phases(s, k)
    assert phases.k == k and cost < 1e-10

    def infidelity(xs):
        v = _dr_forward(phases_to_dr_angles(phases), xs)[-1]
        t = flow_state(s, xs)
        return 1.0 - np.abs(t[:, 0] * v[0] + t[:, 1] * v[1]) ** 2

    assert float(np.mean(infidelity(chebyshev_nodes(61)))) == pytest.approx(cost, rel=1e-3)
    assert float(np.max(infidelity(np.linspace(0.0, 1.0, 4001)))) <= 10.0 * cost


@pytest.mark.parametrize("series", [
    lambda bad: jacobi_anger("cos", 1.0, bad),
    lambda bad: target_ite_component(1.0, bad),
    lambda bad: sign_poly(bad, 0.05),
    lambda bad: sign_poly(0.1, bad),
    lambda bad: fixed_point_via_sign(6, bad, 0.05),
    lambda bad: fixed_point_via_sign(6, 0.3, bad),
    lambda bad: fixed_point_angles(6, bad),
    lambda bad: NamedSchedule("fixed-point-chebyshev", 3, delta2=bad).angle_pairs(),
    lambda bad: query_bound(bad, 0.0),
], ids=["jacobi-anger-eps", "ite-eps", "sign-eta", "sign-cap", "fp-eta", "fp-cap",
        "fixed-point-angles-delta", "named-schedule-delta2", "query-bound-eps"])
@pytest.mark.parametrize("bad", ["1e-3", True, 1j, None, 0.0, math.nan], ids=repr)
def test_series_reject_tolerances_that_are_not_reals_in_range(series, bad):
    """A typed DomainError, where a string or complex once raised TypeError and True passed.

    The last three entries are the schedule and query-bound tolerances, which
    share the one check in pf_compiler.require_between."""
    with pytest.raises(DomainError, match="must be a real number in"):
        series(bad)


@pytest.mark.parametrize("restarts", [0, -2, 1.5, 2.0, True])
def test_fits_reject_restarts_below_one(restarts):
    fits = (lambda: fit_phases(ChebyshevPoly((0.0, 1.0), "odd"), 1, restarts=restarts),
            lambda: fit_ite_phases(0.5, 4, restarts=restarts),
            lambda: fixed_point_via_sign(6, 0.35, 0.05, restarts=restarts))
    for fit in fits:
        with pytest.raises(DomainError, match="restarts"):
            fit()


@given(
    st.lists(st.floats(-2 * math.pi, 2 * math.pi), min_size=1, max_size=12),
    st.lists(st.floats(0.0, 1.0), max_size=6),
)
@settings(max_examples=60, deadline=None)
def test_sweep_matches_sequence_product(angles, extra_xs):
    """The sweep's final state is the D-X product applied to (1, 0), x = 0 and 1 included."""
    xs = np.array([0.0, 1.0] + extra_xs)
    pre = _dr_forward(np.array(angles), xs)
    assert pre.shape == (len(angles) + 1, 2, len(xs))
    phases = dr_angles_to_phases(angles)
    for i, x in enumerate(xs):
        want = qsp_matrix(phases, float(x)) @ np.array([1.0, 0.0])
        assert np.abs(pre[-1, :, i] - want).max() <= 1e-12


def test_fit_phases_linear_target():
    phases, cost = fit_phases(ChebyshevPoly((0.0, 1.0), "odd"), 1, seed=5, restarts=4)
    assert cost < 1e-10
    for x in (0.1, 0.6, 0.95):
        assert abs(qsp_value(phases, x).real - x) < 1e-5


def test_fit_phases_deterministic():
    target = ChebyshevPoly((0.5, 0.0, 0.5), "even")  # T_0/2 + T_2/2 = x^2
    p1, c1 = fit_phases(target, 2, seed=11, restarts=3)
    p2, c2 = fit_phases(target, 2, seed=11, restarts=3)
    assert p1.phases == p2.phases and c1 == c2


def test_fit_phases_validation():
    with pytest.raises(DomainError):
        fit_phases(ChebyshevPoly((0.0, 1.0), "odd"), 0)


def test_fit_phases_beyond_fifty_angles(monkeypatch):
    """A K = 51 polynomial fit runs on fit_points(51) = 52 uniform points, the
    rule every fit follows; with a fixed 50-point grid it once raised."""
    sizes, residuals = [], qsp_engine.fit_residuals

    def recorded(xs, *args, **kwargs):
        sizes.append(len(xs))
        return residuals(xs, *args, **kwargs)

    monkeypatch.setattr(qsp_engine, "fit_residuals", recorded)
    phases, cost = fit_phases(ChebyshevPoly((0.0, 1.0), "odd"), 51, restarts=2)
    assert set(sizes) == {fit_points(51)} == {52}
    assert phases.k == 51 and cost < 1e-10


@pytest.mark.parametrize("phases", [(float("nan"), 0.1), (0.1, float("inf")), ()])
def test_phase_list_rejects_non_finite_or_empty_phases(phases):
    with pytest.raises(DomainError):
        QspPhases(phases)


@pytest.mark.parametrize("entry", [
    lambda poly: fit_phases(poly(), 1),
    lambda poly: check_achievability(poly(), 1),
], ids=["fit_phases", "check_achievability"])
@pytest.mark.parametrize("coeffs, halfwidth", [
    ((math.nan, 1.0), 1.0), ((0.0, -math.inf), 1.0), ((0.0, 1.0), math.nan), ((0.0, 1.0), math.inf),
], ids=["nan-coeff", "inf-coeff", "nan-halfwidth", "inf-halfwidth"])
def test_polynomial_entry_points_reject_non_finite_polynomials(entry, coeffs, halfwidth):
    """A typed DomainError, from the constructor and from JSON, before fit_phases
    reaches scipy or check_achievability writes a report."""
    with pytest.raises(DomainError, match="finite"):
        entry(lambda: ChebyshevPoly(coeffs, "none", halfwidth))
    payload = {"basis": "chebyshev-T", "coeffs": list(coeffs), "halfwidth": halfwidth}
    with pytest.raises(DomainError, match="finite"):
        entry(lambda: ChebyshevPoly.from_json(json.dumps(payload)))


def test_fit_ite_phases_unit_duration():
    phases, cost = fit_ite_phases(1.0, 32, seed=7)
    assert cost < 1e-4
    xs = np.linspace(0.05, 0.99, 41)
    worst = 0.0
    for x in xs:
        theta = 1.0 * x * math.sqrt(1 - x * x)
        v = qsp_matrix(phases, float(x)) @ np.array([1.0, 0.0], dtype=complex)
        target = np.array([math.cos(theta), math.sin(theta)])
        worst = max(worst, 1.0 - abs(np.vdot(target, v)) ** 2)
    assert worst < 1e-4


def test_fixed_point_via_sign_structure():
    sched = fixed_point_via_sign(6, 0.35, 0.05, seed=3)
    pairs = sched.grover_pairs()
    assert len(pairs) == 6
    assert pairs[-1][0] == 0.0  # final diffusion angle forced to zero
    with pytest.raises(DegreeTooSmall):
        fixed_point_via_sign(2, 0.05, 0.05)


# Outputs of one cheap fit per entry point, recorded before the three restart
# loops were folded into one driver.  The sign pairs were recorded again when
# each rung's goal became its stop rule, and again when the eta ladder gave way
# to one rung whose restart 1 is the quasi-Chebyshev fixed-point prefix.  The
# flow fit's phases were recorded again when it lost its duration ladder, and
# again when its cost became the mean flow infidelity alone.  All three were
# recorded again when every solve became least squares on the residuals and
# the flow fit moved to Chebyshev nodes, so the flow cost is now the mean
# infidelity on those nodes.  The flow phases (which moved by 3.1e-7) and the
# sign pairs were recorded again when restart 0 became the closed-form start.
# Both were recorded again when a restart that refinds the best minimum began
# to end the fit.  The flow fit now keeps restart 0's point, 2.6e-16 above the
# restart-3 point it kept before, and its phases moved by 3.1e-7.  The sign fit
# now keeps restart 1's point, 6.9e-14 above restart 4's; the two are distinct
# angle sets of the same cost to 9e-9 relative.
PINNED_FIT_PHASES = (0.7075302558084524, 9.83633833904034e-09, 0.7075302459721141)
PINNED_FIT_COST = 0.10517111083718028
PINNED_ITE_PHASES = (-1.1455685129561224, -0.6896504230207215, -1.5707961501291778,
                     0.3294800548214498, 0.7853980053723272)
PINNED_ITE_COST = 0.0004311658087292044
PINNED_SIGN_PAIRS = (
    (-3.2215873748040957, -5.553640682422249), (-2.5062247915536715, -4.027843834897048),
    (0.5535052886776046, -1.7703861467282511), (-3.5861174794254036, -4.753093846856734),
    (-1.5454506628840328, -3.558835169174177), (0.0, -1.290456186403103),
)


def test_fits_match_pinned_outputs():
    """Phases and costs of three cheap fits, one per entry point, within 1e-9.

    The values were recorded with numpy 2.4.6, scipy 1.17.1 and two OpenBLAS
    threads, and are the same bit for bit with one, on a 2-CPU x86-64 host.
    Whether they hold under other numpy/scipy/BLAS builds is unverified: the
    least-squares solves can drift in the last digits there.
    """
    phases, cost = fit_phases(ChebyshevPoly((0.3, 0.0, 0.5), "even"), 2, seed=11, restarts=3)
    assert phases.phases == pytest.approx(PINNED_FIT_PHASES, abs=1e-9, rel=0)
    assert cost == pytest.approx(PINNED_FIT_COST, abs=1e-9, rel=0)

    phases, cost = fit_ite_phases(2.0, 4, seed=3)  # one rung at s = 2
    assert phases.phases == pytest.approx(PINNED_ITE_PHASES, abs=1e-9, rel=0)
    assert cost == pytest.approx(PINNED_ITE_COST, abs=1e-9, rel=0)

    pairs = fixed_point_via_sign(6, 0.35, 0.05, seed=3).grover_pairs()  # quasi-Chebyshev start
    assert len(pairs) == len(PINNED_SIGN_PAIRS)
    for got, want in zip(pairs, PINNED_SIGN_PAIRS):
        assert got == pytest.approx(want, abs=1e-9, rel=0)


def _counted_quadratic(calls, name, floor=0.0):
    """Residuals (sqrt(i) x_i, sqrt(floor)) over 10 angles, cost sum_i i x_i^2 + floor,
    and their Jacobian; counts the residual calls in calls[name]."""
    w = np.sqrt(np.arange(1.0, 11.0))

    def residuals(a):
        calls[name] += 1
        return np.append(w * a, math.sqrt(floor))

    return residuals, lambda a: np.vstack([np.diag(w), np.zeros(10)])


@pytest.mark.parametrize("k", [6, 8])
def test_formula_start_is_the_compiled_product_formula(k):
    """The flow fit's formula start realizes the compiled group-commutator schedule.

    At K=6 (three iterates) the formula covers two and the third is a
    zero-angle pair, D(0) X D(0) X = I, so the start is still exact.
    """
    s, n = 1.5, 5
    a = _formula_start(s, k)
    assert len(a) == k
    infs = bench._ite_infidelities(dr_angles_to_phases(a), s, n)
    e0s = np.array([e0 for _, e0, _ in infs])
    state, _ = run_reduced(compile_formula(GroupCommutator(), s, fragments=k // 4), e0s)
    theta = s * np.sqrt(e0s) * np.sqrt(1.0 - e0s)
    want = 1.0 - np.abs(np.cos(theta) * state[0] + np.sin(theta) * state[1]) ** 2
    assert [inf for _, _, inf in infs] == pytest.approx(want, abs=1e-12, rel=0)
    assert max(want) > 1e-6  # the formula alone does not already fit the flow


def test_formula_start_below_two_iterates_is_zero():
    for k in (1, 2, 3):
        assert np.array_equal(_formula_start(2.0, k), np.zeros(k))


def test_solve_stops_at_first_point_below_goal():
    """On the s=1, K=8 flow fit from the product formula: the solve returns the first
    evaluated point below the goal, where a solve without a goal goes on to a lower cost."""
    xs = chebyshev_nodes(50)
    theta = xs * np.sqrt(1.0 - xs ** 2)
    residuals, jacobian = fit_residuals(xs, state=np.stack([np.cos(theta), np.sin(theta)], axis=1))
    seen = []

    def recorded(a):
        r = residuals(a)
        seen.append((np.array(a), float(r @ r)))
        return r

    goal = 1e-6
    start = _formula_start(1.0, 8)
    res = _lsq_solve((recorded, jacobian), start, goal=goal)
    assert res.fun < goal and res.nfev == len(seen)
    assert all(cost >= goal for _, cost in seen[:-1])
    assert np.array_equal(res.x, seen[-1][0]) and res.fun == seen[-1][1]
    free = _lsq_solve((residuals, jacobian), start)
    assert free.fun < res.fun and free.nfev > res.nfev


def test_solve_repeats_on_a_rank_deficient_jacobian():
    """Two of six parameters enter only as their sum.  MINPACK's "lm" in scipy
    1.17.1 returned 2 to 5 different points over these 100 solves of one input."""
    t = np.linspace(0.0, 3.0, 60)
    y = 2.0 * np.exp(-1.3 * t) + 0.5 * np.sin(3.0 * t)

    def residuals(p):
        return p[0] * np.exp(-p[1] * t) + p[2] * np.sin(p[3] * t) + (p[4] + p[5]) * t ** 2 - y

    def jacobian(p):
        e = np.exp(-p[1] * t)
        return np.stack([e, -p[0] * t * e, np.sin(p[3] * t), p[2] * t * np.cos(p[3] * t),
                         t ** 2, t ** 2], axis=1)

    x0 = np.array([1.0, 1.0, 1.0, 2.5, 0.1, 0.3])
    rng, junk, points = np.random.default_rng(0), [], set()
    for _ in range(100):
        junk.append(rng.random(rng.integers(1, 200)))  # move the solver's work arrays in the heap
        points.add(_lsq_solve((residuals, jacobian), x0).x.tobytes())
    assert len(points) == 1


@pytest.mark.parametrize("floor", [0.0, 1.0])
def test_multistart_skips_chains_once_goal_met(floor):
    calls = Counter()
    chains = (
        (_counted_quadratic(calls, "explore", floor), _counted_quadratic(calls, "first", floor)),
        (_counted_quadratic(calls, "second", floor),),
    )
    _, cost = _multistart(chains, 1e-3, 10, seed=0, restarts=3, spread=0.5)
    assert calls["explore"] and calls["first"]
    if floor == 0.0:  # the first chain meets the goal
        assert cost < 1e-3 and calls["second"] == 0
    else:  # the floor is above the goal: every chain of every restart runs
        assert cost >= 1.0 and calls["second"] > 0


def _scripted_solves(monkeypatch, costs):
    """Replace _lsq_solve by one that returns costs[i] at solve i and its start point;
    the returned list gets every solve's start."""
    starts = []

    def scripted(problem, x0, goal=-math.inf):
        starts.append(np.array(x0))
        return SimpleNamespace(x=np.asarray(x0), fun=costs[len(starts) - 1])

    monkeypatch.setattr(qsp_engine, "_lsq_solve", scripted)
    return starts


_ONE_CHAIN = ((_counted_quadratic(Counter(), "q"),),)


def test_multistart_stalls_on_restarts_that_refind_the_best_minimum(monkeypatch):
    """Each restart lands in the same minimum, 1e-15 lower in relative terms than
    the last: restart 1 refinds restart 0's minimum and ends the fit, before the
    stall limit would, and its slightly lower cost still wins."""
    costs = [1.0 - 1e-15 * i for i in range(8)]
    starts = _scripted_solves(monkeypatch, costs)
    _, cost = _multistart(_ONE_CHAIN, 1e-3, 10, seed=0, restarts=8, spread=0.5, stall_limit=3)
    assert len(starts) == 1 + 1
    assert cost == costs[1]


@pytest.mark.parametrize("second", [1.0 - 9e-7, 1.0 + 9e-7], ids=["below", "above"])
def test_multistart_ends_at_a_refind_on_either_side(second, monkeypatch):
    """Restart 1 within the relative STALL_MARGIN of the best, above or below it,
    ends the fit; the lower of the two costs wins."""
    starts = _scripted_solves(monkeypatch, [1.0, second, 0.5])
    a, cost = _multistart(_ONE_CHAIN, 1e-3, 10, seed=0, restarts=8, spread=0.5)
    assert len(starts) == 2
    assert cost == min(1.0, second)
    assert np.array_equal(a, starts[1] if second < 1.0 else starts[0])


def test_multistart_runs_on_past_a_worse_minimum_to_its_goal(monkeypatch):
    """The K=12, s=2.5, seed 0 flow fit's costs: restart 1 lands in a worse minimum,
    which is no refind, so restart 2 runs and meets the 1e-10 goal.  A stall limit
    of one would have ended the fit at 4.76e-10."""
    starts = _scripted_solves(monkeypatch, [4.76e-10, 6.5e-9, 9.9e-11, 1.0])
    _, cost = _multistart(_ONE_CHAIN, 1e-10, 10, seed=0, restarts=8, spread=0.5,
                          stall_limit=3)
    assert len(starts) == 3
    assert cost == 9.9e-11


def test_multistart_refinds_no_best_cost_that_is_not_finite(monkeypatch):
    """Restart 0 costs NaN, so the best cost before restart 1 is inf.  Restart 1
    is no refind of it (|1 - inf| <= STALL_MARGIN * inf holds in floating point),
    and restart 2, which lands on restart 1's cost, is the first refind."""
    starts = _scripted_solves(monkeypatch, [math.nan, 1.0, 1.0, 1.0])
    _, cost = _multistart(_ONE_CHAIN, 1e-3, 10, seed=0, restarts=8, spread=0.5)
    assert len(starts) == 3
    assert cost == 1.0


@pytest.mark.parametrize("fit, seed, start", [
    (lambda: fit_ite_phases(2.0, 8, restarts=3), 0, lambda: _formula_start(2.0, 8)),
    (lambda: fixed_point_via_sign(6, 0.35, 0.05, seed=3, restarts=3), 3,
     lambda: phases_to_dr_angles(grover_to_qsp(fixed_point_angles(6, math.sqrt(0.1))))[:11]),
], ids=["flow", "sign"])
def test_restarts_start_at_the_closed_form_schedule(fit, seed, start, monkeypatch):
    """Restart 0 starts at the fit's closed-form schedule (the product formula, or the
    quasi-Chebyshev prefix at delta^2 = 2 cap), and restart 1 perturbs it by N(0, 0.4),
    drawn after the random point that restart 0 draws and does not use.  Each
    restart lands higher than the last, so none refinds the best and all three run."""
    starts = _scripted_solves(monkeypatch, [1.0, 2.0, 3.0])
    fit()
    want = start()
    rng = np.random.default_rng(seed)
    rng.normal(size=len(want))  # restart 0's unused random point
    assert len(starts) == 3
    assert np.array_equal(starts[0], want)
    assert np.array_equal(starts[1], want + rng.normal(0.0, 0.4, len(want)))
    assert np.array_equal(starts[2], want + rng.normal(0.0, 0.4, len(want)))


def _recorded_solves(monkeypatch):
    """Wrap _lsq_solve; the returned list gets (x0, nfev) for every solve."""
    solves, solve = [], qsp_engine._lsq_solve

    def record(problem, x0, goal=-math.inf):
        res = solve(problem, x0, goal=goal)
        solves.append((np.array(x0), res.nfev))
        return res

    monkeypatch.setattr(qsp_engine, "_lsq_solve", record)
    return solves


def test_flow_fit_that_the_formula_start_solves_takes_one_short_solve(monkeypatch):
    """At s=1, K=16 the solve from the product formula meets the 1e-10 goal at once."""
    solves = _recorded_solves(monkeypatch)
    _, cost = fit_ite_phases(1.0, 16)
    assert cost < 1e-10
    assert len(solves) == 1
    assert solves[0][1] <= 20


def test_flow_fit_below_its_goal_starts_at_the_formula_and_stalls(monkeypatch):
    """At s=2, K=8 no start meets the goal: restart 0 is the formula, and restart 1,
    a perturbation of it, lands in the same minimum again and ends the fit."""
    solves = _recorded_solves(monkeypatch)
    _, cost = fit_ite_phases(2.0, 8)
    assert cost >= 1e-10
    assert len(solves) == 1 + 1
    assert np.array_equal(solves[0][0], _formula_start(2.0, 8))


def test_fit_phases_restart_zero_is_still_the_small_random_point(monkeypatch):
    """fit_phases has no closed-form start, so its restart 0 is 0.01 N(0, 1) from seed."""
    solves = _recorded_solves(monkeypatch)
    fit_phases(ChebyshevPoly((0.3, 0.0, 0.5), "even"), 2, seed=11, restarts=1)
    want = 0.01 * np.random.default_rng(11).normal(size=2)
    assert np.array_equal(solves[0][0], want)  # the exploration solve of restart 0
    assert np.array_equal(solves[2][0], want)  # the polish-only chain of restart 0


@pytest.mark.parametrize("s", [3.0, 4.0, 5.0, 6.0])
def test_exact_flow_state_has_zero_flow_cost(s, monkeypatch):
    """The exact flow state (cos theta, sin theta) must cost 0 on the flow fit's 50 nodes.

    The contract cost's phase term did not: it asks for arg(p conj q) = 0, but
    the exact state has arg pi wherever s x sqrt(1 - x^2) > pi/2, possible once
    s > pi (0.454 at s=4), so the flow fit no longer uses it.
    """
    xs = chebyshev_nodes(50)
    exact = flow_state(s, xs)
    monkeypatch.setattr(qsp_engine, "_final_state",
                        lambda a, x, step: (_dr_forward(a, x, step=step), exact.astype(complex)))
    cost, _ = contract_cost_grad(np.zeros(2), xs, state=exact)
    assert cost == pytest.approx(0.0, abs=1e-15)


def test_poly_json_roundtrip():
    poly = sign_poly(0.2, 0.05)
    payload = json.loads(poly.to_json())
    assert payload["basis"] == "chebyshev-T"
    assert payload["halfwidth"] == 2.0
    back = ChebyshevPoly.from_json(poly.to_json())
    assert back == poly
    phases = QspPhases((0.1, -0.2), "W")
    assert QspPhases.from_json(phases.to_json()) == phases


def test_fit_phases_default_penalties():
    import inspect

    assert (qsp_engine.LAMBDA1, qsp_engine.LAMBDA2) == (0.01, 0.1)
    assert list(inspect.signature(fit_phases).parameters) == ["target", "k", "seed", "restarts"]
