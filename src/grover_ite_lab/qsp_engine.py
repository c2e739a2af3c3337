"""Two-dimensional signal-processing engine and the Grover phase mapping.

Sequences here interleave a signal reflection with z-phase rotations.  In the
reflection ("R") convention the operator for phases (phi_0 .. phi_K) is

    U = S_Z(phi_K) X(x) S_Z(phi_{K-1}) ... X(x) S_Z(phi_1) X(x) S_Z(phi_0)

with K signal reflections; phi_0 acts first.  The (0,0) entry is a degree-K
polynomial in x with parity K mod 2.

An N-iterate Grover product with angles (alpha_k, beta_k), first iterate
applied first, equals exactly such a sequence at x = sqrt(e0) with K = 2N and

    phi_0      = N pi + sum_k (alpha_k + beta_k) / 2
    phi_{2l-1} = beta_l / 2
    phi_{2l}   = alpha_l / 2

(the N pi absorbs the (-1)^N of the iterates; the identity is exact as an
action on psi0, with no leftover phase).  The equivalent "W" convention swaps
the reflection for w(x) = [[x, i sqrt(1-x^2)], [i sqrt(1-x^2), x]]; conversion
shifts phi_0 by -pi/4, interior phases by -pi/2 and phi_K by +(2K-1)pi/4, after
which the (0,0) rows agree exactly and the full matrices differ only by
diag(1, (-1)^K).

Phase fitting optimizes a sequence of D(a_j) X(x) factors (a_j = 2 phi_j) on
x in [0, 1]: against a target polynomial with penalties on the imaginary part
of the (0,0) entry and on the relative phase of the two column entries, or,
for the flow, against the flow state's infidelity on Chebyshev nodes.  Every
fit cost is a mean of squared residuals, so each solve is trust-region least
squares (scipy's least_squares, method "trf") on the residuals and their
Jacobian.  The Jacobian comes analytically from one forward and one backward
sweep through the 2x2 product, and restarts are seeded for determinism.

scipy is imported inside the functions that use it (the least-squares solve,
the condition check's bounded minimisation, the Bessel and error-function
series), not at module load: its import takes most of the package's start-up
time, and the figure commands on a warm phase cache call none of them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Sequence, Union

import numpy as np
from numpy.polynomial import chebyshev as _cheb

from .errors import (
    DegreeTooSmall,
    DomainError,
    NonAlternatingSchedule,
    OptimizerDiverged,
)
from .pf_compiler import (AngleSchedule, Generator, GroupCommutator, Pulse, compile_formula,
                          fixed_point_angles, require_count)

# ---------------------------------------------------------------------------
# Phase lists and sequence evaluation


@dataclass(frozen=True)
class QspPhases:
    phases: tuple[float, ...]
    convention: str = "R"  # "R" | "W"

    def __post_init__(self):
        if self.convention not in ("R", "W"):
            raise DomainError(f"convention must be 'R' or 'W', got {self.convention!r}")
        if len(self.phases) < 1:
            raise DomainError("need at least phi_0")
        object.__setattr__(self, "phases", tuple(float(p) for p in self.phases))

    @property
    def k(self) -> int:
        """Number of signal operators in the sequence."""
        return len(self.phases) - 1

    def to_json(self) -> str:
        return json.dumps({"convention": self.convention, "phases": list(self.phases)})

    @classmethod
    def from_json(cls, text: str) -> "QspPhases":
        payload = json.loads(text)
        return cls(tuple(payload["phases"]), payload["convention"])


def reflection_matrix(x: float) -> np.ndarray:
    """Signal reflection [[x, sqrt(1-x^2)], [sqrt(1-x^2), -x]]; involutive."""
    r = math.sqrt(max(0.0, 1.0 - x * x))
    return np.array([[x, r], [r, -x]], dtype=complex)


def sz_matrix(phi: float) -> np.ndarray:
    """Processing rotation diag(e^{i phi}, e^{-i phi})."""
    return np.diag([np.exp(1j * phi), np.exp(-1j * phi)])


def _w_matrix(x: float) -> np.ndarray:
    r = math.sqrt(max(0.0, 1.0 - x * x))
    return np.array([[x, 1j * r], [1j * r, x]], dtype=complex)


def qsp_matrix(phases: QspPhases, x: float) -> np.ndarray:
    """Full 2x2 sequence operator at signal value x in [-1, 1]."""
    if not -1.0 <= x <= 1.0:
        raise DomainError(f"signal value {x!r} outside [-1, 1]")
    signal = reflection_matrix(x) if phases.convention == "R" else _w_matrix(x)
    u = sz_matrix(phases.phases[0])
    for phi in phases.phases[1:]:
        u = sz_matrix(phi) @ signal @ u
    return u


def qsp_value(phases: QspPhases, x: float) -> complex:
    """(0,0) entry of the sequence operator; a polynomial in x of degree <= K."""
    return complex(qsp_matrix(phases, x)[0, 0])


def convert_convention(phases: QspPhases) -> QspPhases:
    """Switch between the reflection and W conventions.

    The (0,0) matrix entry is preserved exactly; the second row flips sign for
    odd K (diag(1, (-1)^K) relates the two full matrices).  Round-tripping
    restores the original phases.
    """
    k = phases.k
    p = list(phases.phases)
    if k == 0:
        return QspPhases(tuple(p), "R" if phases.convention == "W" else "W")
    if phases.convention == "W":
        p[0] -= math.pi / 4.0
        for j in range(1, k):
            p[j] -= math.pi / 2.0
        p[k] += (2 * k - 1) * math.pi / 4.0
        return QspPhases(tuple(p), "R")
    p[0] += math.pi / 4.0
    for j in range(1, k):
        p[j] += math.pi / 2.0
    p[k] -= (2 * k - 1) * math.pi / 4.0
    return QspPhases(tuple(p), "W")


# ---------------------------------------------------------------------------
# Grover <-> sequence phase mapping


def _as_pairs(schedule) -> list[tuple[float, float]]:
    if isinstance(schedule, AngleSchedule):
        return schedule.grover_pairs()
    return [(float(a), float(b)) for a, b in schedule]


def grover_to_qsp(schedule) -> QspPhases:
    """Phases of the sequence realized by an alternating Grover schedule."""
    pairs = _as_pairs(schedule)
    n = len(pairs)
    phis = [n * math.pi + sum(a + b for a, b in pairs) / 2.0]
    for alpha, beta in pairs:
        phis.append(beta / 2.0)
        phis.append(alpha / 2.0)
    return QspPhases(tuple(phis), "R")


def qsp_to_grover(phases: QspPhases) -> AngleSchedule:
    """Exact inverse of grover_to_qsp on the (alpha, beta) part.

    phi_0 carries only a global phase and is not representable in the
    schedule; the mapping uses phi_{2l-1} and phi_{2l} alone.
    """
    if phases.convention != "R":
        raise DomainError("expect reflection-convention phases; convert first")
    if phases.k % 2 != 0:
        raise NonAlternatingSchedule("need an even signal-operator count")
    pulses = []
    p = phases.phases
    for l in range(1, phases.k // 2 + 1):
        beta = 2.0 * p[2 * l - 1]
        alpha = 2.0 * p[2 * l]
        pulses.append(Pulse(Generator.ORACLE, beta))
        pulses.append(Pulse(Generator.DIFFUSION, alpha))
    return AngleSchedule(tuple(pulses))


# ---------------------------------------------------------------------------
# Chebyshev-basis polynomials


@dataclass(frozen=True)
class ChebyshevPoly:
    """Polynomial in the Chebyshev-T basis, evaluated by Clenshaw recurrence.

    ``halfwidth`` scales the basis argument: p(x) = sum_n c_n T_n(x / halfwidth),
    so polynomials certified on a wider interval keep a well-conditioned
    evaluation there.
    """

    coeffs: tuple[float, ...]
    parity: str = "none"  # "even" | "odd" | "none"
    halfwidth: float = 1.0

    def __post_init__(self):
        coeffs = tuple(float(c) for c in self.coeffs)
        if not coeffs:
            coeffs = (0.0,)
        object.__setattr__(self, "coeffs", coeffs)
        if self.parity not in ("even", "odd", "none"):
            raise DomainError(f"parity must be even/odd/none, got {self.parity!r}")
        if self.halfwidth <= 0:
            raise DomainError("halfwidth must be positive")
        if self.parity == "even" and any(c != 0.0 for c in coeffs[1::2]):
            raise DomainError("declared even parity but odd coefficients present")
        if self.parity == "odd" and any(c != 0.0 for c in coeffs[0::2]):
            raise DomainError("declared odd parity but even coefficients present")

    @property
    def degree(self) -> int:
        d = len(self.coeffs) - 1
        while d > 0 and self.coeffs[d] == 0.0:
            d -= 1
        return d

    def __call__(self, x):
        return _cheb.chebval(np.asarray(x) / self.halfwidth, np.asarray(self.coeffs))

    def to_json(self) -> str:
        payload = {
            "basis": "chebyshev-T",
            "parity": self.parity,
            "coeffs": list(self.coeffs),
        }
        if self.halfwidth != 1.0:
            payload["halfwidth"] = self.halfwidth
        return json.dumps(payload)

    @classmethod
    def from_json(cls, text: str) -> "ChebyshevPoly":
        payload = json.loads(text)
        if payload.get("basis") != "chebyshev-T":
            raise DomainError(f"unsupported basis {payload.get('basis')!r}")
        return cls(
            tuple(payload["coeffs"]),
            payload.get("parity", "none"),
            float(payload.get("halfwidth", 1.0)),
        )


# ---------------------------------------------------------------------------
# Achievability checking


@dataclass(frozen=True)
class ConditionVerdict:
    condition: str
    satisfied: bool
    witness_x: float
    margin: float


@dataclass(frozen=True)
class AchievabilityReport:
    verdicts: tuple[ConditionVerdict, ...]

    @property
    def all_pass(self) -> bool:
        return all(v.satisfied for v in self.verdicts)


def _critical_points(poly: ChebyshevPoly) -> np.ndarray:
    der = _cheb.chebder(np.asarray(poly.coeffs))
    if len(der) <= 1:
        return np.array([])
    roots = _cheb.chebroots(der)
    real = roots[np.abs(roots.imag) < 1e-9].real
    return real * poly.halfwidth


def check_achievability(poly: ChebyshevPoly, k: int, tol: float = 1e-6) -> AchievabilityReport:
    """Verdicts for the five sequence-realizability conditions of a degree-K slot.

    Bound conditions are evaluated at the polynomial's exact critical points
    (roots of the derivative) plus dense-grid backstops, each with tolerance
    ``tol``; the report records the worst point and its margin either way.
    """
    verdicts = []

    deg = poly.degree
    verdicts.append(
        ConditionVerdict("degree <= K", deg <= k, math.nan, float(k - deg))
    )

    want = "even" if k % 2 == 0 else "odd"
    coeffs = np.asarray(poly.coeffs)
    wrong = coeffs[1::2] if want == "even" else coeffs[0::2]
    wrong_mag = float(np.abs(wrong).max()) if wrong.size else 0.0
    verdicts.append(
        ConditionVerdict(f"parity == K mod 2 ({want})", wrong_mag <= tol, math.nan, -wrong_mag)
    )

    crit = _critical_points(poly)
    inside = np.concatenate([crit[np.abs(crit) <= 1.0], [-1.0, 1.0], np.linspace(-1, 1, 801)])
    vals = np.abs(poly(inside))
    i = int(np.argmax(vals))
    verdicts.append(
        ConditionVerdict(
            "|p| <= 1 on [-1,1]", vals[i] <= 1.0 + tol, float(inside[i]), float(1.0 - vals[i])
        )
    )

    hi = max(2.0, 2.0 * poly.halfwidth)
    outside = np.concatenate(
        [crit[(np.abs(crit) >= 1.0) & (np.abs(crit) <= hi)], [1.0, -1.0, hi, -hi],
         np.linspace(1.0, hi, 401), -np.linspace(1.0, hi, 401)]
    )
    ovals = np.abs(poly(outside))
    j = int(np.argmin(ovals))
    verdicts.append(
        ConditionVerdict(
            "|p| >= 1 off [-1,1]", ovals[j] >= 1.0 - tol, float(outside[j]), float(ovals[j] - 1.0)
        )
    )

    if k % 2 == 0:
        # |p(i t)|^2 >= 1 on the real line (real coefficients assumed).
        ts = np.linspace(0.0, hi, 1201)
        f = np.abs(poly(1j * ts)) ** 2
        jm = int(np.argmin(f))
        lo, hi_b = max(0, jm - 1), min(len(ts) - 1, jm + 1)
        from scipy.optimize import minimize_scalar

        refine = minimize_scalar(
            lambda t: float(np.abs(poly(1j * t)) ** 2),
            bounds=(ts[lo], ts[hi_b]),
            method="bounded",
        )
        fmin, tmin = float(refine.fun), float(refine.x)
        if f[jm] < fmin:
            fmin, tmin = float(f[jm]), float(ts[jm])
        verdicts.append(
            ConditionVerdict(
                "|p(ix) p*(ix)| >= 1", fmin >= 1.0 - tol, tmin, float(fmin - 1.0)
            )
        )
    else:
        verdicts.append(
            ConditionVerdict("|p(ix) p*(ix)| >= 1 (odd K: vacuous)", True, math.nan, math.inf)
        )
    return AchievabilityReport(tuple(verdicts))


# ---------------------------------------------------------------------------
# Polynomial targets

_GRID = np.linspace(-1.0, 1.0, 2001)
_MAX_SERIES_DEGREE = 4096


def jacobi_anger(kind: str, s: float, eps: float) -> ChebyshevPoly:
    """Truncated Bessel series for cos(s x) or sin(s x) on [-1, 1].

    cos(s x) = J_0(s) + 2 sum_l (-1)^l J_{2l}(s) T_{2l}(x)
    sin(s x) = 2 sum_l (-1)^l J_{2l+1}(s) T_{2l+1}(x)

    The truncation degree is grown by doubling until the sup error on a
    2001-point grid is <= eps, then trimmed to the smallest degree that still
    meets the criterion.
    """
    if kind not in ("cos", "sin"):
        raise DomainError(f"kind must be 'cos' or 'sin', got {kind!r}")
    if not 0.0 < eps < 1.0 / math.e:
        raise DomainError(f"eps must be in (0, 1/e), got {eps!r}")
    if not 0.0 <= s < math.inf:
        raise DomainError(f"s must be finite and nonnegative, got {s!r}")
    from scipy.special import jv

    ref = np.cos(s * _GRID) if kind == "cos" else np.sin(s * _GRID)

    def coeffs_up_to(degree: int) -> np.ndarray:
        c = np.zeros(degree + 1)
        if kind == "cos":
            ls = np.arange(0, degree // 2 + 1)
            c[2 * ls] = 2.0 * (-1.0) ** ls * jv(2 * ls, s)
            c[0] = jv(0, s)
        else:
            ls = np.arange(0, (degree - 1) // 2 + 1)
            c[2 * ls + 1] = 2.0 * (-1.0) ** ls * jv(2 * ls + 1, s)
        return c

    def grid_ok(c: np.ndarray) -> bool:
        return float(np.abs(_cheb.chebval(_GRID, c) - ref).max()) <= eps

    degree = 4
    while degree <= _MAX_SERIES_DEGREE:
        full = coeffs_up_to(degree)
        if grid_ok(full):
            break
        degree *= 2
    else:
        raise DegreeTooSmall("series did not meet eps below the degree cap")

    step = 2
    low = 0 if kind == "cos" else 1
    for d in range(low, degree + 1, step):
        if grid_ok(full[: d + 1]):
            return ChebyshevPoly(tuple(full[: d + 1]), "even" if kind == "cos" else "odd")
    raise DegreeTooSmall("unreachable: full series passed but no prefix did")


def target_ite_component(s: float, eps: float) -> ChebyshevPoly:
    """Polynomial approximation of cos(s x sqrt(1 - x^2)) on [-1, 1].

    The target is an entire even function of x (a power series in x^2 - x^4),
    so its Chebyshev interpolant converges fast.  The interpolant's degree is
    doubled until it is within eps of the target on the standard grid, its odd
    coefficients (roundoff) are cleared, and it is trimmed to the smallest even
    degree that still meets eps, the way _sign_series treats erf.
    """
    if not 0.0 <= s < math.inf:
        raise DomainError(f"s must be finite and nonnegative, got {s!r}")
    if not 0.0 < eps < 1.0:
        raise DomainError(f"eps must be in (0, 1), got {eps!r}")
    target = lambda x: np.cos(s * x * np.sqrt(1.0 - x ** 2))
    ref = target(_GRID)

    def grid_ok(c: np.ndarray) -> bool:
        return float(np.abs(_cheb.chebval(_GRID, c) - ref).max()) <= eps

    degree = 8
    while degree <= _MAX_SERIES_DEGREE:
        full = _cheb.chebinterpolate(target, degree)
        full[1::2] = 0.0
        if grid_ok(full):
            break
        degree *= 2
    else:
        raise DegreeTooSmall("interpolant did not meet eps below the degree cap")
    for d in range(0, degree + 1, 2):
        if grid_ok(full[: d + 1]):
            return ChebyshevPoly(tuple(full[: d + 1]), "even")
    raise DegreeTooSmall("unreachable: full interpolant passed but no prefix did")


def _sign_series(eta: float, cap: float, halfwidth: float, max_degree: int):
    """Odd Chebyshev coefficients approximating sgn on [-halfwidth, halfwidth].

    Expands a scaled error-function step erf(kappa x) and returns the smallest
    odd degree whose truncation satisfies |p - sgn| <= cap for |x| >= eta and
    |p| <= 1 everywhere on the domain, or None if max_degree is not enough.
    """
    from scipy.special import erf, erfinv

    kappa = erfinv(1.0 - cap / 2.0) / eta
    scale = 1.0 - cap / 4.0
    grid = np.linspace(-1.0, 1.0, 4001)
    x = halfwidth * grid
    outside = np.abs(x) >= eta
    sgn = np.sign(x)

    def ok(c: np.ndarray) -> bool:
        vals = _cheb.chebval(grid, c)
        return (
            float(np.abs(vals - sgn)[outside].max()) <= cap
            and float(np.abs(vals).max()) <= 1.0
        )

    degree = 32
    full = None
    while degree <= _MAX_SERIES_DEGREE:
        full = _cheb.chebinterpolate(lambda u: scale * erf(kappa * halfwidth * u), degree)
        full[0::2] = 0.0
        if ok(full):
            break
        degree *= 2
    else:
        return None
    for d in range(1, min(degree, max_degree) + 1, 2):
        if ok(full[: d + 1]):
            return np.array(full[: d + 1])
    return None


def sign_poly(eta: float, delta_cap: float) -> ChebyshevPoly:
    """Odd polynomial close to sgn(x) away from the origin.

    Satisfies |p(x) - sgn(x)| <= delta_cap for eta <= |x| <= 2 and |p| <= 1 on
    [-2, 2]; the evaluation domain is stored via halfwidth = 2.
    """
    if not 0.0 < eta < 1.0:
        raise DomainError(f"eta must be in (0, 1), got {eta!r}")
    if not 0.0 < delta_cap < 0.5:
        raise DomainError(f"delta_cap must be in (0, 1/2), got {delta_cap!r}")
    coeffs = _sign_series(eta, delta_cap, 2.0, _MAX_SERIES_DEGREE)
    if coeffs is None:
        raise DegreeTooSmall("sign approximant did not converge below the degree cap")
    return ChebyshevPoly(tuple(coeffs), "odd", halfwidth=2.0)


# ---------------------------------------------------------------------------
# Phase fitting


def _reflector(xs: np.ndarray):
    """The signal reflection X(x) = [[x, r], [r, -x]], r = sqrt(1 - x^2), as a step.

    Returns step(v, out0, out1), which writes the two rows of X(x) v for a
    (2, n_d) complex state v: one product with the (2, 2, n_d) array
    [[x, r], [r, x]], then row 0 as a sum and row 1 as a difference.  Row 1
    stays a subtraction, r v0 - x v1: storing -x and adding instead flips the
    sign of some zero results at x = 0 and x = 1, where arg() of the final
    state then jumps by pi and the contract cost moves.  Outputs are passed
    positionally: numpy parses a keyword ``out`` more slowly, and a fit makes
    hundreds of thousands of these calls.
    """
    r = np.sqrt(1.0 - xs ** 2)
    refl = np.array([[xs, r], [r, xs]], dtype=complex)
    prod = np.empty_like(refl)
    p00, p01, p10, p11 = prod[0, 0], prod[0, 1], prod[1, 0], prod[1, 1]
    mul, add, sub = np.multiply, np.add, np.subtract

    def step(v, out0, out1):
        mul(refl, v, prod)
        add(p00, p01, out0)
        sub(p10, p11, out1)

    return step


def _dr_forward(a: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Prefix states of the product of D(a_j) X(x) factors applied to (1, 0).

    Returns a (K+1, 2, n_d) array: pre[j, c] is component c of the state after
    the first j factors, at every signal point.
    """
    step, mul = _reflector(xs), np.multiply
    pre = np.empty((len(a) + 1, 2, len(xs)), dtype=complex)
    pre[0, 0] = 1.0
    pre[0, 1] = 0.0
    for cur, nxt, ph in zip(pre[:-1], pre[1:], np.exp(1j * a)):
        nxt0 = nxt[0]
        step(cur, nxt0, nxt[1])
        # The complex scalar stays the left operand: numpy's SIMD complex
        # product rounds ph * v and v * ph (or v *= ph) differently.
        mul(ph, nxt0, nxt0)
    return pre


def _dr_backward(pre: np.ndarray, seed: np.ndarray, a: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Reverse sweep: derivatives of the overlaps <seed|v> with respect to the angles.

    ``pre`` is the (K+1, 2, n_d) output of _dr_forward and ``seed`` a (2, c n_d)
    stack of c cochains, each over the n_d signal points ``xs``.  Returns the
    complex (K, c n_d) array d<seed|v>/da_j = i conj(m_j) pre[j+1, 0], where
    m_j is the cochain carried back through the factors after angle j.
    """
    c = seed.shape[1] // len(xs)
    step, mul = _reflector(np.tile(xs, c)), np.multiply
    m = np.array(seed, dtype=complex, order="C")
    m0, m1 = m
    # conj of the first cochain component that meets angle j
    mc = np.empty((len(a), m.shape[1]), dtype=complex)
    for mcj, ph in zip(mc[::-1], np.conj(np.exp(1j * a[::-1]))):
        np.conjugate(m0, mcj)
        mul(ph, m0, m0)
        step(m, m0, m1)
    mc *= np.tile(pre[1:, 0], c)
    mc *= 1j
    return mc


def _final_state(a: np.ndarray, xs: np.ndarray):
    """Prefix states and the final state as an (n_d, 2) array.

    The residuals read p and q as strided columns of the (n_d, 2) copy: on
    contiguous rows numpy's SIMD complex product (p * conj(q)) rounds
    differently, which would move the fitted phases in their last bits.
    """
    pre = _dr_forward(a, xs)
    return pre, pre[-1].T.copy()


def fit_residuals(xs, target_vals=None, lam1: float = 0.0, lam2: float = 0.0, state=None):
    """Residuals r(a) of a fit and their Jacobian J(a), as the two functions least_squares takes.

    With p, q the two components of the sequence state at the n_d points ``xs``,
    the residuals are, each present only with its input: Re p - target and
    sqrt(lam1) Im p for ``target_vals``; sqrt(lam2) arg(p conj q) for a nonzero
    ``lam2`` (arg(0) counts as 0); and the real and imaginary parts of
    <t_perp|(p, q)> against a real (n_d, 2) unit target state t = ``state``,
    with t_perp = (-t_1, t_0).  All are scaled by 1/sqrt(n_d), so the fit cost
    r @ r is the mean of the squared terms.  For the state term that is the
    mean infidelity 1 - |<t|(p, q)>|^2, blind to the global phase as the
    figures are, since the state is a unit vector.  The fits use three term
    sets: (target_vals, lam1) to explore and for the sign target,
    (target_vals, lam1, lam2) to polish, and state alone for the flow.

    J(a) reuses the forward sweep of the last r(a) call at the same angles and
    adds one backward sweep, seeded with (1, 0) for p, (0, 1) for q and t_perp.
    The arg row is 0 where |p|^2 or |q|^2 underflows, though its residual is not.
    """
    n = len(xs)
    scale = 1.0 / math.sqrt(n)
    ones, zeros = np.ones(n), np.zeros(n)
    seeds = []
    if target_vals is not None or lam2:
        seeds.append((ones, zeros))
    if lam2:
        seeds.append((zeros, ones))
    if state is not None:
        perp = np.stack([-state[:, 1], state[:, 0]])
        seeds.append(perp)
    seed = np.concatenate(seeds, axis=1) if seeds else np.zeros((2, 0))
    swept = {}

    def sweep(a):
        key = a.tobytes()
        if key not in swept:
            swept.clear()
            swept[key] = _final_state(a, xs)
        return swept[key]

    def residuals(a):
        a = np.asarray(a, dtype=float)
        _, v = sweep(a)
        p, q = v[:, 0], v[:, 1]
        terms = []
        if target_vals is not None:
            terms += [p.real - target_vals, math.sqrt(lam1) * p.imag]
        if lam2:
            terms.append(math.sqrt(lam2) * np.angle(p * np.conj(q)))
        if state is not None:
            overlap = perp[0] * p + perp[1] * q  # <t_perp|v>, t real
            terms += [overlap.real, overlap.imag]
        return scale * np.concatenate(terms) if terms else np.zeros(0)

    def jacobian(a):
        a = np.asarray(a, dtype=float)
        if not seeds:
            return np.zeros((0, len(a)))
        pre, v = sweep(a)
        blocks = iter(np.split(_dr_backward(pre, seed, a, xs), len(seeds), axis=1))
        rows = []
        if target_vals is not None or lam2:
            dp = next(blocks)
        if target_vals is not None:
            rows += [dp.real, math.sqrt(lam1) * dp.imag]
        if lam2:
            dq = next(blocks)
            p, q = v[:, 0], v[:, 1]
            absp2, absq2 = np.abs(p) ** 2, np.abs(q) ** 2
            ok = (absp2 > 1e-300) & (absq2 > 1e-300)
            with np.errstate(divide="ignore", invalid="ignore"):
                darg = np.imag(np.conj(p) * dp) / absp2 - np.imag(np.conj(q) * dq) / absq2
            rows.append(math.sqrt(lam2) * np.where(ok, darg, 0.0))
        if state is not None:
            dperp = next(blocks)
            rows += [dperp.real, dperp.imag]
        return scale * np.concatenate(rows, axis=1).T

    return residuals, jacobian


def contract_cost_grad(a, xs, target_vals=None, lam1: float = 0.0, lam2: float = 0.0,
                       state=None):
    """Fit cost r @ r and its gradient 2 J^T r, for the terms of fit_residuals.

    No fit calls it: the solves take residuals.  It states the cost a fit
    returns as one number, and perfbench's traced run wraps the name.
    """
    residuals, jacobian = fit_residuals(xs, target_vals, lam1, lam2, state)
    r = residuals(a)
    return float(r @ r), 2.0 * (r @ jacobian(a))


# Former exploration and state-match costs: nothing calls them, but perfbench's traced
# run wraps these names, so they stay bound until perfbench changes.
_mse_cost_grad = _statematch_cost_grad = contract_cost_grad


class _GoalMet(Exception):
    """Raised from inside a solve at the first point whose cost is below its goal."""

    def __init__(self, x, cost):
        super().__init__(cost)
        self.x, self.cost = x, cost


def _lsq_solve(problem, x0, goal: float = -math.inf):
    """Least squares on a (residuals, jacobian) pair, ended at the first point costing < goal.

    Returns x, the cost fun = r @ r and nfev, the residual evaluations made.
    The residual function itself raises at the first evaluated point below the
    goal, and that point is returned.  Without a goal the solve runs to
    least_squares' default tolerances or to its cap of 100 K evaluations.

    The method is "trf", a trust-region Gauss-Newton solve through an SVD of
    J.  MINPACK's Levenberg-Marquardt ("lm") is faster on these fits, but in
    scipy 1.17.1 it returns different points for the same inputs once J is
    rank deficient, as the K=32 and K=40 flow Jacobians are to working
    precision, so its cold refits do not repeat.
    """
    from scipy.optimize import least_squares

    residuals, jacobian = problem
    nfev = 0

    def fun(a):
        nonlocal nfev
        nfev += 1
        r = residuals(a)
        cost = float(r @ r)
        if cost < goal:
            raise _GoalMet(np.array(a, dtype=float), cost)
        return r

    try:
        res = least_squares(fun, x0, jac=jacobian, method="trf")
    except _GoalMet as met:
        return SimpleNamespace(x=met.x, fun=met.cost, nfev=nfev)
    return SimpleNamespace(x=res.x, fun=2.0 * res.cost, nfev=nfev)


# perfbench's traced run wraps this name; no fit calls it since the solves became
# least squares.
_lbfgs = _lsq_solve


def dr_angles_to_phases(a: Sequence[float], grover_pairs: bool = False) -> QspPhases:
    """Phases of the sequence equal (on the initial state) to the D-X product.

    With grover_pairs=True the leading phase also absorbs the (-1)^N of N
    Grover iterates, matching grover_to_qsp.
    """
    a = [float(v) for v in a]
    offset = (len(a) // 2) * math.pi if grover_pairs else 0.0
    phis = [offset + sum(a) / 2.0] + [v / 2.0 for v in a]
    return QspPhases(tuple(phis), "R")


def phases_to_dr_angles(phases: QspPhases) -> np.ndarray:
    if phases.convention != "R":
        raise DomainError("expect reflection-convention phases")
    return 2.0 * np.asarray(phases.phases[1:])


TargetLike = Union[ChebyshevPoly, Callable[[np.ndarray], np.ndarray]]


def chebyshev_nodes(n_d: int) -> np.ndarray:
    """The flow fit's signal points x_j = cos((2j + 1) pi / (4 n_d)), j = 0 .. n_d - 1.

    They are the positive half of the 2 n_d Chebyshev nodes on [-1, 1], dense
    near x = 1, where the flow target turns fastest (Dong, Meng, Whaley & Lin,
    arXiv:2002.11649, fit phase factors on these nodes).
    """
    return np.cos((2.0 * np.arange(n_d) + 1.0) * math.pi / (4.0 * n_d))


def fit_points(k: int) -> int:
    """Signal points of a k-angle flow or sign fit: max(50, k + 1), so n_d > k."""
    return max(50, k + 1)


def flow_state(s: float, xs: np.ndarray) -> np.ndarray:
    """The flow state (cos theta, sin theta), theta = s x sqrt(1 - x^2), as an (n, 2) array."""
    theta = float(s) * xs * np.sqrt(1.0 - xs ** 2)
    return np.stack([np.cos(theta), np.sin(theta)], axis=1)


# A restart improves on the best cost only if it lowers it by more than this
# share; restarts that land in the same minimum again count toward the stall limit.
STALL_MARGIN = 1e-6


def _multistart(chains, goal: float, k: int, seed: int, restarts: int, spread: float,
                stall_limit: float = math.inf, start=None):
    """Seeded multi-start least squares; returns the winning (angles, cost).

    A chain is a tuple of problems, (residuals, jacobian) pairs from
    fit_residuals, each solved by _lsq_solve in turn from the previous solve's
    point, and every chain of a restart starts from the same point.
    Restart 0 starts from the small random point 0.01 N(0, 1), a given
    ``start`` is restart 1, and later restarts perturb ``start`` (zeros
    without one) by N(0, spread).

    The goal is the stop rule.  The last solve of a chain, whose cost is the
    one compared with the goal, ends at its first evaluated point below the
    goal; the solves before it run to their own end.  Once the best cost is
    below the goal the fit ends, skipping the remaining chains and restarts.
    It also ends after ``stall_limit`` restarts in a row that did not lower
    the best cost by more than the relative STALL_MARGIN.  Ties go to the
    earlier restart.
    """
    rng = np.random.default_rng(seed)
    centre = np.zeros(k) if start is None else start
    best_a, best_cost, stall = None, math.inf, 0
    for r in range(restarts):
        if r == 0:
            x0 = 0.01 * rng.normal(size=k)
        else:
            x0 = start if r == 1 and start is not None else centre + rng.normal(0.0, spread, k)
        before = best_cost
        for *lead, last in chains:
            x = x0
            for problem in lead:
                x = _lsq_solve(problem, x).x
            res = _lsq_solve(last, x, goal=goal)
            if math.isfinite(res.fun) and res.fun < best_cost:
                best_a, best_cost = res.x, float(res.fun)
            if best_cost < goal:
                break
        stall = 0 if best_cost < before * (1.0 - STALL_MARGIN) else stall + 1
        if best_cost < goal or stall >= stall_limit:
            break
    if best_a is None:
        raise OptimizerDiverged("no restart produced a finite cost")
    return best_a, best_cost


def _check_k(k: int, n_d: int | None = None):
    require_count("k", k)
    if n_d is not None and n_d < k:
        raise DomainError(f"need n_d >= k, got n_d={n_d} < k={k}")


def _check_restarts(restarts: int):
    if restarts < 1:
        raise DomainError(f"restarts must be >= 1, got {restarts!r}")


def fit_phases(
    target: TargetLike,
    k: int,
    lambda1: float = 0.01,
    lambda2: float = 0.1,
    n_d: int = 50,
    seed: int = 0,
    restarts: int = 8,
) -> tuple[QspPhases, float]:
    """Fit K sequence phases to a target polynomial on x in [0, 1].

    Seeded multi-start least squares on n_d uniform points: each start runs an
    exploration solve without the relative-phase term, then polishes on the
    full cost; the winner is chosen by (cost, restart index).  Deterministic
    for fixed seed.
    """
    _check_k(k, n_d)
    _check_restarts(restarts)
    xs = np.linspace(0.0, 1.0, n_d)
    tv = np.asarray(target(xs), dtype=float)
    full = fit_residuals(xs, tv, lambda1, lambda2)
    explore = fit_residuals(xs, tv, lambda1)
    best_a, best_cost = _multistart(((explore, full), (full,)), 1e-10, k, seed, restarts,
                                    spread=0.5)
    return dr_angles_to_phases(best_a), best_cost


def _formula_start(s: float, k: int) -> np.ndarray:
    """Fit angles of the group-commutator product formula for the flow at duration s.

    N = k // 2 Grover iterates approximate exp(s [H_f, psi0]) as N // 2
    group-commutator fragments; the iterates map exactly onto D(a) X angles
    (grover_to_qsp, then phases_to_dr_angles).  The angles are zero-padded to
    k: for odd N the last iterate is a zero-angle pair, D(0) X D(0) X = I, so
    at even k the start is the formula exactly.  Below N = 2 it is all zeros.
    """
    a = np.zeros(k)
    if k >= 4:
        formula = compile_formula(GroupCommutator(), s, fragments=k // 4)
        angles = phases_to_dr_angles(grover_to_qsp(formula))
        a[:len(angles)] = angles
    return a


def fit_ite_phases(
    s: float,
    k: int,
    seed: int = 0,
    restarts: int = 8,
) -> tuple[QspPhases, float]:
    """Fit phases whose final state follows the flow state (cos theta, sin theta).

    theta = s x sqrt(1 - x^2) (flow_state) on the fit_points(k) Chebyshev
    nodes of chebyshev_nodes.  The cost is the figures' own metric, the mean
    infidelity 1 - |<(cos theta, sin theta)|(p, q)>|^2 (the ``state`` term of
    fit_residuals), and each restart is one least-squares solve of it with
    goal cost 1e-10.  There are three kinds of start (see
    _multistart).  Restart 0 is the small random point 0.01 N(0, 1) drawn from
    ``seed``, restart 1 the product formula of _formula_start, and later
    restarts perturb the formula by N(0, 0.4), also drawn from ``seed``.  So
    ``restarts=1`` never tries the formula, and ``seed`` steers restart 0 and
    the perturbations.

    The goal is the stop rule: a solve ends at its first evaluated point below
    it, and no further restart runs.  A fit that reaches the goal thus returns
    a cost just below it, not the solver's best.  Otherwise the fit ends after
    three restarts in a row that did not lower the best cost by more than the
    relative STALL_MARGIN, or after ``restarts`` restarts.
    """
    if not 0.0 <= s < math.inf:
        raise DomainError(f"s must be finite and nonnegative, got {s!r}")
    _check_k(k)
    _check_restarts(restarts)
    xs = chebyshev_nodes(fit_points(k))
    flow = fit_residuals(xs, state=flow_state(s, xs))
    best_a, best_cost = _multistart(((flow,),), 1e-10, k, seed, restarts, spread=0.4,
                                    stall_limit=3, start=_formula_start(s, k))
    return dr_angles_to_phases(best_a), best_cost


def fixed_point_via_sign(
    iterations: int,
    eta: float,
    delta_cap: float,
    seed: int = 0,
    restarts: int = 8,
) -> AngleSchedule:
    """Grover schedule whose first 2N-1 reflections realize a sign-like entry.

    The odd-length prefix W is fitted so <0|W|0> tracks an odd sign
    approximant (within delta_cap for x >= eta); appending a zero diffusion
    angle then lands the iterate product on the solution state, with terminal
    fidelity 1 - delta^2 for delta^2 = 2 delta_cap on the covered overlap
    range.  The final success probability equals |<0|W|0>|^2 exactly, so the
    fit cost drops the relative-phase term and keeps the imaginary-part
    penalty.  The fit is one goal-2e-6 multi-start (see _multistart) whose
    restart 1 is the first 2N-1 D-X angles of the quasi-Chebyshev fixed-point
    schedule (fixed_point_angles at delta^2 = 2 delta_cap).
    """
    require_count("iterations", iterations)
    if not 0.0 < eta < 1.0 or not 0.0 < delta_cap < 0.5:
        raise DomainError("need eta in (0,1) and delta_cap in (0, 1/2)")
    _check_restarts(restarts)
    k = 2 * iterations - 1
    final_coeffs = _sign_series(eta, delta_cap, 1.0, k)
    if final_coeffs is None:
        raise DegreeTooSmall(
            f"sign approximant at eta={eta}, cap={delta_cap} needs degree > {k}"
        )

    xs = np.linspace(0.0, 1.0, fit_points(k))
    tv = _cheb.chebval(xs, final_coeffs)
    sign = fit_residuals(xs, tv, 0.01)
    quasi_chebyshev = fixed_point_angles(iterations, math.sqrt(2.0 * delta_cap))
    start = phases_to_dr_angles(grover_to_qsp(quasi_chebyshev))[:k]
    best_a, _ = _multistart(((sign,),), 2e-6, k, seed, restarts, spread=0.4, stall_limit=3,
                            start=start)
    a_full = np.concatenate([best_a, [0.0]])
    return qsp_to_grover(dr_angles_to_phases(a_full, grover_pairs=True))
