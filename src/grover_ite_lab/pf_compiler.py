"""Pulse-schedule compiler for exp(s [H_f, |psi0><psi0|]).

A schedule is an ordered list of pulses, each a diffusion exp(i theta P0) or
oracle exp(i theta H_f) exponential, stored in application order (first entry
acts on the state first).  Written as an operator product the list reads right
to left.

The group-commutator fragment with duration s is, in product order,

    D(+sqrt s) O(+sqrt s) D(-sqrt s) O(-sqrt s)  ->  exp(s [H_f, P0]) + O(s^{3/2})

and fragmentation into F pieces runs F copies at duration s/F.  Higher-order
kinds recursively rescale a base schedule; angles inside every construction
are linear in sqrt(s), so rescaling a formula is just rescaling its angles.
``claimed_order`` records the error exponent numerator m in O(s^{m/2}).
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from enum import Enum
from typing import Union

import numpy as np

from . import geometry
from .errors import (
    DepthExceeded,
    DomainError,
    InsufficientData,
    NegativeDuration,
    NonAlternatingSchedule,
)
from .search_core import SearchInstance
# Unused here, but perfbench/layers.py wraps
# pf_compiler.exact_commutator_exponential, and its --trace 1 run fails
# without this name.
from .ite_flow import exact_commutator_exponential  # noqa: F401


class Generator(str, Enum):
    DIFFUSION = "D"
    ORACLE = "O"


@dataclass(frozen=True)
class Pulse:
    generator: Generator
    angle: float

    def __post_init__(self):
        if not math.isfinite(self.angle):
            raise DomainError(f"pulse angle must be finite, got {self.angle!r}")


@dataclass(frozen=True)
class AngleSchedule:
    """Ordered pulses (application order) with compiler metadata."""

    pulses: tuple[Pulse, ...]
    claimed_order: int = 0
    s_target: float = 0.0

    def _merged(self) -> tuple[Pulse, ...]:
        """Adjacent same-generator pulses merged (angles add); zeros kept."""
        out: list[Pulse] = []
        for p in self.pulses:
            if out and out[-1].generator == p.generator:
                out[-1] = Pulse(p.generator, out[-1].angle + p.angle)
            else:
                out.append(p)
        return tuple(out)

    def canonical(self) -> "AngleSchedule":
        """Merge adjacent same-generator pulses (angles add), drop zero angles."""
        pulses = list(self.pulses)
        while True:
            merged = AngleSchedule(tuple(pulses))._merged()
            pulses = [p for p in merged if p.angle != 0.0]
            if len(pulses) == len(merged):
                break
        return AngleSchedule(tuple(pulses), self.claimed_order, self.s_target)

    def inverse(self) -> "AngleSchedule":
        """Reversed pulses with negated angles; exact at the schedule level."""
        inv = tuple(Pulse(p.generator, -p.angle) for p in reversed(self.pulses))
        return AngleSchedule(inv, self.claimed_order, -self.s_target)

    def grover_pairs(self) -> list[tuple[float, float]]:
        """(alpha_k, beta_k) pairs: iterate k applies O(beta_k) then D(alpha_k).

        Requires the merged form (zero angles kept, so deliberate zero pulses
        survive) to alternate starting with an oracle pulse, even pulse count.
        """
        pulses = self._merged()
        if len(pulses) % 2 != 0:
            raise NonAlternatingSchedule("odd canonical pulse count")
        pairs = []
        for k in range(0, len(pulses), 2):
            o, d = pulses[k], pulses[k + 1]
            if o.generator is not Generator.ORACLE or d.generator is not Generator.DIFFUSION:
                raise NonAlternatingSchedule(
                    "canonical form must alternate oracle/diffusion starting with oracle"
                )
            pairs.append((d.angle, o.angle))
        return pairs

    @property
    def grover_phase(self) -> complex:
        """Global phase (-1)^N separating the iterate product from bare pulses."""
        return (-1.0 + 0.0j) ** (len(self._merged()) // 2)

    def to_json(self) -> str:
        payload = {
            "s_target": self.s_target,
            "claimed_order": self.claimed_order,
            "pulses": [{"g": p.generator.value, "theta": p.angle} for p in self.pulses],
        }
        return json.dumps(payload)

    @classmethod
    def from_json(cls, text: str) -> "AngleSchedule":
        payload = json.loads(text)
        pulses = tuple(
            Pulse(Generator(p["g"]), float(p["theta"])) for p in payload["pulses"]
        )
        return cls(pulses, int(payload["claimed_order"]), float(payload["s_target"]))


# ---------------------------------------------------------------------------
# Formula kinds

@dataclass(frozen=True)
class GroupCommutator:
    pass


@dataclass(frozen=True)
class ThirdOrder:
    pass


@dataclass(frozen=True)
class TwoCopies:
    base: "FormulaKind"


@dataclass(frozen=True)
class JeanKoseleff:
    base: "FormulaKind"


@dataclass(frozen=True)
class FiveCopies:
    base: "FormulaKind"


FormulaKind = Union[GroupCommutator, ThirdOrder, TwoCopies, JeanKoseleff, FiveCopies]

MAX_RECURSION_DEPTH = 6


def formula_depth(kind: FormulaKind) -> int:
    if isinstance(kind, (GroupCommutator, ThirdOrder)):
        return 0
    return 1 + formula_depth(kind.base)


def formula_order(kind: FormulaKind) -> int:
    """Claimed error exponent numerator m, so the error is O(s^{m/2})."""
    if isinstance(kind, GroupCommutator):
        return 3
    if isinstance(kind, ThirdOrder):
        return 4
    return formula_order(kind.base) + 1


def _scale(pulses: tuple[Pulse, ...], c: float) -> tuple[Pulse, ...]:
    return tuple(Pulse(p.generator, c * p.angle) for p in pulses)


def _invert(pulses: tuple[Pulse, ...]) -> tuple[Pulse, ...]:
    return tuple(Pulse(p.generator, -p.angle) for p in reversed(pulses))


def _base_pulses(kind: FormulaKind, sigma: float) -> tuple[Pulse, ...]:
    """Pulse list for one formula evaluation with sqrt-duration sigma."""
    O, D = Generator.ORACLE, Generator.DIFFUSION
    if isinstance(kind, GroupCommutator):
        return (Pulse(O, -sigma), Pulse(D, -sigma), Pulse(O, sigma), Pulse(D, sigma))
    if isinstance(kind, ThirdOrder):
        phi = (math.sqrt(5.0) - 1.0) / 2.0
        return (
            Pulse(O, sigma),
            Pulse(D, (1.0 - phi) * sigma),
            Pulse(O, -(phi + 1.0) * sigma),
            Pulse(D, -sigma),
            Pulse(O, phi * sigma),
            Pulse(D, phi * sigma),
        )

    base = _base_pulses(kind.base, sigma)
    # Recursion constants are expressed in terms of the squared-time order of
    # the base formula, n = m - 1.
    n = formula_order(kind.base) - 1
    if isinstance(kind, TwoCopies):
        if n % 2 != 0:
            raise DomainError("two-copies recursion needs an even-order base")
        left = _scale(base, 1.0 / math.sqrt(2.0))
        right = _scale(base, -1.0 / math.sqrt(2.0))
        return right + left
    if isinstance(kind, JeanKoseleff):
        if n % 2 == 0:
            t = (2.0 + 2.0 ** (2.0 / (n + 1))) ** -0.5
            w = -(2.0 ** (1.0 / (n + 1))) * t
            return _scale(base, t) + _scale(base, w) + _scale(base, t)
        u = (2.0 - 2.0 ** (2.0 / (n + 1))) ** -0.5
        v = (2.0 ** (1.0 / (n + 1))) * u
        return _scale(base, u) + _invert(_scale(base, v)) + _scale(base, u)
    if isinstance(kind, FiveCopies):
        sig = 4.0 ** (2.0 / (n + 1)) / (4.0 * (4.0 - 4.0 ** (2.0 / (n + 1))))
        mu = (4.0 * sig) ** 0.5
        nu = (0.25 + sig) ** 0.5
        block = _scale(base, nu)
        return block + block + _invert(_scale(base, mu)) + block + block
    raise TypeError(f"unknown formula kind {kind!r}")


def require_count(name: str, value, least: int = 1) -> None:
    """DomainError unless value is an integer >= least, not a bool (a count, K or a seed)."""
    if isinstance(value, bool) or not (isinstance(value, numbers.Integral) and value >= least):
        raise DomainError(f"{name} must be an integer >= {least}, got {value!r}")


def require_between(name: str, value, lo: float, hi: float, closed_lo: bool = False) -> None:
    """DomainError unless value is a real number, not a bool, in (lo, hi); [lo, hi) if closed_lo.

    A string, complex, None or NaN fails here with its name, not later with a TypeError.
    """
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if not (real and (lo <= value if closed_lo else lo < value) and value < hi):
        raise DomainError(f"{name} must be a real number in {'[' if closed_lo else '('}"
                          f"{lo:g}, {hi:g}), got {value!r}")


def require_duration(s) -> None:
    """DomainError unless s is a real number, not a bool, finite and >= 0 (a flow duration)."""
    if isinstance(s, bool) or not (isinstance(s, numbers.Real) and math.isfinite(s) and s >= 0):
        raise DomainError(f"s must be a finite nonnegative real number, got {s!r}")


def compile_formula(kind: FormulaKind, s: float, fragments: int = 1) -> AngleSchedule:
    """Schedule approximating exp(s [H_f, P0]) as `fragments` copies at s/fragments.

    A non-real, boolean or non-finite s raises DomainError; s < 0 raises NegativeDuration.
    """
    if isinstance(s, bool) or not isinstance(s, numbers.Real):
        raise DomainError(f"s must be a real number, got {s!r}")
    if not math.isfinite(s):
        raise DomainError(f"s must be finite, got {s!r}")
    if s < 0:
        raise NegativeDuration(f"duration must be nonnegative, got {s!r}")
    require_count("fragments", fragments)
    if formula_depth(kind) > MAX_RECURSION_DEPTH:
        raise DepthExceeded(f"recursion depth > {MAX_RECURSION_DEPTH}")
    sigma = math.sqrt(s / fragments)
    fragment = _base_pulses(kind, sigma)
    return AngleSchedule(fragment * fragments, formula_order(kind), float(s))


def fixed_point_angles(iterations: int, delta: float) -> AngleSchedule:
    """Fixed-point schedule with terminal fidelity >= 1 - delta^2.

    Uses the quasi-Chebyshev construction with L = 2*iterations + 1 reflections:
    gamma = cosh(arccosh(1/delta) / L) (the fractional-order Chebyshev value
    T_{1/L}(1/delta)), and

        alpha_k = beta_{N-k+1} = -2 arccot(tan(2 pi k / L) sqrt(1 - 1/gamma^2)).

    The arccot is evaluated as atan2(1, .), range (0, pi), so the angle stays
    defined at the tan poles; the alpha/beta reversal symmetry is exact by
    construction.
    """
    require_count("iterations", iterations)
    require_between("delta", delta, 0.0, 1.0)
    big_l = 2 * iterations + 1
    gamma = math.cosh(math.acosh(1.0 / delta) / big_l)
    omega = math.sqrt(max(0.0, 1.0 - 1.0 / gamma ** 2))
    alphas = [
        -2.0 * math.atan2(1.0, math.tan(2.0 * math.pi * k / big_l) * omega)
        for k in range(1, iterations + 1)
    ]
    betas = alphas[::-1]
    pulses = []
    for alpha, beta in zip(alphas, betas):
        pulses.append(Pulse(Generator.ORACLE, beta))
        pulses.append(Pulse(Generator.DIFFUSION, alpha))
    return AngleSchedule(tuple(pulses))


def schedule_unitary(inst: SearchInstance, schedule: AngleSchedule) -> np.ndarray:
    """Dense ordered product of the schedule's pulse exponentials."""
    inst.require_dense()
    n = inst.n_states
    marked = list(inst.marked)
    u = np.eye(n, dtype=complex)
    for p in schedule.pulses:
        phase = np.exp(1j * p.angle)
        if p.generator is Generator.ORACLE:
            u[marked, :] *= phase
        else:
            # rank-1 update u <- u + (e^{i theta} - 1) psi0 (psi0^dag u), in place:
            # psi0 is uniform, so every row of psi0 psi0^dag u is u's column sums / N
            u += ((phase - 1.0) / n) * u.sum(axis=0)
    return u


def formula_error(inst, kind: FormulaKind, s: float, fragments: int = 1) -> float:
    """Operator-norm error of the compiled formula against exp(s [H_f, psi0]).

    Each pulse and the exact exponential act on span{psi0, psi0_perp} as 2x2
    matrices and on its complement as the identity, except that an oracle
    pulse O(theta) multiplies the M - 1 other marked directions by e^{i theta}.
    So the error is max(||U_2 - R_2||, |e^{i sum theta_O} - 1|), the second
    term only for M >= 2: U_2 is the reduced pulse product, R_2 the rotation
    by s sqrt(v0), and sum theta_O the schedule's total oracle angle (0 for
    every compiled kind).  The work is O(pulses), whatever N is; the dense
    product schedule_unitary - exact_commutator_exponential is the test oracle.
    """
    # deferred: grover_engine imports this module
    from .grover_engine import reduced_iterate_product

    sched = compile_formula(kind, s, fragments)
    inst.require_nondegenerate()
    product = sched.grover_phase * reduced_iterate_product(inst.e0, sched.grover_pairs())
    theta = sched.s_target * math.sqrt(inst.v0)
    c, sn = math.cos(theta), math.sin(theta)
    error = geometry.operator_norm(product - np.array([[c, -sn], [sn, c]]))
    if inst.n_marked >= 2:
        turn = sum(p.angle for p in sched.pulses if p.generator is Generator.ORACLE)
        error = max(error, abs(np.exp(1j * turn) - 1.0))
    return float(error)


def measure_formula_error(inst, kind: FormulaKind, s_grid, fragments: int = 1):
    """(s, operator-norm error) pairs of the compiled schedule vs the exact flow.

    Each error is formula_error's reduced value, so any instance up to
    MAX_QUBITS is measured.
    """
    points = []
    for s in s_grid:
        error = formula_error(inst, kind, s, fragments)  # rejects a non-real s first
        points.append((float(s), error))
    return points


def fit_order(points) -> float:
    """Least-squares slope of log(error) against log(s).

    Only points with finite s > 0 and a finite error above the 1e-14 noise
    floor are kept; they must span at least four distinct s, since points at
    one s leave the slope undetermined.
    """
    usable = [(s, e) for s, e in points
              if math.isfinite(s) and math.isfinite(e) and s > 0 and e > 1e-14]
    distinct = len({s for s, _ in usable})
    if distinct < 4:
        raise InsufficientData(
            f"need usable points at >= 4 distinct s, have {distinct}")
    ls = np.log([s for s, _ in usable])
    le = np.log([e for _, e in usable])
    a = np.vstack([ls, np.ones_like(ls)]).T
    slope, _ = np.linalg.lstsq(a, le, rcond=None)[0]
    return float(slope)
