"""Diffusion/oracle operators and Grover iteration, full and reduced.

One iterate with angles (alpha, beta) is G = -D(alpha) U_f(beta):
the oracle exponential acts first, then the diffusion exponential, and the
overall minus sign is tracked as a global phase (it never affects success
probabilities, but operator-identity checks keep it).

In the {psi0, psi0_perp} basis the operators are 2x2:

    D(alpha) = diag(e^{i alpha}, 1)
    U_f(beta) = X(r) diag(e^{i beta}, 1) X(r),   r = sqrt(e0)

with the reflection X(r) = [[r, sqrt(1-r^2)], [sqrt(1-r^2), -r]].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EmptyMarkedSet, NonAlternatingSchedule, NumericalDomain
from .pf_compiler import Generator, fixed_point_angles, require_between, require_count
from .qsp_engine import _dr_forward, reflection_matrix
from .search_core import (
    ReducedState,
    SearchInstance,
    make_initial,
    make_solution,
)

NORM_DRIFT_LIMIT = 1e-10


def diffusion_reduced(alpha: float) -> np.ndarray:
    return np.diag([np.exp(1j * alpha), 1.0 + 0.0j])


def oracle_reduced(e0: float, beta: float) -> np.ndarray:
    x = reflection_matrix(math.sqrt(e0))
    return x @ diffusion_reduced(beta) @ x


def diffusion(inst: SearchInstance, alpha: float, state):
    """Apply exp(i alpha |psi0><psi0|) to a full state vector."""
    state = np.asarray(state, dtype=complex)
    psi0 = make_initial(inst)
    return state + (np.exp(1j * alpha) - 1.0) * psi0 * np.vdot(psi0, state)


def oracle(inst: SearchInstance, beta: float, state):
    """Apply exp(i beta H_f) to a full state vector."""
    out = np.array(state, dtype=complex)
    out[list(inst.marked)] *= np.exp(1j * beta)
    return out


def grover_iterate(inst: SearchInstance, alpha: float, beta: float, state):
    """One iterate -D(alpha) U_f(beta) applied to a full state vector."""
    return -diffusion(inst, alpha, oracle(inst, beta, state))


def reduced_iterate_product(e0: float, pairs) -> np.ndarray:
    """2x2 product of iterates (first pair applied first), including (-1)^N."""
    u = np.eye(2, dtype=complex)
    for alpha, beta in pairs:
        u = -(diffusion_reduced(alpha) @ oracle_reduced(e0, beta)) @ u
    return u


@dataclass(frozen=True)
class NamedSchedule:
    """One of the literature angle schedules, by name."""

    kind: str  # "original-pi" | "pi-over-three" | "fixed-point-chebyshev"
    iterations: int
    delta2: float | None = None

    def angle_pairs(self) -> list[tuple[float, float]]:
        require_count("iterations", self.iterations)
        if self.kind == "original-pi":
            return [(math.pi, math.pi)] * self.iterations
        if self.kind == "pi-over-three":
            return [(math.pi / 3.0, math.pi / 3.0)] * self.iterations
        if self.kind == "fixed-point-chebyshev":
            require_between("delta2", self.delta2, 0.0, 1.0)
            return fixed_point_angles(self.iterations, math.sqrt(self.delta2)).grover_pairs()
        raise DomainError(f"unknown named schedule {self.kind!r}")


def success_probability(inst: SearchInstance, state) -> float:
    """|<solution|state>|^2 for a full state vector."""
    if inst.n_marked == 0:
        raise EmptyMarkedSet("no marked items")
    return float(abs(np.vdot(make_solution(inst), np.asarray(state))) ** 2)


def _schedule_steps(schedule) -> list:
    """("pair", (alpha, beta)) per iterate, or ("pulse", Pulse) if not alternating."""
    if isinstance(schedule, NamedSchedule):
        return [("pair", ab) for ab in schedule.angle_pairs()]
    try:
        return [("pair", ab) for ab in schedule.grover_pairs()]
    except NonAlternatingSchedule:
        return [("pulse", p) for p in schedule.canonical().pulses]


def run_reduced(schedule, e0s) -> tuple[np.ndarray, np.ndarray]:
    """Reduced run of a schedule at every overlap in ``e0s``, as one 2x2 sweep.

    Returns the final {psi0, psi0_perp} states (2, n) and the success traces
    (steps, n), steps as in ``run_schedule``.  A step is two D(a) X(x) factors
    of qsp_engine's sweep at x = sqrt(e0): an iterate (alpha, beta) is
    (beta, alpha) times -1, an oracle pulse X D(beta) X is (beta, 0), and a
    diffusion pulse D(alpha) = D(alpha) X X is (0, alpha).
    """
    angles, sign = [], 1.0
    for tag, step in _schedule_steps(schedule):
        if tag == "pair":
            alpha, beta = step
            angles += [beta, alpha]
            sign = -sign
        elif step.generator is Generator.ORACLE:
            angles += [step.angle, 0.0]
        else:
            angles += [0.0, step.angle]
    e0s = np.asarray(e0s, dtype=float)
    if not np.all((e0s >= 0.0) & (e0s <= 1.0)):  # NaN fails both comparisons
        raise DomainError("every overlap e0 must be finite and in [0, 1]")
    pre = _dr_forward(np.array(angles, dtype=float), np.sqrt(e0s))
    states = pre[2::2]
    drift = np.abs(np.linalg.norm(states, axis=1) - 1.0).max(initial=0.0)
    if not drift <= NORM_DRIFT_LIMIT:  # written so that a NaN drift fails it
        raise NumericalDomain(f"norm drift {drift:.2e} beyond limit")
    trace = np.abs(np.sqrt(e0s) * states[:, 0] + np.sqrt(1.0 - e0s) * states[:, 1]) ** 2
    return sign * pre[-1], trace


def run_schedule(inst: SearchInstance, schedule, mode: str = "full"):
    """Run a schedule from psi0; returns (final state, per-step success trace).

    ``schedule`` is an AngleSchedule or NamedSchedule.  Alternating schedules
    run as Grover iterates (one trace entry per iterate, global (-1) applied);
    non-alternating pulse lists run pulse by pulse.  Norm drift beyond 1e-10
    is an error rather than a silent renormalization.  The reduced mode
    returns a ReducedState and runs through ``run_reduced``.
    """
    if mode not in ("full", "reduced"):
        raise DomainError(f"mode must be 'full' or 'reduced', got {mode!r}")
    if mode == "reduced":
        inst.require_nondegenerate()
        final, trace = run_reduced(schedule, [inst.e0])
        return ReducedState.from_array(final[:, 0]), [float(p) for p in trace[:, 0]]

    state = make_initial(inst)
    trace = []
    for tag, step in _schedule_steps(schedule):
        if tag == "pair":
            alpha, beta = step
            state = grover_iterate(inst, alpha, beta, state)
        elif step.generator is Generator.ORACLE:
            state = oracle(inst, step.angle, state)
        else:
            state = diffusion(inst, step.angle, state)
        nrm = float(np.linalg.norm(state))
        if abs(nrm - 1.0) > NORM_DRIFT_LIMIT:
            raise NumericalDomain(f"norm drift {abs(nrm - 1.0):.2e} beyond limit")
        trace.append(success_probability(inst, state))
    return state, trace
