"""Exact imaginary-time dynamics for projector Hamiltonians.

For a projector ``H_f`` the non-unitary evolution exp(tau H_f) collapses to
``I + (e^tau - 1) H_f``, so the normalized trajectory has a closed form.  The
same trajectory is produced by the unitary commutator flow
``exp(s [H_f, |psi0><psi0|])`` with a monotone duration map s(tau), saturating
at ``s_opt = arccos(sqrt(e0)) / sqrt(v0)`` where the flow hits the solution
state exactly.  Conventions here: positive flow duration rotates psi0 toward
the solution, i.e. the generator is the commutator [H, |psi><psi|].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NullDirection, NumericalDomain, ZeroVariance
from .search_core import ReducedState, SearchInstance, make_initial, make_perp

TAU_MAX = 700.0
ARCCOS_GUARD = 1e-12


@dataclass(frozen=True)
class FlowPoint:
    """Commutator-flow duration together with the reduced-basis state."""

    s: float
    state: ReducedState


def _safe_arccos(x: float) -> float:
    if x > 1.0 + ARCCOS_GUARD or x < -1.0 - ARCCOS_GUARD:
        raise NumericalDomain(f"arccos argument {x!r} outside [-1, 1] guard band")
    return float(np.arccos(min(1.0, max(-1.0, x))))


def _clamp_tau(tau: float) -> float:
    return min(max(float(tau), 0.0), TAU_MAX)


def ite_state(inst: SearchInstance, tau: float) -> np.ndarray:
    """Normalized (I + (e^tau - 1) H_f) psi0.

    Evaluated as (e^-tau I + (1 - e^-tau) H_f) psi0 renormalized, which stays
    finite for arbitrarily large tau.
    """
    inst.require_nondegenerate()
    tau = _clamp_tau(tau)
    u = np.exp(-tau)
    v = np.full(inst.n_states, u / np.sqrt(inst.n_states), dtype=complex)
    v[list(inst.marked)] = 1.0 / np.sqrt(inst.n_states)
    return v / np.linalg.norm(v)


def duration_from_tau(inst: SearchInstance, tau: float) -> float:
    """Flow duration s(tau) reproducing the imaginary-time state at time tau.

    s = arccos((1 + (e^tau - 1) e0) / sqrt(1 + (e^{2 tau} - 1) e0)) / sqrt(v0),
    computed in an e^-tau form to avoid overflow.  Nondecreasing in tau and
    bounded above by optimal_duration.
    """
    inst.require_nondegenerate()
    tau = _clamp_tau(tau)
    u = np.exp(-tau)
    num = u + (1.0 - u) * inst.e0
    den = np.sqrt(u * u + (1.0 - u * u) * inst.e0)
    return float(_safe_arccos(num / den) / np.sqrt(inst.v0))


def optimal_duration(inst: SearchInstance) -> float:
    """Duration at which the flow lands exactly on the solution state."""
    inst.require_nondegenerate()
    return float(_safe_arccos(np.sqrt(inst.e0)) / np.sqrt(inst.v0))


def commutator_flow_state(inst: SearchInstance, s: float) -> FlowPoint:
    """State of exp(s [H_f, |psi0><psi0|]) psi0 in the reduced basis:
    (cos(s sqrt(v0)), sin(s sqrt(v0)))."""
    inst.require_nondegenerate()
    theta = s * np.sqrt(inst.v0)
    return FlowPoint(s=float(s), state=ReducedState(np.cos(theta), np.sin(theta)))


def exact_commutator_exponential(inst: SearchInstance, s: float) -> np.ndarray:
    """Dense exp(s [H_f, |psi0><psi0|]).

    Built as a rotation by s*sqrt(v0) in span{psi0, psi0_perp} plus identity on
    the orthogonal complement; exact and O(N^2), no generic matrix exponential.
    """
    inst.require_nondegenerate()
    inst.require_dense()
    basis = np.stack([make_initial(inst), make_perp(inst)], axis=1)
    theta = s * np.sqrt(inst.v0)
    c, sn = np.cos(theta), np.sin(theta)
    # (c - 1)(psi0 psi0^dag + perp perp^dag) + sn (perp psi0^dag - psi0 perp^dag)
    rotation = np.array([[c - 1.0, -sn], [sn, c - 1.0]], dtype=complex)
    u = basis @ rotation @ basis.conj().T
    u[np.diag_indices(inst.n_states)] += 1.0
    return u


def synth_linear_step(hamiltonian: np.ndarray, psi: np.ndarray, x: float, y: float):
    """Single analytic flow step realizing a normalized (x I + y H)|psi>.

    Returns ``(s, a, b)`` such that
    ``exp(s [H, |psi><psi|]) |psi> = (a I + b H) |psi>`` equals the normalized
    target.  Works for any Hermitian H with nonzero variance in |psi>.

    The duration is reported in the [H, |psi><psi|] generator convention used
    throughout this package, so it is positive exactly when y > 0.
    """
    if x == 0.0 and y == 0.0:
        raise NullDirection("need (x, y) != (0, 0)")
    h = np.asarray(hamiltonian, dtype=complex)
    psi = np.asarray(psi, dtype=complex)
    if h.shape[0] != h.shape[1] or h.shape[0] != psi.shape[0]:
        raise ValueError("shape mismatch between hamiltonian and state")
    hermiticity = np.abs(h - h.conj().T).max()
    if hermiticity > 1e-10 * max(1.0, np.abs(h).max()):
        raise NumericalDomain(f"hamiltonian not Hermitian (defect {hermiticity:.2e})")

    hpsi = h @ psi
    energy = float(np.real(np.vdot(psi, hpsi)))
    variance = float(np.real(np.vdot(hpsi, hpsi))) - energy * energy
    if variance <= 1e-14 * max(1.0, float(np.real(np.vdot(hpsi, hpsi)))):
        raise ZeroVariance("state is (numerically) an eigenvector of H")
    rate = np.sqrt(variance)

    w = x * psi + y * hpsi
    norm_w = float(np.linalg.norm(w))
    if y == 0.0:
        s = 0.0 if x > 0 else float(np.pi / rate)
    else:
        s = float(np.sign(y)) * _safe_arccos((x + y * energy) / norm_w) / rate

    theta = s * rate
    a = float(np.cos(theta) - energy * np.sin(theta) / rate)
    b = float(np.sin(theta) / rate)
    return s, a, b
