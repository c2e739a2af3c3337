"""Projective-space distances, geodesics, and the compilation error bounds.

The Fubini-Study distance arccos|<a|b>| measures ray separation; all search
trajectories here live on the geodesic between psi0 and the solution state.
The group-commutator inequality bounds the operator-norm error of the 4-pulse
approximant of exp(s [H_f, psi0]) by s^{3/2} * 2 * sqrt(2 v0), which is the
engine behind the explicit sufficient query count exposed as query_bound.

The measured counterpart works on the invariant plane span{psi0, psi0_perp}:
every pulse and the exact exponential act there as 2x2 matrices and outside it
as the identity or a scalar phase, so pf_compiler.formula_error takes the
norm of a 2x2 difference and equals the dense N x N value at O(1) cost in N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import pf_compiler
from .errors import DegenerateInstance, DimensionTooLarge, DomainError, NotOrthonormal, NumericalDomain
from .ite_flow import optimal_duration
from .search_core import (
    DENSE_MAX_DIM,
    SearchInstance,
    apply_projector,
    make_initial,
    make_solution,
)
# Unused here, but perfbench/layers.py wraps geometry.diffusion_matrix,
# geometry.oracle_matrix and geometry.exact_commutator_exponential, and its
# --trace 1 run fails without these names.
from .ite_flow import exact_commutator_exponential  # noqa: F401
from .search_core import diffusion_matrix, oracle_matrix  # noqa: F401

# Explicit constant of the sufficient query count: (2 sqrt(2) pi)^2 = 8 pi^2.
# Sufficient, not tight; surfaced so callers can see the proof constant.
QUERY_BOUND_CONSTANT = 8.0 * math.pi ** 2


def fs_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Fubini-Study distance arccos(|<a|b>|), in [0, pi/2] for unit vectors."""
    ov = abs(np.vdot(np.asarray(a), np.asarray(b)))
    return float(np.arccos(min(1.0, max(0.0, ov))))


@dataclass(frozen=True)
class GeodesicSpec:
    """A ray pair with its distance; d_fs is always arccos|<a|b>|."""

    endpoint_a: np.ndarray
    endpoint_b: np.ndarray
    d_fs: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "d_fs", fs_distance(self.endpoint_a, self.endpoint_b))

    @classmethod
    def between(cls, a: np.ndarray, b: np.ndarray) -> "GeodesicSpec":
        return cls(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def geodesic_point(phi1: np.ndarray, phi2: np.ndarray, t: float) -> np.ndarray:
    """cos(t) phi1 + sin(t) phi2 for an orthonormal pair (phi1, phi2)."""
    phi1 = np.asarray(phi1, dtype=complex)
    phi2 = np.asarray(phi2, dtype=complex)
    if abs(np.vdot(phi1, phi2)) > 1e-10 or abs(np.linalg.norm(phi1) - 1) > 1e-10 \
            or abs(np.linalg.norm(phi2) - 1) > 1e-10:
        raise NotOrthonormal("geodesic endpoints must be an orthonormal pair")
    return np.cos(t) * phi1 + np.sin(t) * phi2


def su_geodesic_length(inst: SearchInstance) -> float:
    """Geodesic length sqrt(2) * arccos(sqrt(e0)) on the unitary group.

    Cross-checked internally against the independent route
    s_opt * ||[H_f, |psi0><psi0|]||_HS, evaluated from state vectors.
    """
    inst.require_nondegenerate()
    formula = math.sqrt(2.0) * math.acos(math.sqrt(inst.e0))

    # Independent route: the commutator is rank-2, so its Hilbert-Schmidt norm
    # follows from <u|u> and <u|v> with u = H_f psi0, v = psi0.
    psi0 = make_initial(inst)
    u = apply_projector(inst, psi0)
    uu = float(np.real(np.vdot(u, u)))
    uv = complex(np.vdot(u, psi0))
    hs = math.sqrt(max(0.0, 2.0 * uu - 2.0 * float(np.real(uv * uv))))
    via_norm = optimal_duration(inst) * hs
    if abs(formula - via_norm) > 1e-10:
        raise NumericalDomain(
            f"geodesic-length routes disagree: {formula!r} vs {via_norm!r}"
        )
    return formula


def query_bound(epsilon: float, d_fs: float) -> int:
    """Sufficient Grover iterate count ceil(8 pi^2 / eps^2 / |pi/2 - d_fs|).

    Derived for an even iterate count; an odd target costs one extra query.
    Diverges as d_fs -> pi/2 (zero initial overlap), which is rejected.
    """
    pf_compiler.require_between("epsilon", epsilon, 0.0, 2.0)
    pf_compiler.require_between("d_fs", d_fs, 0.0, math.pi / 2, closed_lo=True)
    return int(math.ceil(QUERY_BOUND_CONSTANT / epsilon ** 2 / abs(math.pi / 2 - d_fs)))


def gci_error_bound(inst: SearchInstance, s: float) -> float:
    """Operator-norm bound s^{3/2} * 2 * sqrt(2 v0) on the 4-pulse error."""
    inst.require_nondegenerate()
    pf_compiler.require_duration(s)
    return float(s ** 1.5 * 2.0 * math.sqrt(2.0 * inst.v0))


def measured_gci_error(inst: SearchInstance, s: float) -> float:
    """Operator-norm error of the group-commutator pulse product.

    || D(sqrt s) U_f(sqrt s) D(-sqrt s) U_f(-sqrt s) - exp(s [H_f, psi0]) ||,
    computed by pf_compiler.formula_error on the invariant plane, so it holds
    the dense norm for every instance up to MAX_QUBITS.
    """
    inst.require_nondegenerate()
    pf_compiler.require_duration(s)
    return pf_compiler.formula_error(inst, pf_compiler.GroupCommutator(), s)


def operator_norm(op: np.ndarray) -> float:
    """Largest singular value of a finite, non-empty 2-D array, from its SVD."""
    op = np.asarray(op)
    if op.ndim != 2 or op.size == 0:
        raise DomainError(f"operator must be a non-empty 2-D array, got shape {op.shape}")
    if op.shape[0] > DENSE_MAX_DIM or op.shape[1] > DENSE_MAX_DIM:
        raise DimensionTooLarge(f"operator of shape {op.shape} exceeds dense limit")
    if not np.isfinite(op).all():
        raise NumericalDomain("operator has non-finite entries")
    return float(np.linalg.svd(op, compute_uv=False)[0])


def instance_fs_distance(inst: SearchInstance) -> float:
    """Distance between the initial and solution states, arccos(sqrt(e0))."""
    if inst.n_marked == 0 or inst.n_marked == inst.n_states:
        raise DegenerateInstance("need 1 <= M <= N-1")
    return fs_distance(make_initial(inst), make_solution(inst))
