"""Search instances and state representations.

A search instance over n qubits marks a subset of the N = 2^n computational
basis states.  Two orthonormal vectors organize everything downstream:

* the uniform superposition ``psi0`` with amplitudes 1/sqrt(N), and
* ``psi0_perp = (H_f - e0 I) psi0 / sqrt(v0)``,

where ``H_f`` is the projector onto the marked subspace, ``e0 = M/N`` and
``v0 = e0 (1 - e0)``.  All dynamics of interest stay inside span{psi0,
psi0_perp}, so states admit an exact 2-component reduction.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInstance, DimensionTooLarge, EmptyMarkedSet

MAX_QUBITS = 14
DENSE_MAX_DIM = 4096


@dataclass(frozen=True)
class SearchInstance:
    """Problem definition: qubit count plus the sorted marked index set."""

    n_qubits: int
    marked: tuple[int, ...]

    def __post_init__(self):
        # numpy integers count as integers; bools and floats do not
        if any(isinstance(i, bool) or not isinstance(i, numbers.Integral)
               for i in (self.n_qubits, *self.marked)):
            raise ValueError("n_qubits and the marked indices must be integers, "
                             f"got {self.n_qubits!r} and {self.marked!r}")
        if not 1 <= self.n_qubits <= MAX_QUBITS:
            raise ValueError(f"n_qubits must be in 1..{MAX_QUBITS}, got {self.n_qubits}")
        marked = tuple(sorted(set(int(i) for i in self.marked)))
        n = 1 << self.n_qubits
        if marked and not (0 <= marked[0] and marked[-1] < n):
            raise ValueError(f"marked indices must lie in [0, {n})")
        object.__setattr__(self, "marked", marked)

    @property
    def n_states(self) -> int:
        return 1 << self.n_qubits

    @property
    def n_marked(self) -> int:
        return len(self.marked)

    @property
    def e0(self) -> float:
        """Initial overlap M/N with the marked subspace."""
        return self.n_marked / self.n_states

    @property
    def v0(self) -> float:
        """Initial variance e0 (1 - e0); the squared rotation rate of the flow."""
        return self.e0 * (1.0 - self.e0)

    def require_nondegenerate(self):
        if not 1 <= self.n_marked <= self.n_states - 1:
            raise DegenerateInstance(
                f"need 1 <= M <= N-1, got M={self.n_marked}, N={self.n_states}"
            )

    def require_dense(self):
        if self.n_states > DENSE_MAX_DIM:
            raise DimensionTooLarge(f"N={self.n_states} exceeds dense limit {DENSE_MAX_DIM}")


@dataclass(frozen=True)
class ReducedState:
    """Coordinates in the ordered basis {psi0, psi0_perp}."""

    c0: complex
    c1: complex

    def to_array(self) -> np.ndarray:
        return np.array([self.c0, self.c1], dtype=complex)

    @classmethod
    def from_array(cls, v) -> "ReducedState":
        v = np.asarray(v, dtype=complex)
        return cls(complex(v[0]), complex(v[1]))

    @property
    def norm(self) -> float:
        return float(np.sqrt(abs(self.c0) ** 2 + abs(self.c1) ** 2))


def make_initial(inst: SearchInstance) -> np.ndarray:
    """Uniform superposition with amplitude 1/sqrt(N) on every basis state."""
    n = inst.n_states
    return np.full(n, 1.0 / np.sqrt(n), dtype=complex)


def make_solution(inst: SearchInstance) -> np.ndarray:
    """Uniform superposition over the marked set only."""
    if inst.n_marked == 0:
        raise EmptyMarkedSet("no marked items")
    v = np.zeros(inst.n_states, dtype=complex)
    v[list(inst.marked)] = 1.0 / np.sqrt(inst.n_marked)
    return v


def make_perp(inst: SearchInstance) -> np.ndarray:
    """Unit vector orthogonal to psi0 inside span{psi0, solution}.

    Computed as (H_f - e0 I) psi0 / sqrt(v0).
    """
    inst.require_nondegenerate()
    psi0 = make_initial(inst)
    v = apply_projector(inst, psi0) - inst.e0 * psi0
    return v / np.sqrt(inst.v0)


def apply_projector(inst: SearchInstance, state: np.ndarray) -> np.ndarray:
    """Project onto the marked subspace.  Result is deliberately unnormalized."""
    out = np.zeros_like(np.asarray(state, dtype=complex))
    idx = list(inst.marked)
    out[idx] = np.asarray(state)[idx]
    return out


def reduce_state(inst: SearchInstance, state: np.ndarray):
    """Coordinates of ``state`` in {psi0, psi0_perp} plus the out-of-plane residual.

    ``embed_state`` reproduces the input whenever the residual is ~0.
    """
    inst.require_nondegenerate()
    psi0 = make_initial(inst)
    perp = make_perp(inst)
    state = np.asarray(state, dtype=complex)
    c0 = np.vdot(psi0, state)
    c1 = np.vdot(perp, state)
    residual = float(np.linalg.norm(state - c0 * psi0 - c1 * perp))
    return ReducedState(complex(c0), complex(c1)), residual


def embed_state(inst: SearchInstance, reduced: ReducedState) -> np.ndarray:
    inst.require_nondegenerate()
    return reduced.c0 * make_initial(inst) + reduced.c1 * make_perp(inst)


# ---------------------------------------------------------------------------
# Dense operators, for operator-norm measurements at desk scale.

def projector_matrix(inst: SearchInstance) -> np.ndarray:
    """H_f as a dense N x N matrix."""
    inst.require_dense()
    h = np.zeros((inst.n_states, inst.n_states), dtype=complex)
    for i in inst.marked:
        h[i, i] = 1.0
    return h


def initial_projector_matrix(inst: SearchInstance) -> np.ndarray:
    """|psi0><psi0| as a dense matrix."""
    inst.require_dense()
    psi0 = make_initial(inst)
    return np.outer(psi0, psi0.conj())


def oracle_matrix(inst: SearchInstance, beta: float) -> np.ndarray:
    """exp(i beta H_f) = I + (e^{i beta} - 1) H_f, dense."""
    inst.require_dense()
    u = np.eye(inst.n_states, dtype=complex)
    phase = np.exp(1j * beta)
    for i in inst.marked:
        u[i, i] = phase
    return u


def diffusion_matrix(inst: SearchInstance, alpha: float) -> np.ndarray:
    """exp(i alpha |psi0><psi0|) = I + (e^{i alpha} - 1) |psi0><psi0|, dense."""
    inst.require_dense()
    return np.eye(inst.n_states, dtype=complex) + (
        np.exp(1j * alpha) - 1.0
    ) * initial_projector_matrix(inst)
