"""Concrete circuit constructions: the quasi-Toffoli, the encoded covariance
unitary, the line-permutation circuits, the channel circuits, and state
preparation.

Register layout for the 4-qubit channel circuits (fixed package-wide):
wires (0, 1) are the environment pair (most significant), wires (2, 3) the
system pair, so a basis index reads 4 * env + sys in qutrit values.

The channel construction: a one-qubit layer T = F (x) I (x) sx (x) R is
applied first, then the inverse of a signed-permutation circuit S built from
quasi-Toffoli and CNOT gates.  S was derived offline by bidirectional search
(see demos/derive_permutation_circuits.py, which re-derives and re-verifies
the frozen gate lists) so that S^-1 T, restricted to environment-in |00>,
carries exactly the antisymmetric Kraus triple of the transpose-depolarizer
up to a fixed relabeling of the environment pair -- which the traced-out
channel cannot see.  Four configurations are provided; all induce the
identical qutrit channel.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .circuits import Circuit, Gate, simulate_state, wire_index

_S2 = math.sqrt(2.0)
_I2 = np.eye(2, dtype=complex)
_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_H = np.array([[1, 1], [1, -1]], dtype=complex) / _S2
_G1 = np.array([[1, 1], [-1, 1]], dtype=complex) / _S2      # ry(-pi/2)
_R_PLUS = np.array([[0, -1], [1, 0]], dtype=complex)        # ry(pi)
_R_MINUS = np.array([[0, 1], [-1, 0]], dtype=complex)       # ry(-pi)


# --- quasi-Toffoli -----------------------------------------------------------

def quasi_toffoli_matrix() -> np.ndarray:
    """8x8: identity except entry (4,4) = -1 and basis states 6, 7 swapped.

    Equals a Toffoli (controls 0, 1; target 2) times a -1 phase on |100>;
    the phase is invisible to any use where qubit patterns |10x> never carry
    coherent weight, which is what makes the cheaper realization acceptable.
    """
    m = np.eye(8, dtype=complex)
    m[4, 4] = -1.0
    m[6, 6] = m[7, 7] = 0.0
    m[6, 7] = m[7, 6] = 1.0
    return m


def quasi_toffoli_gates(c1: int, c2: int, t: int, variant: str = "a") -> list:
    """Gate list realizing quasi_toffoli_matrix on wires (c1, c2, t).

    The -1 phase sits at (c1, c2, t) = (1, 0, 0).  Three CNOTs and four ry
    rotations; two CNOTs are provably insufficient for this matrix (each of
    the two possible CNOT placements forces a product-operator contradiction),
    so three is minimal.  Both variants, "a" and "b", produce identical
    matrices; any other variant raises ValueError.
    """
    if variant not in ("a", "b"):
        raise ValueError(f"variant must be 'a' or 'b', got {variant!r}")
    a = math.pi / 4 if variant == "a" else -3 * math.pi / 4
    ry = lambda ang: ("u3", (ang, 0.0, 0.0), (t,))
    return [Gate(*g) for g in (
        ry(-a), ("cnot", (), (c2, t)), ry(-a),
        ("cnot", (), (c1, t)),
        ry(a), ("cnot", (), (c2, t)), ry(a),
    )]


def quasi_toffoli_circuit(variant: str = "a") -> Circuit:
    """3-qubit circuit equal to quasi_toffoli_matrix (controls 0, 1; target 2)."""
    return Circuit(3, quasi_toffoli_gates(0, 1, 2, variant))


# --- encoded covariance unitary ----------------------------------------------

def w_tilde_matrix(phi: float) -> np.ndarray:
    """Two-qubit lift of the covariance unitary W; free phase on |11>."""
    return np.array(
        [[0, 0, 1, 0],
         [0, -1, 0, 0],
         [1, 0, 0, 0],
         [0, 0, 0, np.exp(1j * phi)]], dtype=complex)


def w_tilde_circuit() -> Circuit:
    """Exactly w_tilde_matrix(pi) with a single CNOT:
    z_1 x_1 cnot(1,0) x_1 = i (y_1 cnot(1,0) x_1)."""
    return Circuit(2, [
        ("x", (), (1,)),
        ("cnot", (), (1, 0)),
        ("x", (), (1,)),
        ("z", (), (1,)),
    ])


# --- line-permutation circuits -----------------------------------------------

@dataclass(frozen=True)
class SConfig:
    k: int = 4

    def __post_init__(self):
        if wire_index(self.k, "configuration index k") not in (1, 2, 3, 4):
            raise ValueError("configuration index must be 1..4")


# frozen search results: ('cx', control, target) and ('qt', c1, c2, target);
# every entry is an involution, so the inverse circuit is the reversed list
_S_GATES = {
    1: [("cx", 0, 3), ("qt", 2, 3, 0), ("qt", 0, 1, 2), ("qt", 2, 0, 1), ("qt", 0, 2, 3)],
    2: [("qt", 2, 1, 0), ("qt", 0, 1, 2), ("cx", 1, 3), ("qt", 2, 3, 1), ("cx", 0, 2)],
    3: [("qt", 3, 1, 0), ("qt", 0, 1, 3), ("cx", 1, 2), ("qt", 2, 3, 1), ("cx", 0, 3)],
    4: [("cx", 0, 3), ("qt", 2, 3, 0), ("cx", 1, 2), ("qt", 2, 0, 3), ("qt", 0, 2, 1)],
}

# the four factorized one-qubit layers; configurations 1/2 and 3/4 share a form
_S_FACTORS = {
    1: (_G1, _I2, _SX, _R_MINUS),
    2: (_G1, _I2, _SX, _R_MINUS),
    3: (_H, _I2, _SX, _R_PLUS),
    4: (_H, _I2, _SX, _R_PLUS),
}


def _abstract_to_gates(entries) -> list:
    out = []
    for e in entries:
        if e[0] == "cx":
            out.append(Gate("cnot", (), (e[1], e[2])))
        else:
            out.extend(quasi_toffoli_gates(e[1], e[2], e[3]))
    return out


def s_permutation_circuit(cfg: SConfig = SConfig(4)) -> Circuit:
    """The signed-permutation circuit S for a configuration, built from
    quasi-Toffoli blocks and CNOTs on the 4-qubit register."""
    return Circuit(4, _abstract_to_gates(_S_GATES[cfg.k]))


def s_config_unitary(cfg: SConfig) -> np.ndarray:
    """The factorized 16x16 one-qubit-gate tensor product S_k applied to the
    embedded channel unitary collapses to (first factor on the top
    environment wire, identity, sx, and a +/- ry(pi) rotation)."""
    return functools.reduce(np.kron, _S_FACTORS[cfg.k])


def _one_qubit_layer_gates(cfg: SConfig) -> list:
    first = (Gate("u3", (-math.pi / 2, 0.0, 0.0), (0,)) if _S_FACTORS[cfg.k][0] is _G1
             else Gate("h", (), (0,)))
    theta3 = math.pi if _S_FACTORS[cfg.k][3] is _R_PLUS else -math.pi
    return [first, Gate("x", (), (2,)), Gate("u3", (theta3, 0.0, 0.0), (3,))]


def wh_channel_circuit(cfg: SConfig = SConfig(4)) -> Circuit:
    """4-qubit circuit whose induced qutrit channel (environment pair |00>,
    trace out wires 0-1, post-select wires 2-3) is the transpose-depolarizer.

    The circuit is the one-qubit layer followed by the inverse permutation
    circuit.  Of its 16x16 unitary (unitary_of), the environment-in |00>
    columns carry the channel's Kraus operators; the rest are the unitary
    completion the circuit happens to define.  coupling.route_circuit
    legalizes it on a coupling map.
    """
    gates = _one_qubit_layer_gates(cfg)
    gates += _abstract_to_gates(list(reversed(_S_GATES[cfg.k])))
    return Circuit(4, gates)


def ls_channel_circuit(cfg: SConfig = SConfig(4)) -> Circuit:
    """Spin-1 channel circuit: the encoded covariance unitary on the system
    pair, then the transpose-depolarizer circuit."""
    gates = list(w_tilde_circuit().remapped([2, 3], 4).gates)
    gates += wh_channel_circuit(cfg).gates
    return Circuit(4, gates)


# --- state preparation ---------------------------------------------------------

_PREP_GATES = {
    1: [],
    2: [("x", (), (1,))],
    3: [("x", (), (0,))],
    4: [("h", (), (1,))],
    5: [("h", (), (0,))],
    6: [("h", (), (0,)), ("cnot", (), (0, 1)), ("x", (), (1,))],
    7: [("h", (), (1,)), ("u1", (math.pi / 2,), (1,))],
    8: [("h", (), (0,)), ("u1", (math.pi / 2,), (0,))],
    9: [("h", (), (0,)), ("u1", (math.pi / 2,), (0,)),
        ("cnot", (), (0, 1)), ("x", (), (1,))],
}


def prep_basis_circuit(i: int) -> Circuit:
    """2-qubit circuit preparing the i-th rank-1 input state from |00>,
    i = 1..9: three basis kets, three (+) superpositions, three (+i)
    superpositions, in the fixed pair order (0,1), (0,2), (1,2)."""
    if (i := wire_index(i, "state index i")) not in _PREP_GATES:
        raise ValueError("state index must be 1..9")
    return Circuit(2, list(_PREP_GATES[i]))


@functools.cache
def _basis_states() -> np.ndarray:
    """The 3x3 densities (9, 3, 3) of the nine prep circuits' outputs,
    simulated once and read-only."""
    psi0 = np.zeros(4, dtype=complex)
    psi0[0] = 1.0
    vecs = [simulate_state(prep_basis_circuit(i), psi0) for i in range(1, 10)]
    dens = np.stack([np.outer(v[:3], v[:3].conj()) for v in vecs])
    dens.flags.writeable = False
    return dens


def basis_density(i: int) -> np.ndarray:
    """The 3x3 density matrix rho_i of the i-th input state (a copy)."""
    if (i := wire_index(i, "state index i")) not in _PREP_GATES:
        raise ValueError("state index must be 1..9")
    return _basis_states()[i - 1].copy()


SUPERPOSITION_THETA = 2.0 * math.acos(1.0 / math.sqrt(3.0))  # ~1.9106 rad


def prep_superposition_circuit() -> Circuit:
    """Prepare (|00> + |01> + |10>)/sqrt(3) from |00>: an ry by
    2 arccos(1/sqrt 3) on qubit 0, a controlled-H onto qubit 1, and a final
    x on qubit 0."""
    t = SUPERPOSITION_THETA
    gates = [
        ("u3", (t, 0.0, 0.0), (0,)),
        # controlled-H = (I x ry(pi/4)) CZ (I x ry(-pi/4)), CZ via H-CNOT-H
        ("u3", (-math.pi / 4, 0.0, 0.0), (1,)),
        ("h", (), (1,)),
        ("cnot", (), (0, 1)),
        ("h", (), (1,)),
        ("u3", (math.pi / 4, 0.0, 0.0), (1,)),
        ("x", (), (0,)),
    ]
    return Circuit(2, gates)
