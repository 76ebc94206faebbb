"""Choi-matrix construction and channel recovery.

Normalization convention, used everywhere: the Choi matrix is a state,
Omega = (1/3) sum_{i,k} E_{i,k} (x) Phi(E_{i,k}), trace one, ordering
input (x) output.  Channel recovery therefore multiplies by 3: the
superoperator is 3 times the reshuffled Choi matrix
(channels.superop_from_choi), and Phi(rho) is one matvec with it.

The two circuit experiments live here, each as its exact outcome table
(seed-free, readout error included, built once per configuration):
linear_tables tomographs the nine basis inputs prepared on the channel
circuit's system pair, direct_tables the 6-qubit direct Choi-state
circuit.  Both tables come from one builder, the only place an experiment
is routed onto a coupling map: it routes the channel circuit and the input
preparations with the same placement.  One estimator, estimate, samples
either stack with no noise argument of its own: one stream per estimate,
tables in input order, from SeedSequence(seed, spawn_key=(1,)); the whole
stack is inverted and projected as one, then post-selected onto its qubit
pairs in one encoding.postselect call, leakages kept.  choi_fidelity
scores in the eigenbasis of the theoretical side's projection
(tomography._uhlmann on its density_spectrum); analytic_fidelity does the
same against a named channel, whose spectrum is built once per name.
"""

from __future__ import annotations

import functools

import numpy as np

from . import linalg as la
from .channels import ChannelRep, choi_of, superop_from_choi
from .circuits import Circuit, NoiseConfig, check_seed, check_shots, sample_table
from .coupling import CouplingMap, route_circuit
from .decompositions import basis_density, prep_basis_circuit, prep_superposition_circuit
from .encoding import postselect
from .linalg import as_matrix
from .tomography import _uhlmann, measured_states, outcome_tables, reconstruct_state


def analytic_choi(channel: ChannelRep) -> np.ndarray:
    """Trace-one Choi matrix of a dimension-3 channel representation."""
    if channel.dim != 3:
        raise la.ShapeError("analytic_choi expects a qutrit channel")
    return choi_of(channel)


def named_choi(name: str) -> np.ndarray:
    """Analytic Choi matrix of the channel 'ls', 'wh' or 'id', fresh on
    each call."""
    return analytic_choi(ChannelRep.analytic(name))


@functools.cache
def _analytic_spectrum(name: str) -> tuple:
    """The analytic side of choi_fidelity(named_choi(name), .): the
    density_spectrum (p, v) of the analytic Choi matrix, built once per
    name, both arrays read-only."""
    spectrum = la.density_spectrum(named_choi(name))
    for a in spectrum:
        a.flags.writeable = False
    return spectrum


# Coefficient matrix expressing each |i><j| in terms of the nine physical
# input states R_k (three basis projectors, three (+) superposition
# projectors, three (+i) superposition projectors).  Row order: E_00, E_01,
# E_02, E_10, E_11, E_12, E_20, E_21, E_22.  Stored as data and re-derived
# from scratch by rederive_coefficients(); a mismatch fails the test suite.
_A = 0.5 * (1 + 1j)
_B = 0.5 * (1 - 1j)
COEFFICIENTS = np.array([
    [1, 0, 0, 0, 0, 0, 0, 0, 0],
    [-_A, -_A, 0, 1, 0, 0, 1j, 0, 0],
    [-_A, 0, -_A, 0, 1, 0, 0, 1j, 0],
    [-_B, -_B, 0, 1, 0, 0, -1j, 0, 0],
    [0, 1, 0, 0, 0, 0, 0, 0, 0],
    [0, -_A, -_A, 0, 0, 1, 0, 0, 1j],
    [-_B, 0, -_B, 0, 1, 0, 0, -1j, 0],
    [0, -_B, -_B, 0, 0, 1, 0, 0, -1j],
    [0, 0, 1, 0, 0, 0, 0, 0, 0],
], dtype=complex)


def physical_basis() -> tuple:
    """The nine rank-1 physical states R_1..R_9 (same as the prep inputs)."""
    return tuple(basis_density(i) for i in range(1, 10))


def rederive_coefficients() -> np.ndarray:
    """Solve the 9x9 linear system expressing each E_{i,j} in the R_k frame,
    independently of the stored table."""
    rs = physical_basis()
    b = np.column_stack([r.reshape(-1) for r in rs])
    out = np.zeros((9, 9), dtype=complex)
    for i in range(3):
        for j in range(3):
            e = np.zeros((3, 3), dtype=complex)
            e[i, j] = 1.0
            out[3 * i + j] = np.linalg.solve(b, e.reshape(-1))
    return out


def choi_linear(channel_on_basis) -> np.ndarray:
    """Assemble the Choi matrix from the channel's action on the nine
    physical basis states: Omega = (1/3) sum_ij E_ij (x) sum_k a_ij^k Phi(R_k),
    one contraction of COEFFICIENTS with the stack of the nine outputs."""
    if len(channel_on_basis) != 9:
        raise ValueError("choi_linear needs exactly nine output matrices")
    try:
        outs = np.asarray(channel_on_basis, dtype=complex)
    except ValueError as exc:  # members of different shapes, or not numbers
        raise la.ShapeError(f"each output must be a 3x3 matrix: {exc}") from exc
    if outs.shape != (9, 3, 3):
        raise la.ShapeError("each output must be 3x3")
    outs = la.as_stack(outs)
    if np.abs(outs.trace(axis1=1, axis2=2) - 1).max() > 1e-6:
        raise ValueError("outputs must have unit trace within 1e-6")
    return _assemble(outs)


def _assemble(outs: np.ndarray) -> np.ndarray:
    """choi_linear of a finite complex (9, 3, 3) stack of unit-trace
    outputs, unchecked: estimate's post-selected linear stack is one."""
    # row 3 i + j = sum_k a_ij^k Phi(R_k), the (i, j) block of 3 Omega: the
    # one np.dot that np.tensordot(COEFFICIENTS, outs, axes=1) builds
    blocks = np.dot(COEFFICIENTS, outs.reshape(9, 9))
    return blocks.reshape(3, 3, 3, 3).transpose(0, 2, 1, 3).reshape(9, 9) / 3.0


def channel_from_choi(omega: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Phi(rho) = 3 Tr_in((rho^T (x) I) Omega) for a trace-one Choi matrix,
    computed as the superoperator 3 reshuffle(Omega) applied to vec(rho)."""
    omega, rho = as_matrix(omega), as_matrix(rho)
    if omega.shape != (9, 9) or rho.shape != (3, 3):
        raise la.ShapeError("channel_from_choi expects 9x9 Choi and 3x3 state")
    return (superop_from_choi(omega) @ rho.reshape(9)).reshape(3, 3)


def choi_fidelity(th: np.ndarray, exp: np.ndarray) -> float:
    """Uhlmann fidelity between Choi states; both are projected to the
    nearest density matrix first (idempotent on valid states), th read in
    the eigenbasis of its projection (tomography._uhlmann)."""
    th, exp = as_matrix(th), as_matrix(exp)
    if th.shape != (9, 9) or exp.shape != (9, 9):
        raise la.ShapeError("choi_fidelity expects 9x9 matrices")
    return _uhlmann(*la._spectrum(th), la._rebuild(*la._spectrum(exp)))


def analytic_fidelity(name: str, omega: np.ndarray) -> float:
    """choi_fidelity(named_choi(name), omega), bit for bit, with the
    analytic side's density_spectrum built once per name."""
    omega = as_matrix(omega)
    if omega.shape != (9, 9):
        raise la.ShapeError("analytic_fidelity expects a 9x9 matrix")
    return _uhlmann(*_analytic_spectrum(name), la._rebuild(*la._spectrum(omega)))


def choi_direct_circuit(channel_circuit: Circuit) -> Circuit:
    """The 6-qubit direct Choi-state circuit.

    Wires: (0, 1) ancilla pair (kept as the input side), (2, 3) system pair,
    (4, 5) environment pair.  Prepares the uniform qutrit superposition on
    the system pair, copies it onto the ancilla pair in the computational
    basis (control = system, target = ancilla), then runs the channel
    circuit with its environment wires moved to (4, 5).
    """
    if channel_circuit.n_qubits != 4:
        raise ValueError("channel circuit must act on 4 qubits")
    c = Circuit(6)
    c.extend(prep_superposition_circuit().remapped([2, 3], 6).gates)
    c.add("cnot", (), (2, 0))
    c.add("cnot", (), (3, 1))
    # channel wires (e0, e1, s0, s1) -> physical (4, 5, 2, 3)
    c.extend(channel_circuit.remapped([4, 5, 2, 3], 6).gates)
    return c


def _experiment_tables(circuit: Circuit, preps, measure: tuple, noise: NoiseConfig,
                       layout: CouplingMap | None, placement) -> np.ndarray:
    """The exact outcome table of one experiment: each prep circuit of
    preps (None: none) on |0...0>, then circuit, read out on the logical
    wires measure.  The one place an experiment is routed: with a layout,
    circuit and every prep are routed with the same placement and the
    measured wires are the physical wires the placement gives them.  A
    placement needs a layout to place on."""
    if layout is not None:
        circuit = route_circuit(circuit, layout, placement)
        preps = [None if p is None else route_circuit(p, layout, placement) for p in preps]
        if placement is not None:
            measure = tuple(placement[q] for q in measure)
    elif placement is not None:
        raise ValueError("a placement needs a layout")
    return outcome_tables(measured_states(circuit, preps, noise, measure), noise)


def linear_tables(channel_circuit: Circuit, noise: NoiseConfig = NoiseConfig(),
                  layout: CouplingMap | None = None) -> np.ndarray:
    """The exact (9, 9, 4) outcome table of the linear Choi experiment
    (also behind apply --method circuit): input i is prep_basis_circuit(i)
    on the system pair (2, 3) of the channel circuit, read out on (2, 3);
    with a layout the preps are routed with the channel."""
    n = channel_circuit.n_qubits
    preps = [prep_basis_circuit(i).remapped([2, 3], n) for i in range(1, 10)]
    return _experiment_tables(channel_circuit, preps, (2, 3), noise, layout, None)


def direct_tables(channel_circuit: Circuit, noise: NoiseConfig = NoiseConfig(),
                  layout: CouplingMap | None = None, placement=None) -> np.ndarray:
    """The exact (1, 81, 16) outcome table of the direct Choi experiment:
    one run of choi_direct_circuit, read out on the (ancilla, system) wires
    0..3, which under a placement are the physical wires placement[0..3]."""
    return _experiment_tables(choi_direct_circuit(channel_circuit), [None], (0, 1, 2, 3),
                              noise, layout, placement)


def estimate(tables: np.ndarray, shots: int, seed):
    """(states, leakages) from an exact stack (B, 3^k, 2^k) of linear_tables
    or direct_tables, readout error included.

    One stream per estimate, tables in input order: sample_table of the
    stack on the generator of SeedSequence(seed, spawn_key=(1,)) (shots =
    0: the exact tables), inverted and projected as one, then post-selected
    onto the k/2 qubit pairs in one call: states is the fresh (B, 3^(k/2), 3^(k/2))
    stack, leakages the list of B Python floats.  Tables are read with
    np.asarray; anything that is not a 3-d stack, or tables of any k but 2
    or 4, raise ShapeError and a bad seed (check_seed) ValueError before
    anything is sampled; a table with a non-finite or negative entry, or a
    row of no weight, raises ValueError before any arithmetic
    (reconstruct_state); an input with no qutrit weight raises
    DegenerateProjectionError.
    """
    tables = np.asarray(tables)
    if tables.ndim != 3:
        raise la.ShapeError(f"estimate needs a stack of outcome tables, got shape {tables.shape}")
    k = tables.shape[-1].bit_length() - 1
    if k not in (2, 4):
        raise la.ShapeError(f"estimate needs a stack of 2- or 4-qubit outcome tables, got "
                            f"shape {tables.shape} ({k} qubits)")
    rng = np.random.default_rng(np.random.SeedSequence(check_seed(seed), spawn_key=(1,)))
    return postselect(reconstruct_state(sample_table(tables, shots, rng)), k // 2)


def choi_direct(channel_circuit: Circuit, shots: int, seed: int,
                noise: NoiseConfig = NoiseConfig()) -> np.ndarray:
    """Direct Choi-state estimate: build the 6-qubit circuit, tomograph the
    (ancilla, system) register over 81 settings, post-select both qutrit
    factors, and return the 9x9 estimate (input (x) output ordering):
    direct_tables, estimate, then project_to_density.  Shots and seed are
    checked before anything is simulated."""
    check_shots(shots)
    check_seed(seed)
    states, _ = estimate(direct_tables(channel_circuit, noise), shots, seed)
    return la._rebuild(*la._spectrum(states[0]))


# --- Choi JSON ---------------------------------------------------------------


def choi_to_json(omega: np.ndarray) -> dict:
    obj = la.matrix_to_json(omega)
    obj["ordering"] = "input_output"
    obj["normalization"] = "trace_one"
    return obj


def choi_from_json(obj) -> np.ndarray:
    """The matrix of a choi_to_json object: anything but an object holding
    a 9x9 state (PSD within 1e-8) in input_output order is a ValueError."""
    if not isinstance(obj, dict):
        raise ValueError(f"Choi JSON must be an object, not {type(obj).__name__}")
    if obj.get("ordering", "input_output") != "input_output":
        raise ValueError("unsupported Choi ordering")
    omega = la.matrix_from_json(obj)
    if omega.shape != (9, 9):
        raise la.ShapeError(f"Choi matrix has shape {omega.shape}, not (9, 9)")
    # a state's entries lie in the unit disk: beyond 2 the trace and the
    # eigensolve of the check could overflow
    if np.abs(omega.view(float)).max() > 2 or not la.is_density_matrix(omega, 1e-8):
        raise ValueError("Choi matrix is not a state (trace one, Hermitian, PSD within 1e-8)")
    return omega
