"""Shot-based measurement settings, state reconstruction, and fidelity.

A measurement of k qubits is one (3^k, 2^k) outcome table: one row per
setting, settings_for order, with per-qubit bases Z, X, Y and pre-rotations
Z: none, X: h, Y: u1(-pi/2) then h.  Every pre-rotation gate is a one-qubit gate and
gate noise acts only on the qubits a gate touches, so a setting's noisy
pre-rotation is a tensor product of three possible one-qubit channels.
Tomography has two stages.  ``outcome_tables`` reads all 3^k exact
distributions off the measured reduced states of a stack of inputs with
one per-qubit contraction, then applies readout error to the whole stack
once; it depends only on the circuit and the noise.  ``sample_tables``
then draws each table of the stack from its own generator, seeded by
SeedSequence, so distinct seeds or spawn keys draw independent streams
(circuits.sample_table: one multinomial per setting, no noise of its
own).  ``collect`` runs both stages on one circuit started from |0...0>;
the Choi experiments (choi.linear_tables, choi.direct_tables) run them
over a stack of prepared inputs.

Reconstruction is Pauli-basis linear inversion, itself a per-qubit
contraction, followed by projection onto the nearest density matrix
(eigenvalue simplex projection); a stack of tables is inverted and
projected as one.

``fidelity`` is Uhlmann's, (Tr sqrt(sqrt(s1) s2 sqrt(s1)))^2, through the PSD
root of s1.  ``channel_fidelity_sweep`` scores a projected stack in the
eigenbasis its projection already has (linalg.density_spectrum), so it
needs one eigendecomposition of each projected output, not two.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import linalg as la
from .circuits import (Circuit, Gate, NoiseConfig, _rng, apply_readout, check_dense_register,
                       check_shots, gate_superops, normalize_probabilities, sample_table,
                       simulate_density, simulate_state)
from .encoding import project_qutrit

BASES = ("Z", "X", "Y")

# _ESTIMATOR[2 s + o] = (I/3 + (-1)^o sigma_s) / 2, flattened row-major
_SIGMA = np.array([[[1, 0], [0, -1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]]])
_ESTIMATOR = np.array([(np.eye(2) / 3 + (-1) ** o * sig) / 2
                       for sig in _SIGMA for o in (0, 1)]).reshape(6, 4)


def settings_for(n_qubits: int) -> list:
    """All 3^n measurement settings, e.g. ['ZZ', 'ZX', 'ZY', 'XZ', ...]."""
    return ["".join(s) for s in itertools.product(BASES, repeat=n_qubits)]


def prerotation_gates(setting: str) -> list:
    """Gates mapping each qubit's measured Pauli eigenbasis to the
    computational basis."""
    gates = []
    for q, b in enumerate(setting):
        if b == "X":
            gates.append(("h", (), (q,)))
        elif b == "Y":
            gates.append(("u1", (-math.pi / 2,), (q,)))
            gates.append(("h", (), (q,)))
        elif b != "Z":
            raise ValueError(f"unknown basis {b!r}")
    return gates


@dataclass(frozen=True)
class TomographyRecord:
    """The sampled outcome table of one collect run.

    table[r] is the outcome row of settings_for(k)[r] over the 2^k
    bitstrings (qubit 0 the most significant bit): int counts summing to
    shots, or at shots = 0 float probabilities.  It was drawn from the one
    generator of SeedSequence(seed, spawn_key=spawn_key).
    """
    table: np.ndarray
    shots: int
    seed: int
    spawn_key: tuple = ()

    @property
    def settings(self) -> list:
        return settings_for(self.table.shape[-1].bit_length() - 1)


def _per_qubit(t: np.ndarray, k: int, m: np.ndarray, out: tuple) -> np.ndarray:
    """Apply one linear map to every qubit's axis pair of a k-qubit tensor,
    or of each tensor of a stack.

    t has axes (batch.., x_0..x_{k-1}, y_0..y_{k-1}); m maps a flattened
    (x_q, y_q) pair to a flattened pair of shape ``out``.  Returns axes
    (batch.., u_0..u_{k-1}, v_0..v_{k-1}) with (u_q, v_q) of shape ``out``.
    """
    nb = t.ndim - 2 * k
    batch, lead = t.shape[:nb], list(range(nb))
    pairs = [nb + a for q in range(k) for a in (q, k + q)]
    t = t.transpose(lead + pairs).reshape(batch + (m.shape[0],) * k)
    for _ in range(k):
        # contract the leading qubit, append its image at the end
        t = np.tensordot(t, m, axes=([nb], [0]))
    return t.reshape(batch + out * k).transpose(
        lead + [nb + a for a in range(0, 2 * k, 2)] + [nb + a for a in range(1, 2 * k, 2)])


def _effect_tensor(noise: NoiseConfig) -> np.ndarray:
    """E[b, o, i, j] = <o| L_b(|i><j|) |o>, where L_b is the (noisy) one-qubit
    pre-rotation of basis BASES[b].

    L_b is the product of its gates' 4x4 superoperators (gate_superops, the
    per-gate channels of simulate_density) on the row-major (row, col) pair.
    """
    e = np.empty((3, 2, 2, 2), dtype=complex)
    for b, basis in enumerate(BASES):
        gates = [Gate(*g) for g in prerotation_gates(basis)]
        ell = np.eye(4, dtype=complex)
        for superop in gate_superops(gates, noise):
            ell = np.dot(superop, ell)
        e[b] = np.einsum("ooij->oij", ell.reshape(2, 2, 2, 2))
    return e


def _reduced_states(psi: np.ndarray, measure: tuple) -> np.ndarray:
    """Reduced density matrices of the measured qubits of a stack of states
    (B, 2^n), without a 2^n x 2^n matrix: the outer products of the measured
    amplitudes, one per setting of the unmeasured qubits, summed over those
    settings in the order partial_trace uses (last qubit first).  Equal bit
    for bit to partial_trace of the full density."""
    n = int(round(math.log2(psi.shape[-1])))
    traced = [q for q in range(n) if q not in measure]
    amps = psi.reshape((-1,) + (2,) * n).transpose(
        [0] + [1 + q for q in traced] + [1 + q for q in measure])
    amps = amps.reshape(amps.shape[:1 + len(traced)] + (2 ** len(measure),))
    t = amps[..., :, None] * amps.conj()[..., None, :]
    for _ in traced:
        t = t[..., 0, :, :] + t[..., 1, :, :]
    return t


def measured_states(c: Circuit, preps, noise: NoiseConfig = NoiseConfig(),
                    measure_qubits=None) -> np.ndarray:
    """Reduced density matrices (B, 2^k, 2^k) of the measured qubits after
    one run of c over a stack of B inputs.

    Input b is |0...0> on c's register run through the prep circuit
    preps[b] (None: no prep), with the same noise as c.  Without any noise
    the stack runs as state vectors and the reduced states are read
    straight from the amplitudes; with any noise, readout flips alone
    included, it runs as densities.  A register above
    circuits.MAX_DENSE_QUBITS raises ResourceError on both paths, and
    measure_qubits (default: every qubit) that are not non-empty, distinct
    wires of the register raise ValueError, before anything is allocated.
    """
    n = c.n_qubits
    check_dense_register(n)
    measure = tuple(measure_qubits) if measure_qubits is not None else tuple(range(n))
    if not measure or len(set(measure)) != len(measure) or not all(0 <= q < n for q in measure):
        raise ValueError(f"measure_qubits {measure} must be non-empty, distinct wires of the "
                         f"{n}-qubit register")
    zero = np.zeros(2 ** n, dtype=complex)
    zero[0] = 1.0
    if noise.is_zero():
        inputs = [zero if p is None else simulate_state(p, zero) for p in preps]
        return _reduced_states(simulate_state(c, np.stack(inputs)), measure)
    rho0 = np.outer(zero, zero)
    inputs = [rho0 if p is None else simulate_density(p, rho0, noise) for p in preps]
    return la.partial_trace(simulate_density(c, np.stack(inputs), noise), [2] * n, measure)


def outcome_tables(rho_meas: np.ndarray, noise: NoiseConfig = NoiseConfig()) -> np.ndarray:
    """The exact, read-only (B, 3^k, 2^k) table of outcome distributions of
    every setting, settings_for order, for each reduced state of the stack
    (B, 2^k, 2^k), readout error included.

    It comes from contracting the reduced states, one qubit at a time, with
    the effect tensor of the three noisy one-qubit pre-rotations.  This is
    exact, not an approximation: every pre-rotation gate is a one-qubit gate
    and NoiseConfig acts only on the qubits a gate touches, so each
    setting's noisy pre-rotation is a tensor product of one-qubit channels.
    Each row is clipped and normalized like born_probabilities, then the
    whole stack goes through apply_readout once.  The table depends on the
    circuit and the noise only, never on a seed, so a caller may build it
    once and sample it many times (sample_tables).
    """
    k = int(round(math.log2(rho_meas.shape[-1])))
    effect = _effect_tensor(noise).reshape(6, 4).T       # (i, j) -> (b, o)
    t = _per_qubit(rho_meas.reshape((-1,) + (2,) * (2 * k)), k, effect, (3, 2))
    tables = apply_readout(normalize_probabilities(t.real.reshape(-1, 3 ** k, 2 ** k)),
                           noise.readout_flip)
    tables.flags.writeable = False
    return tables


def sample_tables(tables: np.ndarray, shots: int, rngs) -> np.ndarray:
    """The stack (B, 3^k, 2^k) of sampled tables of the stack of
    outcome_tables: table b sampled by sample_table from generator rngs[b]
    (at shots = 0 a copy of the exact table).  One generator per table, else
    ValueError."""
    return np.stack([sample_table(t, shots, rng) for t, rng in zip(tables, rngs, strict=True)])


def collect(c: Circuit, shots: int, seed, noise: NoiseConfig = NoiseConfig(),
            measure_qubits=None) -> TomographyRecord:
    """Run the circuit once on |0...0> and sample every measurement setting
    of the measured qubits: measured_states, outcome_tables, sample_table.

    shots = 0 is exact mode: the outcome distributions, with gate noise,
    noisy pre-rotations and readout error, are stored in place of sampled
    counts, the infinite-shot limit of a sampled table.

    The whole (3^k, 2^k) table is drawn from one generator seeded by seed
    (a non-negative int or a SeedSequence), settings in settings_for
    order, so distinct seeds give independent tables.  Shots and seed are
    checked before anything is simulated.
    """
    check_shots(shots)
    rng = _rng(seed)
    tables = outcome_tables(measured_states(c, [None], noise, measure_qubits), noise)
    seq = rng.bit_generator.seed_seq
    return TomographyRecord(sample_table(tables[0], shots, rng), shots, seq.entropy,
                            seq.spawn_key)


def _linear_inversion(tables) -> np.ndarray:
    """Averaged Pauli expectation values assembled into a matrix estimate,
    for one outcome table (3^n, 2^n) in settings_for order, or a stack
    (B, 2^n, 2^n) for a stack of tables (B, 3^n, 2^n).

    Averaging each Pauli string's expectation over every setting that
    measures it factorizes per qubit: outcome o of basis s contributes
    R[s, o] = (I/3 + (-1)^o sigma_s) / 2 on that qubit.  The whole stack is
    one per-qubit contraction over the normalized tables.
    """
    t = np.asarray(tables, dtype=float)
    n = t.shape[-1].bit_length() - 1 if t.ndim in (2, 3) else 0
    if n < 1 or t.shape[-2:] != (3 ** n, 2 ** n) or not len(t):
        raise ValueError("one (3^n, 2^n) outcome table or a stack of them required")
    t = t / t.sum(axis=-1, keepdims=True)
    rho = _per_qubit(t.reshape((-1,) + (3,) * n + (2,) * n), n, _ESTIMATOR, (2, 2))
    rho = rho.reshape(-1, 2 ** n, 2 ** n)
    return rho[0] if t.ndim == 2 else rho


def reconstruct_state(tables) -> np.ndarray:
    """Linear inversion then nearest-density projection; always a valid
    state.  A stack of tables gives the stack (B, 2^n, 2^n), inverted and
    projected as one."""
    return la.project_to_density(_linear_inversion(tables))


def reconstruct_qutrit(table: np.ndarray):
    """(rho3, leakage) from a two-qubit outcome table via qutrit post-selection."""
    return project_qutrit(reconstruct_state(table))


def _fidelity_root(s1: np.ndarray) -> np.ndarray:
    """sqrt(s1) as fidelity takes it: the PSD root of s1's Hermitian part."""
    return la.sqrtm_psd((s1 + la.dagger(s1)) / 2, atol=1e-7)


def _uhlmann_from_eigvals(w: np.ndarray):
    """(sum sqrt(w))^2 clamped to [0, 1], from the ascending eigenvalues w
    (..., d) of sqrt(s1) s2 sqrt(s1) or of any matrix similar to it."""
    w = np.clip(w, 0.0, None)
    # zero out eigenvalue dust: sqrt turns O(eps) noise into O(sqrt(eps))
    w[w < w[..., -1:] * 1e-13] = 0.0
    val = np.clip(np.sum(np.sqrt(w), axis=-1) ** 2, 0.0, 1.0)
    return float(val) if val.ndim == 0 else val


def _uhlmann(r: np.ndarray, s2: np.ndarray):
    """The tail of fidelity, given r = _fidelity_root(s1): a caller with a
    fixed s1 builds r once (choi.analytic_fidelity)."""
    return _uhlmann_from_eigvals(np.linalg.eigvalsh(r @ s2 @ r))  # ascending


def fidelity(s1: np.ndarray, s2: np.ndarray):
    """Uhlmann fidelity (Tr sqrt(sqrt(s1) s2 sqrt(s1)))^2, clamped to [0, 1].

    A float for two matrices; for two stacks (..., d, d) of equal shape, the
    array (...) of fidelities of matching matrices.
    """
    s1, s2 = la.as_stack(s1), la.as_stack(s2)
    if s1.shape != s2.shape or s1.shape[-2] != s1.shape[-1]:
        raise la.ShapeError("fidelity needs equal-dimension square matrices")
    return _uhlmann(_fidelity_root(s1), s2)


# Largest lambda grid of channel_fidelity_sweep, a memory budget: the sweep
# holds about 1 KiB of 3x3 stacks per grid point, so 2^16 points take about
# 64 MiB.
MAX_SWEEP_GRID = 2 ** 16


def channel_fidelity_sweep(omega: np.ndarray, reference, a: int, b: int,
                           grid: int = 101):
    """Fidelity statistics of a reconstructed channel along the segment
    lam * rho_a + (1 - lam) * rho_b, lam on a uniform grid over [0, 1].

    ``reference`` is the exact channel, a callable rho -> rho that must be
    linear: it is evaluated (and validates its input) at the two endpoints
    only.  Both channels are linear, so every output along the segment is
    the same affine combination of the two endpoint outputs, and the whole
    grid is scored as one stack.  Returns (min, max, mean) of
    fidelity(project_to_density(channel_from_choi(omega, rho)), reference(rho)).

    The fidelity is read in the eigenbasis the projection already has: with
    (p, v) = density_spectrum(got), sqrt(got) = v diag(sqrt(p)) v+, so
    sqrt(got) want sqrt(got) = v M v+ with M = diag(sqrt(p)) v+ want v
    diag(sqrt(p)), which has the same eigenvalues.  p >= 0 by construction,
    so no PSD check is needed.  As in fidelity, a non-finite reference
    output raises ValueError and one not of the Choi output's shape
    ShapeError; both endpoint outputs are checked before the grid is built.
    """
    from .choi import channel_from_choi
    from .decompositions import basis_density

    if not 2 <= grid <= MAX_SWEEP_GRID:
        raise ValueError(f"grid must be in [2, {MAX_SWEEP_GRID}]")
    rho_a, rho_b = basis_density(a), basis_density(b)
    got_a, got_b = channel_from_choi(omega, rho_a), channel_from_choi(omega, rho_b)
    # atleast_2d: a scalar or vector output's ShapeError names it as one row
    want_a, want_b = (la.as_stack(np.atleast_2d(reference(rho))) for rho in (rho_a, rho_b))
    for want in (want_a, want_b):
        if want.shape != got_a.shape:
            raise la.ShapeError(f"reference output has shape {want.shape}, "
                                f"not {got_a.shape}")
    lam = np.linspace(0.0, 1.0, grid)[:, None, None]
    p, v = la.density_spectrum(lam * got_a + (1 - lam) * got_b)
    want = lam * want_a + (1 - lam) * want_b
    root = np.sqrt(p)
    m = root[..., :, None] * (la.dagger(v) @ want @ v) * root[..., None, :]
    vals = _uhlmann_from_eigvals(np.linalg.eigvalsh(m))
    return float(np.min(vals)), float(np.max(vals)), float(np.mean(vals))
