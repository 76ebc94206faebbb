"""Shot-based measurement settings, state reconstruction, and fidelity.

A measurement of k qubits is one (3^k, 2^k) outcome table: one row per
setting, settings_for order, with per-qubit bases Z, X, Y and pre-rotations
Z: none, X: h, Y: u1(-pi/2) then h.  Every pre-rotation gate is a one-qubit gate and
gate noise acts only on the qubits a gate touches, so a setting's noisy
pre-rotation is a tensor product of three possible one-qubit channels.
Tomography has two stages.  ``outcome_tables`` reads all 3^k exact
distributions off the measured reduced states of a stack of inputs with
one per-qubit contraction, then applies readout error to the whole stack
once; it depends only on the circuit and the noise.  circuits.sample_table
then draws the whole stack from one generator, tables in input order (one
multinomial per setting, no noise of its own).  ``collect`` runs both
stages on one circuit started from |0...0> and returns the sampled table
itself; the Choi experiments (choi.linear_tables, choi.direct_tables) run
them over a stack of prepared inputs.

Reconstruction is Pauli-basis linear inversion, itself a per-qubit
contraction, followed by projection onto the nearest density matrix
(eigenvalue simplex projection); a stack of tables is inverted and
projected as one.

``fidelity`` is Uhlmann's, (Tr sqrt(sqrt(s1) s2 sqrt(s1)))^2, read in the
eigenbasis of s1: with s1 = v diag(p) v+, the matrix sqrt(s1) s2 sqrt(s1)
is similar to diag(sqrt(p)) v+ s2 v diag(sqrt(p)), whose eigenvalues one
tail, _uhlmann_tail, turns into the fidelity (the eigenvalue dust rule and
the clamp to [0, 1]).  choi.choi_fidelity takes (p, v) from the
density_spectrum its projection already has, so it needs one
eigendecomposition of each projected matrix, not two.

``channel_fidelity_sweep`` scores the segment between two basis inputs
with one scorer, _score_segments, which cli.cmd_sweep runs too: both
channels are linear, so the whole lambda grid is one stack built from the
two endpoint outputs (_endpoint_outputs) and projected by one batched
density_spectrum; the reference grid is never built.  cmd_sweep builds a
Choi file's nine endpoint outputs once and scores up to MAX_SWEEP_GRID
points of its 36 pairs per stack.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from . import linalg as la
from .channels import superop_from_choi
from .circuits import (Circuit, Gate, NoiseConfig, _rng, apply_readout, check_dense_register,
                       check_seed, check_shots, gate_superops, normalize_probabilities,
                       sample_table, simulate_density, simulate_state)

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
    last = lead + list(range(nb + 1, nb + k)) + [nb]  # the leading qubit's axis last
    for _ in range(k):
        # contract the leading qubit, append its image at the end: the
        # operands and the one np.dot that np.tensordot(t, m, ([nb], [0])) builds
        t = np.dot(t.transpose(last).reshape(-1, m.shape[0]), m).reshape(
            t.shape[:nb] + t.shape[nb + 1:] + m.shape[1:])
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


def measured_states(c: Circuit, preps, noise: NoiseConfig = NoiseConfig(),
                    measure_qubits=None) -> np.ndarray:
    """Reduced density matrices (B, 2^k, 2^k) of the measured qubits after
    one run of c over a stack of B inputs.

    Input b is |0...0> on c's register run through the prep circuit
    preps[b] (None: no prep), with the same noise as c.  This is the one
    place the gate-noise decision is made: without gate noise (p1 = p2 =
    gamma = 0) the stack runs as state vectors (simulate_state), whose
    outer products |psi><psi| form the density stack; with gate noise it
    runs as densities (simulate_density).  Both end in one partial_trace.
    Readout error never touches the state: outcome_tables applies it to the
    exact table.  A register above circuits.MAX_DENSE_QUBITS raises
    ResourceError on both paths, and measure_qubits (default: every qubit)
    that are not non-empty, distinct integer wires (linalg.wire_index) of
    the register raise ValueError, before anything is allocated.
    """
    n = c.n_qubits
    check_dense_register(n)
    given = tuple(measure_qubits) if measure_qubits is not None else tuple(range(n))
    try:
        measure = tuple(la.wire_index(q) for q in given)
    except ValueError:
        measure = ()
    if not measure or len(set(measure)) != len(measure) or not all(0 <= q < n for q in measure):
        raise ValueError(f"measure_qubits {given} must be non-empty, distinct wires of the "
                         f"{n}-qubit register")
    zero = np.zeros(2 ** n, dtype=complex)
    zero[0] = 1.0
    if noise.p1 == noise.p2 == noise.gamma == 0.0:
        inputs = [zero if p is None else simulate_state(p, zero) for p in preps]
        psi = simulate_state(c, np.stack(inputs))
        rho = psi[:, :, None] * psi.conj()[:, None, :]
    else:
        rho0 = np.outer(zero, zero)
        inputs = [rho0 if p is None else simulate_density(p, rho0, noise) for p in preps]
        rho = simulate_density(c, np.stack(inputs), noise)
    return la.partial_trace(rho, [2] * n, measure)


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
    once and sample it many times (circuits.sample_table).
    """
    k = int(round(math.log2(rho_meas.shape[-1])))
    effect = _effect_tensor(noise).reshape(6, 4).T       # (i, j) -> (b, o)
    t = _per_qubit(rho_meas.reshape((-1,) + (2,) * (2 * k)), k, effect, (3, 2))
    tables = apply_readout(normalize_probabilities(t.real.reshape(-1, 3 ** k, 2 ** k)),
                           noise.readout_flip)
    tables.flags.writeable = False
    return tables


def collect(c: Circuit, shots: int, seed, noise: NoiseConfig = NoiseConfig(),
            measure_qubits=None) -> np.ndarray:
    """The sampled (3^k, 2^k) outcome table of one run of the circuit on
    |0...0>: measured_states, outcome_tables, sample_table.

    Row r is the outcome row of settings_for(k)[r] over the 2^k bitstrings
    (qubit 0 the most significant bit): int counts summing to shots, or at
    shots = 0 (exact mode) the float outcome distributions, with gate
    noise, noisy pre-rotations and readout error, the infinite-shot limit
    of a sampled table.  The whole table is drawn from one generator seeded
    by seed (a non-negative int, circuits._rng), so distinct seeds give
    independent tables.  Shots and seed are checked before anything is
    simulated.
    """
    shots, seed = check_shots(shots), check_seed(seed)
    tables = outcome_tables(measured_states(c, [None], noise, measure_qubits), noise)
    return sample_table(tables[0], shots, _rng(seed))


def _linear_inversion(tables) -> np.ndarray:
    """Averaged Pauli expectation values assembled into a matrix estimate,
    for one outcome table (3^n, 2^n) in settings_for order, or a stack
    (B, 2^n, 2^n) for a stack of tables (B, 3^n, 2^n).

    Averaging each Pauli string's expectation over every setting that
    measures it factorizes per qubit: outcome o of basis s contributes
    R[s, o] = (I/3 + (-1)^o sigma_s) / 2 on that qubit.  The whole stack is
    one per-qubit contraction over the normalized tables.

    An integer table is read as it is, any other as floats.  A table with a
    non-finite or negative entry, or a row of no positive weight, raises
    ValueError before any arithmetic.
    """
    t = np.asarray(tables)
    n = t.shape[-1].bit_length() - 1 if t.ndim in (2, 3) else 0
    if n < 1 or t.shape[-2:] != (3 ** n, 2 ** n) or not len(t):
        raise ValueError("one (3^n, 2^n) outcome table or a stack of them required")
    if t.dtype.kind not in "iu":
        t = np.asarray(t, dtype=float)
    if not ((t >= 0).all() and np.isfinite(t).all()):
        raise ValueError("outcome table entries must be finite and non-negative")
    with np.errstate(over="ignore"):  # a row of entries near the float maximum
        total = t.sum(axis=-1, keepdims=True)
    if not ((total > 0) & (total < np.inf)).all():
        raise ValueError("every outcome table row needs a positive, finite weight")
    t = t / total
    rho = _per_qubit(t.reshape((-1,) + (3,) * n + (2,) * n), n, _ESTIMATOR, (2, 2))
    rho = rho.reshape(-1, 2 ** n, 2 ** n)
    return rho[0] if t.ndim == 2 else rho


def reconstruct_state(tables) -> np.ndarray:
    """Linear inversion then nearest-density projection; always a valid
    state.  A stack of tables gives the stack (B, 2^n, 2^n), inverted and
    projected as one.  The tables are checked once, by _linear_inversion,
    whose finite output the unchecked projection core reads."""
    return la._rebuild(*la._spectrum(_linear_inversion(tables)))


def _uhlmann_tail(m: np.ndarray):
    """(sum sqrt(w))^2 clamped to [0, 1], w the eigenvalues of m, of a matrix
    or of each matrix of a stack: the Uhlmann fidelity once m is a matrix
    similar to sqrt(s1) s2 sqrt(s1)."""
    w = np.maximum(np.linalg.eigvalsh(m), 0.0)  # ascending; np.clip(., 0.0, None)
    # zero out eigenvalue dust: sqrt turns O(eps) noise into O(sqrt(eps))
    w[w < w[..., -1:] * 1e-13] = 0.0
    # the square is >= 0, so this is np.clip(., 0.0, 1.0)
    return np.minimum(np.sqrt(w).sum(-1) ** 2, 1.0)


def _uhlmann(p: np.ndarray, v: np.ndarray, s2: np.ndarray):
    """Uhlmann fidelity of s1 = v diag(p) v+ (p >= 0) and s2, of a pair or
    of each pair of a stack: _uhlmann_tail of diag(sqrt(p)) v+ s2 v
    diag(sqrt(p)), which is similar to sqrt(s1) s2 sqrt(s1)."""
    root = np.sqrt(p)
    val = _uhlmann_tail(root[..., :, None] * (la.dagger(v) @ s2 @ v) * root[..., None, :])
    return float(val) if val.ndim == 0 else val


def fidelity(s1: np.ndarray, s2: np.ndarray):
    """Uhlmann fidelity (Tr sqrt(sqrt(s1) s2 sqrt(s1)))^2, clamped to [0, 1].

    A float for two matrices; for two stacks (..., d, d) of equal shape, the
    array (...) of fidelities of matching matrices.  s1 is read through the
    eigendecomposition of its Hermitian part: an eigenvalue below -1e-7
    raises NotPSDError, one in [-1e-7, 0) is clipped to zero.
    """
    s1, s2 = la.as_stack(s1), la.as_stack(s2)
    if s1.shape != s2.shape or s1.shape[-2] != s1.shape[-1]:
        raise la.ShapeError("fidelity needs equal-dimension square matrices")
    p, v = la.hermitian_eig(s1)
    lowest = p[..., -1].min()
    if lowest < -1e-7:
        raise la.NotPSDError(f"eigenvalue {lowest:.3e} below -1.0e-07")
    return _uhlmann(np.clip(p, 0.0, None), v, s2)


# Largest number of lambda grid points scored as one stack, a memory budget:
# the scorer holds at most four 3x3 complex stacks, under 0.6 KiB per point,
# so 2^16 points take under 40 MiB.  It bounds channel_fidelity_sweep's
# grid, and cli.cmd_sweep scores as many pairs per stack as fit in it.
MAX_SWEEP_GRID = 2 ** 16


def _endpoint_outputs(omega: np.ndarray, reference, inputs) -> tuple:
    """(got, want), two (n, 3, 3) stacks: channel_from_choi(omega, rho) and
    reference(rho) for each of the n inputs, with one reshuffle of omega.

    A non-9x9 omega raises ShapeError, and an omega so large that an output
    overflows ValueError, before reference is called.  reference is called
    on each input in order: a non-finite output raises ValueError as it is
    read, and one that is not 3x3 ShapeError once all are read.  So both
    stacks are finite, as _score_segments assumes.
    """
    superop = superop_from_choi(omega)
    if superop.shape != (9, 9):
        raise la.ShapeError(f"channel_fidelity_sweep expects a 9x9 Choi matrix, got shape "
                            f"{superop.shape}")
    # np.array, not np.stack, which costs four times as much for two 3x3s
    got = la.as_stack(np.array([(superop @ rho.reshape(9)).reshape(3, 3) for rho in inputs]))
    # atleast_2d: a scalar or vector output's ShapeError names it as one row
    want = [la.as_stack(np.atleast_2d(reference(rho))) for rho in inputs]
    for w in want:
        if w.shape != (3, 3):
            raise la.ShapeError(f"reference output has shape {w.shape}, not (3, 3)")
    return got, np.array(want)


def _score_segments(got: np.ndarray, want: np.ndarray, grid: int) -> tuple:
    """(min, max, mean), each an array (P,), of the fidelity of the projected
    estimate and the reference along P segments lam * rho_a + (1 - lam) *
    rho_b, lam on a uniform grid of grid points over [0, 1].

    got and want are (P, 2, 3, 3): the estimate's and the reference's
    outputs at the two endpoints (a, then b) of each segment, finite
    (_endpoint_outputs).  Both channels are linear, so the estimate grid is
    lam * got_a + (1 - lam) * got_b, projected by one unchecked
    density_spectrum (linalg._spectrum): s1 = v diag(p) v+, p >= 0, so no PSD
    check is needed.  With u = v diag(sqrt(p)), u+ s2 u is similar to
    sqrt(s1) s2 sqrt(s1), and the reference grid s2 is never built:
    s2 u = lam (want_a u) + (1 - lam) (want_b u), each endpoint product one
    matrix product with every u of the stack side by side (one product for
    both would need an array twice the grid's size, which the allocator
    keeps fragmented: sweep --grid 65536 then peaked at 87 MB, not 77 MB).
    """
    lam = np.linspace(0.0, 1.0, grid)[:, None, None]
    rest = 1 - lam
    n = len(got)
    p, u = la._spectrum(lam * got[:, :1] + rest * got[:, 1:])
    u *= np.sqrt(p)[..., None, :]  # in density_spectrum's own v, which no one else holds
    u = u.transpose(0, 2, 1, 3).reshape(n, 3, 3 * grid)  # u[:, k]: row k of every u
    x, scratch = (np.matmul(w, u).reshape(n, 3, grid, 3).transpose(0, 2, 1, 3)
                  for w in want.swapaxes(0, 1))
    x *= lam
    scratch *= rest
    x += scratch
    # m = u+ x summed over the row index k by broadcasting, into the spent
    # scratch: a stacked matmul makes one BLAS call per 3x3 matrix
    uh = np.conjugate(u, out=u).reshape(n, 3, grid, 3)
    m = uh[:, 0, :, :, None] * x[..., 0, None, :]
    for k in (1, 2):
        m += np.multiply(uh[:, k, :, :, None], x[..., k, None, :], out=scratch)
    del u, uh, x, scratch  # eigvalsh needs only m
    vals = _uhlmann_tail(m)
    return vals.min(-1), vals.max(-1), vals.sum(-1) / grid


def channel_fidelity_sweep(omega: np.ndarray, reference, a: int, b: int,
                           grid: int = 101):
    """Fidelity statistics of a reconstructed channel along the segment
    lam * rho_a + (1 - lam) * rho_b, lam on a uniform grid over [0, 1].

    ``reference`` is the exact channel, a callable rho -> rho that must be
    linear: it is evaluated (and validates its input) at the two endpoints
    only.  Returns (min, max, mean) over the grid of
    fidelity(project_to_density(channel_from_choi(omega, rho)), reference(rho)),
    scored by _score_segments, the one scorer cli.cmd_sweep also runs (there
    on a Choi file's 36 pairs, with its nine endpoint outputs built once).

    grid is an integer in [2, MAX_SWEEP_GRID], checked first.  As in
    fidelity, a non-finite reference output raises ValueError and one not
    of the Choi output's shape ShapeError, both before the grid is built.
    """
    from .decompositions import basis_density

    if not 2 <= la.wire_index(grid, "grid") <= MAX_SWEEP_GRID:
        raise ValueError(f"grid must be in [2, {MAX_SWEEP_GRID}]")
    got, want = _endpoint_outputs(omega, reference, (basis_density(a), basis_density(b)))
    lo, hi, mean = _score_segments(got[None], want[None], grid)
    return float(lo[0]), float(hi[0]), float(mean[0])
