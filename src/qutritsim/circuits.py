"""Circuit IR, exact statevector / density-matrix simulation, shot sampling.

Conventions, used everywhere in this package:

* qubit 0 is the most significant bit of a basis-state label, so |q0 q1> with
  q0=1, q1=0 is index 2 and bitstrings read left to right;
* angles are radians;
* u3(theta, phi, lam) = [[cos(t/2), -e^{i lam} sin(t/2)],
                         [e^{i phi} sin(t/2), e^{i(phi+lam)} cos(t/2)]],
  u2(phi, lam) = u3(pi/2, phi, lam), u1(lam) = diag(1, e^{i lam});
  ry(theta) == u3(theta, 0, 0).

Every simulation path goes through one kernel, ``_apply(t, m, axes)``: one
BLAS product of the 2^k x 2^k matrix m with t, its k size-2 axes moved to
the front and the rest flattened, transposed back onto the same axes.  The
transpose, the output shape and the inverse transpose are planned once per
(t.shape, axes) and cached (MAX_CACHED_PLANS); each gate's matrix is built
once per (name, params) and shared read-only (gate_matrix).

* States and unitaries: t has axes (q_0..q_{n-1}, batch).  simulate_state
  runs a stack of states as the batch; unitary_of runs the identity as a
  batch of 2^n columns.  CNOT and X are permutations, so here they move
  data instead of multiplying: a copy of t with the target axis reversed
  inside the control's 1 slab, or with the qubit's axis reversed.  Only
  the signs of zeros can differ from the product (np.array_equal holds).
* Noiseless densities: U rho U+, U built as in unitary_of.
* Noisy densities: t has axes (row q_0..q_{n-1}, col q_0..q_{n-1}, batch).
  A gate on qubits (a, b) is one 4^k x 4^k superoperator on axes
  (a, b, n+a, n+b), row-major over those axes: N (u (x) conj(u)), where N
  applies the 4x4 per-qubit noise (depolarizing, then amplitude damping) to
  each touched qubit's (row, col) pair.  Each superoperator is built once
  per process for each (noise, gate name, params) and shared read-only
  (gate_superops).
* Readout: the 2x2 bit-flip matrix on each outcome axis (apply_readout),
  applied once to the exact outcome distributions; sampling adds none.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
from dataclasses import dataclass, field

import numpy as np

from .linalg import as_stack

GATE_ARITY = {
    "u1": (1, 1), "u2": (2, 1), "u3": (3, 1),
    "x": (0, 1), "y": (0, 1), "z": (0, 1), "h": (0, 1),
    "cnot": (0, 2),
}

_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]])
_Z = np.diag([1.0, -1.0]).astype(complex)
_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
_CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
_FIXED_GATES = {"x": _X, "y": _Y, "z": _Z, "h": _H, "cnot": _CNOT}
for _m in _FIXED_GATES.values():
    _m.flags.writeable = False


class ResourceError(ValueError):
    """Register too large for the requested dense operation."""


# Largest register a dense density path may simulate: a 10-qubit density is
# 1024 x 1024 complex128, 16 MiB.
MAX_DENSE_QUBITS = 10


def check_dense_register(n_qubits: int) -> None:
    """Raise ResourceError for a register above MAX_DENSE_QUBITS, before
    any 2^n x 2^n array is allocated."""
    if n_qubits > MAX_DENSE_QUBITS:
        raise ResourceError(f"{n_qubits}-qubit register is above the dense simulation "
                            f"budget of {MAX_DENSE_QUBITS} qubits")


@dataclass(frozen=True)
class Gate:
    name: str
    params: tuple = ()
    qubits: tuple = ()

    def __post_init__(self):
        name = self.name.lower()
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        object.__setattr__(self, "qubits", tuple(int(q) for q in self.qubits))
        if name not in GATE_ARITY:
            raise ValueError(f"unknown gate {name!r}")
        n_par, n_q = GATE_ARITY[name]
        if len(self.params) != n_par:
            raise ValueError(f"{name} takes {n_par} params, got {len(self.params)}")
        if len(self.qubits) != n_q:
            raise ValueError(f"{name} acts on {n_q} qubits, got {self.qubits}")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"duplicate qubit in {self.qubits}")

    def _on(self, qubits: tuple) -> "Gate":
        """This gate on other qubits, a tuple of ints the caller has
        checked: skips the validation above, which dominates placing."""
        g = object.__new__(Gate)
        g.__dict__.update(name=self.name, params=self.params, qubits=qubits)
        return g


@dataclass
class Circuit:
    n_qubits: int
    gates: list = field(default_factory=list)

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError("n_qubits must be positive")
        self.gates = [g if isinstance(g, Gate) else Gate(*g) for g in self.gates]
        for g in self.gates:
            self._check(g)

    def _check(self, g: Gate):
        if any(q >= self.n_qubits or q < 0 for q in g.qubits):
            raise ValueError(f"gate {g} outside register of {self.n_qubits} qubits")

    def add(self, name, params=(), qubits=()):
        g = Gate(name, tuple(params), tuple(qubits))
        self._check(g)
        self.gates.append(g)
        return self

    def extend(self, gates):
        for g in gates:
            g = g if isinstance(g, Gate) else Gate(*g)
            self._check(g)
            self.gates.append(g)
        return self

    def cnot_count(self) -> int:
        return sum(1 for g in self.gates if g.name == "cnot")

    def remapped(self, wires, n_qubits=None) -> "Circuit":
        """Copy with qubit i renamed to wires[i], on a possibly larger
        register.  wires must name distinct qubits of that register, one
        for each qubit of this circuit, else ValueError."""
        n = self.n_qubits if n_qubits is None else n_qubits
        try:
            phys = [int(wires[q]) for q in range(self.n_qubits)]
        except (IndexError, KeyError):
            raise ValueError(f"wires {wires!r} do not name a wire for each of "
                             f"{self.n_qubits} qubits") from None
        if len(set(phys)) != len(phys):
            raise ValueError(f"wires {phys} are not distinct")
        if not all(0 <= w < n for w in phys):
            raise ValueError(f"wires {phys} outside register of {n} qubits")
        out = Circuit(n)
        out.gates = [g._on(tuple(phys[q] for q in g.qubits)) for g in self.gates]
        return out


# Largest number of cached gate matrices, a memory budget: an entry is at
# most a CNOT's 4 x 4 complex128 and its key, under 1 KiB, so 1024 take
# under 1 MiB.
MAX_CACHED_GATE_MATRICES = 1024


def gate_matrix(g: Gate) -> np.ndarray:
    """The 2x2 (or 4x4 for cnot) unitary of a gate, built once per process
    for each (name, params) and shared read-only.  Keys compare as floats,
    as in _gate_superop."""
    return _gate_matrix(g.name, g.params)


@functools.lru_cache(maxsize=MAX_CACHED_GATE_MATRICES)
def _gate_matrix(name: str, params: tuple) -> np.ndarray:
    if name not in ("u3", "u2", "u1"):
        return _FIXED_GATES[name]
    if name == "u3":
        th, phi, lam = params
    elif name == "u2":
        th, (phi, lam) = np.pi / 2, params
    else:
        th, phi, lam = 0.0, 0.0, params[0]
    c, s = math.cos(th / 2), math.sin(th / 2)
    m = np.array(
        [[c, -np.exp(1j * lam) * s],
         [np.exp(1j * phi) * s, np.exp(1j * (phi + lam)) * c]]
    )
    m.flags.writeable = False
    return m


# Largest number of cached kernel plans, a memory budget: a plan and its key
# are five tuples of at most 21 ints, under 2 KiB, so 1024 take under 2 MiB.
MAX_CACHED_PLANS = 1024


@functools.lru_cache(maxsize=MAX_CACHED_PLANS)
def _plan(shape: tuple, axes: tuple) -> tuple:
    """(transpose putting axes first, product shape, inverse transpose)."""
    rest = [a for a in range(len(shape)) if a not in axes]
    src = (*axes, *rest)
    inv = [0] * len(shape)
    for i, a in enumerate(src):
        inv[a] = i
    return src, (2,) * len(axes) + tuple(shape[a] for a in rest), tuple(inv)


def _apply(t: np.ndarray, m: np.ndarray, axes) -> np.ndarray:
    """Contract the 2^k x 2^k matrix m into the k listed (size-2) axes of t;
    the image of the listed axes keeps their positions.  The product has
    the operands np.tensordot builds: bit for bit tensordot then moveaxis."""
    src, shape, inv = _plan(t.shape, tuple(axes))
    return np.dot(m, t.transpose(src).reshape(len(m), -1)).reshape(shape).transpose(inv)


def _run(c: Circuit, t: np.ndarray) -> np.ndarray:
    """Apply every gate of c to a (2,)*n + (batch,) tensor of state columns;
    CNOT and X by moving slabs (module docstring), the rest by _apply."""
    every = (slice(None),) * t.ndim
    for g in c.gates:
        q = g.qubits
        if g.name == "cnot":
            on = every[:q[0]] + (1,) + every[q[0] + 1:]
            flipped = list(on)
            flipped[q[1]] = slice(None, None, -1)
            out = t.copy()
            out[on] = t[tuple(flipped)]
            t = out
        elif g.name == "x":
            t = t[every[:q[0]] + (slice(None, None, -1),)].copy()
        else:
            t = _apply(t, gate_matrix(g), q)
    return t


def _unitary(c: Circuit) -> np.ndarray:
    d = 2 ** c.n_qubits
    return _run(c, np.eye(d, dtype=complex).reshape((2,) * c.n_qubits + (d,))).reshape(d, d)


def unitary_of(c: Circuit) -> np.ndarray:
    """Full 2^n x 2^n unitary of a circuit (n <= 6): the circuit run once on
    the batch of all 2^n basis columns."""
    if c.n_qubits > 6:
        raise ResourceError("unitary_of supports at most 6 qubits")
    return _unitary(c)


def simulate_state(c: Circuit, input_state: np.ndarray) -> np.ndarray:
    """Run a circuit on a normalized state vector, or on every state of a
    stack (..., 2^n) at once as one batch of columns, gate by gate.  The
    result never shares memory with the input."""
    psi = np.asarray(input_state, dtype=complex)
    d = 2 ** c.n_qubits
    if psi.ndim == 0 or psi.shape[-1] != d:
        raise ValueError(f"state has shape {psi.shape}, circuit needs (..., {d})")
    if np.any(np.abs(np.linalg.norm(psi, axis=-1) - 1.0) > 1e-10):
        raise ValueError("input state must be normalized")
    if not c.gates:
        return psi.copy()
    cols = psi.reshape(-1, d).T.reshape((2,) * c.n_qubits + (-1,))
    return _run(c, cols).reshape(d, -1).T.reshape(psi.shape)


@dataclass(frozen=True)
class NoiseConfig:
    """Gate-level noise: depolarizing p1 per one-qubit gate and p2 per CNOT
    (applied to every qubit the gate touches), amplitude damping gamma per
    touched qubit, and a readout bit-flip probability per measured bit,
    applied exactly to the outcome distributions (apply_readout), once per
    configuration when its outcome table is built."""
    p1: float = 0.0
    p2: float = 0.0
    gamma: float = 0.0
    readout_flip: float = 0.0

    def __post_init__(self):
        for name in ("p1", "p2", "gamma", "readout_flip"):
            v = getattr(self, name)
            # a bool or a numeric string is not a probability
            if not isinstance(v, numbers.Real) or isinstance(v, bool):
                raise ValueError(f"{name} must be a real number, got {v!r}")
            v = float(v)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name}={v} outside [0, 1]")
            object.__setattr__(self, name, v)

    def is_zero(self) -> bool:
        return self.p1 == self.p2 == self.gamma == self.readout_flip == 0.0


def _qubit_noise(p: float, gamma: float) -> np.ndarray:
    """4x4 superoperator on one qubit's (row, col) index pair: depolarizing p,
    then amplitude damping gamma."""
    vec_i = np.eye(2).reshape(4)
    depolarize = (1 - p) * np.eye(4) + p / 2 * np.outer(vec_i, vec_i)
    k0 = np.diag([1.0, math.sqrt(1 - gamma)])
    k1 = np.array([[0.0, math.sqrt(gamma)], [0.0, 0.0]])
    return (np.kron(k0, k0) + np.kron(k1, k1)) @ depolarize


# Largest number of cached per-gate superoperators, a memory budget: an
# entry is at most a CNOT's 16 x 16 complex128, 4 KiB, so 1024 take 4 MiB.
MAX_CACHED_SUPEROPS = 1024


@functools.lru_cache(maxsize=MAX_CACHED_SUPEROPS)
def _gate_superop(noise: NoiseConfig, name: str, params: tuple) -> np.ndarray:
    """N (u (x) conj(u)) of one gate, read-only (see gate_superops).  Keys
    compare as floats, so params 0.0 and -0.0 share one entry; the two
    matrices differ at most in the signs of zeros."""
    u = _gate_matrix(name, params)
    uu = (u[:, None, :, None] * u.conj()[None, :, None, :]).reshape(u.size, u.size)
    if len(u) == 2:
        gate_noise = _qubit_noise(noise.p1, noise.gamma)
    else:
        cnot_qubit = _qubit_noise(noise.p2, noise.gamma)
        cnot_noise = np.kron(cnot_qubit, cnot_qubit).reshape((2,) * 8)
        gate_noise = cnot_noise.transpose(0, 2, 1, 3, 4, 6, 5, 7).reshape(16, 16)
    superop = gate_noise @ uu
    superop.flags.writeable = False
    return superop


def gate_superops(gates, noise: NoiseConfig) -> list:
    """N (u (x) conj(u)) of each gate on its axes (q.., n + q..), built once
    per process for each distinct (noise, name, params) and shared
    read-only.  N: the one-qubit 4x4 noise, or for a CNOT two p2 copies
    reordered from (q0, n + q0, q1, n + q1) to (q0, q1, n + q0, n + q1).
    The (x) broadcasts, bit for bit np.kron."""
    return [_gate_superop(noise, g.name, g.params) for g in gates]


def simulate_density(c: Circuit, input_density: np.ndarray,
                     noise: NoiseConfig = NoiseConfig()) -> np.ndarray:
    """Evolve a density matrix, or every matrix of a stack (..., 2^n, 2^n),
    through a circuit.

    Without gate noise this is U rho U+, with U built as in unitary_of but
    without its 6-qubit limit (U is no larger than rho).  With noise, each
    gate on qubits Q is one superoperator on the axes (q.., n + q..), q in
    Q, of the (2,)*2n density tensor (gate_superops): u (x) conj(u), then
    per-touched-qubit depolarizing (p1 for one-qubit gates, p2 for CNOT),
    then amplitude damping gamma; a stack rides along as a trailing batch
    axis.  Readout error is not applied here: tomography.outcome_tables
    applies it once to the exact table (apply_readout).

    Registers above MAX_DENSE_QUBITS (10) qubits raise ResourceError before
    anything is allocated.  The result never shares memory with the input.
    """
    check_dense_register(c.n_qubits)
    rho = as_stack(input_density)
    d = 2 ** c.n_qubits
    if rho.shape[-2:] != (d, d):
        raise ValueError(f"density has shape {rho.shape}, circuit needs (..., {d}, {d})")
    if noise.p1 == noise.p2 == noise.gamma == 0.0:
        u = _unitary(c)
        return u @ rho @ u.conj().T
    if not c.gates:
        return rho.copy()
    n = c.n_qubits
    t = np.moveaxis(rho.reshape(-1, d, d), 0, -1).reshape((2,) * (2 * n) + (-1,))
    for g, superop in zip(c.gates, gate_superops(c.gates, noise)):
        t = _apply(t, superop, g.qubits + tuple(n + q for q in g.qubits))
    return np.moveaxis(t.reshape(d, d, -1), -1, 0).reshape(rho.shape)


def born_probabilities(state_or_density: np.ndarray) -> np.ndarray:
    """Computational-basis probabilities of a state vector or density matrix."""
    a = np.asarray(state_or_density, dtype=complex)
    if a.ndim == 1 or (a.ndim == 2 and 1 in a.shape):
        p = np.abs(a.reshape(-1)) ** 2
    else:
        p = np.real(np.diag(a))
    return normalize_probabilities(p)


def normalize_probabilities(p: np.ndarray) -> np.ndarray:
    """Clip at zero and normalize along the last axis (one distribution per row)."""
    p = np.clip(p, 0.0, None)
    s = p.sum(axis=-1, keepdims=True)
    if np.any(s <= 0):
        raise ValueError("state has no probability weight")
    return p / s


def _rng(seed) -> np.random.Generator:
    """PCG64 seeded through SeedSequence.  ``seed`` is a non-negative int,
    used unmasked as SeedSequence(seed), or a SeedSequence such as a
    spawned child; distinct seeds or spawn keys give independent streams.
    A negative seed raises ValueError."""
    if not isinstance(seed, np.random.SeedSequence):
        seed = operator.index(seed)
        if seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {seed}")
        seed = np.random.SeedSequence(seed)
    return np.random.default_rng(seed)


# Counts are int64, so a table holds at most 2^63 - 1 shots.
MAX_SHOTS = 2 ** 63 - 1


def check_shots(shots: int, minimum: int = 0) -> None:
    """Raise ValueError unless minimum <= shots <= MAX_SHOTS."""
    if not minimum <= shots <= MAX_SHOTS:
        raise ValueError(f"shots must be in [{minimum}, {MAX_SHOTS}], got {shots}")


def apply_readout(p: np.ndarray, readout_flip: float) -> np.ndarray:
    """Distributions p (..., 2^n) over bitstrings with each bit flipped
    independently with probability readout_flip: the per-bit binary
    symmetric channel, applied exactly by the 2x2 bit-flip matrix on each
    outcome axis.  Returns p itself when readout_flip is 0."""
    if readout_flip == 0.0:
        return p
    flip = np.array([[1 - readout_flip, readout_flip], [readout_flip, 1 - readout_flip]])
    t = p.reshape(p.shape[:-1] + (2,) * int(round(math.log2(p.shape[-1]))))
    for q in range(p.ndim - 1, t.ndim):
        t = _apply(t, flip, [q])
    return t.reshape(p.shape)


def sample_table(p: np.ndarray, shots: int, rng: np.random.Generator | None) -> np.ndarray:
    """Outcome table (m, 2^n) from m normalized distributions p over 2^n
    bitstrings, one per row, readout error already applied (apply_readout).

    shots >= 1 gives int counts: one multinomial per row, in row order, from
    the one generator rng.  shots = 0 is exact mode: a float copy of p; rng
    is unused.  shots outside [0, MAX_SHOTS] raise ValueError.
    """
    check_shots(shots)
    if shots == 0:
        return p.astype(float)
    return rng.multinomial(shots, p)


def sample_counts(state_or_density, shots: int, seed: int,
                  readout_flip: float = 0.0) -> np.ndarray:
    """Outcome counts (2^n,) of shots i.i.d. Born-rule draws, each outcome
    bit then flipped independently with probability readout_flip: the one
    row of sample_table on generator _rng(seed) of the Born row through
    apply_readout.  Deterministic given the seed."""
    check_shots(shots, 1)
    p = apply_readout(born_probabilities(state_or_density), readout_flip)
    return sample_table(p[None], shots, _rng(seed))[0]


def exact_counts(state_or_density, readout_flip: float = 0.0) -> np.ndarray:
    """Exact-mode pseudo-counts (2^n,): the Born probabilities with readout
    error applied exactly (apply_readout)."""
    return apply_readout(born_probabilities(state_or_density), readout_flip)
