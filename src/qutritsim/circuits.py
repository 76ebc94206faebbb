"""Circuit IR, exact statevector / density-matrix simulation, shot sampling.

Conventions, used everywhere in this package:

* qubit 0 is the most significant bit of a basis-state label, so |q0 q1> with
  q0=1, q1=0 is index 2 and bitstrings read left to right;
* angles are radians;
* u3(theta, phi, lam) = [[cos(t/2), -e^{i lam} sin(t/2)],
                         [e^{i phi} sin(t/2), e^{i(phi+lam)} cos(t/2)]],
  u2(phi, lam) = u3(pi/2, phi, lam), u1(lam) = diag(1, e^{i lam});
  ry(theta) == u3(theta, 0, 0).

Every simulation path runs one kernel step per gate: one BLAS product
np.dot(m, t.reshape(2^k, -1)) of the gate's 2^k x 2^k matrix m with the
tensor t, its k touched axes in front and the rest flattened.  A tensor
keeps its axes in a stored order that travels with it from gate to gate
(stored axis i holds logical axis order[i]), and one transpose at the end
of the run restores the logical order.  np.dot gets the rows a gather
into logical order would give it, in the same order; only the order of
its columns (the flattened rest) differs, and no column's arithmetic
depends on where it sits, so every output is bit for bit the per-gate
kernel's (_apply: tensordot then moveaxis).  Each gate's matrix is built
once per (name, params) and shared read-only (gate_matrix).

* States and unitaries: t has logical axes (q_0..q_{n-1}, batch).
  simulate_state runs a stack of states as the batch; unitary_of runs the
  identity as a batch of 2^n columns.  A one-qubit gate swaps its axis
  with stored axis 0 (swapaxes, a view) unless it is there.  X then
  copies t with that axis reversed; any other one-qubit gate multiplies.
  A CNOT is a permutation too: it reverses the target axis inside the
  control's 1 slab, in place once the run owns the array, with the slab
  indices cached per stored positions (_slabs, at most MAX_CACHED_PLANS).
  Only the signs of zeros can differ from the product (np.array_equal
  holds).
  A one-qubit gate whose matrix has no imaginary part (h, z, u3(theta, 0,
  0): every one-qubit gate of the channel circuits) multiplies a real
  tensor with its float64 matrix (_real_matrix).  unitary_of's identity
  is float64, and its run stays float64 while every gate is real (the
  permutations work for either dtype); the first complex gate promotes it
  once with astype(complex), and unitary_of returns complex128 either
  way.  A complex tensor (every simulate_state run) always takes the
  complex product.  unitary_of's run has at least two columns; a single
  column would go through BLAS's matrix-vector routine, whose real and
  complex roundings differ.  Outputs are bit for bit the complex kernel's as
  measured, not by any BLAS guarantee: with a zero imaginary part the
  complex product adds only exact zero terms, and OpenBLAS 0.3.31's
  SkylakeX dgemm and zgemm kernels (2-vCPU Xeon, one thread) sum the
  remaining products in the same order.  The exact kernel tests pin this
  on 2 to 4096 columns; a failure of theirs on another BLAS or CPU means
  different kernel rounding, not wrong arithmetic.
* Densities: t has logical axes (batch, row q_0..q_{n-1}, col q_0..q_{n-1}).
  A gate on qubits (a, b) is one 4^k x 4^k superoperator on its axes (row
  a, row b, col a, col b), row-major over those axes: N (u (x) conj(u)),
  where N applies the 4x4 per-qubit noise (depolarizing, then amplitude
  damping) to each touched qubit's (row, col) pair; without gate noise N is
  the identity, so the superoperator is exactly u (x) conj(u).  Each
  superoperator is built once per process for each (noise, gate name,
  params) and shared read-only (gate_superops).  A gate gathers t (one
  transpose and copy: its axes to the front, the others in their stored
  order) only when its axes are not already in front, and keeps the
  product's layout; the gather per (stored order, axes) is cached (_move,
  at most MAX_CACHED_PLANS).  Without gate noise a caller runs state
  vectors instead (tomography.measured_states).
* Readout: the 2x2 bit-flip matrix on each outcome axis (apply_readout),
  applied once to the exact outcome distributions; sampling adds none.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .linalg import as_stack, wire_index

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


# Largest register of any dense 2^n x 2^n array, a density or a unitary: at
# 10 qubits one is 1024 x 1024 complex128, 16 MiB.
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
        name, params = self.name.lower(), tuple(self.params)
        if name not in GATE_ARITY:
            raise ValueError(f"unknown gate {name!r}")
        try:
            finite = all(isinstance(p, numbers.Real) and not isinstance(p, bool)
                         and math.isfinite(p) for p in params)
        except OverflowError:  # math.isfinite of an int too large for a float
            finite = False
        if not finite:
            raise ValueError(f"{name} angles must be finite real numbers, got {params!r}")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "params", tuple(map(float, params)))
        object.__setattr__(self, "qubits", tuple(map(wire_index, self.qubits)))
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
        self.n_qubits = wire_index(self.n_qubits, "n_qubits")
        if self.n_qubits < 1:
            raise ValueError("n_qubits must be positive")
        gates, self.gates = self.gates, []
        self.extend(gates)

    def add(self, name, params=(), qubits=()):
        return self.extend([Gate(name, params, qubits)])

    def extend(self, gates):
        """Append gates (or (name, params, qubits) tuples), each checked to
        lie inside the register, else ValueError."""
        for g in gates:
            g = g if isinstance(g, Gate) else Gate(*g)
            if any(q >= self.n_qubits or q < 0 for q in g.qubits):
                raise ValueError(f"gate {g} outside register of {self.n_qubits} qubits")
            self.gates.append(g)
        return self

    def cnot_count(self) -> int:
        return sum(1 for g in self.gates if g.name == "cnot")

    def remapped(self, wires, n_qubits=None) -> "Circuit":
        """Copy with qubit i renamed to wires[i], on a possibly larger
        register: wires is a placement (placed_wires) whose wires lie in
        that register, else ValueError."""
        n = self.n_qubits if n_qubits is None else n_qubits
        phys = placed_wires(wires, self.n_qubits)
        if not all(0 <= w < n for w in phys):
            raise ValueError(f"wires {phys} outside register of {n} qubits")
        out = Circuit(n)
        out.gates = [g._on((phys[g.qubits[0]], phys[g.qubits[1]]) if g.name == "cnot"
                           else (phys[g.qubits[0]],)) for g in self.gates]
        return out


def placed_wires(wires, n: int) -> list:
    """The physical wire of each of n logical wires under a placement, the
    one placement rule of remapped and coupling.route_circuit: a sequence
    indexed by logical wire or a dict keyed by it, every key and wire an
    integer (wire_index), the keys exactly 0..n-1 and the wires distinct,
    else ValueError.  Whether the wires fit a register is the caller's check."""
    placed = {wire_index(q): wire_index(w)
              for q, w in (wires.items() if isinstance(wires, dict) else enumerate(wires))}
    if sorted(placed) != list(range(n)):
        raise ValueError(f"wires {wires!r} do not cover every logical wire 0..{n - 1}")
    phys = [placed[q] for q in range(n)]
    if len(set(phys)) != n:
        raise ValueError(f"wires {phys} are not injective")
    return phys


# Largest number of cached gate matrices, a memory budget for each of
# _gate_matrix and _real_matrix: an entry is at most a CNOT's 4 x 4
# complex128 and its key, under 1 KiB, so 1024 take under 1 MiB per cache.
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


@functools.lru_cache(maxsize=MAX_CACHED_GATE_MATRICES)
def _real_matrix(name: str, params: tuple) -> np.ndarray | None:
    """The gate's matrix as float64, read-only, when it has no imaginary
    part (h, z, u3(theta, 0, 0) and the permutations); else None."""
    m = _gate_matrix(name, params)
    if m.imag.any():
        return None
    r = m.real.copy()
    r.flags.writeable = False
    return r


# Largest number of entries in each kernel plan cache, a memory budget: an
# entry and its key are at most four tuples of at most 21 ints, under 2 KiB,
# so 1024 take under 2 MiB per cache.
MAX_CACHED_PLANS = 1024


@functools.lru_cache(maxsize=MAX_CACHED_PLANS)
def _slabs(ndim: int, target: int, control: int) -> tuple:
    """(the control's 1 slab, that slab with target reversed): a CNOT on
    stored axes (control, target)."""
    on = [slice(None)] * ndim
    on[control] = 1
    flipped = list(on)
    flipped[target] = slice(None, None, -1)
    return tuple(on), tuple(flipped)


@functools.lru_cache(maxsize=MAX_CACHED_PLANS)
def _move(order: tuple, axes: tuple) -> tuple:
    """(transpose putting logical axes first, or None when they already are;
    the stored order after it) for a tensor whose stored axis i holds
    logical axis order[i]."""
    if order[:len(axes)] == axes:
        return None, order
    pos = [order.index(a) for a in axes]
    perm = (*pos, *(p for p in range(len(order)) if p not in pos))
    return perm, tuple(order[p] for p in perm)


def _step(t: np.ndarray, m: np.ndarray, order: tuple, axes: tuple) -> tuple:
    """Contract the 2^k x 2^k matrix m into the k (size-2) logical axes of
    t, stored in order: gather them to the front unless they are there, one
    product, kept in its layout.  Returns (product, its stored order)."""
    perm, order = _move(order, axes)
    if perm is not None:
        t = t.transpose(perm)
    return np.dot(m, t.reshape(len(m), -1)).reshape(t.shape), order


def _restore(t: np.ndarray, order: tuple) -> np.ndarray:
    """t, stored in order, as a view in logical axis order."""
    perm, _ = _move(order, tuple(range(t.ndim)))
    return t if perm is None else t.transpose(perm)


def _apply(t: np.ndarray, m: np.ndarray, axes) -> np.ndarray:
    """One gate of the kernel on a tensor in logical order: the image of
    the listed axes keeps their positions.  The product has the operands
    np.tensordot builds: bit for bit tensordot then moveaxis."""
    return _restore(*_step(t, m, tuple(range(t.ndim)), tuple(axes)))


def _run(c: Circuit, t: np.ndarray) -> np.ndarray:
    """Apply every gate of c to a (2,)*n + (batch,) tensor of state columns
    (module docstring): stored axis i holds logical axis order[i]."""
    given, order = t, tuple(range(t.ndim))
    for g in c.gates:
        q = g.qubits
        if g.name == "cnot":
            on, flipped = _slabs(t.ndim, order.index(q[1]), order.index(q[0]))
            if t is given:                  # never write into the caller's array
                t = t.copy()
            t[on] = t[flipped]
            continue
        # not _step: _move's key, the whole order, takes too many values here
        p = order.index(q[0])
        if p:
            t = t.swapaxes(0, p)
            order = (q[0], *order[1:p], order[0], *order[p + 1:])
        if g.name == "x":
            t = t[::-1].copy()
        else:
            x, r = t.reshape(2, -1), _real_matrix(g.name, g.params)
            if r is None or x.dtype == complex:  # a complex gate promotes a real run
                y = np.dot(_gate_matrix(g.name, g.params), x.astype(complex, copy=False))
            else:
                y = np.dot(r, x)
            t = y.reshape(t.shape)
    return _restore(t, order)


def unitary_of(c: Circuit) -> np.ndarray:
    """Full 2^n x 2^n unitary of a circuit: the circuit run once on the
    batch of all 2^n basis columns.  Registers above MAX_DENSE_QUBITS raise
    ResourceError before anything is allocated."""
    check_dense_register(c.n_qubits)
    d = 2 ** c.n_qubits
    u = _run(c, np.eye(d).reshape((2,) * c.n_qubits + (d,)))
    return u.astype(complex, order="C", copy=False).reshape(d, d)


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
    touched qubit, and a readout bit-flip probability per measured bit.
    Only p1, p2 and gamma act on the state (simulate_density); the readout
    flip is applied exactly to the outcome distributions (apply_readout),
    once per configuration when its outcome table is built."""
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
            # compared before float(v), which overflows on a huge int; the
            # reason comes before the value, which a message cut may hide
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v!r}")
            object.__setattr__(self, name, float(v))


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
    through a circuit, gate by gate.

    Each gate on qubits Q is one superoperator on the axes (q.., n + q..),
    q in Q, of the (2,)*2n density tensor (gate_superops): u (x) conj(u),
    then per-touched-qubit depolarizing (p1 for one-qubit gates, p2 for
    CNOT), then amplitude damping gamma; without gate noise it is exactly
    u (x) conj(u).  A stack rides along as a trailing batch axis.  Readout
    error is not applied here: tomography.outcome_tables applies it once to
    the exact table (apply_readout).

    Registers above MAX_DENSE_QUBITS (10) qubits raise ResourceError before
    anything is allocated.  The result never shares memory with the input.
    """
    check_dense_register(c.n_qubits)
    rho = as_stack(input_density)
    d = 2 ** c.n_qubits
    if rho.shape[-2:] != (d, d):
        raise ValueError(f"density has shape {rho.shape}, circuit needs (..., {d}, {d})")
    if not c.gates:
        return rho.copy()
    n = c.n_qubits
    t, order = rho.reshape((-1,) + (2,) * (2 * n)), tuple(range(2 * n + 1))
    for g, superop in zip(c.gates, gate_superops(c.gates, noise)):
        t, order = _step(t, superop, order, tuple(1 + q for q in g.qubits)
                         + tuple(1 + n + q for q in g.qubits))
    return _restore(t, order).reshape(rho.shape)


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


def check_seed(seed) -> int:
    """seed as an int (wire_index), else ValueError; ValueError also if negative."""
    seed = wire_index(seed, "seed")
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    return seed


def _rng(seed) -> np.random.Generator:
    """PCG64 seeded through SeedSequence(seed), seed a non-negative int
    (check_seed) used unmasked; distinct seeds give independent streams."""
    return np.random.default_rng(np.random.SeedSequence(check_seed(seed)))


# Counts are int64, so a table holds at most 2^63 - 1 shots.
MAX_SHOTS = 2 ** 63 - 1


def check_shots(shots, minimum: int = 0) -> int:
    """shots as an int (wire_index: a multinomial would draw 7 for 7.9), else
    ValueError; ValueError also unless minimum <= shots <= MAX_SHOTS."""
    shots = wire_index(shots, "shots")
    if not minimum <= shots <= MAX_SHOTS:
        raise ValueError(f"shots must be in [{minimum}, {MAX_SHOTS}], got {shots}")
    return shots


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
    """Outcome table, or stack of tables, (..., 2^n) from normalized
    distributions p (..., 2^n) over 2^n bitstrings, one per row, readout
    error already applied (apply_readout).

    shots >= 1 gives int counts: one multinomial per row, rows in C order
    (table 1, then table 2, ... of a stack, bit for bit the flattened
    (-1, 2^n) call), from the one generator rng.  shots = 0 is exact mode: a
    fresh float copy of p; rng is unused.  Bad shots (check_shots) raise
    ValueError before anything is drawn.
    """
    shots = check_shots(shots)
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
