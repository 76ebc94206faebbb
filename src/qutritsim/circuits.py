"""Circuit IR, exact statevector / density-matrix simulation, shot sampling.

Conventions, used everywhere in this package:

* qubit 0 is the most significant bit of a basis-state label, so |q0 q1> with
  q0=1, q1=0 is index 2 and bitstrings read left to right;
* angles are radians;
* u3(theta, phi, lam) = [[cos(t/2), -e^{i lam} sin(t/2)],
                         [e^{i phi} sin(t/2), e^{i(phi+lam)} cos(t/2)]],
  u2(phi, lam) = u3(pi/2, phi, lam), u1(lam) = diag(1, e^{i lam});
  ry(theta) == u3(theta, 0, 0).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import as_matrix

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


class ResourceError(ValueError):
    """Register too large for the requested dense operation."""


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
        """Copy with qubit i renamed to wires[i], on a possibly larger register."""
        n = self.n_qubits if n_qubits is None else n_qubits
        out = Circuit(n)
        for g in self.gates:
            out.add(g.name, g.params, tuple(wires[q] for q in g.qubits))
        return out

    def inverse(self) -> "Circuit":
        """Reversed circuit with each gate inverted."""
        inv = Circuit(self.n_qubits)
        for g in reversed(self.gates):
            if g.name == "u1":
                inv.add("u1", (-g.params[0],), g.qubits)
            elif g.name == "u2":
                phi, lam = g.params
                inv.add("u3", (-np.pi / 2, -lam, -phi), g.qubits)
            elif g.name == "u3":
                th, phi, lam = g.params
                inv.add("u3", (-th, -lam, -phi), g.qubits)
            else:  # x, y, z, h, cnot are involutions
                inv.add(g.name, (), g.qubits)
        return inv


def gate_matrix(g: Gate) -> np.ndarray:
    """The 2x2 (or 4x4 for cnot) unitary of a gate."""
    if g.name == "u3" or g.name == "u2" or g.name == "u1":
        if g.name == "u3":
            th, phi, lam = g.params
        elif g.name == "u2":
            th, (phi, lam) = np.pi / 2, g.params
        else:
            th, phi, lam = 0.0, 0.0, g.params[0]
        c, s = math.cos(th / 2), math.sin(th / 2)
        return np.array(
            [[c, -np.exp(1j * lam) * s],
             [np.exp(1j * phi) * s, np.exp(1j * (phi + lam)) * c]]
        )
    return {"x": _X, "y": _Y, "z": _Z, "h": _H, "cnot": _CNOT}[g.name]


def _apply_gate_state(psi: np.ndarray, g: Gate, n: int) -> np.ndarray:
    u = gate_matrix(g)
    k = len(g.qubits)
    t = psi.reshape((2,) * n)
    t = np.tensordot(u.reshape((2,) * (2 * k)), t, axes=(list(range(k, 2 * k)), list(g.qubits)))
    t = np.moveaxis(t, range(k), g.qubits)
    return t.reshape(-1)


def _apply_gate_density(rho: np.ndarray, g: Gate, n: int) -> np.ndarray:
    u = gate_matrix(g)
    k = len(g.qubits)
    uk = u.reshape((2,) * (2 * k))
    t = rho.reshape((2,) * (2 * n))
    row_axes = list(g.qubits)
    col_axes = [n + q for q in g.qubits]
    t = np.tensordot(uk, t, axes=(list(range(k, 2 * k)), row_axes))
    t = np.moveaxis(t, range(k), row_axes)
    t = np.tensordot(np.conj(uk), t, axes=(list(range(k, 2 * k)), col_axes))
    t = np.moveaxis(t, range(k), col_axes)
    return t.reshape(2 ** n, 2 ** n)


def unitary_of(c: Circuit) -> np.ndarray:
    """Full 2^n x 2^n unitary of a circuit (n <= 6)."""
    if c.n_qubits > 6:
        raise ResourceError("unitary_of supports at most 6 qubits")
    d = 2 ** c.n_qubits
    u = np.eye(d, dtype=complex)
    for col in range(d):
        psi = np.zeros(d, dtype=complex)
        psi[col] = 1.0
        for g in c.gates:
            psi = _apply_gate_state(psi, g, c.n_qubits)
        u[:, col] = psi
    return u


def simulate_state(c: Circuit, input_state: np.ndarray) -> np.ndarray:
    """Run a circuit on a normalized state vector, gate by gate."""
    psi = np.asarray(input_state, dtype=complex).reshape(-1)
    if psi.size != 2 ** c.n_qubits:
        raise ValueError(f"state has dim {psi.size}, circuit needs {2 ** c.n_qubits}")
    if abs(np.linalg.norm(psi) - 1.0) > 1e-10:
        raise ValueError("input state must be normalized")
    for g in c.gates:
        psi = _apply_gate_state(psi, g, c.n_qubits)
    return psi


@dataclass(frozen=True)
class NoiseConfig:
    """Gate-level noise: depolarizing p1 per one-qubit gate and p2 per CNOT
    (applied to every qubit the gate touches), amplitude damping gamma per
    touched qubit, and a readout bit-flip probability used at sampling time."""
    p1: float = 0.0
    p2: float = 0.0
    gamma: float = 0.0
    readout_flip: float = 0.0

    def __post_init__(self):
        for name in ("p1", "p2", "gamma", "readout_flip"):
            v = float(getattr(self, name))
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name}={v} outside [0, 1]")
            object.__setattr__(self, name, v)

    @classmethod
    def zero(cls):
        return cls(0.0, 0.0, 0.0, 0.0)

    def is_zero(self) -> bool:
        return self.p1 == self.p2 == self.gamma == self.readout_flip == 0.0


def _depolarize(rho: np.ndarray, q: int, n: int, p: float) -> np.ndarray:
    if p == 0.0:
        return rho
    t = rho.reshape((2,) * (2 * n))
    red = np.trace(t, axis1=q, axis2=n + q)  # 2^(n-1) dims tensor
    mixed = np.tensordot(np.eye(2) / 2, red, axes=0)  # qubit axes first
    mixed = np.moveaxis(mixed, (0, 1), (q, n + q))
    return (1 - p) * rho + p * mixed.reshape(rho.shape)


def _amp_damp(rho: np.ndarray, q: int, n: int, gamma: float) -> np.ndarray:
    if gamma == 0.0:
        return rho
    k0 = np.array([[1, 0], [0, math.sqrt(1 - gamma)]], dtype=complex)
    k1 = np.array([[0, math.sqrt(gamma)], [0, 0]], dtype=complex)
    out = np.zeros_like(rho)
    for k in (k0, k1):
        t = rho.reshape((2,) * (2 * n))
        t = np.tensordot(k, t, axes=([1], [q]))
        t = np.moveaxis(t, 0, q)
        t = np.tensordot(np.conj(k), t, axes=([1], [n + q]))
        t = np.moveaxis(t, 0, n + q)
        out += t.reshape(rho.shape)
    return out


def simulate_density(c: Circuit, input_density: np.ndarray, noise: NoiseConfig | None = None) -> np.ndarray:
    """Evolve a density matrix through a circuit.

    Noiseless path is exact conjugation; with noise, each gate is followed by
    per-touched-qubit depolarizing (p1 for one-qubit gates, p2 for CNOT) and
    then amplitude damping gamma on the same qubits.  Readout error is not
    applied here; it belongs to sampling.
    """
    rho = as_matrix(input_density)
    d = 2 ** c.n_qubits
    if rho.shape != (d, d):
        raise ValueError(f"density has shape {rho.shape}, circuit needs ({d},{d})")
    n = c.n_qubits
    for g in c.gates:
        rho = _apply_gate_density(rho, g, n)
        if noise is not None and not noise.is_zero():
            p = noise.p2 if g.name == "cnot" else noise.p1
            for q in g.qubits:
                rho = _depolarize(rho, q, n, p)
            for q in g.qubits:
                rho = _amp_damp(rho, q, n, noise.gamma)
    return rho


@dataclass
class Counts:
    """Measurement outcome histogram; bitstring keys, qubit 0 leftmost."""
    counts: dict
    shots: int
    seed: int

    def __post_init__(self):
        if self.shots >= 1 and sum(self.counts.values()) != self.shots:
            raise ValueError("counts must sum to shots")

    def probabilities(self) -> dict:
        total = sum(self.counts.values())
        return {b: v / total for b, v in self.counts.items()}

    def to_json(self) -> dict:
        return {"shots": self.shots, "seed": self.seed,
                "counts": {k: v for k, v in sorted(self.counts.items())}}

    @classmethod
    def from_json(cls, obj) -> "Counts":
        return cls(dict(obj["counts"]), int(obj["shots"]), int(obj["seed"]))


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
    # PCG64 seeded through SeedSequence; substreams are derived by callers as
    # seed + setting index (documented in tomography.collect)
    return np.random.default_rng(np.random.SeedSequence(int(seed) & (2 ** 63 - 1)))


def counts_from_probabilities(p: np.ndarray, shots: int, seed: int,
                              readout_flip: float = 0.0) -> Counts:
    """Counts from a normalized outcome distribution p over 2^n bitstrings.

    shots >= 1 draws i.i.d. outcomes from substream ``seed``, then splits
    each outcome's count over the 2^n bit-flip patterns with one multinomial
    call.  shots = 0 is exact mode: p itself is stored, with readout error
    applied exactly as a per-bit binary symmetric channel.
    """
    n = int(round(math.log2(p.size)))
    if shots == 0:
        if readout_flip > 0.0:
            m = np.array([[1 - readout_flip, readout_flip],
                          [readout_flip, 1 - readout_flip]])
            t = p.reshape((2,) * n)
            for q in range(n):
                t = np.tensordot(m, t, axes=([1], [q]))
                t = np.moveaxis(t, 0, q)
            p = t.reshape(-1)
        counts = {format(b, f"0{n}b"): float(p[b]) for b in range(p.size) if p[b] > 0}
        return Counts(counts, 0, int(seed))
    rng = _rng(seed)
    raw = rng.multinomial(shots, p)
    if readout_flip > 0.0:
        # probability of flip pattern m depends only on its popcount
        by_pop = [readout_flip ** k * (1 - readout_flip) ** (n - k) for k in range(n + 1)]
        pat_probs = [by_pop[bin(m).count("1")] for m in range(p.size)]
        # split[b, m]: shots of outcome b read out with flip pattern m; rows
        # with raw[b] = 0 draw nothing from the stream
        split = rng.multinomial(raw, pat_probs)
        b_xor_m = np.arange(p.size)[:, None] ^ np.arange(p.size)
        raw = np.take_along_axis(split, b_xor_m, axis=1).sum(axis=0)
    counts = {format(b, f"0{n}b"): int(raw[b]) for b in np.nonzero(raw)[0]}
    return Counts(counts, shots, int(seed))


def sample_counts(state_or_density, shots: int, seed: int, readout_flip: float = 0.0) -> Counts:
    """Draw i.i.d. Born-rule outcomes, then flip each outcome bit independently
    with probability readout_flip.  Deterministic given the seed."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    return counts_from_probabilities(born_probabilities(state_or_density),
                                     shots, seed, readout_flip)


def exact_counts(state_or_density, seed: int = 0, readout_flip: float = 0.0) -> Counts:
    """Exact-mode pseudo-counts: Born probabilities stored directly, shots=0.
    Readout error is applied exactly as a per-bit binary symmetric channel."""
    return counts_from_probabilities(born_probabilities(state_or_density),
                                     0, seed, readout_flip)


# --- circuit JSON ------------------------------------------------------------
# {"n_qubits": n, "gates": [{"name": "u3", "params": [...], "qubits": [...]}]}


def circuit_to_json(c: Circuit) -> dict:
    return {
        "n_qubits": c.n_qubits,
        "gates": [
            {"name": g.name, "params": list(g.params), "qubits": list(g.qubits)}
            for g in c.gates
        ],
    }


def circuit_from_json(obj: dict) -> Circuit:
    c = Circuit(int(obj["n_qubits"]))
    for g in obj["gates"]:
        c.add(g["name"], tuple(g.get("params", ())), tuple(g["qubits"]))
    return c


def load_circuit(path) -> Circuit:
    with open(path) as f:
        return circuit_from_json(json.load(f))
