"""Coupling-map model and circuit legalization.

A CouplingMap is a directed adjacency over physical qubits: a CNOT with
(control, target) = (c, t) is legal only if (c, t) is an edge.  Legalization
handles two defects:

* wrong direction: the 5-gate Hadamard sandwich
  [h c, h t, cnot(t, c), h c, h t] equals cnot(c, t) exactly;
* missing edge: a relay through a common neighbour m, using the exact
  4-CNOT identity cnot(c,t) = cnot(c,m) cnot(m,t) cnot(c,m) cnot(m,t)
  (temporal order left to right).  Device folklore sometimes quotes 3 CNOTs
  for this case; that count is only reachable when the surrounding circuit
  lets one relay CNOT cancel, so the general rewrite emits 4 and correctness
  wins over gate count.

Multi-hop routing (no common neighbour) is out of scope and raises.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .circuits import Circuit, Gate, placed_wires, wire_index
from .linalg import json_int


class RoutingError(ValueError):
    """CNOT cannot be legalized on the given coupling map."""


@dataclass(frozen=True)
class CouplingMap:
    n_qubits: int
    edges: frozenset

    def __init__(self, n_qubits: int, edges):
        """n_qubits and every edge endpoint must be integers (wire_index: no
        float, no bool), else ValueError."""
        n_qubits = wire_index(n_qubits, "n_qubits")
        es = frozenset((wire_index(c), wire_index(t)) for c, t in edges)
        if n_qubits < 1:
            raise ValueError("n_qubits must be positive")
        for c, t in es:
            if c == t:
                raise ValueError(f"self-loop ({c},{t})")
            if not (0 <= c < n_qubits and 0 <= t < n_qubits):
                raise ValueError(f"edge ({c},{t}) outside register")
        object.__setattr__(self, "n_qubits", n_qubits)
        object.__setattr__(self, "edges", es)

    def has(self, c: int, t: int) -> bool:
        return (c, t) in self.edges

    def connected(self, a: int, b: int) -> bool:
        """Adjacent in either direction."""
        return (a, b) in self.edges or (b, a) in self.edges

    def neighbors(self, q: int) -> set:
        return {t for c, t in self.edges if c == q} | {c for c, t in self.edges if t == q}

    def to_json(self) -> dict:
        return {"n_qubits": self.n_qubits,
                "edges": sorted([list(e) for e in self.edges])}

    @classmethod
    def from_json(cls, obj) -> "CouplingMap":
        """An object with exactly the keys n_qubits and edges, every number a
        JSON integer (an integral float included); anything else (another
        key, a bool, a string, a fraction) raises ValueError, never truncates."""
        if not isinstance(obj, dict) or obj.keys() != {"n_qubits", "edges"}:
            raise ValueError("a coupling map is an object with exactly the keys n_qubits, edges")
        return cls(json_int(obj["n_qubits"]), [tuple(map(json_int, e)) for e in obj["edges"]])


# Bundled maps.  The 5-qubit map mirrors a bow-tie device with one fixed CNOT
# direction per pair; the 20-qubit map is a 4x5 grid with diagonal couplers,
# treated as bidirected.  Exact edge lists are a data decision recorded here.
_IBMQX4_EDGES = [(1, 0), (2, 0), (2, 1), (3, 2), (3, 4), (4, 2)]

_TOKYO_PAIRS = [
    (0, 1), (1, 2), (2, 3), (3, 4),
    (0, 5), (1, 6), (1, 7), (2, 6), (2, 7), (3, 8), (3, 9), (4, 8), (4, 9),
    (5, 6), (6, 7), (7, 8), (8, 9),
    (5, 10), (5, 11), (6, 10), (6, 11), (7, 12), (7, 13), (8, 12), (8, 13), (9, 14),
    (10, 11), (11, 12), (12, 13), (13, 14),
    (10, 15), (11, 16), (11, 17), (12, 16), (12, 17), (13, 18), (13, 19),
    (14, 18), (14, 19),
    (15, 16), (16, 17), (17, 18), (18, 19),
]

# Six-qubit subregion of the 20-qubit map used for the direct Choi-state
# experiment (two register pairs plus an ancilla pair), relabeled 0..5.
_TOKYO6_QUBITS = [0, 1, 5, 6, 10, 11]


def _bidirected(pairs):
    out = []
    for a, b in pairs:
        out.append((a, b))
        out.append((b, a))
    return out


def preset_map(name: str) -> CouplingMap:
    """Load a bundled coupling map: 'ibmqx4', 'tokyo', or 'tokyo-6q'."""
    if name == "ibmqx4":
        return CouplingMap(5, _IBMQX4_EDGES)
    if name == "tokyo":
        return CouplingMap(20, _bidirected(_TOKYO_PAIRS))
    if name == "tokyo-6q":
        relabel = {q: i for i, q in enumerate(_TOKYO6_QUBITS)}
        sub = [(relabel[a], relabel[b]) for a, b in _bidirected(_TOKYO_PAIRS)
               if a in relabel and b in relabel]
        return CouplingMap(6, sub)
    raise ValueError(f"unknown coupling preset {name!r}")


def reverse_cnot(control: int, target: int) -> list:
    """Gate fragment equal to cnot(control, target) but using the reversed
    CNOT: [h c, h t, cnot(t, c), h c, h t]."""
    return [
        Gate("h", (), (control,)),
        Gate("h", (), (target,)),
        Gate("cnot", (), (target, control)),
        Gate("h", (), (control,)),
        Gate("h", (), (target,)),
    ]


# Largest number of memoized CNOT legalizations, a memory budget: an entry
# is at most a 4-CNOT relay of reversed CNOTs, 20 gates of under 0.5 KiB
# each, so 1024 take under 10 MiB.
MAX_CACHED_LEGALIZATIONS = 1024


@functools.lru_cache(maxsize=MAX_CACHED_LEGALIZATIONS)
def _legal_cnot(c: int, t: int, cmap: CouplingMap) -> tuple:
    """A legal gate tuple equal to cnot(c, t) on cmap, built once per
    process for each (c, t, map); Gates are frozen, so it is shared."""
    if cmap.has(c, t):
        return (Gate("cnot", (), (c, t)),)
    if cmap.has(t, c):
        return tuple(reverse_cnot(c, t))
    common = sorted(cmap.neighbors(c) & cmap.neighbors(t))
    if not common:
        raise RoutingError(f"no common neighbour for CNOT ({c},{t})")
    m = common[0]
    return sum((_legal_cnot(a, b, cmap) for a, b in ((m, t), (c, m), (m, t), (c, m))), ())


def route_circuit(c: Circuit, cmap: CouplingMap, placement=None) -> Circuit:
    """Rewrite a circuit so every CNOT is a directed edge of the map.

    ``placement`` optionally places logical wires on physical qubits, as
    circuits.placed_wires reads it (default: identity); a placement that
    breaks its rule or leaves the map raises RoutingError up front.
    Single-qubit gates are always legal.  The output acts on the map's full
    register; its unitary equals the input's (tensored with identity on
    unused wires) exactly.
    """
    try:
        phys = placed_wires(range(c.n_qubits) if placement is None else placement, c.n_qubits)
    except ValueError as exc:
        raise RoutingError(f"placement: {exc}") from None
    for q, p in enumerate(phys):
        if not 0 <= p < cmap.n_qubits:
            fits = "" if c.n_qubits <= cmap.n_qubits else "; no placement fits"
            raise RoutingError(
                f"placement outside the coupling map: the {c.n_qubits}-wire circuit "
                f"places wire {q} on physical qubit {p}, but the map has "
                f"{cmap.n_qubits} qubits (0..{cmap.n_qubits - 1}){fits}")
    out = Circuit(cmap.n_qubits)
    for g in c.gates:
        if g.name == "cnot":
            out.gates.extend(_legal_cnot(phys[g.qubits[0]], phys[g.qubits[1]], cmap))
        else:
            out.gates.append(g._on((phys[g.qubits[0]],)))
    return out


def validate(c: Circuit, cmap: CouplingMap) -> list:
    """List of violations; empty iff every CNOT is a directed edge."""
    out = []
    for i, g in enumerate(c.gates):
        if g.name == "cnot" and not cmap.has(*g.qubits):
            out.append(f"gate {i}: cnot{g.qubits} not in coupling map")
    return out
