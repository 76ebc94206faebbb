"""Named invariant checks behind the ``verify`` command.

Each check returns (name, passed, detail); run_all executes every check and
is the release gate: a fresh checkout must pass all of them.  The checks
are also the one implementation of acceptance criteria 1-3, 5, 6, 10 and
11: tests/test_acceptance.py calls them, so their seeds and sample sizes
are the criteria's.  Criterion 3 reads each channel circuit through the
experiments the CLI runs (choi.linear_tables, choi.direct_tables and
choi.estimate), not through a simulation of its own.
"""

from __future__ import annotations

import numpy as np

from . import channels as ch
from . import choi as cj
from . import circuits as cc
from . import coupling as cp
from . import decompositions as dc
from . import linalg as la


def _rand_density(rng, d=3):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def check_dilation_unitarity():
    u = ch.ls_dilation_matrix()
    dev = np.abs(la.dagger(u) @ u - np.eye(9)).max()
    return "spin1_dilation_unitary", dev < 1e-12, f"defect {dev:.2e}"


def check_dilation_reproduces_channel():
    u, env = ch.ls_dilation_matrix(), np.diag([1.0, 0.0, 0.0])  # system (x) env
    rng, worst = np.random.default_rng(0), 0.0
    inputs = [dc.basis_density(i) for i in range(1, 10)] + [_rand_density(rng) for _ in range(20)]
    for rho in inputs:
        full = u @ np.kron(rho, env) @ la.dagger(u)
        out = la.partial_trace(full, [3, 3], [0])
        worst = max(worst, np.abs(out - ch.ls_apply(rho)).max())
    return "spin1_dilation_channel", worst < 1e-10, f"max dev {worst:.2e}"


def check_covariance():
    w = ch.covariance_unitary()
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(200):
        rho = _rand_density(rng)
        worst = max(worst, np.abs(ch.ls_apply(rho) - ch.wh_apply(w @ rho @ la.dagger(w))).max())
    return "covariance_identity", worst < 1e-12, f"max dev {worst:.2e}"


def check_coefficient_rederivation():
    got = cj.rederive_coefficients()
    dev = np.abs(got - cj.COEFFICIENTS).max()
    return "coefficient_table_rederivation", dev < 1e-12, f"max dev {dev:.2e}"


def check_w_tilde_identity():
    u = cc.unitary_of(dc.w_tilde_circuit())
    y1 = np.kron(np.eye(2), np.array([[0, -1j], [1j, 0]]))
    x1 = np.kron(np.eye(2), np.array([[0, 1], [1, 0]]))
    cnot10 = cc.unitary_of(cc.Circuit(2, [("cnot", (), (1, 0))]))
    dev = np.abs(u - 1j * (y1 @ cnot10 @ x1)).max()
    return "w_tilde_decomposition", dev < 1e-12, f"max dev {dev:.2e}"


def check_quasi_toffoli():
    m = dc.quasi_toffoli_matrix()
    devs = [np.abs(cc.unitary_of(dc.quasi_toffoli_circuit(v)) - m).max() for v in ("a", "b")]
    return ("quasi_toffoli_circuits", max(devs) < 1e-12,
            f"max devs {devs[0]:.2e}, {devs[1]:.2e}")


def check_cnot_reversal():
    frag = cp.reverse_cnot(0, 1)
    u = cc.unitary_of(cc.Circuit(2, frag))
    want = cc.unitary_of(cc.Circuit(2, [("cnot", (), (0, 1))]))
    dev = np.abs(u - want).max()
    return "cnot_reversal", dev < 1e-12, f"max dev {dev:.2e}"


def check_permutation_pattern():
    worst = 0.0
    for k in (1, 2, 3, 4):
        s = cc.unitary_of(dc.s_permutation_circuit(dc.SConfig(k)))
        u_tilde = cc.unitary_of(dc.wh_channel_circuit(dc.SConfig(k)))
        t = dc.s_config_unitary(dc.SConfig(k))
        worst = max(worst, np.abs(np.abs(s @ u_tilde) - np.abs(t)).max())
    return "permutation_factorization_pattern", worst < 1e-9, f"max dev {worst:.2e}"


# x, two CNOTs and a phase on the system pair: |11> is fixed and the qutrit
# levels go 0 -> e^{0.7i} 1, 1 -> 2, 2 -> 0 (_CYCLE_U), a unitary channel whose
# Choi matrix |U>><<U|/3 is complex and not swap-symmetric, unlike ls, wh, id
_CYCLE_GATES = [("x", (), (2,)), ("cnot", (), (2, 3)), ("cnot", (), (3, 2)),
                ("u1", (0.7,), (3,))]
_CYCLE_U = np.array([[0, 0, 1], [np.exp(0.7j), 0, 0], [0, 1, 0]])


def check_circuit_channels():
    """The exact experiments the CLI runs (linear_tables and direct_tables
    through estimate, shots 0) of each channel circuit against its analytic
    Choi matrix; the cycle's catches a direct circuit read as output (x)
    input and a conjugated estimate."""
    ket = _CYCLE_U.T.reshape(9)  # sum_i |i> (x) U|i>
    worst = leak_worst = 0.0
    for circuit, omega in ((dc.ls_channel_circuit(), cj.named_choi("ls")),
                           (dc.wh_channel_circuit(), cj.named_choi("wh")),
                           (cc.Circuit(4), cj.named_choi("id")),
                           (cc.Circuit(4, _CYCLE_GATES), np.outer(ket, ket.conj()) / 3)):
        linear, linear_leaks = cj.estimate(cj.linear_tables(circuit), 0, 0)
        direct, direct_leaks = cj.estimate(cj.direct_tables(circuit), 0, 0)
        worst = max(worst, np.abs(cj.choi_linear(linear) - omega).max(),
                    np.abs(direct[0] - omega).max())
        leak_worst = max(leak_worst, *linear_leaks, *direct_leaks)
    ok = worst < 1e-9 and leak_worst < 1e-10
    return "circuit_induced_channels", ok, f"max dev {worst:.2e}, leak {leak_worst:.2e}"


def check_choi_two_route():
    """choi_linear against each channel's analytic Choi matrix; the cycle's
    catches an assembly in output (x) input order and a conjugated one."""
    worst = 0.0
    reps = [ch.ChannelRep.analytic(name) for name in ("ls", "wh", "id")]
    for rep in reps + [ch.ChannelRep(np.kron(_CYCLE_U, _CYCLE_U.conj()))]:
        outs = [ch.apply_channel(rep, r) for r in cj.physical_basis()]
        worst = max(worst, np.abs(cj.choi_linear(outs) - cj.analytic_choi(rep)).max())
    return "choi_two_route_agreement", worst < 1e-10, f"max dev {worst:.2e}"


def check_choi_roundtrip():
    rng = np.random.default_rng(606)
    worst = 0.0
    for name, oracle in (("ls", ch.ls_apply), ("wh", ch.wh_apply), ("id", lambda r: r)):
        omega = cj.named_choi(name)
        for _ in range(100):
            rho = _rand_density(rng)
            worst = max(worst, np.abs(cj.channel_from_choi(omega, rho) - oracle(rho)).max())
    return "choi_roundtrip", worst < 1e-10, f"max dev {worst:.2e}"


def check_kraus_rank():
    omega = cj.named_choi("ls")
    w, _ = la.hermitian_eig(omega)
    rank = int(np.sum(w > 1e-9))
    flat = np.abs(w[:3] - 1 / 3).max() < 1e-9
    return "spin1_kraus_rank", rank == 3 and flat, f"rank {rank}"


def check_routing(coupling: cp.CouplingMap | None = None):
    cmap = coupling if coupling is not None else cp.preset_map("ibmqx4")
    rng = np.random.default_rng(1111)
    try:
        for _ in range(200):
            c = _random_circuit(rng, 4, int(rng.integers(1, 21)))
            routed = cp.route_circuit(c, cmap)
            if cp.validate(routed, cmap):
                return "routing_preserves_semantics", False, "illegal output"
            # the routed unitary first: it raises ResourceError before the
            # padded reference of a too-large register is allocated
            got = cc.unitary_of(routed)
            pad = cmap.n_qubits - c.n_qubits
            want = np.kron(cc.unitary_of(c), np.eye(2 ** pad))
            if not la.equal_up_to_global_phase(got, want, 1e-9):
                return "routing_preserves_semantics", False, "unitary changed"
    except cp.RoutingError as exc:
        return "routing_preserves_semantics", False, f"routing error: {exc}"
    except cc.ResourceError as exc:
        return ("routing_preserves_semantics", False,
                f"{cmap.n_qubits}-qubit routed register: {exc}")
    return "routing_preserves_semantics", True, "200 random circuits"


def _random_circuit(rng, n, depth):
    """``depth`` random gates on n qubits: a CNOT with probability 0.4 (when
    n >= 2), else a one-qubit gate with uniform angles."""
    c = cc.Circuit(n)
    for _ in range(depth):
        if n >= 2 and rng.uniform() < 0.4:
            q = rng.choice(n, size=2, replace=False)
            c.add("cnot", (), tuple(int(x) for x in q))
        else:
            name = rng.choice(["u1", "u2", "u3", "x", "y", "z", "h"])
            c.add(name, tuple(rng.uniform(-np.pi, np.pi, cc.GATE_ARITY[name][0])),
                  (int(rng.integers(n)),))
    return c


def run_all(coupling: cp.CouplingMap | None = None) -> list:
    """Run every named invariant; returns [(name, ok, detail), ...]."""
    results = [
        check_dilation_unitarity(),
        check_dilation_reproduces_channel(),
        check_covariance(),
        check_coefficient_rederivation(),
        check_w_tilde_identity(),
        check_quasi_toffoli(),
        check_cnot_reversal(),
        check_permutation_pattern(),
        check_circuit_channels(),
        check_choi_two_route(),
        check_choi_roundtrip(),
        check_kraus_rank(),
        check_routing(coupling),
    ]
    return results
