import functools

import numpy as np
import pytest

from qutritsim import channels as ch
from qutritsim import choi as cj
from qutritsim import circuits as cc
from qutritsim import coupling as cp
from qutritsim import decompositions as dc
from qutritsim import encoding as enc
from qutritsim import linalg as la

from test_channels import basis_states, rand_density


def test_quasi_toffoli_matrix_entries():
    m = dc.quasi_toffoli_matrix()
    assert m[4, 4] == -1
    assert m[6, 7] == 1 and m[7, 6] == 1 and m[6, 6] == 0
    assert np.abs(m @ m - np.eye(8)).max() == 0


def test_quasi_toffoli_circuits_match_matrix():
    m = dc.quasi_toffoli_matrix()
    ua = cc.unitary_of(dc.quasi_toffoli_circuit("a"))
    ub = cc.unitary_of(dc.quasi_toffoli_circuit("b"))
    assert la.equal_up_to_global_phase(ua, m, 1e-12)
    assert la.equal_up_to_global_phase(ub, m, 1e-12)
    assert la.equal_up_to_global_phase(ua, ub, 1e-12)
    assert np.abs(ua - m).max() < 1e-12  # in fact exact, no phase


def test_quasi_toffoli_cnot_count():
    ca = dc.quasi_toffoli_circuit("a")
    cb = dc.quasi_toffoli_circuit("b")
    assert ca.cnot_count() < 6  # cheaper than the 6-CNOT Toffoli decomposition
    assert ca.cnot_count() == cb.cnot_count() == 3  # provably minimal here
    assert ca.gates != cb.gates
    for bad in ("c", "A", None):  # no silent fallback to variant b
        with pytest.raises(ValueError, match="variant"):
            dc.quasi_toffoli_gates(0, 1, 2, bad)


def test_w_tilde_matrix():
    m = dc.w_tilde_matrix(np.pi)
    assert abs(m[3, 3] + 1) < 1e-15
    assert la.is_unitary(dc.w_tilde_matrix(0.7), 1e-15)
    # top-left qutrit block is the covariance unitary under the encoding
    w = ch.covariance_unitary()
    assert np.abs(m[:3, :3] - w).max() < 1e-15


def test_w_tilde_circuit_identity():
    u = cc.unitary_of(dc.w_tilde_circuit())
    # i * (Y on qubit 1) (cnot 1->0) (X on qubit 1), evaluated as matrices
    y1 = np.kron(np.eye(2), np.array([[0, -1j], [1j, 0]]))
    x1 = np.kron(np.eye(2), np.array([[0, 1], [1, 0]]))
    cnot10 = cc.unitary_of(cc.Circuit(2, [("cnot", (), (1, 0))]))
    want = 1j * (y1 @ cnot10 @ x1)
    assert np.abs(u - want).max() < 1e-12
    assert la.equal_up_to_global_phase(u, dc.w_tilde_matrix(np.pi), 1e-12)
    assert np.abs(u - dc.w_tilde_matrix(np.pi)).max() < 1e-12
    assert cc.Circuit(2, list(dc.w_tilde_circuit().gates)).cnot_count() == 1
    # column reading: |00> -> |10>, |01> -> -|01>, |10> -> |00>
    assert np.abs(u[:, 0] - np.eye(4)[:, 2]).max() < 1e-15
    assert np.abs(u[:, 1] + np.eye(4)[:, 1]).max() < 1e-15
    assert np.abs(u[:, 2] - np.eye(4)[:, 0]).max() < 1e-15


def test_s_config_unitaries():
    for k in (1, 2, 3, 4):
        u = dc.s_config_unitary(dc.SConfig(k))
        assert la.is_unitary(u, 1e-12)
    u4 = dc.s_config_unitary(dc.SConfig(4))
    want = functools.reduce(np.kron, (
        np.array([[1, 1], [1, -1]]) / np.sqrt(2), np.eye(2),
        np.array([[0, 1], [1, 0]]), np.array([[0, -1], [1, 0]])))
    assert np.abs(u4 - want).max() < 1e-15
    u3 = dc.s_config_unitary(dc.SConfig(3))
    # last tensor factor of configuration 3 is [[0,-1],[1,0]]
    want3 = functools.reduce(np.kron, (
        np.array([[1, 1], [1, -1]]) / np.sqrt(2), np.eye(2),
        np.array([[0, 1], [1, 0]]), np.array([[0, -1], [1, 0]])))
    assert np.abs(u3 - want3).max() < 1e-15
    u1 = dc.s_config_unitary(dc.SConfig(1))
    want1 = functools.reduce(np.kron, (
        np.array([[1, 1], [-1, 1]]) / np.sqrt(2), np.eye(2),
        np.array([[0, 1], [1, 0]]), np.array([[0, 1], [-1, 0]])))
    assert np.abs(u1 - want1).max() < 1e-15
    assert np.abs(dc.s_config_unitary(dc.SConfig(2)) - u1).max() == 0


def test_s_permutation_is_signed_permutation():
    for k in (1, 2, 3, 4):
        s = cc.unitary_of(dc.s_permutation_circuit(dc.SConfig(k)))
        for j in range(16):
            col = np.abs(s[:, j])
            assert (col > 1e-9).sum() == 1
            assert abs(col.max() - 1.0) < 1e-9


def test_s_times_embedded_unitary_has_factorized_pattern():
    for k in (1, 2, 3, 4):
        s = cc.unitary_of(dc.s_permutation_circuit(dc.SConfig(k)))
        u_tilde = cc.unitary_of(dc.wh_channel_circuit(dc.SConfig(k)))
        t = dc.s_config_unitary(dc.SConfig(k))
        assert np.abs(np.abs(s @ u_tilde) - np.abs(t)).max() < 1e-9


def _exact_channel(circuit):
    """The channel the CLI reads from circuit, through the Choi matrix of the
    exact (shots 0) linear experiment: (rho -> Phi(rho), that Choi matrix,
    the worst leakage of its nine inputs)."""
    states, leaks = cj.estimate(cj.linear_tables(circuit), 0, 0)
    omega = cj.choi_linear(states)
    return (lambda rho: cj.channel_from_choi(omega, rho)), omega, max(leaks)


def test_wh_circuit_induced_channel():
    chan, _, leak = _exact_channel(dc.wh_channel_circuit(dc.SConfig(4)))
    assert abs(leak) < 1e-10
    out = chan(np.diag([1.0, 0.0, 0.0]).astype(complex))
    assert np.abs(out - np.diag([0.0, 0.5, 0.5])).max() < 1e-9
    out = chan(np.eye(3) / 3)
    assert np.abs(out - np.eye(3) / 3).max() < 1e-9
    rng = np.random.default_rng(12)
    for rho in basis_states() + [rand_density(rng) for _ in range(50)]:
        assert np.abs(chan(rho) - ch.wh_apply(rho)).max() < 1e-9


def test_ls_circuit_induced_channel():
    chan, _, leak = _exact_channel(dc.ls_channel_circuit(dc.SConfig(4)))
    assert abs(leak) < 1e-10
    out = chan(np.diag([1.0, 0.0, 0.0]).astype(complex))
    assert np.abs(out - np.diag([0.5, 0.5, 0.0])).max() < 1e-9
    out = chan(np.diag([0.0, 1.0, 0.0]).astype(complex))
    assert np.abs(out - np.diag([0.5, 0.0, 0.5])).max() < 1e-9
    w = ch.covariance_unitary()
    rng = np.random.default_rng(14)
    for _ in range(50):
        rho = rand_density(rng)
        out = chan(rho)
        assert np.abs(out - ch.wh_apply(w @ rho @ w.conj().T)).max() < 1e-9
        assert np.abs(out - ch.ls_apply(rho)).max() < 1e-9


def test_all_four_configs_induce_identical_channel():
    rng = np.random.default_rng(15)
    rhos = basis_states() + [rand_density(rng) for _ in range(10)]
    chans = [_exact_channel(dc.wh_channel_circuit(dc.SConfig(k)))[0] for k in (1, 2, 3, 4)]
    for rho in rhos:
        outs = [c(rho) for c in chans]
        for o in outs[1:]:
            assert np.abs(o - outs[0]).max() < 1e-9


def test_circuit_channels_are_cptp_on_qutrit():
    for circ in (dc.wh_channel_circuit(), dc.ls_channel_circuit()):
        _, omega, _ = _exact_channel(circ)
        assert la.is_psd(omega, 1e-8)
        tr_out = la.partial_trace(omega, [3, 3], [0])
        assert np.abs(tr_out - np.eye(3) / 3).max() < 1e-8


def test_prep_basis_circuits():
    s2 = np.sqrt(2)
    want = {
        1: [1, 0, 0, 0],
        2: [0, 1, 0, 0],
        3: [0, 0, 1, 0],
        4: [1 / s2, 1 / s2, 0, 0],
        5: [1 / s2, 0, 1 / s2, 0],
        6: [0, 1 / s2, 1 / s2, 0],
        7: [1 / s2, 1j / s2, 0, 0],
        8: [1 / s2, 0, 1j / s2, 0],
        9: [0, 1 / s2, 1j / s2, 0],
    }
    psi0 = np.zeros(4); psi0[0] = 1
    for i in range(1, 10):
        out = cc.simulate_state(dc.prep_basis_circuit(i), psi0)
        assert np.abs(out - np.array(want[i])).max() < 1e-12, i
        assert abs(out[3]) < 1e-12  # never touches |11>
    assert dc.prep_basis_circuit(1).gates == []
    with pytest.raises(ValueError):
        dc.prep_basis_circuit(10)


def test_basis_density_matches_published_inputs():
    # the nine 3x3 input matrices, written out
    r4 = 0.5 * np.array([[1, 1, 0], [1, 1, 0], [0, 0, 0]])
    r7 = 0.5 * np.array([[1, -1j, 0], [1j, 1, 0], [0, 0, 0]])
    r9 = 0.5 * np.array([[0, 0, 0], [0, 1, -1j], [0, 1j, 1]])
    assert np.abs(dc.basis_density(4) - r4).max() < 1e-12
    assert np.abs(dc.basis_density(7) - r7).max() < 1e-12
    assert np.abs(dc.basis_density(9) - r9).max() < 1e-12


@pytest.mark.parametrize("bad", [True, 2.0, np.float64(2), "2", None])
def test_input_and_configuration_indices_must_be_integers(bad):
    # basis_density(True) read input 1, basis_density(2.0) raised numpy's
    # IndexError, prep_basis_circuit(2.0) built input 2 and SConfig(True) built 1
    with pytest.raises(ValueError, match="state index i must be an integer"):
        dc.basis_density(bad)
    with pytest.raises(ValueError, match="state index i must be an integer"):
        dc.prep_basis_circuit(bad)
    with pytest.raises(ValueError, match="configuration index k must be an integer"):
        dc.SConfig(bad)
    assert np.array_equal(dc.basis_density(np.int64(2)), dc.basis_density(2))
    assert [dc.SConfig(k).k for k in (1, 2, 3, 4)] == [1, 2, 3, 4]


def test_basis_states_are_fresh_copies():
    # the nine states are built once; a caller mutating its copy must not
    # change what the next caller gets
    first = dc.basis_density(4)
    want = first.copy()
    first[...] = 7.0
    assert np.array_equal(dc.basis_density(4), want)
    with pytest.raises(ValueError):
        dc.basis_density(10)


def test_prep_superposition():
    assert abs(dc.SUPERPOSITION_THETA - 1.9106) < 1e-3
    psi0 = np.zeros(4); psi0[0] = 1
    out = cc.simulate_state(dc.prep_superposition_circuit(), psi0)
    for i in range(3):
        assert abs(abs(out[i]) ** 2 - 1 / 3) < 1e-9
    assert abs(out[3]) < 1e-12
    # equal phases too: the state is (|00> + |01> + |10>)/sqrt3 up to global phase
    ref = np.array([1, 1, 1, 0]) / np.sqrt(3)
    assert la.equal_up_to_global_phase(out.reshape(4, 1), ref.reshape(4, 1), 1e-9)


def test_channel_circuits_route_onto_bundled_map():
    m = cp.preset_map("ibmqx4")
    for builder in (dc.wh_channel_circuit, dc.ls_channel_circuit):
        plain = builder(dc.SConfig(4))
        routed = cp.route_circuit(plain, m)
        assert cp.validate(routed, m) == []
        u = cc.unitary_of(routed)
        want = np.kron(cc.unitary_of(plain), np.eye(2))
        assert la.equal_up_to_global_phase(u, want, 1e-9)


def test_routing_error_propagates():
    # out of the experiment that routes the channel circuit
    disconnected = cp.CouplingMap(4, [(0, 1), (2, 3)])
    with pytest.raises(cp.RoutingError):
        cj.linear_tables(dc.wh_channel_circuit(dc.SConfig(4)), layout=disconnected)


def test_five_qubit_device_placement():
    # device-style placement: system pair on physical (3, 0), environment
    # pair on (2, 1); the system CNOT then needs the 4-CNOT relay
    m = cp.preset_map("ibmqx4")
    placement = {0: 2, 1: 1, 2: 3, 3: 0}
    plain = dc.ls_channel_circuit(dc.SConfig(4))
    routed = cp.route_circuit(plain, m, placement)
    assert cp.validate(routed, m) == []
    want = cc.unitary_of(plain.remapped([2, 1, 3, 0], n_qubits=5))
    assert la.equal_up_to_global_phase(cc.unitary_of(routed), want, 1e-9)


def test_purity_monotone_in_noise_on_channel_circuit():
    # purity of the simulated output is non-increasing in each noise
    # parameter separately, on the channel circuit for all nine basis inputs
    # (joint scaling can re-purify: strong damping drives toward |0..0>)
    circ = dc.wh_channel_circuit(dc.SConfig(4))
    for param in ("p1", "p2", "gamma"):
        for i in range(1, 10):
            rho_sys = enc.embed_density(dc.basis_density(i))
            env = np.zeros((4, 4), dtype=complex); env[0, 0] = 1
            rho0 = np.kron(env, rho_sys)
            purities = []
            for p in (0.0, 0.01, 0.05, 0.1):
                out = cc.simulate_density(circ, rho0, cc.NoiseConfig(**{param: p}))
                purities.append(float(np.trace(out @ out).real))
            assert all(purities[k] >= purities[k + 1] - 1e-12 for k in range(3)), (param, i)
