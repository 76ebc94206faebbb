import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qutritsim import choi as cj
from qutritsim import circuits as cc
from qutritsim import coupling as cp
from qutritsim import decompositions as dc
from qutritsim import linalg as la
from qutritsim import tomography as tg
from qutritsim.verify import _random_circuit as random_circuit


def test_gate_validation():
    with pytest.raises(ValueError):
        cc.Gate("u3", (0.1,), (0,))          # wrong param count
    with pytest.raises(ValueError):
        cc.Gate("cnot", (), (1, 1))          # duplicate qubits
    with pytest.raises(ValueError):
        cc.Gate("frobnicate", (), (0,))
    with pytest.raises(ValueError):
        cc.Circuit(2, [("x", (), (5,))])     # out of register
    for bad in ("1.5", True, np.True_, math.nan, math.inf, -np.inf, 1j, None,
                10 ** 400, -10 ** 400):
        # "1.5" and True were read as 1.5 and 1.0; a NaN angle made a NaN unitary;
        # an int too large for a float raised OverflowError
        with pytest.raises(ValueError, match="u1 angles must be finite real numbers"):
            cc.Gate("u1", (bad,), (0,))
        with pytest.raises(ValueError, match="u3 angles must be finite real numbers"):
            cc.Circuit(1).add("u3", (0.1, bad, 0.2), (0,))
    g = cc.Gate("u2", (np.float32(0.5), np.int64(2)), (0,))
    assert g.params == (0.5, 2.0) and all(type(p) is float for p in g.params)


def test_gate_matrix_u3_quarter_rotation():
    g = cc.Gate("u3", (np.pi / 4, 0.0, 0.0), (0,))
    want = np.array([[np.cos(np.pi / 8), -np.sin(np.pi / 8)],
                     [np.sin(np.pi / 8), np.cos(np.pi / 8)]])
    assert np.abs(cc.gate_matrix(g) - want).max() < 1e-15


def test_gate_matrix_u1_u2_h():
    assert np.abs(cc.gate_matrix(cc.Gate("u1", (0.0,), (0,))) - np.eye(2)).max() == 0
    u1 = cc.gate_matrix(cc.Gate("u1", (0.7,), (0,)))
    assert np.abs(u1 - np.diag([1.0, np.exp(0.7j)])).max() < 1e-15
    u2 = cc.gate_matrix(cc.Gate("u2", (0.3, 0.4), (0,)))
    u3 = cc.gate_matrix(cc.Gate("u3", (np.pi / 2, 0.3, 0.4), (0,)))
    assert np.abs(u2 - u3).max() < 1e-15
    h = cc.gate_matrix(cc.Gate("h", (), (0,)))
    assert np.abs(h - np.array([[1, 1], [1, -1]]) / np.sqrt(2)).max() < 1e-15


def test_all_gate_matrices_unitary():
    rng = np.random.default_rng(0)
    for name in cc.GATE_ARITY:
        n_par, n_q = cc.GATE_ARITY[name]
        g = cc.Gate(name, tuple(rng.uniform(-np.pi, np.pi, n_par)), tuple(range(n_q)))
        assert la.is_unitary(cc.gate_matrix(g), 1e-12), name


def test_unitary_of_empty_and_involution():
    assert np.abs(cc.unitary_of(cc.Circuit(2)) - np.eye(4)).max() == 0
    c = cc.Circuit(1, [("h", (), (0,)), ("h", (), (0,))])
    assert np.abs(cc.unitary_of(c) - np.eye(2)).max() < 1e-12


def test_unitary_of_matches_kron_order():
    # x on qubit 0 of two: qubit 0 is the most significant bit
    c = cc.Circuit(2, [("x", (), (0,))])
    want = np.kron(np.array([[0, 1], [1, 0]]), np.eye(2))
    assert np.abs(cc.unitary_of(c) - want).max() < 1e-14
    # cnot(0->1) standard matrix
    c2 = cc.Circuit(2, [("cnot", (), (0, 1))])
    want2 = np.zeros((4, 4))
    for q0 in (0, 1):
        for q1 in (0, 1):
            i = 2 * q0 + q1
            j = 2 * q0 + (q1 ^ q0)
            want2[j, i] = 1
    assert np.abs(cc.unitary_of(c2) - want2).max() == 0


def test_cnot_reversal_identity():
    # (H x H) cnot01 (H x H) == cnot10
    c = cc.Circuit(2, [("h", (), (0,)), ("h", (), (1,)), ("cnot", (), (0, 1)),
                       ("h", (), (0,)), ("h", (), (1,))])
    assert np.abs(cc.unitary_of(c) - cc.unitary_of(cc.Circuit(2, [("cnot", (), (1, 0))]))).max() < 1e-12


def test_unitary_of_random_circuit_is_unitary():
    rng = np.random.default_rng(3)
    for n in (2, 3, 4):
        c = random_circuit(rng, n, depth=15)
        assert la.is_unitary(cc.unitary_of(c), 1e-10)


def test_simulate_state_basics():
    c = cc.Circuit(1, [("x", (), (0,))])
    out = cc.simulate_state(c, np.array([1.0, 0.0]))
    assert np.abs(out - np.array([0, 1])).max() < 1e-15
    bell_in = np.zeros(4); bell_in[0] = bell_in[2] = 1 / np.sqrt(2)  # (|00>+|10>)/sqrt2
    out = cc.simulate_state(cc.Circuit(2, [("cnot", (), (0, 1))]), bell_in)
    want = np.zeros(4); want[0] = want[3] = 1 / np.sqrt(2)
    assert np.abs(out - want).max() < 1e-12
    with pytest.raises(ValueError):
        cc.simulate_state(c, np.array([1.0, 1.0]))


def test_simulate_state_matches_unitary():
    rng = np.random.default_rng(5)
    for _ in range(5):
        c = random_circuit(rng, 3, 12)
        u = cc.unitary_of(c)
        psi = rng.normal(size=8) + 1j * rng.normal(size=8)
        psi /= np.linalg.norm(psi)
        assert np.abs(cc.simulate_state(c, psi) - u @ psi).max() < 1e-10
        assert abs(np.linalg.norm(cc.simulate_state(c, psi)) - 1) < 1e-12


def test_simulate_density_noiseless_equals_conjugation():
    rng = np.random.default_rng(7)
    for _ in range(5):
        c = random_circuit(rng, 4, 12)
        u = cc.unitary_of(c)
        a = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        rho = a @ a.conj().T
        rho /= np.trace(rho)
        got = cc.simulate_density(c, rho)
        assert np.abs(got - u @ rho @ u.conj().T).max() < 1e-10
        got0 = cc.simulate_density(c, rho, cc.NoiseConfig())
        assert np.abs(got0 - got).max() < 1e-12


def test_noise_config_validation():
    with pytest.raises(ValueError):
        cc.NoiseConfig(p1=1.5)
    with pytest.raises(ValueError):
        cc.NoiseConfig(gamma=-0.1)
    for huge in (10 ** 400, -10 ** 400):  # float() of them raised OverflowError
        with pytest.raises(ValueError, match=r"readout_flip must be in \[0, 1\]"):
            cc.NoiseConfig(readout_flip=huge)


def test_noise_config_takes_only_real_numbers():
    for bad in (True, False, "0.1", None):
        with pytest.raises(ValueError, match="real number"):
            cc.NoiseConfig(p2=bad)
    noise = cc.NoiseConfig(p1=np.float64(0.25), p2=1, gamma=0)
    assert noise == cc.NoiseConfig(0.25, 1.0, 0.0, 0.0)
    assert all(type(v) is float for v in (noise.p1, noise.p2, noise.gamma, noise.readout_flip))


def test_full_depolarization():
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    c = cc.Circuit(1, [("x", (), (0,))])
    out = cc.simulate_density(c, rho0, cc.NoiseConfig(p1=1.0))
    assert np.abs(out - np.eye(2) / 2).max() < 1e-12


def test_excite_then_fully_damp():
    # amplitude damping oracle: K0 = diag(1, sqrt(1-g)), K1 = |0><1| sqrt(g)
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    c = cc.Circuit(1, [("x", (), (0,))])
    out = cc.simulate_density(c, rho0, cc.NoiseConfig(gamma=1.0))
    assert np.abs(out - rho0).max() < 1e-12
    # partial damping against hand Kraus evaluation
    g = 0.3
    out = cc.simulate_density(c, rho0, cc.NoiseConfig(gamma=g))
    k0 = np.array([[1, 0], [0, np.sqrt(1 - g)]])
    k1 = np.array([[0, np.sqrt(g)], [0, 0]])
    x = np.array([[0, 1], [1, 0]])
    want = k0 @ x @ rho0 @ x @ k0.T + k1 @ x @ rho0 @ x @ k1.T
    assert np.abs(out - want).max() < 1e-12


def test_noise_preserves_trace_and_psd():
    rng = np.random.default_rng(11)
    c = random_circuit(rng, 3, 10)
    rho = np.zeros((8, 8), dtype=complex); rho[0, 0] = 1
    out = cc.simulate_density(c, rho, cc.NoiseConfig(p1=0.03, p2=0.08, gamma=0.02))
    assert abs(np.trace(out) - 1) < 1e-10
    assert la.is_psd(out, 1e-9)


def test_purity_negative_noise_monotonicity():
    rng = np.random.default_rng(13)
    c = random_circuit(rng, 3, 10)
    rho = np.zeros((8, 8), dtype=complex); rho[0, 0] = 1
    purities = []
    for p in (0.0, 0.01, 0.05, 0.1):
        out = cc.simulate_density(c, rho, cc.NoiseConfig(p1=p, p2=p, gamma=p))
        purities.append(np.trace(out @ out).real)
    assert all(purities[i] >= purities[i + 1] - 1e-12 for i in range(3))


def test_sample_counts_deterministic_and_exact_cases():
    psi = np.array([1.0, 0.0])
    counts = cc.sample_counts(psi, 100, seed=1)
    assert np.array_equal(counts, [100, 0])
    a = cc.sample_counts(np.ones(4) / 2, 1000, seed=42)
    b = cc.sample_counts(np.ones(4) / 2, 1000, seed=42)
    assert np.array_equal(a, b)
    c2 = cc.sample_counts(np.ones(4) / 2, 1000, seed=43)
    assert not np.array_equal(a, c2)  # overwhelmingly likely


def test_sample_counts_frequencies():
    psi = np.array([1.0, 1.0]) / np.sqrt(2)
    counts = cc.sample_counts(psi, 10 ** 6, seed=7)
    assert abs(counts[0] / 10 ** 6 - 0.5) < 0.005
    counts = cc.sample_counts(np.array([1.0, 0.0]), 10 ** 6, seed=9, readout_flip=0.1)
    assert abs(counts[1] / 10 ** 6 - 0.1) < 0.005


def test_exact_counts():
    psi = np.array([1.0, 0.0, 1.0, 0.0]) / np.sqrt(2)
    ec = cc.exact_counts(psi)
    assert ec.dtype == float and ec[1] == ec[3] == 0.0
    assert abs(ec[0b00] - 0.5) < 1e-12 and abs(ec[0b10] - 0.5) < 1e-12


def test_circuit_remap():
    c = cc.Circuit(2, [("u3", (0.1, 0.2, 0.3), (0,)), ("cnot", (), (0, 1))])
    r = c.remapped([2, 3], n_qubits=4)
    assert r.gates[1].qubits == (2, 3)


@pytest.mark.parametrize("wires, n", [([0, 0], 2), ([1], 2), ([0, 2], 2), ([-1, 0], 2),
                                      ({0: 1}, 3), ([2, 3, 0], 4), ({0.0: 2, True: 3}, 4),
                                      ({0: 2, 1: 3, 7: 1}, 4)])
def test_circuit_remap_rejects_bad_wires(wires, n):
    # not injective, too short (list and dict), outside the new register,
    # too long, float and bool keys, an extra key (circuits.placed_wires)
    c = cc.Circuit(2, [("h", (), (0,)), ("x", (), (1,))])
    with pytest.raises(ValueError):
        c.remapped(wires, n)


@pytest.mark.parametrize("bad", [1.9, 1.0, True, False, np.True_, np.float64(1), "1", None])
def test_wires_must_be_integers(bad):
    # int() read 1.9 as wire 1 and True as wire 1
    c = cc.Circuit(2, [("h", (), (0,)), ("cnot", (), (0, 1))])
    with pytest.raises(ValueError, match="a wire must be an integer"):
        c.remapped([2, bad], 4)
    with pytest.raises(ValueError, match="a wire must be an integer"):
        c.remapped({0: 2, 1: bad}, 4)
    with pytest.raises(ValueError, match="a wire must be an integer"):
        cc.Gate("cnot", (), (0, bad))
    with pytest.raises(ValueError, match="a wire must be an integer"):
        cc.Gate("h", (), (bad,))


@pytest.mark.parametrize("bad", [2.5, 3.0, True])
def test_register_size_must_be_an_integer(bad):
    # Circuit(2.5) and Circuit(3.0) used to fail later inside unitary_of,
    # and Circuit(True) built a 1-qubit register
    with pytest.raises(ValueError, match="n_qubits must be an integer"):
        cc.Circuit(bad)


def test_numpy_integer_register_size_becomes_an_int():
    c = cc.Circuit(np.int64(3))
    assert c.n_qubits == 3 and type(c.n_qubits) is int
    assert cc.unitary_of(c).shape == (8, 8)
    with pytest.raises(ValueError, match="positive"):
        cc.Circuit(np.int64(0))


def test_numpy_integer_wires_become_ints():
    c = cc.Circuit(2, [("h", (), (np.int64(0),)), ("cnot", (), np.array([0, 1]))])
    r = c.remapped(np.array([3, 1], dtype=np.uint8), 4)
    assert [g.qubits for g in r.gates] == [(3,), (3, 1)]
    assert all(type(q) is int for g in c.gates + r.gates for q in g.qubits)


def test_gate_matrices_are_shared_and_read_only():
    params = {"u1": (0.3,), "u2": (0.1, 0.2), "u3": (0.1, 0.2, 0.3)}
    for name, (_, arity) in cc.GATE_ARITY.items():
        g = cc.Gate(name, params.get(name, ()), range(arity))
        m = cc.gate_matrix(g)
        assert cc.gate_matrix(cc.Gate(name, g.params, g.qubits[::-1])) is m
        with pytest.raises(ValueError):
            m[0, 0] = 2.0
        assert np.allclose(m @ m.conj().T, np.eye(len(m)))


def test_resource_error():
    with pytest.raises(cc.ResourceError):
        cc.unitary_of(cc.Circuit(cc.MAX_DENSE_QUBITS + 1))


# --- equivalence with the per-gate reference implementation ------------------
# The _ref_* functions apply each gate with its own tensordot: one state
# column at a time for unitary_of, rows then columns for densities, then
# per-qubit depolarizing (trace formula) and amplitude damping (Kraus sum).
# circuits.py runs all of these through one kernel and must agree.


def _ref_apply_gate_state(psi, g, n):
    u = cc.gate_matrix(g)
    k = len(g.qubits)
    t = psi.reshape((2,) * n)
    t = np.tensordot(u.reshape((2,) * (2 * k)), t, axes=(list(range(k, 2 * k)), list(g.qubits)))
    t = np.moveaxis(t, range(k), g.qubits)
    return t.reshape(-1)


def _ref_apply_gate_density(rho, g, n):
    u = cc.gate_matrix(g)
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


def _ref_unitary_of(c):
    d = 2 ** c.n_qubits
    u = np.eye(d, dtype=complex)
    for col in range(d):
        psi = np.zeros(d, dtype=complex)
        psi[col] = 1.0
        for g in c.gates:
            psi = _ref_apply_gate_state(psi, g, c.n_qubits)
        u[:, col] = psi
    return u


def _ref_depolarize(rho, q, n, p):
    if p == 0.0:
        return rho
    t = rho.reshape((2,) * (2 * n))
    red = np.trace(t, axis1=q, axis2=n + q)
    mixed = np.tensordot(np.eye(2) / 2, red, axes=0)
    mixed = np.moveaxis(mixed, (0, 1), (q, n + q))
    return (1 - p) * rho + p * mixed.reshape(rho.shape)


def _ref_amp_damp(rho, q, n, gamma):
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


def _ref_simulate_density(c, rho, noise=cc.NoiseConfig()):
    n = c.n_qubits
    for g in c.gates:
        rho = _ref_apply_gate_density(rho, g, n)
        if not noise.p1 == noise.p2 == noise.gamma == 0.0:
            p = noise.p2 if g.name == "cnot" else noise.p1
            for q in g.qubits:
                rho = _ref_depolarize(rho, q, n, p)
            for q in g.qubits:
                rho = _ref_amp_damp(rho, q, n, noise.gamma)
    return rho


def _ref_exact_readout(p, readout_flip):
    n = int(round(math.log2(p.size)))
    m = np.array([[1 - readout_flip, readout_flip], [readout_flip, 1 - readout_flip]])
    t = p.reshape((2,) * n)
    for q in range(n):
        t = np.tensordot(m, t, axes=([1], [q]))
        t = np.moveaxis(t, 0, q)
    return t.reshape(-1)


def _routed_channel_circuits():
    ibm = cp.preset_map("ibmqx4")
    yield cp.route_circuit(dc.ls_channel_circuit(), ibm, {0: 2, 1: 1, 2: 3, 3: 0})
    yield cp.route_circuit(dc.wh_channel_circuit(dc.SConfig(2)), ibm)
    tokyo6 = cp.preset_map("tokyo-6q")
    yield cp.route_circuit(cj.choi_direct_circuit(dc.wh_channel_circuit()), tokyo6,
                           dict(enumerate([5, 0, 3, 1, 4, 2])))
    yield cp.route_circuit(cj.choi_direct_circuit(dc.ls_channel_circuit()), tokyo6)


def test_unitary_of_matches_per_column_reference():
    # From 3 qubits on, every per-column product has at least 4 columns, so
    # the batched product runs the same BLAS arithmetic and must be exact.
    # At 1-2 qubits the reference multiplies 1- or 2-column blocks, which
    # BLAS rounds through other kernels: there it may differ in the last bit.
    rng = np.random.default_rng(23)
    circuits = [random_circuit(rng, n, int(rng.integers(0, 40)))
                for n in range(1, 8) for _ in range(8)]
    for c in circuits + list(_routed_channel_circuits()):
        diff = np.abs(cc.unitary_of(c) - _ref_unitary_of(c)).max()
        assert diff <= (0.0 if c.n_qubits >= 3 else 1e-15), (c.n_qubits, diff)


def test_simulate_state_matches_per_gate_reference_exactly():
    rng = np.random.default_rng(29)
    for n in range(1, 7):
        for _ in range(4):
            c = random_circuit(rng, n, 30)
            psi = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
            psi /= np.linalg.norm(psi)
            want = psi
            for g in c.gates:
                want = _ref_apply_gate_state(want, g, n)
            assert np.array_equal(cc.simulate_state(c, psi), want)
    # A stack runs as one batch of columns, whose stored axis order moves
    # from gate to gate; each state must still get the reference's bits.
    # From 3 qubits on it is exact; at 1-2 qubits the reference's 1- or
    # 2-column products may round in the last bit (as in
    # test_unitary_of_matches_per_column_reference).
    for n in range(1, 7):
        c = random_circuit(rng, n, 30)
        stacks = [_random_states(rng, (b,), 2 ** n) for b in (2, 3, 9)]
        stacks.append(_random_states(rng, (4,), 2 ** n).T.copy().T)   # a transposed view
        for psi in stacks:
            got = cc.simulate_state(c, psi)
            for i, state in enumerate(psi):
                want = state
                for g in c.gates:
                    want = _ref_apply_gate_state(want, g, n)
                diff = np.abs(got[i] - want).max()
                assert diff <= (0.0 if n >= 3 else 1e-15), (n, len(psi), diff)


_noise = st.builds(cc.NoiseConfig, p1=st.floats(0, 1), p2=st.floats(0, 1),
                   gamma=st.floats(0, 1), readout_flip=st.floats(0, 0.2))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1),
       noise=st.one_of(st.just(cc.NoiseConfig()), _noise))
def test_simulate_density_matches_gate_by_gate_reference(n, seed, noise):
    rng = np.random.default_rng(seed)
    c = random_circuit(rng, n, 20)
    a = rng.normal(size=(2 ** n, 2 ** n)) + 1j * rng.normal(size=(2 ** n, 2 ** n))
    rho = a @ a.conj().T
    rho /= np.trace(rho)
    got = cc.simulate_density(c, rho, noise)
    assert np.abs(got - _ref_simulate_density(c, rho, noise)).max() < 1e-12


def _ref_density_loop(c, rho, noise):
    # the density loop in logical axis order (row q.., col q.., batch): each
    # superoperator's axes gathered to the front, one np.dot, transposed back
    n, d = c.n_qubits, 2 ** c.n_qubits
    t = np.moveaxis(rho.reshape(-1, d, d), 0, -1).reshape((2,) * (2 * n) + (-1,))
    for g, superop in zip(c.gates, cc.gate_superops(c.gates, noise)):
        axes = g.qubits + tuple(n + q for q in g.qubits)
        rest = [a for a in range(t.ndim) if a not in axes]
        src = (*axes, *rest)
        shape = (2,) * len(axes) + tuple(t.shape[a] for a in rest)
        t = np.dot(superop, t.transpose(src).reshape(len(superop), -1)).reshape(shape)
        t = t.transpose(np.argsort(src))
    return np.moveaxis(t.reshape(d, d, -1), -1, 0).reshape(rho.shape)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 5), seed=st.integers(0, 2 ** 32 - 1), noise=_noise,
       shape=st.sampled_from([(), (1,), (3,), (2, 3)]))
def test_simulate_density_matches_per_gate_kernel_loop_exactly(n, seed, noise, shape):
    rng = np.random.default_rng(seed)
    c = random_circuit(rng, n, 20)
    rho = _random_densities(rng, shape, 2 ** n)
    assert np.array_equal(cc.simulate_density(c, rho, noise),
                          _ref_density_loop(c, rho, noise))


def test_noisy_routed_density_matches_gate_by_gate_reference():
    noise = cc.NoiseConfig(p1=0.01, p2=0.1, gamma=0.02, readout_flip=0.01)
    for c in _routed_channel_circuits():
        d = 2 ** c.n_qubits
        rho = np.zeros((d, d), dtype=complex)
        rho[0, 0] = 1.0
        for nz in (cc.NoiseConfig(), noise):
            got = cc.simulate_density(c, rho, nz)
            assert np.abs(got - _ref_simulate_density(c, rho, nz)).max() < 1e-12


def test_noiseless_density_beyond_unitary_of_limit():
    # the per-gate superoperators need no 2^n x 2^n unitary, so unitary_of's
    # 6-qubit limit does not apply to densities
    rng = np.random.default_rng(37)
    c = random_circuit(rng, 7, 12)
    rho = np.zeros((128, 128), dtype=complex)
    rho[0, 0] = 1.0
    got = cc.simulate_density(c, rho)
    assert np.abs(got - _ref_simulate_density(c, rho)).max() < 1e-12


def test_exact_readout_matches_reference():
    rng = np.random.default_rng(31)
    for n in range(1, 7):
        for flip in (1e-3, 0.05, 0.5):
            p = rng.uniform(size=2 ** n) * (rng.uniform(size=2 ** n) < 0.7)
            p[0] += 0.1
            p /= p.sum()
            got = cc.sample_table(cc.apply_readout(p[None], flip), 0, None)
            assert got.shape == p[None].shape and got.dtype == float
            assert np.array_equal(got[0], _ref_exact_readout(p, flip))


def test_outcome_tables_apply_readout_once_to_the_stack():
    # The flip of outcome_tables, over the whole stack at once, is the flip
    # of each row of the same table built without readout error, and bit for
    # bit the flip of each table on its own, so no output depends on how many
    # tables share the call.
    # From 2 qubits on the reference's per-row product has at least 2
    # columns and must be exact; a 1-qubit row is a matrix-vector product,
    # which BLAS rounds through another kernel: there it may differ in the
    # last bit.
    rng = np.random.default_rng(41)
    for k in range(1, 5):
        a = rng.normal(size=(3, 2 ** k, 2 ** k)) + 1j * rng.normal(size=(3, 2 ** k, 2 ** k))
        rho = a @ a.conj().transpose(0, 2, 1)
        rho /= np.trace(rho, axis1=1, axis2=2)[:, None, None]
        for gates in (cc.NoiseConfig(), cc.NoiseConfig(p1=0.02, gamma=0.01)):
            clean = tg.outcome_tables(rho, gates)
            for flip in (1e-3, 0.05, 0.5):
                noise = cc.NoiseConfig(p1=gates.p1, gamma=gates.gamma, readout_flip=flip)
                got = tg.outcome_tables(rho, noise)
                assert got.shape == clean.shape == (3, 3 ** k, 2 ** k)
                assert not got.flags.writeable
                with pytest.raises(ValueError):
                    got[0, 0, 0] = 1.0
                assert np.array_equal(got, [cc.apply_readout(t, flip) for t in clean])
                want = np.array([[_ref_exact_readout(row, flip) for row in t] for t in clean])
                diff = np.abs(got - want).max()
                assert diff <= (0.0 if k >= 2 else np.finfo(float).eps), (k, flip, diff)


def _chi2_sf(x, df):
    """Upper tail P(X >= x) of a chi-square variable with df degrees of
    freedom, by the closed-form series for integer df."""
    h = x / 2
    if df % 2 == 0:
        return math.exp(-h) * sum(h ** i / math.factorial(i) for i in range(df // 2))
    return math.erfc(math.sqrt(h)) + math.exp(-h) * sum(
        h ** (i + 0.5) / math.gamma(i + 1.5) for i in range((df - 1) // 2))


def _compositions(shots, d):
    """Every count vector of shots over d outcomes."""
    if d == 1:
        return [(shots,)]
    return [(k,) + rest for k in range(shots + 1) for rest in _compositions(shots - k, d - 1)]


def test_sampled_readout_follows_multinomial_of_flipped_distribution():
    # Significance 0.001 per case, 20000 draws per case, 8 cases: the rows of
    # one sample_table call on apply_readout's rows must be i.i.d.
    # Multinomial(shots, q) with q = (F (x) ... (x) F) p, F the 2x2 bit-flip
    # matrix for flip 0.2.
    alpha, draws, flip = 1e-3, 20000, 0.2
    f = np.array([[1 - flip, flip], [flip, 1 - flip]])
    rng = np.random.default_rng(2024)
    for n in (1, 2):
        p = rng.dirichlet(np.ones(2 ** n))
        q = (f if n == 1 else np.kron(f, f)) @ p
        for shots in range(1, 5):
            table = cc.sample_table(cc.apply_readout(np.tile(p, (draws, 1)), flip), shots, rng)
            assert table.shape == (draws, 2 ** n) and np.all(table.sum(axis=1) == shots)
            seen = {}
            for row in map(tuple, table.tolist()):
                seen[row] = seen.get(row, 0) + 1
            cells = _compositions(shots, 2 ** n)
            assert set(seen) <= set(cells)
            pmf = [math.factorial(shots) * math.prod(qi ** k / math.factorial(k)
                                                     for qi, k in zip(q, cell))
                   for cell in cells]
            # pool cells expected fewer than 5 times into one
            obs, exp, rest_obs, rest_exp = [], [], 0, 0.0
            for cell, pr in zip(cells, pmf):
                if draws * pr < 5:
                    rest_obs, rest_exp = rest_obs + seen.get(cell, 0), rest_exp + draws * pr
                else:
                    obs.append(seen.get(cell, 0))
                    exp.append(draws * pr)
            if rest_exp > 0:
                obs.append(rest_obs)
                exp.append(rest_exp)
            stat = sum((o - e) ** 2 / e for o, e in zip(obs, exp))
            assert _chi2_sf(stat, len(obs) - 1) > alpha, (n, shots, stat, len(obs))


# --- the gate kernel against tensordot + moveaxis ---------------------------
# _ref_apply is the kernel as np.tensordot then np.moveaxis; circuits._apply
# builds the same operands for the same BLAS product and must agree bit for
# bit, on fresh arrays and on the transposed views the kernel itself returns.


def _ref_apply(t, m, axes):
    k = len(axes)
    t = np.tensordot(m.reshape((2,) * (2 * k)), t, axes=(list(range(k, 2 * k)), list(axes)))
    return np.moveaxis(t, range(k), axes)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 6), k=st.integers(1, 2), batch=st.integers(1, 9),
       density=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_apply_matches_tensordot_moveaxis_kernel(n, k, batch, density, seed):
    k = min(k, n)
    rng = np.random.default_rng(seed)
    # state layout (q.., batch), or noisy-density layout (row q.., col q.., batch)
    shape = (2,) * (2 * n if density else n) + (batch,)
    got = want = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    for _ in range(3):
        qubits = [int(q) for q in rng.permutation(n)[:k]]
        axes = qubits + [n + q for q in qubits] if density else qubits
        d = 2 ** len(axes)
        m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        got, want = cc._apply(got, m, axes), _ref_apply(want, m, axes)
        assert got.shape == want.shape
        assert np.array_equal(got, want)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 6), batch=st.integers(1, 9), seed=st.integers(0, 2 ** 32 - 1))
def test_run_permutation_gates_match_dense_kernel(n, batch, seed):
    # _run permutes data for CNOT and X; _apply with the dense matrix must agree
    # bit for bit, on fresh arrays and on the transposed views _apply returns
    rng = np.random.default_rng(seed)
    shape = (2,) * n + (batch,)
    got = want = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    for _ in range(6):
        qubits = tuple(int(q) for q in rng.permutation(n)[:2])
        g = cc.Gate("cnot", (), qubits) if len(qubits) == 2 and rng.random() < 0.6 \
            else cc.Gate("x", (), qubits[:1])
        before = got
        got = cc._run(cc.Circuit(n, [g]), got)
        want = cc._apply(want, cc.gate_matrix(g), g.qubits)
        assert got.shape == want.shape and np.array_equal(got, want)
        assert not np.shares_memory(got, before)
        if rng.random() < 0.5:
            q = [int(rng.integers(n))]
            m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            got, want = cc._apply(got, m, q), cc._apply(want, m, q)
            assert np.array_equal(got, want)


# --- real gates in real arithmetic -------------------------------------------
# _run multiplies a gate with no imaginary part (h, z, u3(theta, 0, 0)) into
# a real tensor as a float64 matrix, and into a complex tensor as the
# complex matrix.  Each must be bit for bit np.dot of the complex matrix
# with the complex tensor, the product of a run that is complex throughout.
# Real tensors come only from unitary_of, whose run has at least two
# columns; a single column goes through the matrix-vector routine, whose
# real and complex roundings differ.  These are measured roundings of the
# BLAS kernels (circuits module docstring): a failure on another BLAS or CPU
# means different kernel rounding, not wrong arithmetic.
_real_gate = st.one_of(st.sampled_from([("h", ()), ("z", ())]),
                       st.floats(-4.0, 4.0).map(lambda th: ("u3", (th, 0.0, 0.0))))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(gate=_real_gate, n=st.integers(1, 6), batch=st.integers(1, 128), real=st.booleans(),
       transposed=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_run_real_gate_matches_complex_product(gate, n, batch, real, transposed, seed):
    # columns 2^(n-1) * batch run from 1 (n = 1, batch = 1) to 4096; 2 and up
    # on a real tensor, as in unitary_of
    if real and n == 1 and batch == 1:
        batch = 2
    rng = np.random.default_rng(seed)
    name, params = gate
    q = int(rng.integers(n))
    g = cc.Gate(name, params, (q,))
    assert not cc.gate_matrix(g).imag.any()
    shape = (2,) * n + (batch,)
    t = rng.normal(size=shape) if real else rng.normal(size=shape) + 1j * rng.normal(size=shape)
    if transposed:  # the same values in a permuted memory layout
        perm = rng.permutation(n + 1)
        t = np.ascontiguousarray(t.transpose(perm)).transpose(np.argsort(perm))
    x = np.moveaxis(t.astype(complex), q, 0)
    want = np.moveaxis(np.dot(cc.gate_matrix(g), x.reshape(2, -1)).reshape(x.shape), 0, q)
    got = cc._run(cc.Circuit(n, [g]), t)
    assert got.dtype == (float if real else complex)
    assert got.shape == want.shape and np.array_equal(got, want)
    assert not np.shares_memory(got, t)


def _real_or_mixed_circuit(rng, n, depth, complex_at):
    """depth gates with no imaginary part (h, z, x, cnot, u3(theta, 0, 0)),
    and when complex_at is "first", "middle" or "last" one u1, u3 or y there."""
    c = cc.Circuit(n)
    for _ in range(depth):
        name = rng.choice(["h", "z", "x", "u3"] + ["cnot"] * (n >= 2))
        if name == "cnot":
            c.add("cnot", (), tuple(int(w) for w in rng.choice(n, size=2, replace=False)))
        else:
            th = float(rng.uniform(-np.pi, np.pi))
            c.add(name, (th, 0.0, 0.0) if name == "u3" else (), (int(rng.integers(n)),))
    if complex_at is not None:
        name = rng.choice(["u1", "u3", "y"])
        g = cc.Gate(name, tuple(rng.uniform(-np.pi, np.pi, cc.GATE_ARITY[name][0])),
                    (int(rng.integers(n)),))
        c.gates.insert({"first": 0, "middle": depth // 2, "last": depth}[complex_at], g)
    return c


def _complex_run(c, t):
    """The kernel run complex throughout: the per-gate _apply of each gate's
    complex matrix, permutations included."""
    t = t.astype(complex)
    for g in c.gates:
        t = cc._apply(t, cc.gate_matrix(g), g.qubits)
    return t


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 6), depth=st.integers(0, 40), seed=st.integers(0, 2 ** 32 - 1),
       complex_at=st.sampled_from([None, None, "first", "middle", "last"]))
def test_real_and_mixed_circuits_match_complex_run_exactly(n, depth, seed, complex_at):
    rng = np.random.default_rng(seed)
    c = _real_or_mixed_circuit(rng, n, depth, complex_at)
    d = 2 ** n
    u = cc.unitary_of(c)
    assert u.dtype == np.complex128 and u.flags.c_contiguous and u.flags.writeable
    assert np.array_equal(u, _complex_run(c, np.eye(d).reshape((2,) * n + (d,))).reshape(d, d))
    for shape in ((), (3,)):
        psi = _random_states(rng, shape, d)
        got = cc.simulate_state(c, psi)
        assert got.dtype == np.complex128 and not np.shares_memory(got, psi)
        cols = psi.reshape(-1, d).T.reshape((2,) * n + (-1,))
        want = _complex_run(c, cols).reshape(d, -1).T.reshape(psi.shape)
        assert np.array_equal(got, want)


def _ref_superop(g, noise):
    cnot_qubit = cc._qubit_noise(noise.p2, noise.gamma)
    cnot_noise = np.kron(cnot_qubit, cnot_qubit).reshape((2,) * 8)
    gate_noise = {1: cc._qubit_noise(noise.p1, noise.gamma),
                  2: cnot_noise.transpose(0, 2, 1, 3, 4, 6, 5, 7).reshape(16, 16)}
    u = cc.gate_matrix(g)
    return gate_noise[len(g.qubits)] @ np.kron(u, u.conj())


def test_gate_superops_shared_and_equal_to_kron_exactly():
    rng = np.random.default_rng(47)
    noise = cc.NoiseConfig(p1=0.01, p2=0.1, gamma=0.02)
    for c in list(_routed_channel_circuits()) + [random_circuit(rng, 3, 30)]:
        superops = cc.gate_superops(c.gates, noise)
        for g, s in zip(c.gates, superops):
            assert np.array_equal(s, _ref_superop(g, noise))
        assert len({id(s) for s in superops}) == len({(g.name, g.params) for g in c.gates})
        # the whole noisy run equals a per-gate kron + tensordot loop bit for bit
        n, d = c.n_qubits, 2 ** c.n_qubits
        rho = np.zeros((d, d), dtype=complex)
        rho[0, 0] = 1.0
        t = rho.reshape((2,) * (2 * n) + (1,))
        for g in c.gates:
            t = _ref_apply(t, _ref_superop(g, noise), g.qubits + tuple(n + q for q in g.qubits))
        assert np.array_equal(cc.simulate_density(c, rho, noise), t.reshape(d, d))


def test_gate_superops_shared_across_calls_and_read_only():
    noise = cc.NoiseConfig(p1=0.01, p2=0.1, gamma=0.02)
    gates = dc.ls_channel_circuit().gates
    first = cc.gate_superops(gates, noise)
    # an equal NoiseConfig, not the same object, finds the same entries
    second = cc.gate_superops(gates, cc.NoiseConfig(p1=0.01, p2=0.1, gamma=0.02))
    for g, a, b in zip(gates, first, second):
        assert a is b
        assert np.array_equal(a, _ref_superop(g, noise))
        with pytest.raises(ValueError):
            a[0, 0] = 1.0


def _ref_effect_tensor(noise):
    # each pre-rotation run through simulate_density on qubit 0 of two, the
    # idle qubit 1 keeping a reference copy of the input |i><j|
    pair = np.zeros((4, 4), dtype=complex)
    pair[np.ix_([0, 3], [0, 3])] = 1.0
    e = np.empty((3, 2, 2, 2), dtype=complex)
    for b, basis in enumerate(tg.BASES):
        out = cc.simulate_density(cc.Circuit(2, tg.prerotation_gates(basis)), pair, noise)
        e[b] = np.einsum("oioj->oij", out.reshape(2, 2, 2, 2))
    return e


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(noise=st.one_of(st.just(cc.NoiseConfig()), _noise))
def test_effect_tensor_matches_two_qubit_density_reference(noise):
    assert np.abs(tg._effect_tensor(noise) - _ref_effect_tensor(noise)).max() <= 1e-15


def test_sampling_shots_bounded_by_int64():
    p = np.ones((1, 4)) / 4
    rng = np.random.default_rng(0)
    # a multinomial would truncate a fractional count (0.5 draws nothing)
    for bad in (-1, 2 ** 63, 2 ** 64, 0.5, 2.5, 7.9, True, np.float64(3.0)):
        with pytest.raises(ValueError, match="shots"):
            cc.sample_table(p, bad, rng)
        with pytest.raises(ValueError, match="shots"):
            cc.sample_counts(np.ones(4) / 2, bad, 0)
    with pytest.raises(ValueError, match="shots"):
        cc.sample_counts(np.ones(4) / 2, 0, 0)
    assert cc.sample_table(cc.apply_readout(p, 0.01), cc.MAX_SHOTS, rng).sum() == cc.MAX_SHOTS
    for shots in (np.int64(7), np.uint8(7)):  # numpy integers are shot counts
        assert np.array_equal(cc.sample_table(p, shots, np.random.default_rng(1)),
                              cc.sample_table(p, 7, np.random.default_rng(1)))
        assert np.array_equal(cc.sample_counts(np.ones(4) / 2, shots, 1),
                              cc.sample_counts(np.ones(4) / 2, 7, 1))


# --- stacks: one batched call against per-input calls ------------------------


def _random_states(rng, shape, d):
    psi = rng.normal(size=shape + (d,)) + 1j * rng.normal(size=shape + (d,))
    return psi / np.linalg.norm(psi, axis=-1, keepdims=True)


def _random_densities(rng, shape, d):
    a = rng.normal(size=shape + (d, d)) + 1j * rng.normal(size=shape + (d, d))
    rho = a @ la.dagger(a)
    return rho / np.trace(rho, axis1=-2, axis2=-1)[..., None, None]


def test_simulate_state_stack_matches_per_state_calls():
    rng = np.random.default_rng(41)
    for n in range(1, 6):
        c = random_circuit(rng, n, 25)
        for shape in ((1,), (9,), (2, 3)):
            psi = _random_states(rng, shape, 2 ** n)
            got = cc.simulate_state(c, psi)
            assert got.shape == psi.shape
            for idx in np.ndindex(shape):
                assert np.abs(got[idx] - cc.simulate_state(c, psi[idx])).max() < 1e-12


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1),
       noise=st.one_of(st.just(cc.NoiseConfig()), _noise),
       shape=st.sampled_from([(1,), (9,), (2, 3)]))
def test_simulate_density_stack_matches_per_matrix_calls(n, seed, noise, shape):
    rng = np.random.default_rng(seed)
    c = random_circuit(rng, n, 15)
    rho = _random_densities(rng, shape, 2 ** n)
    got = cc.simulate_density(c, rho, noise)
    assert got.shape == rho.shape
    for idx in np.ndindex(shape):
        assert np.abs(got[idx] - cc.simulate_density(c, rho[idx], noise)).max() < 1e-12
        assert np.abs(got[idx] - _ref_simulate_density(c, rho[idx], noise)).max() < 1e-12


def test_simulations_return_fresh_arrays():
    # a write into the output must never reach the input, also when the
    # circuit has no gates and the output equals the input
    rng = np.random.default_rng(47)
    for c in (cc.Circuit(2), random_circuit(rng, 2, 6)):
        for shape in ((), (3,)):
            psi, rho = _random_states(rng, shape, 4), _random_densities(rng, shape, 4)
            runs = [(psi, cc.simulate_state(c, psi))]
            runs += [(rho, cc.simulate_density(c, rho, noise))
                     for noise in (cc.NoiseConfig(), cc.NoiseConfig(p1=0.1))]
            for x, out in runs:
                assert out.shape == x.shape
                assert not np.shares_memory(out, x)
                if not c.gates:
                    assert np.abs(out - x).max() < 1e-15


def test_simulate_stack_shape_and_normalization_errors():
    rng = np.random.default_rng(43)
    c = random_circuit(rng, 3, 10)
    with pytest.raises(ValueError):
        cc.simulate_state(c, _random_states(rng, (4,), 4))          # 2 qubits, not 3
    with pytest.raises(ValueError):
        cc.simulate_state(c, np.array(1.0))
    with pytest.raises(ValueError):
        cc.simulate_density(c, _random_densities(rng, (4,), 4))
    with pytest.raises(ValueError):
        cc.simulate_density(c, np.ones((3, 8, 4)) / 8)               # not square
    for noise in (cc.NoiseConfig(), cc.NoiseConfig(p1=0.1)):
        with pytest.raises(ValueError):
            cc.simulate_density(c, np.ones((2, 8)), noise)           # a state, not a density
    psi = _random_states(rng, (5,), 8)
    psi[3] *= 1.01  # one non-normalized state anywhere in the stack
    with pytest.raises(ValueError, match="normalized"):
        cc.simulate_state(c, psi)


def test_density_register_above_budget_raises_before_allocating():
    # the guard runs before the input is looked at, so a tiny input suffices
    c = cc.Circuit(cc.MAX_DENSE_QUBITS + 1)
    for noise in (cc.NoiseConfig(), cc.NoiseConfig(p1=0.1)):
        with pytest.raises(cc.ResourceError, match=f"{cc.MAX_DENSE_QUBITS + 1}-qubit"):
            cc.simulate_density(c, np.eye(2), noise)
