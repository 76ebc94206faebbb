import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qutritsim import channels as ch
from qutritsim import choi as cj
from qutritsim import circuits as cc
from qutritsim import decompositions as dc
from qutritsim import encoding as enc
from qutritsim import linalg as la
from qutritsim import tomography as tg

from qutritsim.verify import _random_circuit as random_circuit

from test_channels import rand_density
from test_linalg import (_ref_hermitian_eig, _ref_project_to_density, _ref_sqrtm_psd,
                         _stack_property, hermitian_stacks)


def test_settings_enumeration():
    s2 = tg.settings_for(2)
    assert len(s2) == 9
    assert s2[0] == "ZZ" and s2[1] == "ZX"
    assert len(tg.settings_for(4)) == 81


def test_prerotations_map_eigenbasis():
    # +1 eigenstates of X and Y land on |0>
    plus = np.array([1, 1]) / np.sqrt(2)
    plus_i = np.array([1, 1j]) / np.sqrt(2)
    for basis, state in (("X", plus), ("Y", plus_i)):
        frag = cc.Circuit(1, tg.prerotation_gates(basis))
        out = cc.simulate_state(frag, state)
        assert abs(abs(out[0]) - 1) < 1e-12, basis


def test_collect_identity_circuit():
    for k in (1, 2, 3):
        table = tg.collect(cc.Circuit(k), shots=100, seed=5)
        assert isinstance(table, np.ndarray) and table.shape == (3 ** k, 2 ** k)
        zz = table[tg.settings_for(k).index("Z" * k)]
        assert zz[0] == 100 and not zz[1:].any()


def test_collect_bell_parity():
    c = cc.Circuit(2, [("h", (), (0,)), ("cnot", (), (0, 1))])
    table = tg.collect(c, shots=20000, seed=3)
    xx = table[tg.settings_for(2).index("XX")]
    even = sum(v for b, v in enumerate(xx) if bin(b).count("1") % 2 == 0)
    assert even / 20000 > 0.99


def test_collect_deterministic_and_order_independent():
    c = cc.Circuit(2, [("h", (), (0,))])
    a = tg.collect(c, shots=500, seed=11)
    b = tg.collect(c, shots=500, seed=11)
    assert np.array_equal(a, b)


def _prep_state(i):
    """The embedded 4-vector prep_basis_circuit(i) makes from |00>."""
    zero = np.zeros(4, dtype=complex)
    zero[0] = 1.0
    return cc.simulate_state(dc.prep_basis_circuit(i), zero)


def test_reconstruct_exact_record():
    # exact-probability tables invert exactly
    rng = np.random.default_rng(2)
    for i in (1, 4, 7, 9):
        c = dc.prep_basis_circuit(i)
        rho = tg.reconstruct_state(tg.collect(c, shots=0, seed=0))
        psi = _prep_state(i)
        want = np.outer(psi, psi.conj())
        assert np.abs(rho - want).max() < 1e-9, i
    # and on a mixed state from a noisy circuit; CNOT-only noise so the
    # measurement pre-rotations (one-qubit gates) stay exact
    c = cc.Circuit(2, [("u3", (0.7, 0.2, 1.1), (0,)), ("cnot", (), (0, 1))])
    noise = cc.NoiseConfig(p2=0.1)
    rho = tg.reconstruct_state(tg.collect(c, shots=0, seed=0, noise=noise))
    psi0 = np.zeros((4, 4), dtype=complex); psi0[0, 0] = 1
    want = cc.simulate_density(c, psi0, noise)
    assert np.abs(rho - want).max() < 1e-9


def test_reconstruct_projects_to_physical():
    # a sampled table whose linear inversion has a negative eigenvalue
    rho = tg.reconstruct_state(tg.collect(dc.prep_basis_circuit(4), shots=64, seed=1))
    w, _ = la.hermitian_eig(rho)
    assert w[-1] >= -1e-12
    assert abs(np.trace(rho) - 1) < 1e-12


def test_reconstruct_2q_shot_noise_fidelity():
    psi = _prep_state(6)
    target = np.outer(psi, psi.conj())
    c = dc.prep_basis_circuit(6)
    fids = []
    for seed in range(20):
        rho = tg.reconstruct_state(tg.collect(c, shots=8192, seed=seed))
        fids.append(tg.fidelity(rho, target))
    assert min(fids) >= 0.97


def test_reconstruct_qutrit():
    table = tg.collect(dc.prep_basis_circuit(3), shots=0, seed=0)
    rho3, leak = enc.project_qutrit(tg.reconstruct_state(table))
    assert np.abs(rho3 - np.diag([0, 0, 1.0])).max() < 1e-9
    assert abs(leak) < 1e-9


def test_reconstruct_qutrit_readout_leakage():
    noise = cc.NoiseConfig(readout_flip=0.05)
    table = tg.collect(dc.prep_basis_circuit(1), shots=0, seed=0, noise=noise)
    _, leak = enc.project_qutrit(tg.reconstruct_state(table))
    assert 0.0 < leak < 0.02  # double flip onto |11> is ~flip^2


def test_reconstruct_channel_output_high_shots():
    circ = dc.ls_channel_circuit()
    full = cc.Circuit(4)
    full.extend(dc.prep_basis_circuit(1).remapped([2, 3], 4).gates)
    full.extend(circ.gates)
    table = tg.collect(full, shots=10 ** 6, seed=42, measure_qubits=(2, 3))
    rho3, _ = enc.project_qutrit(tg.reconstruct_state(table))
    assert tg.fidelity(rho3, np.diag([0.5, 0.5, 0.0]).astype(complex)) >= 0.999


def test_incomplete_record_rejected():
    table = tg.collect(cc.Circuit(2), shots=4, seed=0)
    with pytest.raises(ValueError):
        tg.reconstruct_state(table[:-1])


def test_fidelity_basic_values():
    rng = np.random.default_rng(3)
    rho = rand_density(rng)
    assert abs(tg.fidelity(rho, rho) - 1) < 1e-9
    p0 = np.diag([1.0, 0.0]).astype(complex)
    p1 = np.diag([0.0, 1.0]).astype(complex)
    assert tg.fidelity(p0, p1) < 1e-12
    plus = np.ones((2, 2)) / 2
    assert abs(tg.fidelity(p0, plus) - 0.5) < 1e-10


def test_fidelity_symmetry_and_pure_overlap():
    rng = np.random.default_rng(5)
    for _ in range(20):
        a, b = rand_density(rng), rand_density(rng)
        assert abs(tg.fidelity(a, b) - tg.fidelity(b, a)) < 1e-10
        u = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]
        v, w = u[:, 0], u[:, 1] * 0.6 + u[:, 0] * 0.8
        w /= np.linalg.norm(w)
        pv, pw = np.outer(v, v.conj()), np.outer(w, w.conj())
        assert abs(tg.fidelity(pv, pw) - abs(v.conj() @ w) ** 2) < 1e-10


def test_fidelity_shape_error():
    with pytest.raises(la.ShapeError):
        tg.fidelity(np.eye(2) / 2, np.eye(3) / 3)


def test_error_shrinks_with_shots():
    psi = _prep_state(7)
    target = np.outer(psi, psi.conj())
    c = dc.prep_basis_circuit(7)

    def mean_err(shots):
        errs = []
        for seed in range(8):
            table = tg.collect(c, shots=shots, seed=seed)
            errs.append(1 - tg.fidelity(tg.reconstruct_state(table), target))
        return np.mean(errs)

    assert mean_err(4096) > mean_err(262144)


@pytest.mark.parametrize("grid", [1, tg.MAX_SWEEP_GRID + 1, 10 ** 12, 101.0, np.float64(3.0)])
def test_channel_fidelity_sweep_grid_bounded_before_allocating(grid):
    omega = ch.choi_of(ch.ChannelRep.analytic("wh"))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError):
            tg.channel_fidelity_sweep(omega, ch.wh_apply, 1, 2, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_channel_fidelity_sweep_self():
    for name, reference in (("ls", ch.ls_apply), ("wh", ch.wh_apply), ("id", np.copy)):
        omega = cj.analytic_choi(ch.ChannelRep.analytic(name))
        for a, b in itertools.combinations(range(1, 10), 2):
            lo, hi, mean = tg.channel_fidelity_sweep(omega, reference, a, b, grid=101)
            assert lo >= 1 - 1e-13 and lo <= mean <= hi <= 1.0, (name, a, b, lo)
        # swap symmetry of the statistics
        mean12 = tg.channel_fidelity_sweep(omega, reference, 1, 2, grid=11)[2]
        mean21 = tg.channel_fidelity_sweep(omega, reference, 2, 1, grid=11)[2]
        assert abs(mean12 - mean21) < 1e-12, name


def test_lambda_grid_is_read_only_and_its_cache_bounded():
    lam, rest = tg._lambda_grid(5)
    assert np.array_equal(lam.ravel(), np.linspace(0.0, 1.0, 5)) and np.array_equal(rest, 1 - lam)
    for cached in (lam, rest):
        with pytest.raises(ValueError):
            cached[0] = 0.5
    for grid in range(2, tg.MAX_CACHED_GRIDS + 5):
        tg._lambda_grid(grid)
    info = tg._lambda_grid.cache_info()
    assert info.maxsize == tg.MAX_CACHED_GRIDS and info.currsize <= tg.MAX_CACHED_GRIDS


@pytest.mark.parametrize("out, error, match", [
    (lambda rho: np.eye(2) / 2, la.ShapeError, None),
    (lambda rho: np.full(3, 1 / 3), la.ShapeError, None),
    (lambda rho: np.full((3, 3), np.nan), ValueError, "finite"),
    (lambda rho: np.diag([np.inf, 0, 0]), ValueError, "finite"),
], ids=["2x2", "vector", "nan", "inf"])
@pytest.mark.filterwarnings("error")
def test_channel_fidelity_sweep_rejects_bad_reference_outputs(out, error, match):
    omega = cj.analytic_choi(ch.ChannelRep.analytic("wh"))
    with pytest.raises(error, match=match):
        tg.channel_fidelity_sweep(omega, out, 1, 2, grid=5)


# --- equivalence with the per-setting reference implementation ---------------
# _ref_collect runs one noisy pre-rotation fragment per setting, _ref_sample
# flips each row's probabilities per bit with scalar loops (qubit 0 first)
# and then draws one multinomial per row, in settings order, from one
# generator, and _ref_linear_inversion sums Pauli-string estimates in a dict
# and builds each operator with kron.  The batched code in tomography and
# circuits must agree.

_REF_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]]),
    "Z": np.diag([1.0, -1.0]).astype(complex),
}


def _ref_sample(probs, shots, seed, readout_flip=0.0):
    probs = np.array(probs, dtype=float, ndmin=2)
    d = probs.shape[1]
    n = int(round(math.log2(d)))
    for q in range(n):
        bit = 1 << (n - 1 - q)
        flipped = np.empty_like(probs)
        for r in range(probs.shape[0]):
            for b in range(d):
                flipped[r, b] = (1 - readout_flip) * probs[r, b] + readout_flip * probs[r, b ^ bit]
        probs = flipped
    rng = cc._rng(seed)
    return np.array([rng.multinomial(shots, p) for p in probs])


def _ref_collect(c, shots, seed, noise=cc.NoiseConfig(), measure_qubits=None):
    n = c.n_qubits
    measure = tuple(measure_qubits) if measure_qubits is not None else tuple(range(n))
    psi0 = np.zeros(2 ** n, dtype=complex)
    psi0[0] = 1.0
    if noise.p1 == noise.p2 == noise.gamma == 0.0:
        psi = cc.simulate_state(c, psi0)
        rho_full = np.outer(psi, psi.conj())
    else:
        rho_full = cc.simulate_density(c, np.outer(psi0, psi0.conj()), noise)
    rho_meas = la.partial_trace(rho_full, [2] * n, list(measure))
    k = len(measure)
    flip = noise.readout_flip
    settings_k = tg.settings_for(k)
    probs = []
    for s in settings_k:
        frag = cc.Circuit(k, tg.prerotation_gates(s))
        rho = cc.simulate_density(frag, rho_meas, noise)
        if shots == 0:
            p = cc.exact_counts(rho, readout_flip=flip)
            probs.append(p / p.sum())
        else:
            probs.append(cc.born_probabilities(rho))
    return np.array(probs) if shots == 0 else _ref_sample(probs, shots, seed, flip)


def _ref_linear_inversion(table):
    d = table.shape[1]
    n = int(round(math.log2(d)))
    pop = np.array([[(-1) ** bin(m & b).count("1") for b in range(d)] for m in range(d)])
    est_sum, est_cnt = {}, {}
    for s, row in zip(tg.settings_for(n), table):
        p = row / row.sum()
        for mask in range(d):
            pauli = tuple(s[q] if (mask >> (n - 1 - q)) & 1 else "I" for q in range(n))
            est_sum[pauli] = est_sum.get(pauli, 0.0) + float(pop[mask] @ p)
            est_cnt[pauli] = est_cnt.get(pauli, 0) + 1
    rho = np.zeros((d, d), dtype=complex)
    for pauli, total in est_sum.items():
        op = _REF_PAULI[pauli[0]]
        for q in range(1, n):
            op = np.kron(op, _REF_PAULI[pauli[q]])
        rho += total / est_cnt[pauli] * op
    return rho / d


def _random_register(k, seed):
    """A random circuit on k + 1 qubits and k of its qubits to measure, so
    the measured state is generic and mixed."""
    rng = np.random.default_rng(seed)
    n = k + 1
    c = cc.Circuit(n)
    for layer in range(2):
        for q in range(n):
            c.add("u3", tuple(rng.uniform(0, 2 * np.pi, 3)), (q,))
        for q in range(n - 1):
            c.add("cnot", (), (q, q + 1) if layer == 0 else (q + 1, q))
    return c, tuple(int(q) for q in rng.permutation(n)[:k])


_noise = st.builds(cc.NoiseConfig, p1=st.floats(0, 0.2), p2=st.floats(0, 0.2),
                   gamma=st.floats(0, 0.2), readout_flip=st.floats(0, 0.2))
_flip_noise = st.builds(cc.NoiseConfig, p1=st.floats(0, 0.2), p2=st.floats(0, 0.2),
                        gamma=st.floats(0, 0.2), readout_flip=st.floats(1e-3, 0.2))
_property = settings(max_examples=30, deadline=None, derandomize=True, database=None)


@_property
@given(k=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1), noise=_noise)
def test_collect_exact_matches_per_setting_reference(k, seed, noise):
    c, measure = _random_register(k, seed)
    got = tg.collect(c, 0, seed, noise, measure_qubits=measure)
    want = _ref_collect(c, 0, seed, noise, measure_qubits=measure)
    assert got.shape == want.shape == (3 ** k, 2 ** k)
    for a, b in zip(got, want):
        assert np.abs(a / a.sum() - b / b.sum()).max() < 1e-12


@_property
@given(k=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1), noise=_flip_noise,
       shots=st.sampled_from([1, 100, 4096]))
def test_collect_noisy_counts_bit_identical_to_reference(k, seed, noise, shots):
    c, measure = _random_register(k, seed)
    got = tg.collect(c, shots, seed, noise, measure_qubits=measure)
    want = _ref_collect(c, shots, seed, noise, measure_qubits=measure)
    assert got.dtype == want.dtype and np.array_equal(got, want)


def test_readout_flip_split_matches_loop():
    rng = np.random.default_rng(8)
    for seed in range(40):
        n = 1 + seed % 4
        amps = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
        amps[rng.random(2 ** n) < 0.4] = 0.0  # zero-count outcomes too
        if not amps.any():
            amps[0] = 1.0
        psi = amps / np.linalg.norm(amps)
        for flip in (0.001, 0.05, 0.5):
            for shots in (1, 37, 100000):
                got = cc.sample_counts(psi, shots, seed, flip)
                want = _ref_sample(cc.born_probabilities(psi), shots, seed, flip)[0]
                assert np.array_equal(got, want)


@_property
@given(k=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1), noise=_noise,
       shots=st.sampled_from([0, 64, 8192]))
def test_linear_inversion_matches_reference(k, seed, noise, shots):
    c, measure = _random_register(k, seed)
    table = tg.collect(c, shots, seed, noise, measure_qubits=measure)
    assert np.abs(tg._linear_inversion(table) - _ref_linear_inversion(table)).max() < 1e-12


def test_measured_states_equal_partial_trace_of_outer_product():
    # the noiseless path reads reduced states off the amplitudes; it must
    # equal partial_trace(|psi><psi|) bit for bit, so sampled counts do too
    rng = np.random.default_rng(59)
    for n in range(1, 7):
        for _ in range(6):
            c = random_circuit(rng, n, 30)
            measure = tuple(int(q) for q in rng.permutation(n)[:int(rng.integers(1, n + 1))])
            psi0 = np.zeros(2 ** n, dtype=complex)
            psi0[0] = 1.0
            psi = cc.simulate_state(c, psi0)
            want = la.partial_trace(np.outer(psi, psi.conj()), [2] * n, list(measure))
            got = tg.measured_states(c, [None], cc.NoiseConfig(), measure)
            assert got.shape == (1,) + want.shape
            assert np.array_equal(got[0], want), (n, measure)


def test_reconstruct_state_stack_matches_per_record():
    tables = []
    for seed in range(6):
        c, measure = _random_register(2, seed)
        noise = cc.NoiseConfig(p2=0.05, readout_flip=0.01) if seed % 2 else cc.NoiseConfig()
        tables.append(tg.collect(c, (0, 64, 8192)[seed % 3], seed, noise, measure_qubits=measure))
    got = tg.reconstruct_state(np.stack(tables))
    assert got.shape == (6, 4, 4)
    for rho, table in zip(got, tables):
        assert np.abs(rho - tg.reconstruct_state(table)).max() < 1e-12
        assert np.abs(tg._linear_inversion(table[None])[0]
                      - _ref_linear_inversion(table)).max() < 1e-12
    with pytest.raises(ValueError):
        tg.reconstruct_state(np.empty((0, 9, 4)))
    with pytest.raises(ValueError):  # tables on different numbers of qubits
        tg.reconstruct_state([tables[0], tg.collect(cc.Circuit(3), 0, 0)])


def test_collect_checks_before_simulating():
    with pytest.raises(ValueError):
        tg.collect(cc.Circuit(4), -1, 1)
    big = cc.Circuit(cc.MAX_DENSE_QUBITS + 1)
    for noise in (cc.NoiseConfig(), cc.NoiseConfig(p1=0.1)):
        with pytest.raises(cc.ResourceError):
            tg.measured_states(big, [None], noise)


@pytest.mark.parametrize("noise", [cc.NoiseConfig(), cc.NoiseConfig(p2=0.05)])
@pytest.mark.parametrize("bad", [(0, 0), (5,), (-1,), (), (True, 0), (0.0, 1.0)])
def test_collect_rejects_bad_measure_qubits_on_both_paths(noise, bad):
    # checked once, before the state-vector or the density path is picked
    c = cc.Circuit(2, [("h", (), (0,)), ("cnot", (), (0, 1))])
    with pytest.raises(ValueError, match=rf"measure_qubits \({', '.join(map(str, bad))}"):
        tg.collect(c, 0, 0, noise, measure_qubits=bad)


@_property
@given(b=st.integers(1, 9), k=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1),
       shots=st.sampled_from([0, 1, 8192]))
def test_sample_table_of_a_stack_is_the_table_by_table_loop_on_one_stream(b, k, seed, shots):
    rng = np.random.default_rng(seed)
    p = rng.random((b, 3 ** k, 2 ** k))
    p[rng.random(p.shape) < 0.2] = 0.0  # zero-probability outcomes too
    p[..., 0] += 1e-3
    tables = p / p.sum(axis=-1, keepdims=True)
    tables.flags.writeable = False
    got = cc.sample_table(tables, shots, np.random.default_rng(seed + 1))
    ref = np.random.default_rng(seed + 1)
    want = np.stack([cc.sample_table(t, shots, ref) for t in tables])
    assert got.dtype == want.dtype and np.array_equal(got, want)
    if shots == 0:  # a fresh float copy of the exact stack
        assert got.dtype == float and got.flags.writeable
        assert not np.shares_memory(got, tables) and np.array_equal(got, tables)
    else:
        assert (got.sum(axis=-1) == shots).all()
    for bad in (-1, cc.MAX_SHOTS + 1):  # checked before anything is drawn
        rng = np.random.default_rng(seed)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="shots"):
            cc.sample_table(tables, bad, rng)
        assert rng.bit_generator.state == state


@pytest.mark.parametrize("noise", [cc.NoiseConfig(), cc.NoiseConfig(p2=0.05, readout_flip=0.02)])
@pytest.mark.parametrize("shots", [0, 1, 8192])
def test_estimate_of_direct_tables_draws_input_one_stream(shots, noise):
    # a one-table stack samples the stream input 1 always had, so direct
    # outputs are those of the per-input reference
    table = cj.direct_tables(dc.ls_channel_circuit(), noise)
    for seed in (0, 3, 2 ** 40 + 1):
        states, leakages = cj.estimate(table, shots, seed)
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))
        rho, leak = enc.project_two_qutrits(
            tg.reconstruct_state(cc.sample_table(table[0], shots, rng)))
        assert np.array_equal(states[0], rho) and leakages == [leak]


# --- seeds and streams -----------------------------------------------------


def test_seed_is_validated_and_not_masked():
    c = cc.Circuit(2, [("h", (), (0,)), ("h", (), (1,))])
    exact = tg.collect(c, 0, 0)[None]
    for bad in (-1, -2 ** 63, True, 2.5):
        with pytest.raises(ValueError, match="seed"):
            tg.collect(c, 100, bad)
        with pytest.raises(ValueError, match="seed"):
            cc.sample_counts(np.ones(4) / 2, 100, bad)
        with pytest.raises(ValueError, match="seed"):
            cj.estimate(exact, 100, bad)
    with pytest.raises(ValueError, match="seed"):  # checked before simulating
        tg.collect(cc.Circuit(cc.MAX_DENSE_QUBITS + 1), 10, -1)
    # seeds equal modulo 2^63 draw different streams
    tables = [tg.collect(c, 1000, s) for s in (5, 2 ** 63 + 5, 2 ** 63 - 1, 2 ** 64 - 1)]
    assert len({t.tobytes() for t in tables}) == len(tables)


def test_shots_are_bounded_by_int64():
    c = cc.Circuit(2, [("h", (), (0,))])
    # a fractional count would be truncated by the multinomial, True read as 1
    for bad in (-1, 2 ** 63, 2 ** 64, 2.5, 7.9, True, np.float64(3.0)):
        with pytest.raises(ValueError, match="shots"):  # checked before simulating
            tg.collect(cc.Circuit(cc.MAX_DENSE_QUBITS + 1), bad, 0)
        with pytest.raises(ValueError, match="shots"):
            tg.collect(c, bad, 0)
        with pytest.raises(ValueError, match="shots"):
            cj.choi_direct(dc.ls_channel_circuit(), bad, 0)
    assert (tg.collect(c, cc.MAX_SHOTS, 0).sum(axis=1) == cc.MAX_SHOTS).all()
    # numpy integers are shot counts
    assert np.array_equal(tg.collect(c, np.int64(8), 3), tg.collect(c, 8, 3))


def _mixed_pair():
    """4 qubits with (0, 1) maximally entangled with (2, 3): the pair (0, 1)
    is maximally mixed, so all nine settings have one distribution."""
    return cc.Circuit(4, [("h", (), (0,)), ("h", (), (1,)),
                          ("cnot", (), (0, 2)), ("cnot", (), (1, 3))])


def test_records_with_distinct_seeds_share_no_rows():
    # with one outcome distribution for every setting, tables drawn from
    # overlapping streams repeat rows (per-setting streams seed + i made
    # row j + 1 of seed s equal to row j of seed s + 1).  At 10^6 shots two
    # independent rows coincide with probability about 4e-10 per pair.
    c, shots, measure = _mixed_pair(), 10 ** 6, (0, 1)
    tables = [tg.collect(c, shots, seed, measure_qubits=measure) for seed in range(40)]
    tables += [tg.collect(c, shots, 1000 * s + i, measure_qubits=measure)  # criterion 7's seeds
               for s in range(1, 4) for i in range(1, 10)]
    rows = np.concatenate(tables)
    assert rows.shape == (len(tables) * 9, 4)
    assert len(np.unique(rows, axis=0)) == len(rows)


def test_estimate_stacks_and_records_share_no_rows():
    # estimate draws a whole stack from SeedSequence(seed, spawn_key=(1,));
    # collect draws from the root stream SeedSequence(seed).  With one
    # outcome distribution for every setting of every input, overlapping
    # streams would repeat rows, within a stack or across seeds and routes.
    c, shots, measure = _mixed_pair(), 10 ** 6, (0, 1)
    exact = tg.collect(c, 0, 0, measure_qubits=measure)
    stack = np.repeat(exact[None], 9, axis=0)
    rows = [cc.sample_table(stack, shots, np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(1,)))).reshape(-1, 4) for seed in range(40)]
    rows += [tg.collect(c, shots, seed, measure_qubits=measure) for seed in range(40)]
    rows = np.concatenate(rows)
    assert rows.shape == (40 * 81 + 40 * 9, 4)
    assert len(np.unique(rows, axis=0)) == len(rows)


def _chi2_upper(df, z=3.090):
    """Wilson-Hilferty approximation of the chi-square quantile z standard
    normal deviations above the mean; z = 3.090 is the one-sided 1e-3 point."""
    h = 2.0 / (9.0 * df)
    return df * (1.0 - h + z * math.sqrt(h)) ** 3


@pytest.mark.parametrize("flip", [0.0, 0.05])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_sampled_table_fits_exact_table(k, flip):
    # Pearson chi-square of a sampled table against the exact-mode table
    # of the same circuit, significance level 1e-3 per case, fixed seeds;
    # per row, cells expecting fewer than 5 shots are pooled into one
    c, measure = _random_register(k, 500 + k)
    noise = cc.NoiseConfig(p2=0.02, readout_flip=flip)
    shots = 20000
    exact = tg.collect(c, 0, 0, noise, measure_qubits=measure)
    got = tg.collect(c, shots, 700 + k, noise, measure_qubits=measure)
    _assert_fits(got, exact, shots)


def _assert_fits(got, exact, shots):
    """Pearson chi-square of sampled rows against their exact rows below the
    1e-3 point; per row, cells expecting fewer than 5 shots are pooled."""
    assert np.all(got.sum(axis=1) == shots)
    stat, df = 0.0, 0
    for obs, p in zip(got, exact):
        want = shots * p
        assert obs[want == 0].sum() == 0
        small = want < 5
        o = np.append(obs[~small], obs[small].sum())
        e = np.append(want[~small], want[small].sum())
        o, e = o[e > 0], e[e > 0]
        stat += float(np.sum((o - e) ** 2 / e))
        df += len(e) - 1
    assert stat < _chi2_upper(df), (stat, df)


@pytest.mark.parametrize("noise", [cc.NoiseConfig(), cc.NoiseConfig(p2=0.02, readout_flip=0.05)])
def test_sampled_linear_stack_fits_exact_table(noise):
    # the nine inputs of one estimate share a stream: together they must
    # still fit their exact tables, setting by setting
    table = cj.linear_tables(dc.ls_channel_circuit(), noise)
    shots = 8192
    got = cc.sample_table(table, shots, np.random.default_rng(
        np.random.SeedSequence(11, spawn_key=(1,))))
    _assert_fits(got.reshape(-1, 4), table.reshape(-1, 4), shots)


# --- the batched sweep against the per-lambda loop ----------------------------
# _ref_fidelity is the 2-D fidelity and _ref_sweep the loop that
# channel_fidelity_sweep replaces: one channel_from_choi, projection,
# reference call and fidelity per grid point.


def _ref_fidelity(s1, s2):
    r = _ref_sqrtm_psd((s1 + s1.conj().T) / 2, atol=1e-7)
    w, _ = _ref_hermitian_eig(r @ s2 @ r)
    w = np.clip(w, 0.0, None)
    if w[0] > 0:
        w[w < w[0] * 1e-13] = 0.0
    return min(max(float(np.sum(np.sqrt(w)) ** 2), 0.0), 1.0)


def _ref_sweep(omega, reference, a, b, grid):
    rho_a, rho_b = dc.basis_density(a), dc.basis_density(b)
    vals = []
    for lam in np.linspace(0.0, 1.0, grid):
        rho = lam * rho_a + (1 - lam) * rho_b
        got = _ref_project_to_density(cj.channel_from_choi(omega, rho))
        vals.append(_ref_fidelity(got, reference(rho)))
    return float(np.min(vals)), float(np.max(vals)), float(np.mean(vals))


def _sweep_chois():
    noise = cc.NoiseConfig(p1=0.005, p2=0.05, gamma=0.005, readout_flip=0.01)
    return {
        "analytic ls": (cj.analytic_choi(ch.ChannelRep.analytic("ls")), ch.ls_apply),
        "analytic wh": (cj.analytic_choi(ch.ChannelRep.analytic("wh")), ch.wh_apply),
        "analytic id": (cj.analytic_choi(ch.ChannelRep.analytic("id")), np.copy),
        "noisy direct ls": (cj.choi_direct(dc.ls_channel_circuit(), 100000, 21, noise),
                            ch.ls_apply),
        "1000-shot direct wh": (cj.choi_direct(dc.wh_channel_circuit(), 1000, 22), ch.wh_apply),
    }


@pytest.mark.parametrize("grid", [101, 2])
def test_channel_fidelity_sweep_matches_per_lambda_loop(grid):
    for name, (omega, reference) in _sweep_chois().items():
        for a, b in itertools.combinations(range(1, 10), 2):
            got = tg.channel_fidelity_sweep(omega, reference, a, b, grid)
            want = _ref_sweep(omega, reference, a, b, grid)
            assert np.abs(np.subtract(got, want)).max() < 1e-12, (name, a, b)


@_stack_property
@given(s1=hermitian_stacks(psd=True), seed=st.integers(0, 2 ** 32 - 1))
def test_fidelity_stack_matches_per_matrix(s1, seed):
    s1 = s1 / np.maximum(np.trace(s1, axis1=1, axis2=2).real, 1e-300)[:, None, None]
    rng = np.random.default_rng(seed)
    d = s1.shape[-1]
    s2 = np.array([rand_density(rng, d) for _ in s1])
    s2[::2] = s1[::-1][::2]  # equal, swapped and rank-deficient pairs too
    got = tg.fidelity(s1, s2)
    assert isinstance(got, np.ndarray) and got.shape == s1.shape[:1]
    for a, b, f in zip(s1, s2, got):
        one = tg.fidelity(a, b)
        assert isinstance(one, float)
        assert abs(f - one) < 1e-12
        assert abs(f - _ref_fidelity(a, b)) < 1e-12


@pytest.mark.parametrize("batch", [(), (4,)])
def test_fidelity_refuses_a_non_psd_first_argument(batch):
    # an eigenvalue of s1 below -1e-7 is an error, one above it is clipped
    rng = np.random.default_rng(41)
    u = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]
    s2 = np.broadcast_to(rand_density(rng, 3), batch + (3, 3))

    def s1(lowest, clip=False):
        m = u @ np.diag([0.5, 0.5 - lowest, 0.0 if clip else lowest]) @ u.conj().T
        return np.broadcast_to(m, batch + (3, 3)).copy()

    with pytest.raises(la.NotPSDError, match="below -1.0e-07"):
        tg.fidelity(s1(-1e-3), s2)
    if batch:
        one_bad = s1(0.0)
        one_bad[-1] = s1(-1e-3)[-1]
        with pytest.raises(la.NotPSDError):
            tg.fidelity(one_bad, s2)
    got, clipped = tg.fidelity(s1(-1e-8), s2), tg.fidelity(s1(-1e-8, clip=True), s2)
    assert np.shape(got) == batch and np.abs(np.subtract(got, clipped)).max() < 1e-12


@pytest.mark.parametrize("batch", [(), (4,), (2, 3)])
def test_fidelity_stack_errors_match_2d(batch):
    good = np.broadcast_to(np.eye(3) / 3, batch + (3, 3)).astype(complex)
    assert np.all(np.abs(tg.fidelity(good, good) - 1) < 1e-12)
    bad = good.copy()
    bad[(0,) * len(batch) + (0, 1)] = np.nan
    with pytest.raises(ValueError, match="finite"):
        tg.fidelity(bad, good)
    with pytest.raises(ValueError, match="finite"):
        tg.fidelity(good, bad)
    with pytest.raises(la.ShapeError):
        tg.fidelity(np.zeros(batch + (2, 3)), np.zeros(batch + (2, 3)))
    with pytest.raises(la.ShapeError):
        tg.fidelity(good, good[..., :2, :2])
    with pytest.raises(la.ShapeError):
        tg.fidelity(good, np.broadcast_to(good, (5,) + good.shape))


def _two_call_sweep(omega, reference, a, b, grid):
    """channel_fidelity_sweep with one channel_from_choi per endpoint."""
    rho_a, rho_b = dc.basis_density(a), dc.basis_density(b)
    got = np.stack([cj.channel_from_choi(omega, rho_a), cj.channel_from_choi(omega, rho_b)])
    want = np.stack([la.as_stack(np.atleast_2d(reference(rho))) for rho in (rho_a, rho_b)])
    lo, hi, mean = tg._score_segments(got[None], want[None], grid)
    return float(lo[0]), float(hi[0]), float(mean[0])


def test_channel_fidelity_sweep_equals_per_endpoint_channel_from_choi():
    for key, (omega, reference) in _sweep_chois().items():
        for a, b in ((1, 2), (3, 7), (9, 4)):
            assert (tg.channel_fidelity_sweep(omega, reference, a, b, 11)
                    == _two_call_sweep(omega, reference, a, b, 11)), (key, a, b)
    for bad in (np.eye(4) / 4, np.eye(9)[:, :3] / 3):
        with pytest.raises(la.ShapeError):
            tg.channel_fidelity_sweep(bad, ch.ls_apply, 1, 2, 5)


# --- _per_qubit against the np.tensordot loop it replaces --------------------
def _ref_per_qubit(t, k, m, out):
    nb = t.ndim - 2 * k
    batch, lead = t.shape[:nb], list(range(nb))
    pairs = [nb + a for q in range(k) for a in (q, k + q)]
    t = t.transpose(lead + pairs).reshape(batch + (m.shape[0],) * k)
    for _ in range(k):
        t = np.tensordot(t, m, axes=([nb], [0]))
    return t.reshape(batch + out * k).transpose(
        lead + [nb + a for a in range(0, 2 * k, 2)] + [nb + a for a in range(1, 2 * k, 2)])


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_per_qubit_equals_tensordot_loop_bit_for_bit(k):
    rng = np.random.default_rng(k)
    noise = cc.NoiseConfig(p1=0.01, p2=0.05, gamma=0.02, readout_flip=0.03)
    effect = tg._effect_tensor(noise).reshape(6, 4).T
    cases = [  # (input axes per qubit, m, output pair): an outcome table, a state
        ((3, 2), tg._ESTIMATOR, (2, 2)),
        ((2, 2), effect, (3, 2)),
    ]
    for batch, ((x, y), m, out) in itertools.product(range(1, 10), cases):
        shape = (batch,) + (x,) * k + (y,) * k
        for t in (rng.uniform(size=shape), rng.normal(size=shape) + 1j * rng.normal(size=shape)):
            got, want = tg._per_qubit(t, k, m, out), _ref_per_qubit(t, k, m, out)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()


def _uniform_tables(b=9, k=2):
    return np.full((b, 3 ** k, 2 ** k), 1.0 / 2 ** k)


@pytest.mark.parametrize("entry, match", [
    (np.nan, "finite and non-negative"), (np.inf, "finite and non-negative"),
    (-np.inf, "finite and non-negative"), (-0.1, "finite and non-negative"),
    ("zero row", "positive, finite weight"), ("huge row", "positive, finite weight"),
])
@pytest.mark.parametrize("reader", ["reconstruct_state", "estimate"])
def test_malformed_exact_tables_raise_one_value_error(entry, match, reader):
    # checked before any arithmetic: no RuntimeWarning (the suite runs with
    # -W error::RuntimeWarning), and a negative entry is refused at shots 0
    # as the multinomial refuses it at shots > 0
    tables = _uniform_tables()
    if entry == "zero row":
        tables[4, 2] = 0.0
    elif entry == "huge row":
        tables[4, 2] = 1e308
    else:
        tables[4, 2, 1] = entry
    read = tg.reconstruct_state if reader == "reconstruct_state" else \
        (lambda t: cj.estimate(t, 0, 5))
    with pytest.raises(ValueError, match=match):
        read(tables)
    counts = np.full(tables.shape, 2048)
    counts[4, 2] = 0  # an integer table is checked as a float one is
    with pytest.raises(ValueError, match="positive, finite weight"):
        read(counts)
    counts[4, 2] = 2048
    counts[4, 2, 1] = -1
    with pytest.raises(ValueError, match="finite and non-negative"):
        read(counts)


def test_count_tables_reconstruct_as_their_float_copy_bit_for_bit():
    # an integer table is normalized as read, without a float copy first
    rng = np.random.default_rng(23)
    for k, b in ((1, 1), (2, 9), (4, 1)):
        counts = rng.multinomial(8192, np.full(2 ** k, 2.0 ** -k), size=(b, 3 ** k))
        got = tg.reconstruct_state(counts)
        assert np.array_equal(got, tg.reconstruct_state(counts.astype(float)))
        assert np.array_equal(tg.reconstruct_state(counts[0]), got[0])
