import re

import numpy as np
import pytest

from qutritsim import channels as ch
from qutritsim import choi as cj
from qutritsim import circuits as cc
from qutritsim import coupling as cp
from qutritsim import decompositions as dc
from qutritsim import linalg as la
from qutritsim import tomography as tg
from qutritsim import verify as vf

from test_channels import rand_density
from test_cli import _count_simulations


def brute_choi(apply_linear):
    """Independent oracle: double loop over |i><k| with explicit kron."""
    omega = np.zeros((9, 9), dtype=complex)
    for i in range(3):
        for k in range(3):
            e = np.zeros((3, 3), dtype=complex)
            e[i, k] = 1
            omega += np.kron(e, apply_linear(e))
    return omega / 3


def wh_linear(m):
    return (np.trace(m) * np.eye(3) - m.T) / 2


def test_named_choi_is_a_fresh_copy_of_analytic_choi():
    # built once per name; a caller mutating its copy must not change what
    # the next caller gets
    for name in ("ls", "wh", "id"):
        first = cj.named_choi(name)
        assert np.array_equal(first, cj.analytic_choi(ch.ChannelRep.analytic(name)))
        want = first.copy()
        first[...] = 7.0
        assert np.array_equal(cj.named_choi(name), want)
    with pytest.raises(ValueError):
        cj.named_choi("xx")


def test_analytic_choi_identity_channel():
    omega = cj.analytic_choi(ch.ChannelRep.analytic("id"))
    psi = np.zeros(9, dtype=complex)
    for i in range(3):
        psi[3 * i + i] = 1 / np.sqrt(3)
    assert np.abs(omega - np.outer(psi, psi.conj())).max() < 1e-12


def test_analytic_choi_wh_structure():
    omega = cj.analytic_choi(ch.ChannelRep.analytic("wh"))
    swap = np.zeros((9, 9), dtype=complex)
    for i in range(3):
        for k in range(3):
            e = np.zeros((3, 3)); e[i, k] = 1
            swap += np.kron(e, e.T)
    assert np.abs(omega - (np.eye(9) - swap) / 6).max() < 1e-12
    w, _ = la.hermitian_eig(omega)
    assert np.abs(w[:3] - 1 / 3).max() < 1e-9
    assert np.abs(w[3:]).max() < 1e-9
    assert np.abs(omega - brute_choi(wh_linear)).max() < 1e-12


def test_ls_choi_two_routes_and_covariance():
    omega_ls = cj.analytic_choi(ch.ChannelRep.analytic("ls"))
    j = ch.spin1_generators()

    def ls_linear(m):
        return (j.jx @ m @ j.jx + j.jy @ m @ j.jy + j.jz @ m @ j.jz) / 2

    assert np.abs(omega_ls - brute_choi(ls_linear)).max() < 1e-12
    omega_wh = cj.analytic_choi(ch.ChannelRep.analytic("wh"))
    w = ch.covariance_unitary()
    conj = np.kron(w.T, np.eye(3))
    assert np.abs(omega_ls - conj @ omega_wh @ conj.conj().T).max() < 1e-10


def test_basis_decomposition_reconstructs_exactly():
    coeffs, basis_states = cj.COEFFICIENTS, cj.physical_basis()
    assert len(basis_states) == 9
    assert np.array_equal(coeffs[0], np.eye(9)[0])
    for i in range(3):
        for j in range(3):
            e = np.zeros((3, 3), dtype=complex)
            e[i, j] = 1
            rebuilt = sum(coeffs[3 * i + j, k] * basis_states[k] for k in range(9))
            assert np.abs(rebuilt - e).max() < 1e-12, (i, j)
    row01 = coeffs[1]
    want = np.array([-(1 + 1j) / 2, -(1 + 1j) / 2, 0, 1, 0, 0, 1j, 0, 0])
    assert np.abs(row01 - want).max() == 0
    for r in basis_states:
        assert abs(np.trace(r) - 1) < 1e-12
        assert la.is_psd(r, 1e-12)
        w, _ = la.hermitian_eig(r)
        assert abs(w[0] - 1) < 1e-12  # rank one


def test_rederived_coefficients_match_stored():
    got = cj.rederive_coefficients()
    assert np.abs(got - cj.COEFFICIENTS).max() < 1e-12


def test_rederived_coefficients_match_stored_exactly_symbolic():
    sympy = pytest.importorskip("sympy")
    I = sympy.I
    half = sympy.Rational(1, 2)
    kets = [sympy.Matrix([1, 0, 0]), sympy.Matrix([0, 1, 0]), sympy.Matrix([0, 0, 1])]
    rs = []
    for k in kets:
        rs.append(k * k.T)
    for a, b in ((0, 1), (0, 2), (1, 2)):
        v = kets[a] + kets[b]
        rs.append(half * v * v.T)
    for a, b in ((0, 1), (0, 2), (1, 2)):
        v = kets[a] + I * kets[b]
        rs.append(half * v * v.conjugate().T)
    bmat = sympy.Matrix([[rs[k][idx // 3, idx % 3] for k in range(9)] for idx in range(9)])

    def exact(z):
        # every stored entry has real/imag parts in {0, +-1/2, +-1}: exact floats
        return sympy.Rational(z.real) + I * sympy.Rational(z.imag)

    stored = sympy.Matrix(9, 9, lambda r, c: exact(complex(cj.COEFFICIENTS[r, c])))
    for i in range(3):
        for j in range(3):
            e = sympy.zeros(3, 3)
            e[i, j] = 1
            vec = sympy.Matrix([e[idx // 3, idx % 3] for idx in range(9)])
            sol = bmat.solve(vec)
            diff = (sol.T - stored.row(3 * i + j)).expand()
            assert diff == sympy.zeros(1, 9), (i, j)


def test_choi_linear_exact_inputs():
    outs = [wh_linear(r) for r in cj.physical_basis()]
    omega = cj.choi_linear(outs)
    swap = sum(np.kron(np.eye(3)[:, [i]] @ np.eye(3)[[k], :],
                       np.eye(3)[:, [k]] @ np.eye(3)[[i], :])
               for i in range(3) for k in range(3))
    assert np.abs(omega - (np.eye(9) - swap) / 6).max() < 1e-12
    outs_id = list(cj.physical_basis())
    omega_id = cj.choi_linear(outs_id)
    assert np.abs(omega_id - cj.analytic_choi(ch.ChannelRep.analytic("id"))).max() < 1e-10
    for name in ("ls", "wh", "id"):
        rep = ch.ChannelRep.analytic(name)
        outs = [ch.apply_channel(rep, r) for r in cj.physical_basis()]
        assert np.abs(cj.choi_linear(outs) - cj.analytic_choi(rep)).max() < 1e-10


def _ref_choi_linear(outs):
    """The kron-and-sum loop that choi_linear's single contraction replaces."""
    omega = np.zeros((9, 9), dtype=complex)
    for i in range(3):
        for j in range(3):
            e = np.zeros((3, 3), dtype=complex)
            e[i, j] = 1.0
            block = sum(cj.COEFFICIENTS[3 * i + j, k] * outs[k] for k in range(9))
            omega += np.kron(e, block)
    return omega / 3.0


def test_choi_linear_matches_kron_loop():
    rng = np.random.default_rng(53)
    for _ in range(50):
        outs = [rand_density(rng) for _ in range(9)]
        assert np.abs(cj.choi_linear(outs) - _ref_choi_linear(outs)).max() < 1e-15
    for name in ("ls", "wh", "id"):
        rep = ch.ChannelRep.analytic(name)
        outs = [ch.apply_channel(rep, r) for r in cj.physical_basis()]
        assert np.abs(cj.choi_linear(outs) - _ref_choi_linear(outs)).max() < 1e-15
        # a stack of the nine outputs is accepted like the list
        assert np.array_equal(cj.choi_linear(np.stack(outs)), cj.choi_linear(outs))


def test_choi_linear_validation():
    with pytest.raises(ValueError):
        cj.choi_linear([np.eye(3) / 3] * 8)
    with pytest.raises(ValueError):
        cj.choi_linear([np.eye(3)] * 9)  # trace 3
    with pytest.raises(la.ShapeError):
        cj.choi_linear([np.eye(3) / 3] * 8 + [np.eye(4) / 4])
    with pytest.raises(la.ShapeError):  # ragged: one member a vector
        cj.choi_linear([np.eye(3) / 3] * 8 + [np.full(3, 1 / 3)])
    with pytest.raises(la.ShapeError):  # every member 2x2
        cj.choi_linear([np.eye(2) / 2] * 9)
    with pytest.raises(ValueError, match="finite"):
        cj.choi_linear([np.eye(3) / 3] * 8 + [np.diag([np.nan, 0, 0])])


def test_analytic_choi_equals_kron_loop_exactly():
    j = ch.spin1_generators()

    def ls_linear(m):
        return (j.jx @ m @ j.jx + j.jy @ m @ j.jy + j.jz @ m @ j.jz) / 2

    for name, linear in (("ls", ls_linear), ("wh", wh_linear), ("id", np.copy)):
        assert np.array_equal(cj.analytic_choi(ch.ChannelRep.analytic(name)),
                              brute_choi(linear)), name


def test_channel_from_choi_matches_partial_trace_formula():
    # the kron + partial-trace recovery the reshuffled superoperator replaces
    rng = np.random.default_rng(13)
    omegas = [cj.named_choi(name) for name in ("ls", "wh", "id")]
    a = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    omegas.append(a @ a.conj().T / np.trace(a @ a.conj().T))
    for omega in omegas:
        for _ in range(10):
            m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            want = 3 * la.partial_trace(np.kron(m.T, np.eye(3)) @ omega, [3, 3], [1])
            assert np.abs(cj.channel_from_choi(omega, m) - want).max() < 1e-12


def test_channel_from_choi_shape_errors():
    with pytest.raises(la.ShapeError):
        cj.channel_from_choi(np.eye(4) / 4, np.eye(3) / 3)
    with pytest.raises(la.ShapeError):
        cj.channel_from_choi(np.eye(9) / 9, np.eye(2) / 2)


def test_channel_from_choi_roundtrip():
    rng = np.random.default_rng(7)
    for name, oracle in (("ls", ch.ls_apply), ("wh", ch.wh_apply), ("id", lambda r: r)):
        omega = cj.analytic_choi(ch.ChannelRep.analytic(name))
        for _ in range(100):
            rho = rand_density(rng)
            got = cj.channel_from_choi(omega, rho)
            assert np.abs(got - oracle(rho)).max() < 1e-10, name
    omega_wh = cj.analytic_choi(ch.ChannelRep.analytic("wh"))
    out = cj.channel_from_choi(omega_wh, np.diag([1.0, 0, 0]).astype(complex))
    assert np.abs(out - np.diag([0, 0.5, 0.5])).max() < 1e-12


def test_choi_fidelity_values():
    omega_ls = cj.analytic_choi(ch.ChannelRep.analytic("ls"))
    omega_wh = cj.analytic_choi(ch.ChannelRep.analytic("wh"))
    assert abs(cj.choi_fidelity(omega_ls, omega_ls) - 1) < 1e-12
    f = cj.choi_fidelity(omega_ls, omega_wh)
    # brute-force pinned value: the two flat rank-3 Choi states overlap at 1/9
    assert abs(f - 1 / 9) < 1e-9
    assert 0 < f < 1


def test_choi_direct_exact_identity_channel():
    omega = cj.choi_direct(cc.Circuit(4), shots=0, seed=0)
    psi = np.zeros(9, dtype=complex)
    for i in range(3):
        psi[3 * i + i] = 1 / np.sqrt(3)
    assert np.abs(omega - np.outer(psi, psi.conj())).max() < 1e-9


def test_choi_direct_exact_channels():
    for name, build in (("wh", dc.wh_channel_circuit), ("ls", dc.ls_channel_circuit)):
        omega = cj.choi_direct(build(), shots=0, seed=0)
        want = cj.analytic_choi(ch.ChannelRep.analytic(name))
        assert np.abs(omega - want).max() < 1e-9, name
        assert cj.choi_fidelity(omega, want) > 1 - 1e-9


def test_choi_direct_sampled():
    omega = cj.choi_direct(dc.wh_channel_circuit(), shots=200000, seed=11)
    want = cj.analytic_choi(ch.ChannelRep.analytic("wh"))
    assert cj.choi_fidelity(omega, want) >= 0.99


def test_choi_direct_noise_strictly_degrades():
    # seed-averaged fidelity with CNOT depolarizing sits strictly below the
    # noiseless value
    build = dc.wh_channel_circuit
    want = cj.analytic_choi(ch.ChannelRep.analytic("wh"))
    noiseless = np.mean([cj.choi_fidelity(want, cj.choi_direct(
        build(), shots=50000, seed=s)) for s in range(10)])
    noisy = np.mean([cj.choi_fidelity(want, cj.choi_direct(
        build(), shots=50000, seed=s, noise=cc.NoiseConfig(p2=0.05)))
        for s in range(10)])
    assert noisy < noiseless


def test_choi_direct_routes_on_six_qubit_map():
    m = cp.preset_map("tokyo-6q")
    circ = cp.route_circuit(cj.choi_direct_circuit(dc.wh_channel_circuit()), m)
    assert cp.validate(circ, m) == []
    states, _ = cj.estimate(cj.direct_tables(dc.wh_channel_circuit(), layout=m), 0, 0)
    omega = la.project_to_density(states[0])
    want = cj.analytic_choi(ch.ChannelRep.analytic("wh"))
    assert np.abs(omega - want).max() < 1e-9


def test_choi_direct_measures_placed_wires():
    # the ancilla and system pairs sit on placement[0..3], not wires 0..3
    tokyo6 = cp.preset_map("tokyo-6q")
    placement = dict(enumerate([5, 0, 3, 1, 4, 2]))
    states, _ = cj.estimate(cj.direct_tables(dc.wh_channel_circuit(), layout=tokyo6,
                                             placement=placement), 0, 0)
    omega = la.project_to_density(states[0])
    analytic = cj.analytic_choi(ch.ChannelRep.analytic("wh"))
    assert cj.choi_fidelity(analytic, omega) >= 1 - 1e-9


@pytest.mark.parametrize("tables, layout, placement, measure", [
    (cj.linear_tables, "ibmqx4", None, (2, 3)),
    (cj.linear_tables, "tokyo-6q", None, (2, 3)),
    (cj.direct_tables, "tokyo-6q", None, (0, 1, 2, 3)),
    (cj.direct_tables, "tokyo-6q", (5, 0, 3, 1, 4, 2), (5, 0, 3, 1)),
])
def test_routed_experiments_simulate_only_legal_circuits(monkeypatch, tables, layout,
                                                         placement, measure):
    # the input preparations run on the coupling map too, not only the
    # channel: on ibmqx4 the prep CNOT (2, 3) must be reversed onto (3, 2)
    cmap = cp.preset_map(layout)
    seen = []

    def capture(circuit, preps, noise=cc.NoiseConfig(), measure_qubits=None):
        seen.append((circuit, preps, measure_qubits))
        return tg.measured_states(circuit, preps, noise, measure_qubits)

    monkeypatch.setattr(cj, "measured_states", capture)
    kwargs = {} if placement is None else {"placement": dict(enumerate(placement))}
    tables(dc.ls_channel_circuit(), cc.NoiseConfig(), cmap, **kwargs)
    (circuit, preps, measured), = seen
    assert tuple(measured) == measure
    for c in [circuit] + [p for p in preps if p is not None]:
        assert c.n_qubits == cmap.n_qubits
        assert cp.validate(c, cmap) == []


def test_choi_direct_rejects_placement_without_layout():
    placement = dict(enumerate([5, 0, 3, 1, 4, 2]))
    with pytest.raises(ValueError, match="layout"):
        cj.direct_tables(dc.wh_channel_circuit(), placement=placement)


def test_choi_direct_checks_seed_before_simulating(monkeypatch):
    # a bad seed is refused before the 6-qubit circuit is simulated, not by
    # estimate after it
    calls = _count_simulations(monkeypatch)
    for seed in (-1, 1.5, True, "3"):
        with pytest.raises(ValueError, match="seed"):
            cj.choi_direct(dc.ls_channel_circuit(), 100, seed)
    assert calls == []
    cj.choi_direct(dc.ls_channel_circuit(), 100, 0)
    assert calls


@pytest.mark.parametrize("k, inputs", [(1, 9), (3, 9), (6, 1), (0, None), (1, None)])
def test_estimate_rejects_tables_not_of_one_or_two_qubit_pairs(monkeypatch, k, inputs):
    # nine 3-qubit tables must not come back as 3x3 blocks cut from 8x8
    # estimates: any size but 2 or 4 qubits is refused before sampling, and
    # so is an array that is not a stack of tables (inputs None: a k-d array)
    monkeypatch.setattr(cj, "sample_table", lambda *args: pytest.fail("sampled"))
    if inputs is None:
        tables = np.zeros((16,) * k)
        match = re.escape(f"got shape {tables.shape}") + "$"
    else:
        tables = tg.outcome_tables(tg.measured_states(cc.Circuit(k), [None] * inputs))
        assert tables.shape == (inputs, 3 ** k, 2 ** k)
        match = rf"\({k} qubits\)"
    with pytest.raises(la.ShapeError, match=match):
        cj.estimate(tables, 100, 0)


def test_estimate_reads_a_list_of_tables_as_its_array():
    # the ShapeError promise covers anything np.asarray reads, not only arrays
    tables = cj.linear_tables(cc.Circuit(4))
    for shots in (0, 100):
        got, got_leaks = cj.estimate(list(tables), shots, 3)
        want, want_leaks = cj.estimate(tables, shots, 3)
        assert np.array_equal(got, want) and got_leaks == want_leaks
    with pytest.raises(la.ShapeError, match=re.escape("got shape (9, 4)")):
        cj.estimate([list(t) for t in tables[0]], 0, 0)


def test_choi_physicality_from_pipelines():
    omega = cj.choi_direct(dc.ls_channel_circuit(), shots=0, seed=0)
    assert la.is_hermitian(omega, 1e-8)
    assert abs(np.trace(omega) - 1) < 1e-8
    assert la.is_psd(omega, 1e-8)
    tr_out = la.partial_trace(omega, [3, 3], [0])
    assert np.abs(tr_out - np.eye(3) / 3).max() < 1e-8


def test_choi_json_roundtrip(tmp_path):
    omega = cj.analytic_choi(ch.ChannelRep.analytic("ls"))
    obj = cj.choi_to_json(omega)
    assert obj["ordering"] == "input_output"
    back = cj.choi_from_json(obj)
    assert np.abs(back - omega).max() == 0


@pytest.mark.parametrize("obj", [
    [1, 2], "choi", None, 3,                     # not a JSON object
    la.matrix_to_json(np.eye(3) / 3),            # a state, but 3x3
    la.matrix_to_json(2 * np.eye(9) / 9),        # 9x9, trace two
    dict(cj.choi_to_json(cj.named_choi("ls")), ordering="output_input"),
])
def test_choi_from_json_rejects_anything_but_a_9x9_state(obj):
    with pytest.raises(ValueError):
        cj.choi_from_json(obj)


def test_sweep_with_circuit_choi():
    omega = cj.choi_direct(dc.wh_channel_circuit(), shots=0, seed=0)
    lo, hi, mean = tg.channel_fidelity_sweep(omega, ch.wh_apply, 1, 6, grid=21)
    assert mean > 1 - 1e-6


def _rank_deficient(rng, rank):
    a = rng.normal(size=(9, rank)) + 1j * rng.normal(size=(9, rank))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def test_analytic_fidelity_equals_choi_fidelity_exactly():
    rng = np.random.default_rng(23)
    for name in ("ls", "wh", "id"):
        omegas = [cj.named_choi(n) for n in ("ls", "wh", "id")]
        omegas += [rand_density(rng, 9) for _ in range(10)]
        omegas += [_rank_deficient(rng, r) for r in (1, 2, 3, 5) for _ in range(3)]
        # an unnormalized, non-Hermitian estimate goes through the same projection
        omegas.append(rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9)))
        for omega in omegas:
            want = cj.choi_fidelity(cj.named_choi(name), omega)
            got = cj.analytic_fidelity(name, omega)
            assert type(got) is float and got == want, name
    with pytest.raises(la.ShapeError):
        cj.analytic_fidelity("ls", np.eye(3) / 3)


def test_analytic_spectrum_is_read_only_and_independent_of_named_choi_copies():
    cj._analytic_spectrum.cache_clear()
    for name in ("ls", "wh", "id"):
        first = cj.named_choi(name)
        first[...] = 7.0  # before the spectrum is built
        spectrum = cj._analytic_spectrum(name)
        want = la.density_spectrum(cj.analytic_choi(ch.ChannelRep.analytic(name)))
        for got, exact in zip(spectrum, want, strict=True):
            assert np.array_equal(got, exact)
            assert not got.flags.writeable
            with pytest.raises(ValueError):
                got[0] = 1.0
        cj.named_choi(name)[...] = 7.0  # after
        again = cj._analytic_spectrum(name)
        assert again is spectrum
        assert all(np.array_equal(got, exact) for got, exact in zip(again, want))
        omega = cj.named_choi("wh")
        assert cj.analytic_fidelity(name, omega) == cj.choi_fidelity(cj.named_choi(name), omega)


# --- an asymmetric, complex test channel through both Choi routes ---------
# ls, wh and id have real Choi matrices that a swap of input and output
# leaves unchanged, so they cannot see a route that reads the direct
# circuit as output (x) input or conjugates its estimate.  This 4-gate
# circuit on the system pair (2, 3) fixes |11> and maps the qutrit levels
# 0 -> e^{0.7i} 1, 1 -> 2, 2 -> 0: a unitary channel rho -> U rho U^dag
# whose Choi matrix |U>><<U|/3 is complex and not swap-symmetric.
_CYCLE_PHASE = 0.7


def _cycle_circuit():
    return cc.Circuit(4, [("x", (), (2,)), ("cnot", (), (2, 3)), ("cnot", (), (3, 2)),
                          ("u1", (_CYCLE_PHASE,), (3,))])


def _cycle_choi():
    u = np.zeros((3, 3), dtype=complex)
    u[1, 0], u[2, 1], u[0, 2] = np.exp(1j * _CYCLE_PHASE), 1, 1
    ket = sum(np.kron(np.eye(3)[i], u[:, i]) for i in range(3))  # sum_i |i> (x) U|i>
    return np.outer(ket, ket.conj()) / 3


def test_cycle_choi_is_complex_and_not_swap_symmetric():
    omega = _cycle_choi()
    swapped = omega.reshape(3, 3, 3, 3).transpose(1, 0, 3, 2).reshape(9, 9)
    assert np.abs(omega.imag).max() > 0.2
    assert np.abs(omega - swapped).max() > 0.3
    assert np.abs(omega - omega.conj()).max() > 0.4


@pytest.mark.parametrize("layout", [None, "ibmqx4", "tokyo-6q"])
def test_exact_choi_routes_reproduce_an_asymmetric_complex_channel(layout):
    # the linear route unrouted and on ibmqx4, the 6-wire direct route
    # unrouted and on tokyo-6q
    cmap = None if layout is None else cp.preset_map(layout)
    want = _cycle_choi()
    if layout != "tokyo-6q":
        states, leakages = cj.estimate(cj.linear_tables(_cycle_circuit(), layout=cmap), 0, 0)
        assert np.abs(cj.choi_linear(states) - want).max() < 1e-12
        assert max(leakages) < 1e-12
    if layout != "ibmqx4":
        states, leakages = cj.estimate(cj.direct_tables(_cycle_circuit(), layout=cmap), 0, 0)
        assert np.abs(states[0] - want).max() < 1e-12
        assert max(leakages) < 1e-12


def _conjugated_estimate(tables, shots, seed, estimate=cj.estimate):
    states, leakages = estimate(tables, shots, seed)
    return states.conj(), leakages


def _swapped_direct_tables(channel_circuit, noise=cc.NoiseConfig(), layout=None, placement=None):
    # the direct circuit read as output (x) input
    return cj._experiment_tables(cj.choi_direct_circuit(channel_circuit), [None], (2, 3, 0, 1),
                                 noise, layout, placement)


@pytest.mark.parametrize("attr, broken", [("estimate", _conjugated_estimate),
                                          ("direct_tables", _swapped_direct_tables)],
                         ids=["conjugated_estimate", "swapped_direct_readout"])
def test_circuit_channels_check_fails_on_a_broken_shipped_route(monkeypatch, attr, broken):
    # verify's criterion 3 runs the routes the CLI ships, so breaking one
    # of them in a way ls, wh and id cannot see fails the check
    monkeypatch.setattr(cj, attr, broken)
    name, ok, detail = vf.check_circuit_channels()
    assert name == "circuit_induced_channels" and not ok, detail


def _swapped_choi_linear(outs, choi_linear=cj.choi_linear):
    # the Choi matrix assembled as output (x) input
    return choi_linear(outs).reshape(3, 3, 3, 3).transpose(1, 0, 3, 2).reshape(9, 9)


def _conjugated_choi_linear(outs, choi_linear=cj.choi_linear):
    return choi_linear(outs).conj()


@pytest.mark.parametrize("broken", [_swapped_choi_linear, _conjugated_choi_linear],
                         ids=["output_input_order", "conjugated"])
def test_two_route_check_fails_on_a_broken_choi_linear(monkeypatch, broken):
    # ls, wh and id cannot see either fault; the cycle channel's complex,
    # swap-asymmetric Choi matrix can
    monkeypatch.setattr(cj, "choi_linear", broken)
    name, ok, detail = vf.check_choi_two_route()
    assert name == "choi_two_route_agreement" and not ok, detail
