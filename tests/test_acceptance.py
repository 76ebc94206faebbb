"""Acceptance suite: one test per release criterion, each at its stated
tolerance, printing one PASS line when it holds.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import numpy as np
import pytest

from qutritsim import channels as ch
from qutritsim import choi as cj
from qutritsim import circuits as cc
from qutritsim import coupling as cp
from qutritsim import decompositions as dc
from qutritsim import encoding as enc
from qutritsim import linalg as la
from qutritsim import tomography as tg
from qutritsim.verify import _random_circuit as random_circuit

from test_channels import rand_density


def report(n, text):
    print(f"\n[PASS] criterion {n}: {text}")


def basis9():
    return [dc.basis_density(i) for i in range(1, 10)]


def test_criterion_01_stinespring_correctness():
    dil = ch.ls_stinespring()
    env = np.zeros((3, 3), dtype=complex)
    env[0, 0] = 1
    worst = 0.0
    for rho in basis9():
        full = dil.u @ la.kron(rho, env) @ la.dagger(dil.u)
        out = la.partial_trace(full, [3, 3], [0])
        worst = max(worst, np.abs(out - ch.ls_apply(rho)).max())
    assert worst < 1e-10
    report(1, f"dilation reproduces the spin-1 channel, max dev {worst:.2e}")


def test_criterion_02_covariance_identity():
    w = ch.covariance_unitary()
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(200):
        rho = rand_density(rng)
        worst = max(worst, np.abs(ch.ls_apply(rho) - ch.wh_apply(w @ rho @ w.conj().T)).max())
    assert worst < 1e-12
    report(2, f"covariance identity on 200 random states, max dev {worst:.2e}")


def test_criterion_03_circuit_induced_channels():
    rng = np.random.default_rng(303)
    worst = 0.0
    leak_worst = 0.0
    for build, oracle in ((dc.wh_channel_circuit, ch.wh_apply),
                          (dc.ls_channel_circuit, ch.ls_apply)):
        chan = enc.induced_channel(build())
        for rho in basis9() + [rand_density(rng) for _ in range(50)]:
            out, leak = chan(rho)
            worst = max(worst, np.abs(out - oracle(rho)).max())
            leak_worst = max(leak_worst, abs(leak))
    assert worst < 1e-9
    assert leak_worst < 1e-10
    report(3, f"circuit channels match analytic maps, dev {worst:.2e}, leakage {leak_worst:.2e}")


def test_criterion_04_choi_structure():
    omega_wh = cj.analytic_choi(ch.ChannelRep.analytic("wh"))
    swap = np.zeros((9, 9), dtype=complex)
    for i in range(3):
        for k in range(3):
            e = np.zeros((3, 3)); e[i, k] = 1
            swap += np.kron(e, e.T)
    dev = np.abs(omega_wh - (np.eye(9) - swap) / 6).max()
    assert dev < 1e-12
    for name in ("ls", "wh"):
        w, _ = la.hermitian_eig(cj.analytic_choi(ch.ChannelRep.analytic(name)))
        assert np.abs(w[:3] - 1 / 3).max() < 1e-9
        assert np.abs(w[3:]).max() < 1e-9
    report(4, f"Choi structure (I-SWAP)/6 within {dev:.2e}; spectra flat rank 3")


def test_criterion_05_two_route_choi_agreement():
    worst = 0.0
    for name in ("ls", "wh", "id"):
        rep = ch.ChannelRep.analytic(name)
        outs = [ch.apply_channel(rep, r) for r in cj.physical_basis()]
        worst = max(worst, np.abs(cj.choi_linear(outs) - cj.analytic_choi(rep)).max())
    assert worst < 1e-10
    # coefficient table: numeric rederivation, then exact symbolic rederivation
    dev = np.abs(cj.rederive_coefficients() - cj.COEFFICIENTS).max()
    assert dev < 1e-12
    sympy = pytest.importorskip("sympy")
    I = sympy.I
    half = sympy.Rational(1, 2)
    kets = [sympy.Matrix([1, 0, 0]), sympy.Matrix([0, 1, 0]), sympy.Matrix([0, 0, 1])]
    rs = [k * k.T for k in kets]
    for a, b in ((0, 1), (0, 2), (1, 2)):
        v = kets[a] + kets[b]
        rs.append(half * v * v.T)
    for a, b in ((0, 1), (0, 2), (1, 2)):
        v = kets[a] + I * kets[b]
        rs.append(half * v * v.conjugate().T)
    bmat = sympy.Matrix([[rs[k][idx // 3, idx % 3] for k in range(9)] for idx in range(9)])
    stored = sympy.Matrix(9, 9, lambda r, c: sympy.Rational(
        complex(cj.COEFFICIENTS[r, c]).real) + I * sympy.Rational(
        complex(cj.COEFFICIENTS[r, c]).imag))
    for i in range(3):
        for j in range(3):
            e = sympy.zeros(3, 3)
            e[i, j] = 1
            sol = bmat.solve(sympy.Matrix([e[idx // 3, idx % 3] for idx in range(9)]))
            assert (sol.T - stored.row(3 * i + j)).expand() == sympy.zeros(1, 9)
    report(5, f"linear Choi route agrees within {worst:.2e}; coefficient table exact")


def test_criterion_06_choi_roundtrip():
    rng = np.random.default_rng(606)
    worst = 0.0
    for name, oracle in (("ls", ch.ls_apply), ("wh", ch.wh_apply), ("id", lambda r: r)):
        omega = cj.analytic_choi(ch.ChannelRep.analytic(name))
        for _ in range(100):
            rho = rand_density(rng)
            worst = max(worst, np.abs(cj.channel_from_choi(omega, rho) - oracle(rho)).max())
    assert worst < 1e-10
    report(6, f"channel recovery from Choi within {worst:.2e} on 100 random states")


def test_criterion_07_tomography_pipeline_fidelity():
    results = {8192: [], 65536: []}
    for build, oracle in ((dc.wh_channel_circuit, ch.wh_apply),
                          (dc.ls_channel_circuit, ch.ls_apply)):
        circ = build()
        for i in range(1, 10):
            full = cc.Circuit(4)
            full.extend(dc.prep_basis_circuit(i).remapped([2, 3], 4).gates)
            full.extend(circ.gates)
            target = oracle(dc.basis_density(i))
            for shots in (8192, 65536):
                for seed in range(20):
                    rec = tg.collect(full, shots, 1000 * seed + i,
                                     measure_qubits=(2, 3))
                    rho3, _ = tg.reconstruct_qutrit(rec)
                    results[shots].append(tg.fidelity(rho3, target))
    mean_lo = float(np.mean(results[8192]))
    mean_hi = float(np.mean(results[65536]))
    assert mean_lo >= 0.97
    assert mean_hi >= 0.99
    report(7, f"pipeline fidelity mean {mean_lo:.4f} at 8192 shots, "
              f"{mean_hi:.4f} at 65536 shots (9 inputs x 20 seeds, both channels)")


def test_criterion_08_direct_choi_pipeline():
    fids = {}
    for name, build in (("wh", dc.wh_channel_circuit), ("ls", dc.ls_channel_circuit)):
        omega = cj.choi_direct(build(), shots=10 ** 6, seed=88)
        want = cj.analytic_choi(ch.ChannelRep.analytic(name))
        fids[name] = cj.choi_fidelity(want, omega)
        assert fids[name] >= 0.99, name
    report(8, f"direct Choi at 1e6 shots: F_wh {fids['wh']:.4f}, F_ls {fids['ls']:.4f}")


def test_criterion_09_noise_degradation_property():
    grid = (0.0, 0.02, 0.05, 0.1)
    for name, build in (("ls", dc.ls_channel_circuit), ("wh", dc.wh_channel_circuit)):
        want = cj.analytic_choi(ch.ChannelRep.analytic(name))
        means = []
        for p2 in grid:
            vals = [cj.choi_fidelity(want, cj.choi_direct(
                build(), shots=100000, seed=s, noise=cc.NoiseConfig(p2=p2)))
                for s in range(5)]
            means.append(float(np.mean(vals)))
        assert all(means[i] >= means[i + 1] for i in range(len(grid) - 1)), (name, means)
        assert means[-1] < 0.9, (name, means)
    report(9, f"seed-averaged Choi fidelity monotone over p2 {grid}, "
              f"final mean {means[-1]:.3f} < 0.9")


def test_criterion_10_decomposition_identities():
    u = cc.unitary_of(dc.w_tilde_circuit())
    y1 = np.kron(np.eye(2), np.array([[0, -1j], [1j, 0]]))
    x1 = np.kron(np.eye(2), np.array([[0, 1], [1, 0]]))
    cnot10 = cc.unitary_of(cc.Circuit(2, [("cnot", (), (1, 0))]))
    dev_w = np.abs(u - 1j * (y1 @ cnot10 @ x1)).max()
    assert dev_w < 1e-12
    m = dc.quasi_toffoli_matrix()
    for v in ("a", "b"):
        uv = cc.unitary_of(dc.quasi_toffoli_circuit(dc.QuasiToffoliVariant(v)))
        assert la.equal_up_to_global_phase(uv, m, 1e-12)
    frag = cc.Circuit(2, cp.reverse_cnot(0, 1))
    dev_r = np.abs(cc.unitary_of(frag)
                   - cc.unitary_of(cc.Circuit(2, [("cnot", (), (0, 1))]))).max()
    assert dev_r < 1e-12
    report(10, f"gate identities: w-tilde {dev_w:.2e}, quasi-Toffoli matched, "
               f"reversal {dev_r:.2e}")


def test_criterion_11_routing_semantics():
    cmap = cp.preset_map("ibmqx4")
    rng = np.random.default_rng(1111)
    for _ in range(200):
        c = random_circuit(rng, 4, int(rng.integers(1, 21)))
        routed = cp.route_circuit(c, cmap)
        assert cp.validate(routed, cmap) == []
        want = np.kron(cc.unitary_of(c), np.eye(2))
        assert la.equal_up_to_global_phase(cc.unitary_of(routed), want, 1e-9)
    report(11, "200 random circuits routed, unitaries preserved, all legal")
