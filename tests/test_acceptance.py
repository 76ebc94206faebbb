"""Acceptance suite: one test per release criterion, each at its stated
tolerance, printing one PASS line when it holds.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import numpy as np
import pytest

from qutritsim import channels as ch
from qutritsim import choi as cj
from qutritsim import circuits as cc
from qutritsim import decompositions as dc
from qutritsim import linalg as la
from qutritsim import tomography as tg
from qutritsim import verify as vf


def report(n, text):
    print(f"\n[PASS] criterion {n}: {text}")


def holds(n, *checks):
    """Assert each verify check's (name, ok, detail) and print its line."""
    for name, ok, detail in checks:
        assert ok, f"{name}: {detail}"
        report(n, f"{name}, {detail}")


def test_criterion_01_stinespring_correctness():
    holds(1, vf.check_dilation_reproduces_channel())


def test_criterion_02_covariance_identity():
    holds(2, vf.check_covariance())


def test_criterion_03_circuit_induced_channels():
    holds(3, vf.check_circuit_channels())


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
    holds(5, vf.check_choi_two_route(), vf.check_coefficient_rederivation())
    # the coefficient table once more, exactly, by symbolic rederivation
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
    report(5, "coefficient table exact")


def test_criterion_06_choi_roundtrip():
    holds(6, vf.check_choi_roundtrip())


def test_criterion_07_tomography_pipeline_fidelity():
    # the experiment apply --method circuit runs: one exact linear table per
    # channel, one estimate of all nine inputs per (shots, seed)
    results = {8192: [], 65536: []}
    for build, oracle in ((dc.wh_channel_circuit, ch.wh_apply),
                          (dc.ls_channel_circuit, ch.ls_apply)):
        tables = cj.linear_tables(build())
        targets = [oracle(dc.basis_density(i)) for i in range(1, 10)]
        for shots in (8192, 65536):
            for seed in range(20):
                states, _ = cj.estimate(tables, shots, seed)
                results[shots] += [tg.fidelity(s, t) for s, t in zip(states, targets)]
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
            # one exact direct table per point, five seeds estimated from it,
            # each as choi_direct returns it
            tables = cj.direct_tables(build(), cc.NoiseConfig(p2=p2))
            estimates = [cj.estimate(tables, 100000, s)[0][0] for s in range(5)]
            vals = [cj.choi_fidelity(want, la.project_to_density(e)) for e in estimates]
            means.append(float(np.mean(vals)))
        assert all(means[i] >= means[i + 1] for i in range(len(grid) - 1)), (name, means)
        assert means[-1] < 0.9, (name, means)
    report(9, f"seed-averaged Choi fidelity monotone over p2 {grid}, "
              f"final mean {means[-1]:.3f} < 0.9")


def test_criterion_10_decomposition_identities():
    holds(10, vf.check_w_tilde_identity(), vf.check_quasi_toffoli(), vf.check_cnot_reversal())


def test_criterion_11_routing_semantics():
    holds(11, vf.check_routing())
