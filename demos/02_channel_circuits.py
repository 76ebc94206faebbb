"""From matrices to gates: the quasi-Toffoli, the encoded covariance
unitary, and the full 4-qubit channel circuits.

Register layout: wires (0, 1) environment pair, wires (2, 3) system pair.
"""
import numpy as np

from qutritsim import channels as ch
from qutritsim import choi as cj
from qutritsim import circuits as cc
from qutritsim import decompositions as dc

np.set_printoptions(precision=3, suppress=True, linewidth=140)

print("== quasi-Toffoli ==")
m = dc.quasi_toffoli_matrix()
print("matrix (real part):")
print(m.real)
for v in ("a", "b"):
    c = dc.quasi_toffoli_circuit(v)
    dev = np.abs(cc.unitary_of(c) - m).max()
    print(f"variant {v}: {len(c.gates)} gates, {c.cnot_count()} CNOTs, dev {dev:.1e}")
print("(three CNOTs is minimal for this matrix; a Toffoli costs six)")

print("\n== encoded covariance unitary ==")
wt = dc.w_tilde_circuit()
print("gates:", [(g.name, g.qubits) for g in wt.gates])
print("matches the 4x4 target:",
      np.abs(cc.unitary_of(wt) - dc.w_tilde_matrix(np.pi)).max())

print("\n== line permutations and the factorized layer ==")
for k in (1, 2, 3, 4):
    cfg = dc.SConfig(k)
    s = cc.unitary_of(dc.s_permutation_circuit(cfg))
    u_tilde = cc.unitary_of(dc.wh_channel_circuit(cfg))
    t = dc.s_config_unitary(cfg)
    print(f"configuration {k}: |S U~| == |one-qubit layer| within",
          f"{np.abs(np.abs(s @ u_tilde) - np.abs(t)).max():.1e}")

print("\n== induced qutrit channels ==")
# read as the CLI reads them: the exact linear experiment, its nine outputs
# assembled into a Choi matrix, then applied to a random input
rng = np.random.default_rng(1)
a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
rho = a @ a.conj().T
rho /= np.trace(rho)


def exact_choi(circ):
    """Choi matrix and worst leakage of the exact (shots 0) linear experiment."""
    states, leaks = cj.estimate(cj.linear_tables(circ), 0, 0)
    return cj.choi_linear(states), max(leaks)


for name, build, oracle in (("transpose-dep.", dc.wh_channel_circuit, ch.wh_apply),
                            ("spin-1", dc.ls_channel_circuit, ch.ls_apply)):
    circ = build()
    omega, leak = exact_choi(circ)
    out = cj.channel_from_choi(omega, rho)
    print(f"{name}: {len(circ.gates)} gates, {circ.cnot_count()} CNOTs,",
          f"dev {np.abs(out - oracle(rho)).max():.1e}, leakage {leak:.1e}")

print("\nall four configurations induce the same channel:")
omegas = [exact_choi(dc.wh_channel_circuit(dc.SConfig(k)))[0] for k in (1, 2, 3, 4)]
print("max pairwise Choi deviation:",
      max(np.abs(o - omegas[0]).max() for o in omegas[1:]))

print("\n== state preparation ==")
psi0 = np.zeros(4, dtype=complex)
psi0[0] = 1
for i in (4, 6, 9):
    out = cc.simulate_state(dc.prep_basis_circuit(i), psi0)
    print(f"prep_{i}:", np.round(out, 4))
sup = cc.simulate_state(dc.prep_superposition_circuit(), psi0)
print("uniform qutrit superposition:", np.round(sup, 4),
      f"(rotation angle {dc.SUPERPOSITION_THETA:.4f} rad)")
