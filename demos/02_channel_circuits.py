"""From matrices to gates: the quasi-Toffoli, the encoded covariance
unitary, and the full 4-qubit channel circuits.

Register layout: wires (0, 1) environment pair, wires (2, 3) system pair.
"""
import numpy as np

from qutritsim import channels as ch
from qutritsim import circuits as cc
from qutritsim import decompositions as dc
from qutritsim import encoding as enc

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
rng = np.random.default_rng(1)
a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
rho = a @ a.conj().T
rho /= np.trace(rho)
for name, build, oracle in (("transpose-dep.", dc.wh_channel_circuit, ch.wh_apply),
                            ("spin-1", dc.ls_channel_circuit, ch.ls_apply)):
    circ = build()
    chan = enc.induced_channel(circ)
    out, leak = chan(rho)
    print(f"{name}: {len(circ.gates)} gates, {circ.cnot_count()} CNOTs,",
          f"dev {np.abs(out - oracle(rho)).max():.1e}, leakage {leak:.1e}")

print("\nall four configurations induce the same channel:")
outs = [enc.induced_channel(dc.wh_channel_circuit(dc.SConfig(k)))(rho)[0]
        for k in (1, 2, 3, 4)]
print("max pairwise deviation:",
      max(np.abs(o - outs[0]).max() for o in outs[1:]))

print("\n== state preparation ==")
psi0 = np.zeros(4, dtype=complex)
psi0[0] = 1
for i in (4, 6, 9):
    out = cc.simulate_state(dc.prep_basis_circuit(i), psi0)
    print(f"prep_{i}:", np.round(out, 4))
sup = cc.simulate_state(dc.prep_superposition_circuit(), psi0)
print("uniform qutrit superposition:", np.round(sup, 4),
      f"(rotation angle {dc.SUPERPOSITION_THETA:.4f} rad)")
