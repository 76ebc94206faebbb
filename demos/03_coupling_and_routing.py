"""Coupling maps and circuit legalization: direction reversal and the
relay through a common neighbour.
"""
import numpy as np

from qutritsim import circuits as cc
from qutritsim import coupling as cp
from qutritsim import decompositions as dc
from qutritsim import linalg as la

print("== bundled maps ==")
for name in ("ibmqx4", "tokyo", "tokyo-6q"):
    m = cp.preset_map(name)
    print(f"{name}: {m.n_qubits} qubits, {len(m.edges)} directed edges")

m5 = cp.preset_map("ibmqx4")
print("\n5-qubit edges (control -> target):", sorted(m5.edges))

print("\n== direction reversal ==")
frag = cp.reverse_cnot(0, 1)
print("fragment:", [(g.name, g.qubits) for g in frag])
u = cc.unitary_of(cc.Circuit(2, frag))
want = cc.unitary_of(cc.Circuit(2, [("cnot", (), (0, 1))]))
print("equals the reversed CNOT exactly:", np.abs(u - want).max())

print("\n== relay through a common neighbour ==")
c = cc.Circuit(4, [("cnot", (), (0, 3))])   # 0 and 3 are not adjacent
r = cp.route_circuit(c, m5)
print("CNOT(0,3) becomes", r.cnot_count(), "CNOTs:",
      [(g.qubits) for g in r.gates if g.name == "cnot"])
print("violations after routing:", cp.validate(r, m5))

print("\n== the channel circuit on the 5-qubit device layout ==")
placement = {0: 2, 1: 1, 2: 3, 3: 0}   # env pair on (2,1), system pair on (3,0)
plain = dc.ls_channel_circuit(dc.SConfig(4))
routed = cp.route_circuit(plain, m5, placement)
print(f"plain: {plain.cnot_count()} CNOTs; routed: {routed.cnot_count()} CNOTs")
print("legal:", cp.validate(routed, m5) == [])
want = cc.unitary_of(plain.remapped([2, 1, 3, 0], n_qubits=5))
print("semantics preserved up to global phase:",
      la.equal_up_to_global_phase(cc.unitary_of(routed), want, 1e-9))
