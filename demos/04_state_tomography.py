"""Shot-based state tomography of the channel outputs.

Prepares each basis input on the system pair, runs the channel circuit,
measures the system pair in all nine Pauli settings, reconstructs the
qutrit state, and scores it against the analytic output.
"""
import numpy as np

from qutritsim import channels as ch
from qutritsim import circuits as cc
from qutritsim import decompositions as dc
from qutritsim import encoding as enc
from qutritsim import tomography as tg

SHOTS = 8192
circ = dc.ls_channel_circuit()

print(f"spin-1 channel, {SHOTS} shots per setting, one seed")
print(" input   fidelity   leakage")
fids = []
for i in range(1, 10):
    full = cc.Circuit(4)
    full.extend(dc.prep_basis_circuit(i).remapped([2, 3], 4).gates)
    full.extend(circ.gates)
    rec = tg.collect(full, SHOTS, seed=100 + i, measure_qubits=(2, 3))
    rho3, leak = enc.project_qutrit(tg.reconstruct_state(rec.table))
    target = ch.ls_apply(dc.basis_density(i))
    f = tg.fidelity(rho3, target)
    fids.append(f)
    print(f"   {i}      {f:.4f}    {leak:.4f}")
print(f"mean fidelity: {np.mean(fids):.4f}")

print("\nshot-noise scaling (input 6, 10 seeds each):")
full = cc.Circuit(4)
full.extend(dc.prep_basis_circuit(6).remapped([2, 3], 4).gates)
full.extend(circ.gates)
target = ch.ls_apply(dc.basis_density(6))
for shots in (1024, 8192, 65536):
    errs = []
    for seed in range(10):
        rec = tg.collect(full, shots, seed, measure_qubits=(2, 3))
        rho3, _ = enc.project_qutrit(tg.reconstruct_state(rec.table))
        errs.append(1 - tg.fidelity(rho3, target))
    print(f"  {shots:6d} shots: mean infidelity {np.mean(errs):.2e}")

print("\nexact mode (shots=0) inverts exactly:")
rec = tg.collect(full, 0, seed=0, measure_qubits=(2, 3))
rho3, _ = enc.project_qutrit(tg.reconstruct_state(rec.table))
print("deviation from analytic:", np.abs(rho3 - target).max())
