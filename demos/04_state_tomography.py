"""Shot-based state tomography of the channel outputs.

Prepares each basis input on the system pair, runs the channel circuit,
measures the system pair in all nine Pauli settings, reconstructs the
qutrit state, and scores it against the analytic output.
"""
import numpy as np

from qutritsim import channels as ch
from qutritsim import choi as cj
from qutritsim import decompositions as dc
from qutritsim import tomography as tg

SHOTS = 8192
# the experiment apply --method circuit runs: one exact table of the nine
# inputs, sampled once per (shots, seed)
tables = cj.linear_tables(dc.ls_channel_circuit())
targets = [ch.ls_apply(dc.basis_density(i)) for i in range(1, 10)]

print(f"spin-1 channel, {SHOTS} shots per setting, one seed")
print(" input   fidelity   leakage")
states, leaks = cj.estimate(tables, SHOTS, seed=100)
fids = [tg.fidelity(rho3, target) for rho3, target in zip(states, targets)]
for i, (f, leak) in enumerate(zip(fids, leaks), start=1):
    print(f"   {i}      {f:.4f}    {leak:.4f}")
print(f"mean fidelity: {np.mean(fids):.4f}")

print("\nshot-noise scaling (input 6, 10 seeds each):")
for shots in (1024, 8192, 65536):
    errs = [1 - tg.fidelity(cj.estimate(tables, shots, seed)[0][5], targets[5])
            for seed in range(10)]
    print(f"  {shots:6d} shots: mean infidelity {np.mean(errs):.2e}")

print("\nexact mode (shots=0) inverts exactly:")
states, _ = cj.estimate(tables, 0, seed=0)
print("deviation from analytic:", np.abs(states[5] - targets[5]).max())
