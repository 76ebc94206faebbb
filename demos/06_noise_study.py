"""How gate noise degrades the implemented channel.

CNOT depolarizing dominates the budget (the channel circuits are CNOT
heavy), so the Choi fidelity falls quickly with p2; heavily depolarized
runs land near 0.4, the regime seen on real superconducting devices.
"""
import numpy as np

from qutritsim import channels as ch
from qutritsim import choi as cj
from qutritsim import circuits as cc
from qutritsim import decompositions as dc
from qutritsim import linalg as la

SHOTS = 100000
SEEDS = 3

print("Choi fidelity vs CNOT depolarizing probability (seed-averaged)")
print(" p2      spin-1   transpose-dep.")
for p2 in (0.0, 0.01, 0.02, 0.05, 0.1):
    row = []
    for name, build in (("ls", dc.ls_channel_circuit), ("wh", dc.wh_channel_circuit)):
        want = cj.analytic_choi(ch.ChannelRep.analytic(name))
        # one exact table per point, each seed's estimate as choi_direct returns it
        tables = cj.direct_tables(build(), cc.NoiseConfig(p2=p2))
        estimates = [cj.estimate(tables, SHOTS, s)[0][0] for s in range(SEEDS)]
        vals = [cj.choi_fidelity(want, la.project_to_density(e)) for e in estimates]
        row.append(np.mean(vals))
    print(f" {p2:4.2f}    {row[0]:.4f}   {row[1]:.4f}")

print("\nreadout error alone (flip probability on every measured bit):")
want = cj.analytic_choi(ch.ChannelRep.analytic("ls"))
for flip in (0.0, 0.02, 0.05):
    noise = cc.NoiseConfig(readout_flip=flip)
    omega = cj.choi_direct(dc.ls_channel_circuit(), shots=SHOTS, seed=0, noise=noise)
    print(f" flip {flip:4.2f}: fidelity {cj.choi_fidelity(want, omega):.4f}")

print("\namplitude damping alone:")
for gamma in (0.0, 0.01, 0.03):
    noise = cc.NoiseConfig(gamma=gamma)
    omega = cj.choi_direct(dc.ls_channel_circuit(), shots=SHOTS, seed=0, noise=noise)
    print(f" gamma {gamma:4.2f}: fidelity {cj.choi_fidelity(want, omega):.4f}")
