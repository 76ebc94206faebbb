"""The four benchmark workloads.

Every workload is a closed loop with one client in one thread: item k+1
starts when item k has finished.  ``setup`` makes all inputs from the
workload seed; ``item`` drives qutritsim through its public entry points
and is the timed part; ``check`` verifies the item's output from outside
(untimed) and returns the item's fidelity.  A failed check raises
CheckFailed.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os

import numpy as np

N_SEEDS = 4096  # distinct per-item inputs; far more than a run completes
PAIRS = [(a, b) for a in range(1, 10) for b in range(a + 1, 10)]
# criterion 9's p2 range; every point also has p1, gamma and readout flips
NOISE_GRID = [{"p1": p2 / 10, "p2": p2, "gamma": p2 / 10, "readout_flip": 0.01}
              for p2 in (0.01, 0.05, 0.1)]
CHOI_TOL = 1e-8


class CheckFailed(Exception):
    pass


def run_cli(q, argv) -> str:
    """cli.main in-process; returns the output path it prints."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = q.cli.main(argv)
    if rc != 0:
        raise CheckFailed(f"qutritsim {' '.join(argv)} exited {rc}")
    return buf.getvalue().strip()


def item_seeds(seed: int) -> list:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(N_SEEDS) >> 1]


def check_choi_file(q, path, analytic) -> float:
    """Trace one, Hermitian and PSD within CHOI_TOL, and a reported
    fidelity that a recomputation with choi.choi_fidelity reproduces."""
    with open(path) as f:
        obj = json.load(f)
    omega = q.choi.choi_from_json(obj)
    if omega.shape != (9, 9):
        raise CheckFailed(f"Choi shape {omega.shape}")
    if abs(np.trace(omega) - 1) > CHOI_TOL:
        raise CheckFailed(f"Choi trace {np.trace(omega)}")
    if np.abs(omega - omega.conj().T).max() > CHOI_TOL:
        raise CheckFailed("Choi not Hermitian")
    if np.linalg.eigvalsh((omega + omega.conj().T) / 2)[0] < -CHOI_TOL:
        raise CheckFailed("Choi not PSD")
    fid = q.choi.choi_fidelity(analytic[obj["channel"]], omega)
    if abs(fid - obj["fidelity_vs_analytic"]) > 1e-9:
        raise CheckFailed(f"fidelity {obj['fidelity_vs_analytic']} != recomputed {fid}")
    return fid


def analytic_chois(q) -> dict:
    return {c: q.choi.analytic_choi(q.channels.ChannelRep.analytic(c)) for c in ("ls", "wh")}


class TomoLinear:
    """qutritsim choi --choi-method linear --shots 8192, noiseless; channels
    alternate and every item has a fresh seed."""

    name = "tomo_linear"
    cycle = 2

    def setup(self, q, seed, workdir):
        self.q, self.out = q, workdir
        self.seeds = item_seeds(seed)
        self.analytic = analytic_chois(q)

    def item(self, k):
        return run_cli(self.q, ["choi", "--channel", ("ls", "wh")[k % 2],
                                "--choi-method", "linear", "--shots", "8192",
                                "--seed", str(self.seeds[k % N_SEEDS]), "--out", self.out])

    def check(self, k, path):
        return check_choi_file(self.q, path, self.analytic)


class ChoiDirectNoisy:
    """qutritsim choi --choi-method direct --shots 100000 --noise <file>;
    channels alternate and the noise cycles over NOISE_GRID."""

    name = "choi_direct_noisy"
    cycle = 2 * len(NOISE_GRID)

    def setup(self, q, seed, workdir):
        self.q, self.out = q, workdir
        self.seeds = item_seeds(seed)
        self.analytic = analytic_chois(q)
        self.noise_files = []
        for i, noise in enumerate(NOISE_GRID):
            path = os.path.join(workdir, f"noise_{i}.json")
            with open(path, "w") as f:
                json.dump(noise, f)
            self.noise_files.append(path)

    def item(self, k):
        noise = self.noise_files[(k // 2) % len(NOISE_GRID)]
        return run_cli(self.q, ["choi", "--channel", ("ls", "wh")[k % 2],
                                "--choi-method", "direct", "--shots", "100000",
                                "--seed", str(self.seeds[k % N_SEEDS]), "--noise", noise,
                                "--out", self.out])

    def check(self, k, path):
        return check_choi_file(self.q, path, self.analytic)


def noisy_direct_pool(q, seed) -> list:
    """Full-rank Choi estimates of both channels at the middle noise point."""
    noise = q.circuits.NoiseConfig(**NOISE_GRID[1])
    s = item_seeds(seed)
    return [("ls", q.choi.choi_direct(q.decompositions.ls_channel_circuit(), 100000, s[0], noise)),
            ("wh", q.choi.choi_direct(q.decompositions.wh_channel_circuit(), 100000, s[1], noise))]


class Sweep:
    """One tomography.channel_fidelity_sweep pair per item at the default
    grid of 101, over the 36 basis pairs and a pool of Choi matrices: the
    rank-3 analytic ones (eigenvalue-clipping branch) and full-rank noisy
    direct estimates made from the seed."""

    name = "sweep"

    def setup(self, q, seed, workdir):
        self.q = q
        pool = list(analytic_chois(q).items()) + noisy_direct_pool(q, seed)
        combos = [(entry, pair) for entry in pool for pair in PAIRS]
        order = np.random.default_rng(seed).permutation(len(combos))
        self.combos = [combos[i] for i in order]
        self.cycle = len(combos)

    def item(self, k):
        (channel, omega), (a, b) = self.combos[k % self.cycle]
        reference = getattr(self.q.channels, f"{channel}_apply")
        return self.q.tomography.channel_fidelity_sweep(omega, reference, a, b, 101)

    def check(self, k, out):
        lo, hi, mean = out
        if not 0.0 <= lo <= mean <= hi <= 1.0:
            raise CheckFailed(f"sweep stats out of order: {out}")
        return mean


def cnot_costs(cmap) -> dict:
    """Gates route_circuit emits for cnot(a, b) on every physical pair: 1 on
    an edge, 5 against one (Hadamard sandwich), else a 4-CNOT relay through
    the lowest common neighbour."""
    def legal(a, b):
        return 1 if cmap.has(a, b) else 5

    costs = {}
    for a, b in itertools.permutations(range(cmap.n_qubits), 2):
        if cmap.connected(a, b):
            costs[a, b] = legal(a, b)
        else:
            m = min(cmap.neighbors(a) & cmap.neighbors(b))
            costs[a, b] = 2 * legal(m, b) + 2 * legal(a, m)
    return costs


def stratified_placements(rng, cmap, circuit, strata) -> list:
    """``strata`` injective placements of ``circuit`` on ``cmap``: all
    placements ranked by routed size, cut into equal bands, one drawn at
    random from each band, in random order.  Cycling through them, every
    run routes about the same mix of cheap and costly placements whatever
    the seed, so the seed does not move the latency percentiles."""
    costs = cnot_costs(cmap)
    cnots = [g.qubits for g in circuit.gates if g.name == "cnot"]
    every = list(itertools.permutations(range(cmap.n_qubits), circuit.n_qubits))
    ranked = sorted(every, key=lambda w: sum(costs[w[a], w[b]] for a, b in cnots))
    picks = [ranked[int(rng.choice(band))]
             for band in np.array_split(np.arange(len(ranked)), strata)]
    return [list(picks[i]) for i in rng.permutation(strata)]


class RoutedUnitary:
    """Route one circuit per item onto a coupling map with a seeded random
    injective placement, then take unitary_of of the routed circuit and of
    the unrouted one remapped onto the same placement, and validate.  Two of
    every three items route one of the 8 channel circuits (ls/wh x SConfig
    1-4) onto ibmqx4, the third the 6-qubit direct-Choi circuit of one of
    them onto tokyo-6q, so p50 and p90 each fall inside one circuit size.
    The 20-qubit tokyo map is left out: unitary_of is dense and stops at 6
    qubits."""

    name = "routed_unitary"
    cycle = 3
    STRATA = (16, 8)  # about the uses per circuit in a 20 s run, per map

    def setup(self, q, seed, workdir):
        self.q = q
        dc, cj, cp = q.decompositions, q.choi, q.coupling
        channel = [build(dc.SConfig(k)) for build in (dc.ls_channel_circuit, dc.wh_channel_circuit)
                   for k in (1, 2, 3, 4)]
        rng = np.random.default_rng(seed)
        self.sets = []
        for (cmap, circuits), strata in zip(
                [(cp.preset_map("ibmqx4"), channel),
                 (cp.preset_map("tokyo-6q"), [cj.choi_direct_circuit(c) for c in channel])],
                self.STRATA):
            self.sets.append((cmap, [(c, stratified_placements(rng, cmap, c, strata))
                                     for c in circuits]))

    def item(self, k):
        cycle, pos = divmod(k, 3)
        which, index = (1, cycle) if pos == 2 else (0, 2 * cycle + pos)
        cmap, circuits = self.sets[which]
        use, i = divmod(index, len(circuits))
        c, placements = circuits[i]
        wires = placements[use % len(placements)]
        routed = self.q.coupling.route_circuit(c, cmap, dict(enumerate(wires)))
        u_routed = self.q.circuits.unitary_of(routed)
        u_ref = self.q.circuits.unitary_of(c.remapped(wires, cmap.n_qubits))
        return u_routed, u_ref, self.q.coupling.validate(routed, cmap)

    def check(self, k, out):
        """Equal up to global phase within 1e-9 and no illegal CNOT; returns
        the process fidelity |Tr(U_ref^+ U_routed)|^2 / d^2."""
        u, v, violations = out
        if violations:
            raise CheckFailed(f"illegal routed circuit: {violations[:3]}")
        i = np.unravel_index(np.argmax(np.abs(v)), v.shape)
        phase = u[i] / v[i]
        if abs(abs(phase) - 1) > 1e-9 or np.abs(u - phase * v).max() > 1e-9:
            raise CheckFailed("routed unitary differs beyond a global phase")
        d = u.shape[0]
        return float(abs(np.trace(v.conj().T @ u)) ** 2 / d ** 2)


WORKLOADS = {w.name: w for w in (TomoLinear, ChoiDirectNoisy, Sweep, RoutedUnitary)}
