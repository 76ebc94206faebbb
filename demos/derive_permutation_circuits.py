"""Re-derivation of the frozen line-permutation circuits.

The channel construction needs a signed-permutation circuit S over
{quasi-Toffoli, CNOT} such that S^-1 applied after the one-qubit layer
T = F (x) I (x) sx (x) R carries, on the environment-in |00> columns, the
antisymmetric Kraus triple of the transpose-depolarizer -- up to a fixed
signed relabeling V of the environment pair, which tracing out the
environment cannot see.

Only six signed basis vectors are constrained (the two components of each
pinned column), so the search state is tiny and a bidirectional
breadth-first search over gate words meets in the middle.  This script
always verifies the frozen gate lists; run with --full to re-run the
search itself (a few minutes, pure Python).
"""
import argparse
import itertools
import sys
from collections import deque

import numpy as np

from qutritsim import choi as cj
from qutritsim import circuits as cc
from qutritsim import decompositions as dc

# --- gate actions on signed basis indices (wires: e0 e1 s0 s1, MSB first) ---

def bit(i, w):
    return (i >> (3 - w)) & 1

def flip(i, w):
    return i ^ (1 << (3 - w))

GATES = []
for c in range(4):
    for t in range(4):
        if c != t:
            GATES.append(("cx", c, t))
for t in range(4):
    for c1, c2 in itertools.permutations([w for w in range(4) if w != t], 2):
        GATES.append(("qt", c1, c2, t))


def apply_gate(g, i, s):
    if g[0] == "cx":
        _, c, t = g
        return (flip(i, t), s) if bit(i, c) else (i, s)
    _, c1, c2, t = g
    if bit(i, c1) and bit(i, c2):
        return flip(i, t), s
    if bit(i, c1) and not bit(i, c2) and not bit(i, t):
        return i, -s
    return i, s


# --- constraint data ---------------------------------------------------------
# Kraus columns of the target dilation, as (env, sys) qutrit pairs with signs:
#   col 0: -( |1>|e0> + |2>|e1> )/sqrt2    (indices 1, 6)
#   col 1:  ( |0>|e0> - |2>|e2> )/sqrt2    (indices 0, 10)
#   col 2:  ( |0>|e1> + |1>|e2> )/sqrt2    (indices 4, 9)
SOURCES = [(0, 0), (0, 1), (1, 0), (1, 2), (2, 1), (2, 2)]  # (env, sys) of 0,1,4,6,9,10


def goal_states(family):
    """Images required for (S e_0, S e_1, S e_4, S e_6, S e_9, S e_10), all
    assignment choices and both global signs."""
    if family == 4:  # H (x) I (x) sx (x) ry(pi):   cols (e3+e11), -(e2+e10), (e1+e9)
        A, C = [(3, -1), (11, -1)], [(1, 1), (9, 1)]
        B = [((2, -1), (10, 1)), ((10, -1), (2, 1))]
    else:            # ry(-pi/2) (x) I (x) sx (x) ry(-pi)
        A, C = [(3, 1), (11, -1)], [(1, -1), (9, 1)]
        B = [((2, 1), (10, 1)), ((10, -1), (2, -1))]
    out = []
    for gsign in (1, -1):
        for a1, a6 in (A, A[::-1]):
            for b0, b10 in B:
                for c4, c9 in (C, C[::-1]):
                    out.append(tuple((i, gsign * s) for i, s in
                               (b0, a1, c4, a6, c9, b10)))
    return out


def start_states():
    """Sources under every fixed signed relabeling of the environment pair."""
    out = []
    for sigma in itertools.permutations(range(4), 3):
        for taus in itertools.product((1, -1), repeat=3):
            out.append(tuple((4 * sigma[e] + s, taus[e]) for e, s in SOURCES))
    return out


def expand(seeds, depth):
    seen = {s: () for s in seeds}
    frontier = deque(seen.items())
    for _ in range(depth):
        nxt = deque()
        while frontier:
            st, path = frontier.popleft()
            for g in GATES:
                nst = tuple(apply_gate(g, i, s) for i, s in st)
                if nst not in seen:
                    seen[nst] = path + (g,)
                    nxt.append((nst, seen[nst]))
        frontier = nxt
    return seen


def search(family, d_fwd=2, d_bwd=3):
    fwd = expand(start_states(), d_fwd)
    bwd = expand(goal_states(family), d_bwd)
    hits = []
    for st, pf in fwd.items():
        pb = bwd.get(st)
        if pb is not None:
            # every gate is an involution: a backward word reverses in place
            hits.append(pf + tuple(reversed(pb)))
    hits.sort(key=len)
    return hits


# --- verification of the frozen circuits -------------------------------------

def verify_frozen():
    ok = True
    for k in (1, 2, 3, 4):
        cfg = dc.SConfig(k)
        s = cc.unitary_of(dc.s_permutation_circuit(cfg))
        u_tilde = cc.unitary_of(dc.wh_channel_circuit(cfg))
        t = dc.s_config_unitary(cfg)
        pattern = np.abs(np.abs(s @ u_tilde) - np.abs(t)).max()
        # the channel as the CLI reads it: the exact linear experiment's Choi matrix
        states, leaks = cj.estimate(cj.linear_tables(dc.wh_channel_circuit(cfg)), 0, 0)
        worst = max(np.abs(cj.choi_linear(states) - cj.named_choi("wh")).max(), *leaks)
        flag = pattern < 1e-9 and worst < 1e-9
        ok = ok and flag
        print(f"configuration {k}: pattern dev {pattern:.1e}, "
              f"channel dev {worst:.1e} -> {'ok' if flag else 'MISMATCH'}")
    return ok


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--full", action="store_true",
                    help="re-run the bidirectional search (slow)")
    args = ap.parse_args(argv)

    print("frozen gate lists:")
    for k, gates in sorted(dc._S_GATES.items()):
        print(f"  S{k}: {gates}")
    print()
    if not verify_frozen():
        return 1
    if args.full:
        for family in (4, 1):
            print(f"\nsearching family {family} (factorized layer "
                  f"{'H' if family == 4 else 'ry(-pi/2)'} ...):")
            hits = search(family)
            print(f"  {len(hits)} gate words found; shortest:")
            for h in hits[:3]:
                print("   ", len(h), list(h))
    return 0


if __name__ == "__main__":
    sys.exit(main())
