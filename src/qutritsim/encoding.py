"""Embedding qutrits into qubit pairs and projecting back.

Encoding, fixed package-wide: qutrit level m maps to the two-qubit basis
state with index m, i.e. 0 -> |00>, 1 -> |01>, 2 -> |10>.  The |11> state
carries no logical meaning; any weight it picks up is "leakage" and is
discarded with renormalization (post-selection), coherences included.

Qutrit states enter as densities (embed_density) and leave by
post-selecting one or two pairs: postselect post-selects a whole stack in
one call (choi.estimate: every input of either Choi experiment), bit for
bit as matrix by matrix; project_qutrit and project_two_qutrits are its
one-matrix forms.  The module runs no circuit and imports only linalg: the
channel a circuit induces is read through choi's experiments.
"""

from __future__ import annotations

import numpy as np

from . import linalg as la
from .linalg import as_matrix

QUTRIT_IDX = (0, 1, 2)  # embedded positions inside a qubit pair
POSTSELECT_ATOL = 1e-12  # least qutrit-block weight post-selection accepts
# kept rows and columns of two pairs (16x16); one pair keeps the slice :3
_TWO_PAIR_IDX = np.array([4 * a + b for a in QUTRIT_IDX for b in QUTRIT_IDX])


class DegenerateProjectionError(ValueError):
    """All probability weight sits on the excluded |11> state."""


def embed_density(rho: np.ndarray) -> np.ndarray:
    """3x3 density into the top-left block of a 4x4; row/col 3 zero."""
    rho = as_matrix(rho)
    if rho.shape != (3, 3):
        raise la.ShapeError("embed_density needs a 3x3 matrix")
    if not la.is_density_matrix(rho, 1e-8):
        raise ValueError("input is not a density matrix")
    out = np.zeros((4, 4), dtype=complex)
    out[:3, :3] = rho
    return out


def _traces(stack: np.ndarray) -> np.ndarray:
    """Real traces of a stack (B, d, d), each summed in the order np.trace
    sums one matrix (its diagonal as one contiguous complex row), so every
    trace equals the per-matrix np.trace(m).real bit for bit."""
    return np.ascontiguousarray(stack.diagonal(axis1=1, axis2=2)).sum(axis=-1).real


def postselect(stack: np.ndarray, pairs: int):
    """Post-select every state of a complex stack (B, 4^pairs, 4^pairs) of
    one or two qubit pairs onto the qutrit block of each pair, as one call.

    Returns (blocks, leakages): the fresh (B, 3^pairs, 3^pairs) blocks, each
    divided by its trace (the weight), and the list of B leakages as Python
    floats, clipped to [0, 1].  For one pair the leakage is the |11>
    population rho4[3, 3], exact for trace-one input; for two pairs it is
    the trace minus the weight.  A member with weight below POSTSELECT_ATOL
    raises DegenerateProjectionError; pairs other than 1 or 2 raise
    ValueError, and a stack of any other shape ShapeError.
    """
    if pairs not in (1, 2):
        raise ValueError(f"pairs must be 1 or 2, got {pairs!r}")
    stack = np.asarray(stack)
    d = 4 ** pairs
    if stack.ndim != 3 or stack.shape[1:] != (d, d):
        raise la.ShapeError(f"postselect of {pairs} pair(s) needs a stack (B, {d}, {d}), "
                            f"got shape {stack.shape}")
    block = stack[:, :3, :3] if pairs == 1 else stack[:, _TWO_PAIR_IDX[:, None], _TWO_PAIR_IDX]
    weight = _traces(block)
    if (weight < POSTSELECT_ATOL).any():
        raise DegenerateProjectionError("no weight left in the qutrit subspace" if pairs == 1
                                        else "no weight left in the qutrit x qutrit subspace")
    leakage = stack[:, 3, 3].real if pairs == 1 else _traces(stack) - weight
    return block / weight[:, None, None], np.clip(leakage, 0.0, 1.0).tolist()


def project_qutrit(rho4: np.ndarray):
    """Post-select the qutrit block: returns (rho3, leakage).

    rho3 = P rho4 P / Tr(P rho4 P) with P the projector onto
    span{|00>,|01>,|10>}; leakage = rho4[3, 3], the discarded weight
    1 - Tr(P rho4 P) for trace-one input.
    """
    rho4 = as_matrix(rho4)
    if rho4.shape != (4, 4):
        raise la.ShapeError("project_qutrit needs a 4x4 matrix")
    (rho3,), (leakage,) = postselect(rho4[None], 1)
    return rho3, leakage


def project_two_qutrits(rho16: np.ndarray):
    """Post-select both qubit pairs of a 4-qubit state onto qutrit blocks.

    Input ordering: first pair = most significant.  Returns (rho9, leakage)
    with 9x9 index 3 * m_first + m_second and leakage = Tr(rho16) minus the
    kept weight.
    """
    rho16 = as_matrix(rho16)
    if rho16.shape != (16, 16):
        raise la.ShapeError("project_two_qutrits needs a 16x16 matrix")
    (rho9,), (leakage,) = postselect(rho16[None], 2)
    return rho9, leakage
