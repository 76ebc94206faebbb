"""Analytic qutrit channels, their Stinespring dilation matrices, and the
one channel form: a d^2 x d^2 superoperator.

The two channels of interest:

* the spin-1 map  rho -> (Jx rho Jx + Jy rho Jy + Jz rho Jz) / 2, built from
  the spin-1 angular momentum matrices (``ls_apply``);
* the transpose-depolarizer  rho -> (Tr[rho] I - rho^T) / (d-1)
  (``wh_apply``), related to the first by conjugation with the unitary W.

Both are unital, CPTP, and have Kraus rank 3 with a flat Choi spectrum.

A ``ChannelRep`` holds one matrix S with vec(Phi(m)) = S vec(m), vec
row-major.  ``ChannelRep.analytic`` builds S for the three qutrit channels;
any other S (superop_from_choi of a Choi matrix, say) is wrapped as it is.
Applying the channel is one matvec and its trace-one Choi matrix is the
inverse reshuffle of S divided by d.  The two dilations are 9x9 unitaries
on a qutrit system and a qutrit environment in |0><0|, ``ls_dilation_matrix``
(system (x) environment) and ``wh_dilation_matrix`` (environment (x) system).
There is no channel file format; the CLI writes Choi matrices (choi).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg as la
from .linalg import as_matrix

_S2 = np.sqrt(2.0)


@dataclass(frozen=True)
class SpinGenerators:
    jx: np.ndarray
    jy: np.ndarray
    jz: np.ndarray


def spin1_generators() -> SpinGenerators:
    """The three spin-1 generator matrices (hbar = 1), fresh and writable
    on each call."""
    jx = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex) / _S2
    jy = np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]]) / _S2
    jz = np.diag([1.0, 0.0, -1.0]).astype(complex)
    return SpinGenerators(jx, jy, jz)


# the generators _ls_linear reads, built once and read-only
_J = spin1_generators()
for _a in (_J.jx, _J.jy, _J.jz):
    _a.flags.writeable = False


def _require_density(rho: np.ndarray, atol: float = 1e-8) -> np.ndarray:
    rho = as_matrix(rho)
    if not la._is_density(rho, atol):
        raise ValueError("input is not a density matrix within tolerance")
    return rho


def ls_apply(rho: np.ndarray) -> np.ndarray:
    """Spin-1 channel output for a 3x3 density matrix."""
    rho = _require_density(rho)
    if rho.shape != (3, 3):
        raise la.ShapeError("ls_apply needs a 3x3 density matrix")
    return _ls_linear(rho)


def _ls_linear(m: np.ndarray) -> np.ndarray:
    j = _J
    return (j.jx @ m @ j.jx + j.jy @ m @ j.jy + j.jz @ m @ j.jz) / 2.0


def wh_apply(rho: np.ndarray) -> np.ndarray:
    """Transpose-depolarizer output (Tr[rho] I - rho^T)/(d-1), d >= 2."""
    rho = _require_density(rho)
    d = rho.shape[0]
    if d < 2:
        raise ValueError("wh_apply needs dimension >= 2")
    return _wh_linear(rho)


def _wh_linear(m: np.ndarray) -> np.ndarray:
    d = m.shape[0]
    return (np.trace(m) * np.eye(d) - m.T) / (d - 1)


def covariance_unitary() -> np.ndarray:
    """The real symmetric unitary W with ls_apply(rho) == wh_apply(W rho W+)."""
    return np.array([[0, 0, 1], [0, -1, 0], [1, 0, 0]], dtype=complex)


_EQ5_BLOCKS = {
    # 3x3 blocks of the 9x9 spin-1 dilation; row block = system out,
    # inner row = environment out, column block = system in (env in = inner col)
    (0, 0): [[0, 0, 0], [0, 0, 1j / _S2], [1 / _S2, 0, 0]],
    (0, 1): [[0.5, 0, 0], [-0.5j, 0, 0], [0, 0.5j - 1 / (2 * _S2), -1j / (2 * _S2)]],
    (0, 2): [[0, 1j / _S2, -0.5j], [0, 0, 0.5], [0, 0, 0]],
    (1, 0): [[0.5, 0, 0], [0.5j, 0, 0], [0, 1, 0]],
    (1, 1): [[0, 0.5 - 0.5j / _S2, 1 / (2 * _S2)],
             [0, 1 / (2 * _S2), -0.5 - 0.5j / _S2],
             [0, 0, 0]],
    (1, 2): [[0.5, 0, 0], [-0.5j, 0, 0], [0, 0, 0]],
    (2, 0): [[0, 0, 1 / _S2], [0, 0, 0], [0, 0, 0]],
    (2, 1): [[0.5, 0, 0], [0.5j, 0, 0], [0, 1 / (2 * _S2), 0.5 - 0.5j / _S2]],
    (2, 2): [[0, 0, 0.5j], [0, 1 / _S2, 0.5], [-1 / _S2, 0, 0]],
}


def ls_dilation_matrix() -> np.ndarray:
    """The fixed 9x9 unitary U of the spin-1 dilation, system (x) environment
    order: ls_apply(rho) = Tr_env(U (rho (x) |0><0|) U+)."""
    u = np.zeros((9, 9), dtype=complex)
    for (bi, bj), block in _EQ5_BLOCKS.items():
        u[3 * bi:3 * bi + 3, 3 * bj:3 * bj + 3] = np.array(block)
    return u


_WH_FIXED_BLOCKS = [
    # first block-column (env out = block row, system out = inner row), env in = 0
    np.array([[0, 1, 0], [-1, 0, 0], [0, 0, 0]], dtype=complex),
    np.array([[0, 0, 1], [0, 0, 0], [-1, 0, 0]], dtype=complex),
    np.array([[0, 0, 0], [0, 0, 1], [0, -1, 0]], dtype=complex),
]


def wh_dilation_matrix() -> np.ndarray:
    """A 9x9 unitary U dilating wh_apply, environment (x) system order:
    wh_apply(rho) = Tr_env(U (|0><0| (x) rho) U+).

    Only the first block-column (the env-in = 0 columns) is fixed; the free
    columns are completed to a unitary by Gram-Schmidt over the standard
    basis, in index order, which makes the completion deterministic.  Any
    completion induces the same channel.
    """
    fixed = np.concatenate(_WH_FIXED_BLOCKS) / _S2
    basis = [fixed[:, j] for j in range(3)]
    for v in np.eye(9, dtype=complex):
        if len(basis) == 9:
            break
        for b in basis:
            v = v - b * (np.conj(b) @ v)
        norm = np.linalg.norm(v)
        if norm > 1e-9:
            basis.append(v / norm)
    # fixed columns are the env-in = 0 columns: indices 0..2 in env-first order
    return np.column_stack(basis)


def superop_from_choi(omega: np.ndarray) -> np.ndarray:
    """Superoperator of a trace-one d^2 x d^2 Choi matrix (input (x) output):
    d times its reshuffle, S[(a, b), (i, k)] = d Omega[(i, a), (k, b)]."""
    omega = as_matrix(omega)
    d = math.isqrt(omega.shape[0])
    if d * d != omega.shape[0] or omega.shape[0] != omega.shape[1]:
        raise la.ShapeError("Choi matrix must be d^2 x d^2")
    return d * omega.reshape(d, d, d, d).transpose(1, 3, 0, 2).reshape(d * d, d * d)


@dataclass
class ChannelRep:
    """A channel as its d^2 x d^2 superoperator: vec(Phi(m)) = S vec(m),
    vec row-major.  ``analytic`` builds S for a named qutrit channel."""
    superop: np.ndarray

    @property
    def dim(self) -> int:
        return math.isqrt(self.superop.shape[0])

    @classmethod
    def analytic(cls, name: str) -> "ChannelRep":
        """The qutrit channel 'ls', 'wh' or 'id': the closed form applied to
        the units E_ik."""
        linear = {"ls": _ls_linear, "wh": _wh_linear, "id": np.copy}.get(name)
        if linear is None:
            raise ValueError(f"unknown analytic channel {name!r}")
        units = np.eye(9, dtype=complex).reshape(9, 3, 3)
        return cls(np.stack([linear(e).reshape(-1) for e in units], axis=1))


def apply_channel(rep: ChannelRep, rho: np.ndarray) -> np.ndarray:
    """Apply a channel to a density matrix of matching dimension."""
    rho = _require_density(rho)
    if rho.shape[0] != rep.dim:
        raise la.ShapeError(f"state dim {rho.shape[0]} != channel dim {rep.dim}")
    return (rep.superop @ rho.reshape(-1)).reshape(rho.shape)


def choi_of(rep: ChannelRep) -> np.ndarray:
    """Trace-one Choi matrix (input (x) output ordering): the inverse
    reshuffle of the superoperator, divided by d."""
    d = rep.dim
    return rep.superop.reshape(d, d, d, d).transpose(2, 0, 3, 1).reshape(d * d, d * d) / d

