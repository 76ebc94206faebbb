import numpy as np
import pytest

from qutritsim import channels as ch
from qutritsim import choi as cj
from qutritsim import circuits as cc
from qutritsim import decompositions as dc
from qutritsim import encoding as enc
from qutritsim import linalg as la

from test_channels import basis_states, rand_density


def test_embed_density():
    out = enc.embed_density(np.eye(3) / 3)
    assert np.abs(out - np.diag([1 / 3, 1 / 3, 1 / 3, 0])).max() < 1e-15
    rho4 = dc.basis_density(4)
    emb = enc.embed_density(rho4)
    assert abs(emb[0, 0] - 0.5) < 1e-12 and abs(emb[0, 1] - 0.5) < 1e-12
    assert np.abs(emb[3, :]).max() == 0 and np.abs(emb[:, 3]).max() == 0
    with pytest.raises(ValueError):
        enc.embed_density(np.diag([1.0, 1.0, 1.0]))


def test_embed_project_roundtrip():
    rng = np.random.default_rng(1)
    for _ in range(20):
        rho = rand_density(rng)
        back, leak = enc.project_qutrit(enc.embed_density(rho))
        assert np.abs(back - rho).max() < 1e-14
        assert leak == 0.0


def test_project_qutrit_mixture():
    rng = np.random.default_rng(2)
    rho = rand_density(rng)
    p11 = np.zeros((4, 4), dtype=complex)
    p11[3, 3] = 1.0
    mixed = 0.9 * enc.embed_density(rho) + 0.1 * p11
    out, leak = enc.project_qutrit(mixed)
    assert abs(leak - 0.1) < 1e-12
    assert np.abs(out - rho).max() < 1e-12


def test_project_qutrit_discards_coherences():
    # off-diagonal terms to |11> vanish entirely after projection
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 0.5
    rho[3, 3] = 0.5
    rho[0, 3] = rho[3, 0] = 0.5
    out, leak = enc.project_qutrit(rho)
    assert abs(leak - 0.5) < 1e-12
    assert np.abs(out - np.diag([1.0, 0, 0])).max() < 1e-12


def test_project_qutrit_degenerate():
    p11 = np.zeros((4, 4), dtype=complex)
    p11[3, 3] = 1.0
    with pytest.raises(enc.DegenerateProjectionError):
        enc.project_qutrit(p11)


def test_project_two_qutrits():
    rng = np.random.default_rng(3)
    a, b = rand_density(rng), rand_density(rng)
    rho16 = np.kron(enc.embed_density(a), enc.embed_density(b))
    out, leak = enc.project_two_qutrits(rho16)
    assert abs(leak) < 1e-12
    assert np.abs(out - np.kron(a, b)).max() < 1e-12


def test_project_qutrit_output_valid_density():
    rng = np.random.default_rng(4)
    for _ in range(20):
        r = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = r @ r.conj().T
        rho /= np.trace(rho)
        out, leak = enc.project_qutrit(rho)
        assert abs(np.trace(out) - 1) < 1e-12
        assert la.is_psd(out, 1e-9)
        assert 0.0 <= leak <= 1.0


def test_embedded_dilation_reproduces_channel():
    # run the lifted 9x9 dilation as a 16x16 conjugation and trace the
    # environment pair: must match the analytic spin-1 channel.  The lift
    # acts as the identity on every state with a |11> pair.
    idx = [4 * a + b for a in enc.QUTRIT_IDX for b in enc.QUTRIT_IDX]
    u16 = np.eye(16, dtype=complex)
    u16[np.ix_(idx, idx)] = ch.ls_dilation_matrix()
    env = np.zeros((4, 4), dtype=complex)
    env[0, 0] = 1.0
    rng = np.random.default_rng(5)
    for rho in basis_states() + [rand_density(rng) for _ in range(10)]:
        full = np.kron(enc.embed_density(rho), env)  # system pair first here
        out16 = u16 @ full @ u16.conj().T
        red = la.partial_trace(out16, [4, 4], [0])
        out3, leak = enc.project_qutrit(red)
        assert np.abs(out3 - ch.ls_apply(rho)).max() < 1e-10
        assert abs(leak) < 1e-12


# A circuit's qutrit channel is read through the experiments the CLI runs:
# choi.linear_tables (and direct_tables) through choi.estimate, whose
# post-selection is this module's.

def test_induced_channel_identity_circuit():
    states, leaks = cj.estimate(cj.linear_tables(cc.Circuit(4)), 0, 0)
    omega = cj.choi_linear(states)
    rng = np.random.default_rng(6)
    for _ in range(5):
        rho = rand_density(rng)
        assert np.abs(cj.channel_from_choi(omega, rho) - rho).max() < 1e-12
    # the empty circuit leaks nothing; the inversion of the exact tables
    # leaves rounding (1.4e-16 measured)
    assert max(leaks) < 1e-15


def test_noiseless_paper_circuits_zero_leakage():
    for build in (dc.wh_channel_circuit, dc.ls_channel_circuit):
        for tables in (cj.linear_tables(build()), cj.direct_tables(build())):
            _, leaks = cj.estimate(tables, 0, 0)
            assert max(leaks) < 1e-10


def _leaky_states(rng, count, d):
    """Random trace-one states of d x d with weight outside the qutrit blocks."""
    out = []
    for _ in range(count):
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        rho = a @ a.conj().T
        out.append(rho / np.trace(rho))
    return np.stack(out)


@pytest.mark.parametrize("pairs, single", [(1, enc.project_qutrit),
                                           (2, enc.project_two_qutrits)])
def test_stack_postselect_equals_per_matrix_loop_bit_for_bit(pairs, single):
    rng = np.random.default_rng(40 + pairs)
    d = 4 ** pairs
    for count in (1, 2, 9, 17):
        stack = _leaky_states(rng, count, d) * 10.0 ** rng.integers(-3, 3, size=(count, 1, 1))
        before = stack.copy()
        blocks, leaks = enc.postselect(stack, pairs)
        assert blocks.shape == (count, 3 ** pairs, 3 ** pairs)
        assert not np.shares_memory(blocks, stack)
        assert np.array_equal(stack, before)
        assert isinstance(leaks, list) and len(leaks) == count
        for m, got, leak in zip(stack, blocks, leaks):
            want, want_leak = single(m)
            assert np.array_equal(got, want)
            assert type(leak) is float and type(want_leak) is float and leak == want_leak


@pytest.mark.parametrize("pairs", [1, 2])
def test_stack_postselect_raises_if_any_member_has_no_qutrit_weight(pairs):
    rng = np.random.default_rng(50 + pairs)
    d = 4 ** pairs
    stack = _leaky_states(rng, 9, d)
    for bad in (0, 4, 8):
        s = stack.copy()
        s[bad] = 0.0
        s[bad, d - 1, d - 1] = 1.0  # all weight on |11>, resp. |11>|11>
        with pytest.raises(enc.DegenerateProjectionError):
            enc.postselect(s, pairs)


@pytest.mark.parametrize("shape, pairs, error, match", [
    ((2, 16, 16), 1, la.ShapeError, r"stack \(B, 4, 4\), got shape \(2, 16, 16\)"),
    ((2, 4, 4), 2, la.ShapeError, r"stack \(B, 16, 16\), got shape \(2, 4, 4\)"),
    ((4, 4), 1, la.ShapeError, r"stack \(B, 4, 4\), got shape \(4, 4\)"),
    ((16, 16), 2, la.ShapeError, r"stack \(B, 16, 16\), got shape \(16, 16\)"),
    ((1, 2, 4, 4), 1, la.ShapeError, r"stack \(B, 4, 4\)"),
    ((2, 4, 3), 1, la.ShapeError, r"stack \(B, 4, 4\)"),
    ((2, 4, 4), 0, ValueError, "pairs must be 1 or 2, got 0"),
    ((2, 64, 64), 3, ValueError, "pairs must be 1 or 2, got 3"),
])
def test_postselect_rejects_other_shapes_and_pair_counts(shape, pairs, error, match):
    # before the check, a (B, 16, 16) stack with pairs=1 returned each
    # matrix's top-left 3x3 block with rho[3, 3] as its leakage
    stack = np.zeros(shape, dtype=complex)
    stack[..., 0, 0] = 1.0
    with pytest.raises(error, match=match):
        enc.postselect(stack, pairs)
