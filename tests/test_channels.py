import numpy as np
import pytest

from qutritsim import channels as ch
from qutritsim import linalg as la

I3 = np.eye(3)


def rand_density(rng, d=3):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def proj(i, d=3):
    p = np.zeros((d, d), dtype=complex)
    p[i, i] = 1.0
    return p


def basis_states():
    """The nine rank-1 input states used throughout: three basis projectors,
    three (|a>+|b>)/sqrt2 projectors, three (|a>+i|b>)/sqrt2 projectors."""
    kets = [np.eye(3)[:, i].astype(complex) for i in range(3)]
    pairs = [(0, 1), (0, 2), (1, 2)]
    out = [np.outer(k, k.conj()) for k in kets]
    for a, b in pairs:
        v = (kets[a] + kets[b]) / np.sqrt(2)
        out.append(np.outer(v, v.conj()))
    for a, b in pairs:
        v = (kets[a] + 1j * kets[b]) / np.sqrt(2)
        out.append(np.outer(v, v.conj()))
    return out


# Per-kind formulas the one superoperator replaces: a Kraus sum, the
# dilation's partial trace and the Choi partial-trace formula.
def _ref_ls(m):
    j = ch.spin1_generators()
    return (j.jx @ m @ j.jx + j.jy @ m @ j.jy + j.jz @ m @ j.jz) / 2


def _ref_wh(m):
    return (np.trace(m) * I3 - m.T) / 2


def _ref_kraus(ops, m):
    return sum(k @ m @ k.conj().T for k in ops)


def _ref_dilation(u, m, system_first):
    """Tr_env(U (m (x) |0><0|) U+) in the dilation's factor order: system
    first for ls_dilation_matrix, environment first for wh_dilation_matrix."""
    if system_first:
        full, keep = np.kron(m, proj(0)), [0]
    else:
        full, keep = np.kron(proj(0), m), [1]
    return la.partial_trace(u @ full @ u.conj().T, [3, 3], keep)


def _ref_choi(omega, m):
    return 3 * la.partial_trace(np.kron(m.T, I3) @ omega, [3, 3], [1])


def _ls_kraus():
    """J / sqrt2 for the three spin-1 generators."""
    j = ch.spin1_generators()
    return [j.jx / np.sqrt(2), j.jy / np.sqrt(2), j.jz / np.sqrt(2)]


def _wh_kraus():
    """The env-in = 0 block column of the WH dilation (env (x) system)."""
    u = ch.wh_dilation_matrix()
    return [u[3 * e:3 * e + 3, :3] for e in range(3)]


def test_spin1_generator_entries():
    j = ch.spin1_generators()
    assert j.jz[0, 0] == 1 and j.jz[1, 1] == 0 and j.jz[2, 2] == -1
    assert abs(j.jx[0, 1] - 1 / np.sqrt(2)) < 1e-15
    assert abs(j.jy[1, 0] - 1j / np.sqrt(2)) < 1e-15


def test_spin1_generators_are_fresh_and_writable():
    # ls_apply reads one shared read-only triple; a caller's copy is its own
    rho = np.diag([0.5, 0.3, 0.2]).astype(complex)
    want = ch.ls_apply(rho)
    j = ch.spin1_generators()
    assert j.jx is not ch.spin1_generators().jx
    for m in (j.jx, j.jy, j.jz):
        assert m.flags.writeable
        m[:] = 0
    assert np.array_equal(ch.ls_apply(rho), want)
    assert ch.spin1_generators().jz[0, 0] == 1


def test_spin1_casimir_and_commutators():
    j = ch.spin1_generators()
    total = j.jx @ j.jx + j.jy @ j.jy + j.jz @ j.jz
    assert np.abs(total - 2 * I3).max() < 1e-12
    for a, b, c in ((j.jx, j.jy, j.jz), (j.jy, j.jz, j.jx), (j.jz, j.jx, j.jy)):
        comm = a @ b - b @ a
        assert np.abs(comm - 1j * c).max() < 1e-12
    for m in (j.jx, j.jy, j.jz):
        assert la.is_hermitian(m, 1e-15)


def test_ls_apply_oracle_values():
    # direct evaluation with generators built inline
    s2 = np.sqrt(2)
    jx = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]]) / s2
    jy = np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]]) / s2
    jz = np.diag([1.0, 0.0, -1.0])

    def oracle(rho):
        return (jx @ rho @ jx + jy @ rho @ jy + jz @ rho @ jz) / 2

    assert np.abs(ch.ls_apply(I3 / 3) - I3 / 3).max() < 1e-12
    assert np.abs(ch.ls_apply(proj(0)) - np.diag([0.5, 0.5, 0.0])).max() < 1e-12
    assert np.abs(ch.ls_apply(proj(1)) - np.diag([0.5, 0.0, 0.5])).max() < 1e-12
    rng = np.random.default_rng(2)
    for _ in range(10):
        rho = rand_density(rng)
        assert np.abs(ch.ls_apply(rho) - oracle(rho)).max() < 1e-12


def test_wh_apply_values():
    assert np.abs(ch.wh_apply(I3 / 3) - I3 / 3).max() < 1e-12
    assert np.abs(ch.wh_apply(proj(0)) - np.diag([0.0, 0.5, 0.5])).max() < 1e-12
    rho7 = 0.5 * np.array([[1, -1j, 0], [1j, 1, 0], [0, 0, 0]])
    want = np.array([[0.25, -0.25j, 0], [0.25j, 0.25, 0], [0, 0, 0.5]])
    assert np.abs(ch.wh_apply(rho7) - want).max() < 1e-12
    # d-generic: qubit case is (I - rho^T)
    rho2 = np.array([[0.75, 0.25j], [-0.25j, 0.25]])
    assert np.abs(ch.wh_apply(rho2) - (np.eye(2) - rho2.T)).max() < 1e-12


def test_wh_apply_rejects_bad_input():
    with pytest.raises(ValueError):
        ch.wh_apply(np.diag([1.0, 1.0, 1.0]))  # trace 3
    with pytest.raises(ValueError):
        ch.ls_apply(np.diag([2.0, -1.0, 0.0]))


def test_covariance_unitary():
    w = ch.covariance_unitary()
    assert np.abs(w @ w - I3).max() < 1e-15
    assert la.is_unitary(w, 1e-15)
    e0 = np.zeros(3); e0[0] = 1
    assert np.abs(w @ e0 - np.eye(3)[:, 2]).max() < 1e-15


def test_covariance_identity_on_basis_and_random():
    w = ch.covariance_unitary()
    rng = np.random.default_rng(8)
    states = basis_states() + [rand_density(rng) for _ in range(200)]
    for rho in states:
        lhs = ch.ls_apply(rho)
        rhs = ch.wh_apply(w @ rho @ w.conj().T)
        assert np.abs(lhs - rhs).max() < 1e-12


def test_ls_dilation_matrix_is_unitary_and_entries():
    u = ch.ls_dilation_matrix()
    assert la.is_unitary(u, 1e-12)
    assert abs(u[2, 0] - 1 / np.sqrt(2)) < 1e-15  # row 3, col 1


def test_ls_stinespring_reproduces_channel():
    u = ch.ls_dilation_matrix()  # system (x) environment
    env = np.zeros((3, 3)); env[0, 0] = 1
    rng = np.random.default_rng(21)
    for rho in basis_states() + [rand_density(rng) for _ in range(20)]:
        full = u @ np.kron(rho, env) @ la.dagger(u)
        out = la.partial_trace(full, [3, 3], [0])
        assert np.abs(out - ch.ls_apply(rho)).max() < 1e-10
    out0 = la.partial_trace(
        u @ np.kron(proj(0), env) @ la.dagger(u), [3, 3], [0])
    assert np.abs(out0 - np.diag([0.5, 0.5, 0.0])).max() < 1e-12


def test_wh_stinespring_first_block_column():
    u = ch.wh_dilation_matrix()
    assert la.is_unitary(u, 1e-12)
    # column for |env=0, sys=0>: (-|env0, sys1> - |env1, sys2>)/sqrt2
    col = u[:, 0]
    want = np.zeros(9, dtype=complex)
    want[1] = -1 / np.sqrt(2)   # env 0, sys 1
    want[5] = -1 / np.sqrt(2)   # env 1, sys 2
    assert np.abs(col - want).max() < 1e-12


def test_wh_stinespring_reproduces_channel():
    u = ch.wh_dilation_matrix()  # environment (x) system
    env = np.zeros((3, 3)); env[0, 0] = 1
    rng = np.random.default_rng(22)
    for rho in basis_states() + [rand_density(rng) for _ in range(20)]:
        full = u @ np.kron(env, rho) @ la.dagger(u)
        out = la.partial_trace(full, [3, 3], [1])
        assert np.abs(out - ch.wh_apply(rho)).max() < 1e-10
    out0 = la.partial_trace(
        u @ np.kron(env, proj(0)) @ la.dagger(u), [3, 3], [1])
    assert np.abs(out0 - np.diag([0.0, 0.5, 0.5])).max() < 1e-12


def test_representation_consistency():
    rng = np.random.default_rng(5)
    omega_ls = ch.choi_of(ch.ChannelRep.analytic("ls"))
    omega_wh = ch.choi_of(ch.ChannelRep.analytic("wh"))
    forms_ls = [
        lambda rho: ch.apply_channel(ch.ChannelRep.analytic("ls"), rho),
        lambda rho: _ref_kraus(_ls_kraus(), rho),
        lambda rho: _ref_dilation(ch.ls_dilation_matrix(), rho, system_first=True),
        lambda rho: ch.apply_channel(ch.ChannelRep(ch.superop_from_choi(omega_ls)), rho),
    ]
    forms_wh = [
        lambda rho: ch.apply_channel(ch.ChannelRep.analytic("wh"), rho),
        lambda rho: _ref_kraus(_wh_kraus(), rho),
        lambda rho: _ref_dilation(ch.wh_dilation_matrix(), rho, system_first=False),
        lambda rho: ch.apply_channel(ch.ChannelRep(ch.superop_from_choi(omega_wh)), rho),
    ]
    for forms, oracle in ((forms_ls, ch.ls_apply), (forms_wh, ch.wh_apply)):
        for rho in basis_states() + [rand_density(rng) for _ in range(10)]:
            want = oracle(rho)
            for form in forms:
                assert np.abs(form(rho) - want).max() < 1e-9


def test_apply_channel_identity_and_shape_error():
    rng = np.random.default_rng(6)
    rho = rand_density(rng)
    assert np.abs(ch.apply_channel(ch.ChannelRep.analytic("id"), rho) - rho).max() == 0
    with pytest.raises(la.ShapeError):
        ch.apply_channel(ch.ChannelRep(np.eye(16, dtype=complex)), rho)


def test_outputs_are_density_matrices():
    rng = np.random.default_rng(31)
    for _ in range(50):
        rho = rand_density(rng)
        for out in (ch.ls_apply(rho), ch.wh_apply(rho)):
            assert abs(np.trace(out) - 1) < 1e-12
            assert np.abs(out - out.conj().T).max() < 1e-12
            assert la.is_psd(out, 1e-10)


def test_kraus_rank_three_flat_spectrum():
    for name in ("ls", "wh"):
        omega = ch.choi_of(ch.ChannelRep.analytic(name))
        w, _ = la.hermitian_eig(omega)
        assert np.abs(w[:3] - 1 / 3).max() < 1e-9
        assert np.abs(w[3:]).max() < 1e-9


def test_superop_matches_per_kind_formulas_off_states():
    rng = np.random.default_rng(12)
    ls, wh = ch.ChannelRep.analytic("ls"), ch.ChannelRep.analytic("wh")
    omega_ls, omega_wh = ch.choi_of(ls), ch.choi_of(wh)
    cases = [
        (ls, _ref_ls),
        (wh, _ref_wh),
        (ch.ChannelRep.analytic("id"), lambda m: m),
        (ls, lambda m: _ref_kraus(_ls_kraus(), m)),
        (wh, lambda m: _ref_kraus(_wh_kraus(), m)),
        (ls, lambda m: _ref_dilation(ch.ls_dilation_matrix(), m, system_first=True)),
        (wh, lambda m: _ref_dilation(ch.wh_dilation_matrix(), m, system_first=False)),
        (ch.ChannelRep(ch.superop_from_choi(omega_ls)), lambda m: _ref_choi(omega_ls, m)),
        (ch.ChannelRep(ch.superop_from_choi(omega_wh)), lambda m: _ref_choi(omega_wh, m)),
    ]
    for _ in range(10):
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        for rep, ref in cases:
            got = (rep.superop @ m.reshape(-1)).reshape(3, 3)
            assert np.abs(got - ref(m)).max() < 1e-12
