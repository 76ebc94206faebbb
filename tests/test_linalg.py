import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qutritsim import channels as ch
from qutritsim import choi as cj
from qutritsim import linalg as la
from qutritsim import tomography as tg

I2 = np.eye(2)
I3 = np.eye(3)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def rand_psd(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return a @ a.conj().T


def rand_density(rng, d):
    rho = rand_psd(rng, d)
    return rho / np.trace(rho)


def partial_trace_oracle(m, dims, keep):
    # explicit loop over kept/traced multi-indices
    n = len(dims)
    traced = [k for k in range(n) if k not in keep]
    dk = int(np.prod([dims[k] for k in keep])) if keep else 1
    out = np.zeros((dk, dk), dtype=complex)
    for idx in np.ndindex(*dims):
        for jdx in np.ndindex(*dims):
            if any(idx[t] != jdx[t] for t in traced):
                continue
            r = 0
            c = 0
            for k in keep:
                r = r * dims[k] + idx[k]
                c = c * dims[k] + jdx[k]
            i = 0
            j = 0
            for k in range(n):
                i = i * dims[k] + idx[k]
                j = j * dims[k] + jdx[k]
            out[r, c] += m[i, j]
    return out


def test_partial_trace_product_state():
    rng = np.random.default_rng(0)
    rho = rand_density(rng, 3)
    sigma = rand_psd(rng, 3)
    m = np.kron(rho, sigma)
    red = la.partial_trace(m, [3, 3], [0])
    assert np.abs(red - np.trace(sigma) * rho).max() < 1e-12


def test_partial_trace_max_entangled():
    psi = sum(np.kron(I3[:, [i]], I3[:, [i]]) for i in range(3)) / np.sqrt(3)
    rho = psi @ psi.conj().T
    red = la.partial_trace(rho, [3, 3], [0])
    assert np.abs(red - I3 / 3).max() < 1e-12


def test_partial_trace_maximally_mixed():
    red = la.partial_trace(np.eye(9) / 9, [3, 3], [1])
    assert np.abs(red - I3 / 3).max() < 1e-15


def test_partial_trace_matches_loop_oracle():
    rng = np.random.default_rng(11)
    m = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    for keep in ([0], [1], [2], [0, 2], [2, 0], [1, 2], []):
        got = la.partial_trace(m, [2, 3, 2], keep)
        want = partial_trace_oracle(m, [2, 3, 2], keep)
        assert np.abs(got - want).max() < 1e-12, keep


def test_partial_trace_stack_matches_per_matrix():
    rng = np.random.default_rng(13)
    m = rng.normal(size=(2, 3, 12, 12)) + 1j * rng.normal(size=(2, 3, 12, 12))
    for keep in ([0], [2, 0], [1, 2], []):
        got = la.partial_trace(m, [2, 3, 2], keep)
        d = int(np.prod([[2, 3, 2][k] for k in keep]))
        assert got.shape == (2, 3, d, d)
        for idx in np.ndindex(2, 3):
            assert np.array_equal(got[idx], la.partial_trace(m[idx], [2, 3, 2], keep)), keep
            assert np.abs(got[idx] - partial_trace_oracle(m[idx], [2, 3, 2], keep)).max() < 1e-12
    with pytest.raises(la.ShapeError):
        la.partial_trace(np.zeros((3, 12, 8)), [2, 3, 2], [0])


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(5)
    m = rand_psd(rng, 8)
    red = la.partial_trace(m, [2, 2, 2], [1])
    assert abs(np.trace(red) - np.trace(m)) < 1e-12


def test_partial_trace_dim_mismatch():
    with pytest.raises(la.ShapeError):
        la.partial_trace(np.eye(6), [2, 2], [0])


def test_partial_trace_rejects_non_integer_dims_and_keep():
    # int() would keep subsystem 0 for 0.7, subsystem 1 for True, and read
    # dims [2.9, 2] as [2, 2]; numpy integers are integers
    rho = np.eye(4) / 4
    for dims, keep in (([2, 2], [0.7]), ([2, 2], [True]), ([2.9, 2], [0]),
                       ([2, 2], [1.0]), ([2, 2], ["1"])):
        with pytest.raises(ValueError, match="must be an integer"):
            la.partial_trace(rho, dims, keep)
    assert np.array_equal(la.partial_trace(rho, [np.int64(2), 2], [np.int32(1)]), np.eye(2) / 2)


def test_hermitian_eig_diagonal():
    w, v = la.hermitian_eig(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(w, [3, 2, 1])
    m = v @ np.diag(w) @ v.conj().T
    assert np.abs(m - np.diag([3.0, 1.0, 2.0])).max() < 1e-12


def test_hermitian_eig_pauli_x():
    w, v = la.hermitian_eig(SX)
    assert np.allclose(w, [1, -1])
    assert la.is_unitary(v, 1e-10)


def test_hermitian_eig_reconstruction_random():
    rng = np.random.default_rng(7)
    for d in (2, 5, 16, 64):
        m = rand_psd(rng, d)
        m = (m + m.conj().T) / 2
        w, v = la.hermitian_eig(m)
        assert np.all(np.diff(w) <= 1e-12)
        assert np.abs((v * w) @ v.conj().T - m).max() < 1e-10


def test_sqrtm_psd_cases():
    assert np.abs(la.sqrtm_psd(I3) - I3).max() < 1e-15
    got = la.sqrtm_psd(np.diag([4.0, 1.0, 0.0]))
    assert np.abs(got - np.diag([2.0, 1.0, 0.0])).max() < 1e-12


def test_sqrtm_psd_squares_back():
    rng = np.random.default_rng(9)
    for _ in range(100):
        rho = rand_psd(rng, rng.integers(2, 17))
        s = la.sqrtm_psd(rho)
        assert np.abs(s @ s - rho).max() < 1e-9


def test_sqrtm_psd_rejects_negative():
    with pytest.raises(la.NotPSDError):
        la.sqrtm_psd(SZ)
    with pytest.raises(la.ShapeError):
        la.sqrtm_psd(np.array([[0, 1], [0, 0]], dtype=complex))


def test_is_unitary():
    assert la.is_unitary(np.eye(4), 1e-12)
    assert not la.is_unitary(np.diag([1.0, 0.5]), 1e-12)
    assert not la.is_unitary(np.ones((2, 3)))


def test_is_psd():
    assert la.is_psd(I3 / 3)
    assert not la.is_psd(SZ)
    assert not la.is_psd(np.ones((2, 3)))  # not square
    assert not la.is_psd(np.array([[1, 1], [0, 1]]))  # not Hermitian


def test_project_to_density_idempotent():
    rng = np.random.default_rng(13)
    rho = rand_density(rng, 4)
    assert np.abs(la.project_to_density(rho) - rho).max() < 1e-12


def test_project_to_density_fixes_negative_eigenvalue():
    m = np.diag([0.8, 0.4, -0.2])
    p = la.project_to_density(m)
    w, _ = la.hermitian_eig(p)
    assert w[-1] >= -1e-14
    assert abs(np.trace(p) - 1) < 1e-12


def test_equal_up_to_global_phase():
    rng = np.random.default_rng(17)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    assert la.equal_up_to_global_phase(a, np.exp(1j * 0.7) * a, 1e-10)
    assert not la.equal_up_to_global_phase(a, a + 0.1, 1e-10)


def test_matrix_json_roundtrip():
    rng = np.random.default_rng(15)
    m = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
    assert np.array_equal(la.matrix_from_json(la.matrix_to_json(m)), m)


def test_matrix_json_rejects_bad():
    with pytest.raises(Exception):
        la.matrix_from_json({"rows": 2, "cols": 2, "re": [[1, 2], [3]], "im": [[0, 0], [0, 0]]})
    with pytest.raises(Exception):
        la.matrix_from_json(
            {"rows": 1, "cols": 1, "re": [[float("nan")]], "im": [[0.0]]}
        )
    with pytest.raises(Exception):
        la.as_matrix([1, 2, 3])


def test_matrix_json_reads_integral_float_sizes_and_int_entries():
    got = la.matrix_from_json({"rows": 1.0, "cols": 2.0, "re": [[1, 0.5]], "im": [[0, -2]]})
    assert np.array_equal(got, np.array([[1, 0.5 - 2j]]))


# --- stacks (..., d, d) against the per-matrix reference ---------------------
# _ref_hermitian_eig, _ref_sqrtm_psd and _ref_project_to_density are the 2-D
# implementations (argsort ordering, per-matrix simplex projection) that the
# stack-aware functions in linalg replace; each matrix of a stack must agree.


def _ref_hermitian_eig(m):
    w, v = np.linalg.eigh((m + m.conj().T) / 2)
    order = np.argsort(w)[::-1]
    return w[order].real, v[:, order]


def _ref_sqrtm_psd(m, atol=la.ATOL):
    w, v = _ref_hermitian_eig(m)
    assert w[-1] >= -atol
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T


def _ref_project_to_density(m):
    w, v = _ref_hermitian_eig(m)
    cum = np.cumsum(w)
    ks = np.arange(1, len(w) + 1)
    cond = w - (cum - 1.0) / ks > 0
    k = int(np.nonzero(cond)[0][-1]) + 1
    theta = (cum[k - 1] - 1.0) / k
    w = np.clip(w - theta, 0.0, None)
    return (v * w) @ v.conj().T


@st.composite
def hermitian_stacks(draw, psd=False):
    """(n, d, d) stacks of Hermitian matrices of random rank 0..d; with
    psd=False the nonzero eigenvalues take both signs."""
    d = draw(st.integers(1, 9))
    ranks = draw(st.lists(st.integers(0, d), min_size=1, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    out = []
    for r in ranks:
        g = rng.normal(size=(d, r)) + 1j * rng.normal(size=(d, r))
        out.append((g * rng.uniform(0.0 if psd else -1.0, 1.0, r)) @ g.conj().T)
    return np.array(out)


_stack_property = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@_stack_property
@given(stack=hermitian_stacks())
def test_hermitian_eig_stack_matches_per_matrix(stack):
    w, v = la.hermitian_eig(stack)
    assert w.shape == stack.shape[:-1] and v.shape == stack.shape
    for m, wi, vi in zip(stack, w, v):
        w2, v2 = la.hermitian_eig(m)
        assert np.abs(wi - w2).max() < 1e-12
        assert np.abs(wi - _ref_hermitian_eig(m)[0]).max() < 1e-12
        assert np.all(np.diff(wi) <= 0)
        assert np.abs((vi * wi) @ vi.conj().T - m).max() < 1e-12 * max(1.0, np.abs(m).max())
        assert np.abs(vi.conj().T @ vi - np.eye(len(m))).max() < 1e-12


@_stack_property
@given(stack=hermitian_stacks())
def test_project_to_density_stack_matches_per_matrix(stack):
    got = la.project_to_density(stack)
    for m, g in zip(stack, got):
        assert np.abs(g - la.project_to_density(m)).max() < 1e-12
        assert np.abs(g - _ref_project_to_density(m)).max() < 1e-12


@_stack_property
@given(stack=hermitian_stacks())
def test_density_spectrum_rebuilds_project_to_density(stack):
    p, v = la.density_spectrum(stack)
    assert np.array_equal((v * p[..., None, :]) @ la.dagger(v), la.project_to_density(stack))
    assert np.all(p >= 0)
    assert np.abs(p.sum(axis=-1) - 1).max() < 1e-12


@_stack_property
@given(stack=hermitian_stacks(psd=True))
def test_sqrtm_psd_stack_matches_per_matrix(stack):
    got = la.sqrtm_psd(stack)
    for m, g in zip(stack, got):
        assert np.abs(g - la.sqrtm_psd(m)).max() < 1e-12
        assert np.abs(g - _ref_sqrtm_psd(m)).max() < 1e-12


def test_stack_functions_keep_leading_axes():
    rng = np.random.default_rng(19)
    stack = np.array([rand_density(rng, 3) for _ in range(6)]).reshape(2, 3, 3, 3)
    for f in (la.sqrtm_psd, la.project_to_density):
        got = f(stack)
        assert got.shape == stack.shape
        for idx in np.ndindex(2, 3):
            assert np.abs(got[idx] - f(stack[idx])).max() < 1e-12
    w, v = la.hermitian_eig(stack)
    assert w.shape == (2, 3, 3) and v.shape == stack.shape


@pytest.mark.parametrize("f", [la.hermitian_eig, la.sqrtm_psd, la.project_to_density])
@pytest.mark.parametrize("batch", [(), (4,), (2, 3)])
def test_stack_errors_match_2d(f, batch):
    good = np.broadcast_to(I2 / 2, batch + (2, 2)).astype(complex)
    f(good)
    for bad_entry in (np.nan, np.inf, complex(0, np.inf)):
        bad = good.copy()
        bad[(0,) * len(batch) + (0, 1)] = bad_entry
        with pytest.raises(ValueError, match="finite"):
            f(bad)
    with pytest.raises(la.ShapeError):
        f(np.zeros(batch + (2, 3)))
    with pytest.raises(la.ShapeError):
        f(np.zeros(batch + (0, 0)))


@pytest.mark.parametrize("batch", [(), (4,), (2, 3)])
def test_sqrtm_psd_stack_rejects_like_2d(batch):
    stack = np.broadcast_to(I2 / 2, batch + (2, 2)).astype(complex)
    for where in ((0,) * len(batch), (-1,) * len(batch)):
        neg = stack.copy()
        neg[where] = SZ
        with pytest.raises(la.NotPSDError):
            la.sqrtm_psd(neg)
        skew = stack.copy()
        skew[where] = np.array([[0, 1], [0, 0]])
        with pytest.raises(la.ShapeError):
            la.sqrtm_psd(skew)


# --- density_spectrum and is_psd against the code they replace ---------------
# _ref_density_spectrum reads theta with np.take_along_axis and clips with
# np.clip; density_spectrum must give the same bits.  _ref_is_psd checks
# Hermiticity and then takes a full eigh; is_psd reads eigenvalues only.


def _ref_density_spectrum(m):
    w, v = la.hermitian_eig(m)
    d = w.shape[-1]
    cum = np.cumsum(w, axis=-1)
    cond = w - (cum - 1.0) / np.arange(1, d + 1) > 0
    k = d - np.argmax(cond[..., ::-1], axis=-1, keepdims=True)
    theta = (np.take_along_axis(cum, k - 1, axis=-1) - 1.0) / k
    return np.clip(w - theta, 0.0, None), v


def _ref_is_psd(m, atol=la.ATOL):
    m = np.asarray(m, dtype=complex)
    h = m.conj().swapaxes(-1, -2)
    if m.shape[-2] != m.shape[-1] or np.abs(m - h).max() > atol:
        return False
    w, _ = np.linalg.eigh((m + h) / 2)
    return bool(np.all(w[..., 0] >= -atol))


def _random_unitary(rng, d):
    q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q


@st.composite
def tied_spectrum_stacks(draw):
    """(n, d, d) Hermitian stacks with tied and zero eigenvalues.  Each
    matrix is one of: eigenvalues from a few values, diagonal or rotated;
    a rotated flat rank-r state (eigenvalue r times 1/r); the projection of
    a random Hermitian matrix.  The last two are trace-one and rank
    deficient, their zero eigenvalues come back from eigh as dust of about
    1e-17, and there the simplex threshold ties with a clipped eigenvalue."""
    d = draw(st.integers(1, 9))
    values = st.sampled_from([-0.5, -0.25, 0.0, 0.0, 0.125, 0.25, 1 / 3, 0.5, 1.0, 2.0])
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    out = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["values", "flat", "projected"]))
        u = _random_unitary(rng, d)
        if kind == "projected":
            g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            out.append(_ref_project_to_density(g + g.conj().T))
            continue
        if kind == "flat":
            r = draw(st.integers(1, d))
            w = np.r_[np.full(r, 1 / r), np.zeros(d - r)]
        else:
            w = np.array(draw(st.lists(values, min_size=d, max_size=d)))
            u = u if draw(st.booleans()) else np.eye(d)
        out.append((u * w) @ u.conj().T)
    return np.array(out)


@_stack_property
@given(stack=st.one_of(tied_spectrum_stacks(), hermitian_stacks()))
def test_density_spectrum_equals_take_along_axis_version_bit_for_bit(stack):
    for m in (stack, stack[0]):
        p, v = la.density_spectrum(m)
        p_ref, v_ref = _ref_density_spectrum(m)
        assert p.shape == p_ref.shape and p.tobytes() == p_ref.tobytes()
        assert v.tobytes() == v_ref.tobytes()


@st.composite
def psd_boundary_stacks(draw):
    """(stack, atol): each matrix's lowest eigenvalue sits 1e-12 above or
    below -atol, or the stack is a random Hermitian one, optionally with a
    skew part near atol."""
    atol = draw(st.sampled_from([la.ATOL, 1e-8]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        stack = draw(hermitian_stacks())
        skew = draw(st.sampled_from([0.0, 0.4 * atol, 2.5 * atol]))
        noise = rng.normal(size=stack.shape) + 1j * rng.normal(size=stack.shape)
        return stack + skew * (noise - noise.conj().swapaxes(-1, -2)) / 2, atol
    d = draw(st.integers(1, 9))
    out = []
    for _ in range(draw(st.integers(1, 4))):
        w = rng.uniform(0.0, 1.0, d)
        w[rng.integers(d)] = -atol + draw(st.sampled_from([-1e-12, 1e-12]))
        u = _random_unitary(rng, d)
        out.append((u * w) @ u.conj().T)
    return np.array(out), atol


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=psd_boundary_stacks())
def test_is_psd_equals_full_eigh_reference(case):
    stack, atol = case
    got = la.is_psd(stack, atol)
    assert type(got) is bool
    assert got == _ref_is_psd(stack, atol)
    assert got == all(la.is_psd(m, atol) for m in stack)
    for m in stack:
        assert la.is_psd(m, atol) == _ref_is_psd(m, atol)


# --- is_psd and is_density_matrix against their unmerged forms ------------
# _unmerged_is_psd and _unmerged_is_density_matrix are the two checks as
# they were before they shared one PSD core: is_density_matrix coerced its
# input, then is_psd coerced it again.  Every input must give the same
# boolean or raise the same exception type.


def _unmerged_is_psd(m, atol=la.ATOL):
    m = la.as_stack(m)
    if m.shape[-2] != m.shape[-1]:
        return False
    h = la.dagger(m)
    if np.abs(m - h).max() > atol:
        return False
    return bool((np.linalg.eigvalsh((m + h) / 2)[..., 0] >= -atol).all())


def _unmerged_is_density_matrix(m, atol=1e-8):
    m = la.as_matrix(m)
    if m.shape[0] != m.shape[1]:
        return False
    return abs(np.trace(m) - 1) <= atol and _unmerged_is_psd(m, atol)


def _outcome(check, m, atol):
    try:
        return bool(check(m, atol))
    except Exception as exc:  # the exception type is the outcome compared
        return type(exc)


@st.composite
def validator_inputs(draw):
    """(m, atol): a stack or a single matrix, 1x1 to 9x9, PSD or not,
    Hermitian or not; a trace at 1 +- atol, a lowest eigenvalue just above
    or below -atol, an anti-Hermitian part of size atol, a NaN or an inf
    entry, or a non-square shape."""
    atol = draw(st.sampled_from([la.ATOL, 1e-8, 1e-6]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    d = draw(st.integers(1, 9))
    batch = draw(st.sampled_from([(), (), (1,), (3,)]))
    kind = draw(st.sampled_from(["density", "trace", "lowest", "anti", "general", "nan", "inf",
                                 "non-square"]))
    if kind == "non-square":
        shape = draw(st.sampled_from([(d, d + 1), (d + 1, d), (d,)]))
        return rng.normal(size=batch + shape) + 0j, atol
    if kind == "general":
        return rng.normal(size=batch + (d, d)) + 1j * rng.normal(size=batch + (d, d)), atol
    out = []
    for _ in range(int(np.prod(batch, dtype=int))):
        w = rng.uniform(0.0, 1.0, d)
        w /= w.sum()
        if kind == "trace":
            w *= 1 + draw(st.sampled_from([-1.0, 1.0])) * atol
        elif kind == "lowest":
            w[rng.integers(d)] = -atol * (1 + draw(st.sampled_from([-1e-3, 1e-3])))
        u = _random_unitary(rng, d)
        m = (u * w) @ u.conj().T
        if kind == "anti":
            k = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            k = (k - k.conj().T) / 2
            m = m + draw(st.sampled_from([0.4, 1.0, 2.5])) * atol * k / np.abs(k).max()
        elif kind in ("nan", "inf"):
            m[rng.integers(d), rng.integers(d)] = np.nan if kind == "nan" else -np.inf
        out.append(m)
    stack = np.array(out).reshape(batch + (d, d))
    return stack, atol


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=validator_inputs())
def test_merged_validators_match_unmerged_ones(case):
    m, atol = case
    assert _outcome(la.is_psd, m, atol) == _outcome(_unmerged_is_psd, m, atol)
    assert (_outcome(la.is_density_matrix, m, atol)
            == _outcome(_unmerged_is_density_matrix, m, atol))


# --- each public function checks its input once ------------------------------
# The cores behind hermitian_eig, density_spectrum and project_to_density
# check nothing, so every public function that used to reach a second check
# through them must still refuse bad input itself, with the same exception
# type and message.  Each entry: the function of one matrix, the matrix
# size, the message for a non-square matrix (None: it is accepted) and the
# one for a vector.
_SQUARE_STACK = "hermitian_eig needs a square matrix"
_ONE_MATRIX = "expected a 2-D matrix, got shape ({},)"
_BOUNDARY = {
    "hermitian_eig": (la.hermitian_eig, 3, _SQUARE_STACK,
                      "expected a matrix or a stack of matrices, got shape (3,)"),
    "density_spectrum": (la.density_spectrum, 3, _SQUARE_STACK,
                         "expected a matrix or a stack of matrices, got shape (3,)"),
    "project_to_density": (la.project_to_density, 3, _SQUARE_STACK,
                           "expected a matrix or a stack of matrices, got shape (3,)"),
    "sqrtm_psd": (la.sqrtm_psd, 3, "sqrtm_psd needs a Hermitian matrix",
                  "expected a matrix or a stack of matrices, got shape (3,)"),
    "matrix_to_json": (la.matrix_to_json, 3, None, _ONE_MATRIX.format(3)),
    "choi_to_json": (cj.choi_to_json, 9, None, _ONE_MATRIX.format(9)),
    "choi_fidelity_first": (lambda m: cj.choi_fidelity(m, cj.named_choi("ls")), 9,
                            "choi_fidelity expects 9x9 matrices", _ONE_MATRIX.format(9)),
    "choi_fidelity_second": (lambda m: cj.choi_fidelity(cj.named_choi("ls"), m), 9,
                             "choi_fidelity expects 9x9 matrices", _ONE_MATRIX.format(9)),
    "analytic_fidelity": (lambda m: cj.analytic_fidelity("ls", m), 9,
                          "analytic_fidelity expects a 9x9 matrix", _ONE_MATRIX.format(9)),
    "channel_fidelity_sweep": (lambda m: tg.channel_fidelity_sweep(m, ch.ls_apply, 1, 2, 3), 9,
                               "Choi matrix must be d^2 x d^2", _ONE_MATRIX.format(9)),
}


@pytest.mark.parametrize("kind", ["nan", "inf", "non_square", "vector"])
@pytest.mark.parametrize("name", sorted(_BOUNDARY))
def test_public_functions_check_their_input_once_with_the_same_errors(name, kind):
    f, d, non_square, vector = _BOUNDARY[name]
    m = np.eye(d, dtype=complex) / d
    error, message = ValueError, "matrix entries must be finite"
    if kind == "nan":
        m[0, 1] = np.nan
    elif kind == "inf":
        m[1, 1] = complex(0, np.inf)
    elif kind == "non_square":
        m, error, message = m[:, :-1], la.ShapeError, non_square
    else:
        m, error, message = m[0], la.ShapeError, vector
    if message is None:
        f(m)
        return
    with pytest.raises(ValueError) as exc:
        f(m)
    assert type(exc.value) is error and str(exc.value) == message


def test_choi_outputs_that_overflow_are_refused_before_scoring():
    # finite entries whose Choi outputs overflow: the sweep's unchecked
    # spectrum core would hand infinities to eigh (LinAlgError)
    omega = np.eye(9, dtype=complex) * 1.7e308
    omega[0, 1] = omega[1, 0] = 1.7e308
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(ValueError, match="^matrix entries must be finite$"):
        tg.channel_fidelity_sweep(omega, ch.ls_apply, 1, 2, 3)


def test_cores_equal_their_checked_functions_bit_for_bit():
    rng = np.random.default_rng(29)
    for shape in ((3, 3), (9, 4, 4), (2, 3, 9, 9)):
        m = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        w, v = la.hermitian_eig(m)
        w2, v2 = la._eigh(m)
        p, u = la.density_spectrum(m)
        p2, u2 = la._spectrum(m)
        assert all(np.array_equal(a, b) for a, b in ((w, w2), (v, v2), (p, p2), (u, u2)))
        assert np.array_equal(la.project_to_density(m), la._rebuild(p2, u2))
