"""Dense complex linear algebra primitives shared by the whole package.

All matrices are plain ``numpy.ndarray`` of dtype complex128, row-major.
Registers stay within circuits.MAX_DENSE_QUBITS, so everything is dense
and exact to double precision.  ``partial_trace``, ``dagger``,
``is_hermitian``, ``is_psd``, ``hermitian_eig``, ``sqrtm_psd``,
``density_spectrum`` and ``project_to_density`` also take a stack
``(..., d, d)`` and work on each matrix of it; a 2-D input is the stack
with no leading axes.

Boundary rule: a public function checks its input once (as_stack or
as_matrix, then its shape).  The private cores behind hermitian_eig,
density_spectrum and project_to_density (_eigh, _spectrum, _rebuild) check
nothing: they assume a finite complex square stack, and the package calls
them only on arrays it built from checked input.
"""

from __future__ import annotations

import math
import operator

import numpy as np

ATOL = 1e-10  # default absolute tolerance for structural checks


class ShapeError(ValueError):
    """Matrix has the wrong shape for the requested operation."""


class NotPSDError(ValueError):
    """Matrix is not positive semidefinite within tolerance."""


def as_stack(m) -> np.ndarray:
    """Coerce to a complex ndarray (..., rows, cols): one matrix, or a stack
    of them over the leading axes.  Rejects malformed input."""
    a = np.asarray(m, dtype=complex)
    if a.ndim < 2 or a.shape[-2] < 1 or a.shape[-1] < 1:
        raise ShapeError(f"expected a matrix or a stack of matrices, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def as_matrix(m) -> np.ndarray:
    """Coerce to a 2-D complex ndarray, rejecting malformed input."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got shape {a.shape}")
    return as_stack(a)


def partial_trace(m: np.ndarray, dims, keep) -> np.ndarray:
    """Trace out all subsystems not in ``keep``, of a matrix or of each
    matrix of a stack.

    ``dims`` lists the positive subsystem dimensions (product must match
    m); ``keep`` is an ordered collection of subsystem indices.  Both are
    integers (wire_index): a float or a bool raises ValueError.  The
    result's factors appear in ``keep`` order, so this doubles as a
    subsystem reordering.
    """
    m = as_stack(m)
    dims = [wire_index(d, "a subsystem dimension") for d in dims]
    n = len(dims)
    if m.shape[-2] != m.shape[-1]:
        raise ShapeError("partial_trace needs a square matrix")
    if math.prod(dims) != m.shape[-1] or any(d < 1 for d in dims):
        raise ShapeError(f"dims {dims} are not positive sizes multiplying to {m.shape[-1]}")
    keep = [wire_index(k, "a subsystem index") for k in keep]
    if any(k < 0 or k >= n for k in keep) or len(set(keep)) != len(keep):
        raise ShapeError(f"bad keep set {keep} for {n} subsystems")
    batch = m.shape[:-2]
    nb = len(batch)
    t = m.reshape(batch + tuple(dims + dims))
    traced = [k for k in range(n) if k not in keep]
    for k in sorted(traced, reverse=True):
        t = np.trace(t, axis1=nb + k, axis2=nb + k + (t.ndim - nb) // 2)
    # axes now correspond to kept subsystems in ascending order
    asc = sorted(keep)
    perm = [nb + asc.index(k) for k in keep]
    half = len(keep)
    t = t.transpose(list(range(nb)) + perm + [p + half for p in perm])
    d = math.prod(dims[k] for k in keep) if keep else 1
    return t.reshape(batch + (d, d))


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix of a stack."""
    return np.conj(m).swapaxes(-1, -2)


def is_hermitian(m: np.ndarray, atol: float = ATOL) -> bool:
    """True iff m (every matrix of a stack) is square and Hermitian within atol."""
    m = as_stack(m)
    return m.shape[-2] == m.shape[-1] and np.abs(m - dagger(m)).max() <= atol


def is_unitary(m: np.ndarray, atol: float = ATOL) -> bool:
    """True iff m is square and ||m+ m - I||_max <= atol."""
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        return False
    return np.abs(dagger(m) @ m - np.eye(m.shape[0])).max() <= atol


def hermitian_eig(m: np.ndarray):
    """Eigendecomposition of a Hermitian matrix (or of each matrix of a
    stack), eigenvalues descending.

    Returns (w, v) with m = v @ diag(w) @ v+ and v unitary; for a stack,
    w is (..., d) and v is (..., d, d).
    """
    return _eigh(_square_stack(m))


def _square_stack(m) -> np.ndarray:
    """as_stack of m, which must be square: the one check of hermitian_eig,
    density_spectrum and project_to_density."""
    m = as_stack(m)
    if m.shape[-2] != m.shape[-1]:
        raise ShapeError("hermitian_eig needs a square matrix")
    return m


def _eigh(m: np.ndarray):
    """hermitian_eig of a finite complex square stack, unchecked."""
    w, v = np.linalg.eigh((m + dagger(m)) / 2)  # ascending
    return w[..., ::-1], v[..., ::-1]


def _psd_within(m: np.ndarray, atol: float) -> bool:
    """The PSD check of is_psd and is_density_matrix, on a square stack that
    as_stack has already coerced: Hermitian within atol and min eigenvalue
    >= -atol, the eigenvalues of the Hermitian part only."""
    h = dagger(m)
    if np.abs(m - h).max() > atol:
        return False
    return bool((np.linalg.eigvalsh((m + h) / 2)[..., 0] >= -atol).all())  # ascending


def is_psd(m: np.ndarray, atol: float = ATOL) -> bool:
    """True iff Hermitian within atol and min eigenvalue >= -atol (for a
    stack, every matrix): the eigenvalues of the Hermitian part only."""
    m = as_stack(m)
    return m.shape[-2] == m.shape[-1] and _psd_within(m, atol)


def sqrtm_psd(m: np.ndarray, atol: float = ATOL) -> np.ndarray:
    """Hermitian PSD square root via eigendecomposition, of a matrix or of
    each matrix of a stack.

    Eigenvalues in [-atol, 0) are clamped to zero; anything below -atol is
    an error rather than silently fixed.
    """
    m = as_stack(m)
    if not is_hermitian(m, max(atol, ATOL) * m.shape[-1]):
        raise ShapeError("sqrtm_psd needs a Hermitian matrix")
    w, v = _eigh(m)
    lowest = w[..., -1].min()
    if lowest < -atol:
        raise NotPSDError(f"eigenvalue {lowest:.3e} below -{atol:.1e}")
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)[..., None, :]) @ dagger(v)


def is_density_matrix(m: np.ndarray, atol: float = 1e-8) -> bool:
    """Trace-1 PSD Hermitian check, loose by default for tomographic output."""
    return _is_density(as_matrix(m), atol)


def _is_density(m: np.ndarray, atol: float) -> bool:
    """is_density_matrix of a matrix that as_matrix has already coerced, for
    a caller that keeps the coerced array (channels._require_density)."""
    return m.shape[0] == m.shape[1] and abs(np.trace(m) - 1) <= atol and _psd_within(m, atol)


def density_spectrum(m: np.ndarray):
    """The spectrum of project_to_density(m), of a matrix or of each matrix
    of a stack: (p, v) with v the eigenvectors of hermitian_eig(m) and p its
    eigenvalues projected onto the probability simplex (Euclidean
    projection): p >= 0, descending, summing to one to rounding.
    """
    return _spectrum(_square_stack(m))


def _spectrum(m: np.ndarray):
    """density_spectrum of a finite complex square stack, unchecked."""
    w, v = _eigh(m)
    d = w.shape[-1]
    t = (w.cumsum(-1) - 1.0) / np.arange(1, d + 1)  # the threshold of each k
    # theta is t at the last index where w > t, which index 0 always is
    last = d - 1 - (w - t > 0)[..., ::-1].argmax(-1)
    theta = t.reshape(-1)[last.reshape(-1) + np.arange(0, t.size, d)]
    # np.maximum(x, 0.0) is np.clip(x, 0.0, None) without its dispatch
    return np.maximum(w - theta.reshape(last.shape + (1,)), 0.0), v


def _rebuild(p: np.ndarray, v: np.ndarray) -> np.ndarray:
    """v diag(p) v+ of a spectrum (p, v), or of each of a stack: the matrix
    project_to_density returns for the spectrum _spectrum gives."""
    return (v * p[..., None, :]) @ dagger(v)


def project_to_density(m: np.ndarray) -> np.ndarray:
    """Nearest density matrix: hermitize, then project the spectrum onto the
    probability simplex (density_spectrum), then reconstruct.  Works on a
    matrix or on each matrix of a stack.

    Idempotent on valid density matrices.
    """
    return _rebuild(*_spectrum(_square_stack(m)))


def equal_up_to_global_phase(a: np.ndarray, b: np.ndarray, atol: float = ATOL) -> bool:
    """True iff a == exp(i phi) b for some real phi, entrywise within atol."""
    a, b = as_matrix(a), as_matrix(b)
    if a.shape != b.shape:
        return False
    i = np.unravel_index(np.argmax(np.abs(a)), a.shape)
    if abs(a[i]) <= atol:
        return np.abs(b).max() <= atol
    if abs(b[i]) <= atol:
        return False
    phase = b[i] / a[i]
    phase /= abs(phase)
    return np.abs(a * phase - b).max() <= atol


# --- matrix JSON format (used repo-wide) ------------------------------------
# {"rows": n, "cols": m, "re": [[...]], "im": [[...]]}


def matrix_to_json(m: np.ndarray) -> dict:
    m = as_matrix(m)
    return {
        "rows": m.shape[0],
        "cols": m.shape[1],
        "re": m.real.tolist(),
        "im": m.imag.tolist(),
    }


def json_int(v) -> int:
    """v as an int if it is a JSON integer (an integral float included): a
    bool, a string or a fraction raises ValueError, never truncates."""
    if isinstance(v, bool) or not (isinstance(v, int) or isinstance(v, float) and v.is_integer()):
        raise ValueError(f"expected a JSON integer, got {v!r}")
    return int(v)


def wire_index(v, what: str = "a wire") -> int:
    """v as a wire number, register size or subsystem index: an int or a
    numpy integer.  A bool, a float (an integral one included) or anything
    else raises ValueError naming ``what``, where int() would read 4.9 as
    wire 4 and True as wire 1."""
    if not isinstance(v, bool):
        try:
            return operator.index(v)
        except TypeError:
            pass
    raise ValueError(f"{what} must be an integer, got {v!r}")


def matrix_from_json(obj: dict) -> np.ndarray:
    """The matrix of matrix_to_json.  rows and cols must be JSON integers and
    every entry a finite JSON number: a bool, a string, or an int too large
    for a float raises ValueError."""
    rows, cols = json_int(obj["rows"]), json_int(obj["cols"])
    if rows < 1 or cols < 1:
        raise ShapeError("rows and cols must be positive")
    re, im = obj["re"], obj["im"]
    for part in (re, im):
        if len(part) != rows or any(len(r) != cols for r in part):
            raise ShapeError("ragged or mis-sized matrix data")
        if any(isinstance(x, bool) or not isinstance(x, (int, float)) for r in part for x in r):
            raise ValueError("matrix entries must be JSON numbers")
    try:
        re, im = np.array(re, dtype=float), np.array(im, dtype=float)
    except OverflowError as exc:  # an int too large for a float
        raise ValueError("matrix entries must be finite") from exc
    # checked before 1j * im, which warns on an infinite entry
    if not (np.isfinite(re).all() and np.isfinite(im).all()):
        raise ValueError("matrix entries must be finite")
    return re + 1j * im
