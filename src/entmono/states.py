"""Dense complex linear algebra for bipartite states.

Product-basis convention: amplitudes are row-major over |i_A (x) j_B>, i.e.
entry ``i_a * dim_b + j_b``.  All state comparisons are quotiented by a global
phase.  Schmidt coefficients below ``SPECTRUM_CLAMP`` are clamped to zero so
SVD noise cannot inflate the Schmidt rank.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

NORM_TOL = 1e-10
HERM_TOL = 1e-10
EIGVAL_FLOOR = -1e-10
PROB_TOL = 1e-9
SPECTRUM_CLAMP = 1e-12
OUTCOME_FLOOR = 1e-14  # outcomes and ensemble members of smaller weight are impossible


def ensure_rng(seed) -> np.random.Generator:
    """Return ``seed`` itself if it already is a Generator, else seed a new one."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _count(value, name, low=0) -> int:
    """The count or dimension argument ``name`` as an int: ``int`` or ``np.integer``, not bool, >= ``low``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be {'positive' if low else 'non-negative'}, got {value!r}")
    return int(value)


def _outside(low, value, high) -> bool:
    """Whether ``value`` lies outside [low, high] (NaN does); a non-number is left to the count rule."""
    try:
        return not low <= value <= high
    except TypeError:
        return False


def _first_off_one(values, tol):
    """The first of ``values`` (flattened) farther than ``tol`` from 1, NaN included, or None."""
    values = np.asarray(values).reshape(-1)
    # one max settles the common case; a NaN max fails it and falls through to the search
    if _within(values - 1.0, tol):
        return None
    return float(values[~(abs(values - 1.0) <= tol)][0])


def _within(x, tol) -> bool:
    """Whether every entry of ``x`` is at most ``tol`` in modulus; NaN never is."""
    return bool(np.abs(x).max(initial=0.0) <= tol)


def _sq_norms(v: np.ndarray) -> np.ndarray:
    """Squared 2-norm of each row of ``v`` (last axis) as a 1 x n @ n x 1 product, as np.vdot gives it."""
    return np.real(v.conj()[..., None, :] @ v[..., :, None])[..., 0, 0]


def _require_unit_norms(norms) -> None:
    """Raise unless every state-vector norm in ``norms`` is within ``NORM_TOL`` of 1."""
    norm = _first_off_one(norms, NORM_TOL)
    if norm is not None:
        raise ValueError(f"state vector norm {norm!r} differs from 1 by more than {NORM_TOL}")


def _require_distributions(probs: np.ndarray) -> None:
    """Raise unless every row of ``probs`` is non-negative and sums to 1, both within ``PROB_TOL``."""
    if not probs.min() >= -PROB_TOL:
        raise ValueError("ensemble probabilities must be non-negative")
    total = _first_off_one(probs.sum(axis=-1), PROB_TOL)
    if total is not None:
        raise ValueError(f"ensemble probabilities sum to {total!r}, expected 1")


def _spectrum_rows(v: np.ndarray) -> np.ndarray:
    """Rows of ``v`` checked to be spectra, clipped into [0, 1] and sorted descending.

    Entries must lie in [0, 1] within ``SPECTRUM_CLAMP``, and each row must sum
    to 1 within ``NORM_TOL``.
    """
    if not (v.min() >= -SPECTRUM_CLAMP and v.max() <= 1.0 + SPECTRUM_CLAMP):
        raise ValueError("spectrum entries must lie in [0, 1]")
    v = np.sort(np.clip(v, 0.0, 1.0), axis=-1)[..., ::-1].copy()
    total = _first_off_one(v.sum(axis=-1), NORM_TOL)
    if total is not None:
        raise ValueError(f"spectrum sums to {total!r}, expected 1 within {NORM_TOL}")
    return v


@dataclass(frozen=True)
class PureState:
    """Normalized state vector on a bipartite product space."""

    dim_a: int
    dim_b: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        object.__setattr__(self, "amplitudes", amps)
        for name in ("dim_a", "dim_b"):
            object.__setattr__(self, name, _count(getattr(self, name), name, 1))
        if amps.size != self.dim_a * self.dim_b:
            raise ValueError(
                f"amplitude vector has length {amps.size}, expected "
                f"{self.dim_a * self.dim_b} = {self.dim_a}*{self.dim_b}"
            )
        _require_unit_norms(np.linalg.norm(amps))

    @property
    def coefficient_matrix(self) -> np.ndarray:
        """dim_a x dim_b matrix M with psi = sum_ij M[i,j] |i_A>|j_B>."""
        return self.amplitudes.reshape(self.dim_a, self.dim_b)

    @classmethod
    def from_coefficient_matrix(cls, matrix) -> "PureState":
        m = np.asarray(matrix, dtype=complex)
        if m.ndim != 2:
            raise ValueError("coefficient matrix must be two-dimensional")
        return cls(m.shape[0], m.shape[1], m.reshape(-1))

    @classmethod
    def from_schmidt_values(cls, values) -> "PureState":
        """Canonical state sum_i sqrt(v_i) |i_A i_B> on C^r (x) C^r."""
        v = np.asarray(values, dtype=float)
        m = np.diag(np.sqrt(np.clip(v, 0.0, None))).astype(complex)
        return cls.from_coefficient_matrix(m)


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix."""

    dim: int
    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=complex)
        object.__setattr__(self, "entries", m)
        object.__setattr__(self, "dim", _count(self.dim, "dim", 1))
        if m.shape != (self.dim, self.dim):
            raise ValueError(f"entries have shape {m.shape}, expected ({self.dim}, {self.dim})")
        if not np.all(np.isfinite(m)):
            raise ValueError("matrix entries must be finite")
        if not _within(m - m.conj().T, HERM_TOL):
            raise ValueError("matrix is not Hermitian within tolerance")
        tr = complex(np.trace(m))
        if not _within(tr - 1.0, NORM_TOL):
            raise ValueError(f"trace {tr!r} differs from 1 by more than {NORM_TOL}")
        if not np.min(np.linalg.eigvalsh(m)) >= EIGVAL_FLOOR:
            raise ValueError("matrix has an eigenvalue below the positivity floor")


@dataclass(frozen=True)
class SchmidtSpectrum:
    """Squared Schmidt coefficients, sorted descending, summing to one."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float).reshape(-1)
        if v.size == 0:
            raise ValueError("spectrum must be non-empty")
        object.__setattr__(self, "values", _spectrum_rows(v))

    def padded(self, length: int) -> np.ndarray:
        length = _count(length, "length")
        if length < self.values.size:
            raise ValueError("cannot pad to a shorter length")
        out = np.zeros(length)
        out[: self.values.size] = self.values
        return out

    def rank(self) -> int:
        return int(np.count_nonzero(self.values > SPECTRUM_CLAMP))


@dataclass(frozen=True)
class OutcomeEnsemble:
    """Probability-weighted collection of post-measurement states."""

    items: tuple

    def __post_init__(self):
        items = tuple((float(p), state) for p, state in self.items)
        object.__setattr__(self, "items", items)
        probs = np.array([p for p, _ in items])
        if probs.size == 0:
            raise ValueError("ensemble must have at least one outcome")
        _require_distributions(probs)

    def __iter__(self):
        return iter(self.items)

    def __len__(self):
        return len(self.items)


def density_of(psi: PureState) -> DensityMatrix:
    """Rank-one projector |psi><psi| on the full product space."""
    a = psi.amplitudes
    return DensityMatrix(a.size, np.outer(a, a.conj()))


def _matrix_of(state) -> np.ndarray:
    """Density matrix entries of a PureState, DensityMatrix or raw array."""
    if isinstance(state, PureState):
        return density_of(state).entries
    return state.entries if isinstance(state, DensityMatrix) else np.asarray(state, dtype=complex)


def _to_matrix(state, dim_a, dim_b):
    """Normalize the (state, dims) calling conventions to (matrix, (dim_a, dim_b)).

    A PureState carries its own dims; any other state needs both given.
    """
    if isinstance(state, PureState):
        dims = state.dim_a, state.dim_b
    elif dim_a is None or dim_b is None:
        raise ValueError("dim_a and dim_b are required for matrix input")
    else:
        dims = _count(dim_a, "dim_a", 1), _count(dim_b, "dim_b", 1)
    m = _matrix_of(state)
    d = dims[0] * dims[1]
    if m.shape != (d, d):
        raise ValueError(
            f"dimension mismatch: matrix is {m.shape}, expected ({d}, {d}) from dims {dims}"
        )
    return m, dims


def _trace_out(mat: np.ndarray, dims: tuple, axis: int) -> DensityMatrix:
    """Partial trace of ``mat`` over factor ``axis`` of the tensor split ``dims``."""
    r = np.trace(mat.reshape(dims + dims), axis1=axis, axis2=axis + len(dims))
    d = mat.shape[0] // dims[axis]
    return DensityMatrix(d, r.reshape(d, d))


def _mixture(pairs) -> np.ndarray:
    """Ensemble average sum_k p_k rho_k of (weight, state) pairs, accumulated in order."""
    acc = None
    for p, state in pairs:
        term = p * _matrix_of(state)
        acc = term if acc is None else acc + term
    return acc


def partial_trace_b(state, dim_a=None, dim_b=None) -> DensityMatrix:
    """Reduced state on A, tracing out subsystem B."""
    return _trace_out(*_to_matrix(state, dim_a, dim_b), axis=1)


def partial_trace_a(state, dim_a=None, dim_b=None) -> DensityMatrix:
    """Reduced state on B, tracing out subsystem A."""
    return _trace_out(*_to_matrix(state, dim_a, dim_b), axis=0)


def schmidt(psi: PureState):
    """Schmidt decomposition of a bipartite pure state.

    Returns ``(spectrum, basis_a, basis_b)``: the ``_schmidt_values`` row of the
    coefficient matrix, and its singular vectors as the orthonormal columns
    ``basis_a[:, k]``, ``basis_b[:, k]``:  psi = sum_k sqrt(values[k]) |a_k>|b_k>
    up to a global phase.
    """
    u, _, vh = np.linalg.svd(psi.coefficient_matrix, full_matrices=False)
    return SchmidtSpectrum(_schmidt_values(psi.coefficient_matrix)), u, vh.T


def _schmidt_values(m: np.ndarray) -> np.ndarray:
    """Schmidt spectrum of each unit-norm coefficient matrix in the stack ``m`` (..., a, b).

    Squared singular values, those below ``SPECTRUM_CLAMP`` set to zero, each row divided
    by its sum: descending, no entry above 1.  Every pure-state spectrum is computed here.
    Where min(a, b) = 2 the squares come from the closed form ``_two_row_squares``, which
    costs a fraction of a stacked SVD on the small stacks of the roof search; every other
    shape takes ``np.linalg.svd(m, compute_uv=False)``.
    """
    if min(m.shape[-2:]) == 2:
        values = _two_row_squares(m)
    else:
        values = np.linalg.svd(m, compute_uv=False) ** 2
    values[values < SPECTRUM_CLAMP] = 0.0
    return values / values.sum(axis=-1, keepdims=True)


@functools.cache
def _two_row_forms(n: int):
    """Index pairs and weights of the quadratic forms ``_two_row_squares`` sums, for 2 x n matrices.

    Rows 2j, 2j + 1, 2(n + j) and 2(n + j) + 1 of the real array u hold Re r0_j,
    Im r0_j, Re r1_j and Im r1_j.  In each of the two tables, form f is the sum over t
    of weight[t, f] u[first[t, f]] u[second[t, f]].  The first table gives p = |r0|^2,
    s = |r1|^2, Re q and Im q for q = <r0, r1>; the second the real and imaginary part
    of each 2 x 2 minor r0_j r1_k - r0_k r1_j, j < k.  Weights are +-1, so each weighted
    product is exact.
    """
    a, b = 2 * np.arange(n), 2 * np.arange(n) + 1  # Re r0_j, Im r0_j
    c, d = a + 2 * n, b + 2 * n  # Re r1_j, Im r1_j
    gram = [[(1.0, i, i) for i in np.r_[a, b]], [(1.0, i, i) for i in np.r_[c, d]],
            [(1.0, i, k) for i, k in zip(np.r_[a, b], np.r_[c, d])],
            [(1.0, i, k) for i, k in zip(a, d)] + [(-1.0, i, k) for i, k in zip(b, c)]]
    minors = []
    for j, k in zip(*np.triu_indices(n, 1)):
        minors.append([(1.0, a[j], c[k]), (-1.0, b[j], d[k]), (-1.0, a[k], c[j]), (1.0, b[k], d[j])])
        minors.append([(1.0, a[j], d[k]), (1.0, b[j], c[k]), (-1.0, a[k], d[j]), (-1.0, b[k], c[j])])
    tables = []
    for forms in (gram, minors):
        # (form, term, [weight, first, second]) -> three (term, form) arrays
        weight, first, second = np.array(forms, dtype=float).T
        tables.append((first.astype(np.intp), second.astype(np.intp), weight[..., None]))
    return tables


def _sum_rows(x: np.ndarray) -> np.ndarray:
    """x[0] + x[1] + ... + x[-1], added left to right."""
    return functools.reduce(np.add, x)


def _two_row_squares(m: np.ndarray) -> np.ndarray:
    """Squared singular values (..., 2), descending, of each matrix in a stack (..., a, b) with min(a, b) = 2.

    An a x 2 matrix is read as its 2 x a transpose, with rows r0 and r1.  With
    p = |r0|^2, s = |r1|^2, q = <r0, r1> and D the sum of the squared moduli of the
    2 x 2 minors (``_two_row_forms``), lambda_max = (p + s)/2 + sqrt(((p - s)/2)^2 + |q|^2)
    and lambda_min = D / lambda_max.  Both are sums of non-negative terms, so a Schmidt
    gap near 0 costs no accuracy and a small lambda_min keeps its relative accuracy.
    Every step is elementwise on one real copy with the matrices on the last axis, and
    every sum runs left to right, so a matrix gets the same bits in any stack, slot or
    memory layout.
    """
    lead = m.shape[:-2]
    m = m.reshape(-1, *m.shape[-2:])
    if m.shape[1] != 2:
        m = np.swapaxes(m, 1, 2)
    # one row per real coordinate of the 2 x n matrix (as ``_two_row_forms`` numbers them), one column per matrix
    u = np.ascontiguousarray(m, dtype=complex).view(np.float64).reshape(len(m), -1)
    u = np.ascontiguousarray(u.T)
    (p, s, q_re, q_im), minors = (_sum_rows(u[first] * u[second] * weight)
                                  for first, second, weight in _two_row_forms(m.shape[2]))
    det = _sum_rows(minors * minors)
    half = 0.5 * (p - s)
    top = 0.5 * (p + s) + np.sqrt(half * half + q_re * q_re + q_im * q_im)
    out = np.empty((len(m), 2))
    out[:, 0] = top
    # near D = top^2 / 4 the quotient can exceed top by an ulp
    np.minimum(det / top, top, out=out[:, 1])
    return out.reshape(*lead, 2)


def apply_kraus(rho, ops):
    """Apply a set of Kraus operators on the full space: sum_j O_j rho O_j^dag.

    Returns the normalized output state and its trace (the outcome
    probability).  Raises when the outcome probability is below
    ``OUTCOME_FLOOR`` ("impossible outcome") or above 1 + 1e-9.
    """
    out, p = _kraus_outcome(_matrix_of(rho), ops)
    if out is None:
        raise ValueError(f"impossible outcome: output trace below {OUTCOME_FLOOR:g}")
    return out, p


def _kraus_outcome(mat: np.ndarray, ops):
    """(normalized sum_j O_j mat O_j^dag, its trace p); the state is None below ``OUTCOME_FLOOR``."""
    out = None
    for op in ops:
        op = np.asarray(op, dtype=complex)
        term = op @ mat @ op.conj().T
        out = term if out is None else out + term
    if out is None:
        raise ValueError("no Kraus operators given")
    p = float(np.real(np.trace(out)))
    if p < OUTCOME_FLOOR:
        return None, p
    if p > 1.0 + PROB_TOL:
        raise ValueError(f"outcome probability {p!r} exceeds 1; operators are not trace non-increasing")
    out = out / p
    out = 0.5 * (out + out.conj().T)
    return DensityMatrix(out.shape[0], out), p


def tensor_bipartite(psi: PureState, phi: PureState) -> PureState:
    """Tensor product regrouped along the (A,A')|(B,B') cut."""
    return PureState.from_coefficient_matrix(
        np.kron(psi.coefficient_matrix, phi.coefficient_matrix)
    )


def product_state(vec_a, vec_b) -> PureState:
    vecs = [np.asarray(vec, dtype=complex) for vec in (vec_a, vec_b)]
    for name, vec in zip(("vec_a", "vec_b"), vecs):
        if not np.linalg.norm(vec) > 0.0:
            raise ValueError(f"{name} is the zero vector, which has no direction to normalize")
    a, b = (vec / np.linalg.norm(vec) for vec in vecs)
    return PureState(a.size, b.size, np.kron(a, b))


def maximally_entangled(n: int) -> PureState:
    """sum_i |ii> / sqrt(n) on C^n (x) C^n."""
    n = _count(n, "n", 1)
    return PureState.from_coefficient_matrix(np.eye(n) / np.sqrt(n))


def _complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """Standard complex Gaussian array: all real parts are drawn first, then the imaginary parts."""
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def haar_unitary(dim: int, rng=None) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    return _haar_isometry(dim, dim, ensure_rng(rng))


def _haar_isometry(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random rows x cols isometry: the phase-fixed Q of a complex Gaussian block."""
    return _phase_fixed_qr(_complex_normal(rng, (rows, cols)))


def _phase_fixed_qr(z: np.ndarray) -> np.ndarray:
    """Q of z = QR, phases fixed so R's nonzero diagonal is positive (Haar for Gaussian z).

    ``z`` may be a stack (..., rows, cols); each matrix is factored on its own.
    """
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1).copy()
    d[d == 0] = 1.0
    return q * (d / np.abs(d))[..., None, :]


def _unit_rows(z: np.ndarray) -> np.ndarray:
    """Each row of ``z`` (last axis) divided by its 2-norm, computed as ``np.linalg.norm`` does it."""
    re, im = z.real[..., None, :], z.imag[..., None, :]
    sq = re @ np.swapaxes(re, -1, -2) + im @ np.swapaxes(im, -1, -2)
    return z / np.sqrt(sq[..., 0])


def random_pure_state(dim_a: int, dim_b: int, rng=None) -> PureState:
    """Haar-uniform pure state from a normalized complex Gaussian vector."""
    return PureState(dim_a, dim_b, _unit_rows(_complex_normal(ensure_rng(rng), dim_a * dim_b)))


def random_density_matrix(dim: int, rng=None, rank=None) -> DensityMatrix:
    """Unit-trace Wishart matrix G G^dag / tr with G a dim x rank Gaussian."""
    rank = dim if rank is None else rank
    if _outside(1, rank, np.inf):
        raise ValueError(f"rank must be at least 1, got {rank!r}")
    rank = _count(rank, "rank", 1)
    g = _complex_normal(ensure_rng(rng), (dim, rank))
    m = g @ g.conj().T
    return DensityMatrix(dim, m / np.trace(m))


def phase_distance(v, w) -> float:
    """min over phases of || v - e^{i t} w ||.

    The optimal phase is applied explicitly before differencing, so identical
    vectors give 0 to machine precision (the inner-product shortcut would
    floor out at sqrt(eps)).
    """
    v = np.asarray(v, dtype=complex).reshape(-1)
    w = np.asarray(w, dtype=complex).reshape(-1)
    overlap = np.vdot(w, v)
    phase = overlap / abs(overlap) if abs(overlap) > 0 else 1.0
    return float(np.linalg.norm(v - phase * w))
