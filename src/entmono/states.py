"""Dense complex linear algebra for bipartite states.

Product-basis convention: amplitudes are row-major over |i_A (x) j_B>, i.e.
entry ``i_a * dim_b + j_b``.  All state comparisons are quotiented by a global
phase.  Schmidt coefficients below ``SPECTRUM_CLAMP`` are clamped to zero so
SVD noise cannot inflate the Schmidt rank.
"""

from __future__ import annotations

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


@dataclass(frozen=True)
class PureState:
    """Normalized state vector on a bipartite product space."""

    dim_a: int
    dim_b: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        object.__setattr__(self, "amplitudes", amps)
        if self.dim_a < 1 or self.dim_b < 1:
            raise ValueError("local dimensions must be positive")
        if amps.size != self.dim_a * self.dim_b:
            raise ValueError(
                f"amplitude vector has length {amps.size}, expected "
                f"{self.dim_a * self.dim_b} = {self.dim_a}*{self.dim_b}"
            )
        norm = float(np.linalg.norm(amps))
        if not abs(norm - 1.0) <= NORM_TOL:
            raise ValueError(f"state vector norm {norm!r} differs from 1 by more than {NORM_TOL}")

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
        if m.shape != (self.dim, self.dim):
            raise ValueError(f"entries have shape {m.shape}, expected ({self.dim}, {self.dim})")
        if not np.all(np.isfinite(m)):
            raise ValueError("matrix entries must be finite")
        if np.max(np.abs(m - m.conj().T)) > HERM_TOL:
            raise ValueError("matrix is not Hermitian within tolerance")
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > NORM_TOL:
            raise ValueError(f"trace {tr!r} differs from 1 by more than {NORM_TOL}")
        if float(np.min(np.linalg.eigvalsh(m))) < EIGVAL_FLOOR:
            raise ValueError("matrix has an eigenvalue below the positivity floor")

    def eigenvalues(self) -> np.ndarray:
        """Real eigenvalues, descending, clamped into [0, 1]."""
        w = np.linalg.eigvalsh(self.entries)[::-1]
        return np.clip(w, 0.0, 1.0)


@dataclass(frozen=True)
class SchmidtSpectrum:
    """Squared Schmidt coefficients, sorted descending, summing to one."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float).reshape(-1)
        if v.size == 0:
            raise ValueError("spectrum must be non-empty")
        if not (float(v.min()) >= -SPECTRUM_CLAMP and float(v.max()) <= 1.0 + SPECTRUM_CLAMP):
            raise ValueError("spectrum entries must lie in [0, 1]")
        v = np.sort(np.clip(v, 0.0, 1.0))[::-1].copy()
        object.__setattr__(self, "values", v)
        total = float(v.sum())
        if not abs(total - 1.0) <= NORM_TOL:
            raise ValueError(f"spectrum sums to {total!r}, expected 1 within {NORM_TOL}")

    def padded(self, length: int) -> np.ndarray:
        if length < self.values.size:
            raise ValueError("cannot pad to a shorter length")
        out = np.zeros(length)
        out[: self.values.size] = self.values
        return out

    def rank(self, cutoff: float = SPECTRUM_CLAMP) -> int:
        return int(np.count_nonzero(self.values > cutoff))


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
        if not float(probs.min()) >= -PROB_TOL:
            raise ValueError("ensemble probabilities must be non-negative")
        if not abs(float(probs.sum()) - 1.0) <= PROB_TOL:
            raise ValueError(f"ensemble probabilities sum to {float(probs.sum())!r}, expected 1")

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
    """Normalize the (state, dims) calling conventions to (matrix, dim_a, dim_b)."""
    m = _matrix_of(state)
    if isinstance(state, PureState):
        return m, state.dim_a, state.dim_b
    if dim_a is None or dim_b is None:
        raise ValueError("dim_a and dim_b are required for matrix input")
    if m.shape != (dim_a * dim_b, dim_a * dim_b):
        raise ValueError(
            f"dimension mismatch: matrix is {m.shape}, expected "
            f"({dim_a * dim_b}, {dim_a * dim_b}) from dims ({dim_a}, {dim_b})"
        )
    return m, dim_a, dim_b


def partial_trace_b(state, dim_a=None, dim_b=None) -> DensityMatrix:
    """Reduced state on A, tracing out subsystem B."""
    if isinstance(state, PureState):
        m = state.coefficient_matrix
        return DensityMatrix(state.dim_a, m @ m.conj().T)
    rho, da, db = _to_matrix(state, dim_a, dim_b)
    r = rho.reshape(da, db, da, db)
    return DensityMatrix(da, np.einsum("ijkj->ik", r))


def partial_trace_a(state, dim_a=None, dim_b=None) -> DensityMatrix:
    """Reduced state on B, tracing out subsystem A."""
    if isinstance(state, PureState):
        m = state.coefficient_matrix
        return DensityMatrix(state.dim_b, m.T @ m.conj())
    rho, da, db = _to_matrix(state, dim_a, dim_b)
    r = rho.reshape(da, db, da, db)
    return DensityMatrix(db, np.einsum("ijil->jl", r))


def schmidt(psi: PureState):
    """Schmidt decomposition of a bipartite pure state.

    Returns ``(spectrum, basis_a, basis_b)`` where ``spectrum.values[k]`` is the
    squared singular value of the coefficient matrix, and the columns
    ``basis_a[:, k]``, ``basis_b[:, k]`` are the matching orthonormal local
    vectors:  psi = sum_k sqrt(values[k]) |a_k>|b_k>  up to a global phase.
    """
    u, s, vh = np.linalg.svd(psi.coefficient_matrix, full_matrices=False)
    return SchmidtSpectrum(_clamped_squares(s)), u, vh.T


def _clamped_squares(s: np.ndarray) -> np.ndarray:
    """Squared singular values, those below ``SPECTRUM_CLAMP`` set to zero."""
    values = s * s
    values[values < SPECTRUM_CLAMP] = 0.0
    return values


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
    a = np.asarray(vec_a, dtype=complex)
    b = np.asarray(vec_b, dtype=complex)
    a = a / np.linalg.norm(a)
    b = b / np.linalg.norm(b)
    return PureState(a.size, b.size, np.kron(a, b))


def maximally_entangled(n: int) -> PureState:
    """sum_i |ii> / sqrt(n) on C^n (x) C^n."""
    return PureState.from_coefficient_matrix(np.eye(n) / np.sqrt(n))


def haar_unitary(dim: int, rng=None) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    rng = ensure_rng(rng)
    return _phase_fixed_qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))


def _phase_fixed_qr(z: np.ndarray) -> np.ndarray:
    """Q of z = QR, phases fixed so R's nonzero diagonal is positive (Haar for Gaussian z)."""
    q, r = np.linalg.qr(z)
    d = np.diagonal(r).copy()
    d[d == 0] = 1.0
    return q * (d / np.abs(d))


def random_pure_state(dim_a: int, dim_b: int, rng=None) -> PureState:
    """Haar-uniform pure state from a normalized complex Gaussian vector."""
    rng = ensure_rng(rng)
    z = rng.normal(size=dim_a * dim_b) + 1j * rng.normal(size=dim_a * dim_b)
    return PureState(dim_a, dim_b, z / np.linalg.norm(z))


def random_density_matrix(dim: int, rng=None, rank=None) -> DensityMatrix:
    """Unit-trace Wishart matrix G G^dag / tr with G a dim x rank Gaussian."""
    rng = ensure_rng(rng)
    rank = dim if rank is None else rank
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
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
