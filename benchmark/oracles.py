"""Independent reference computations for the benchmark's correctness checks.

Every function here uses only numpy, scipy and the standard library and is
written from the textbook definition, never from entmono's code: Renyi
entropies from ``numpy.linalg.eigvalsh`` of a reduced state, Wootters'
two-qubit entanglement of formation via the concurrence (PRL 80, 2245
(1998)), binomial tails from ``scipy.special.bdtr`` (the regularized
incomplete beta function), exact small-N level sums with ``math.comb``, and an a-priori bracket for the finite-N dilution step.
It also draws the random states the workloads use as inputs.  Nothing in
this module imports entmono.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import bdtr

# Spectrum entries at or below this count as zero for the order-0 entropy,
# the convention the README states for the whole library.
ZERO_CUTOFF = 1e-12

_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_YY = np.kron(_SIGMA_Y, _SIGMA_Y)


def renyi_bits(p, alpha: float) -> float:
    """Order-alpha entropy of a probability vector in bits (alpha in [0, 1])."""
    p = np.clip(np.asarray(p, dtype=float).reshape(-1), 0.0, None)
    p = p / p.sum()
    if alpha == 1.0:
        nz = p[p > 0.0]
        return float(-np.sum(nz * np.log2(nz)))
    if alpha == 0.0:
        return math.log2(int(np.count_nonzero(p > ZERO_CUTOFF)))
    return float(np.log2(np.sum(p[p > 0.0] ** alpha)) / (1.0 - alpha))


def binary_entropy(x: float) -> float:
    """H(x) = -x log2 x - (1-x) log2 (1-x), with H(0) = H(1) = 0."""
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def reduced_spectrum(amplitudes, dim_a: int, dim_b: int) -> np.ndarray:
    """Eigenvalues, descending, of the smaller reduced density matrix."""
    m = np.asarray(amplitudes, dtype=complex).reshape(dim_a, dim_b)
    reduced = m @ m.conj().T if dim_a <= dim_b else m.T @ m.conj()
    w = np.clip(np.linalg.eigvalsh(reduced), 0.0, None)
    return np.sort(w / w.sum())[::-1]


def entanglement_bits(amplitudes, dim_a: int, dim_b: int, alpha: float) -> float:
    """E_alpha of a pure state: the Renyi entropy of its reduced state."""
    return renyi_bits(reduced_spectrum(amplitudes, dim_a, dim_b), alpha)


def concurrence(rho) -> float:
    """Wootters' concurrence max(0, l1 - l2 - l3 - l4) of a two-qubit state.

    The l_i are the square roots of the eigenvalues of rho (Y x Y) rho* (Y x Y),
    in decreasing order.  They are computed as the singular values of
    tau_ij = <v_i| Y x Y |v_j*> over the subnormalized eigenvectors v_i of rho
    (Wootters' eq. 5).  This keeps a rank-deficient rho from turning roundoff
    zeros into square roots of size 1e-8.
    """
    w, v = np.linalg.eigh(np.asarray(rho, dtype=complex))
    keep = w > ZERO_CUTOFF
    vecs = v[:, keep] * np.sqrt(w[keep])
    tau = vecs.conj().T @ _YY @ vecs.conj()
    lam = np.sort(np.linalg.svd(tau, compute_uv=False))[::-1]
    return max(0.0, float(lam[0] - lam[1:].sum()))


def eof_two_qubit(rho) -> float:
    """Entanglement of formation of a two-qubit state, in bits."""
    c = min(concurrence(rho), 1.0)
    return binary_entropy(0.5 * (1.0 + math.sqrt(1.0 - c * c)))


def werner_state(p: float) -> np.ndarray:
    """p |Psi-><Psi-| + (1-p) I/4, whose concurrence is max(0, (3p-1)/2)."""
    singlet = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)
    return p * np.outer(singlet, singlet) + (1.0 - p) * np.eye(4) / 4.0


def wishart_density(dim: int, rank: int, rng) -> np.ndarray:
    """Random density matrix G G^dag / tr of exact rank ``rank``."""
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    m = g @ g.conj().T
    m = 0.5 * (m + m.conj().T)
    return m / np.trace(m).real


def haar_vector(dim: int, rng) -> np.ndarray:
    """Uniformly random unit vector from a normalized complex Gaussian."""
    z = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return z / np.linalg.norm(z)


def ensemble_density(probs, vectors) -> np.ndarray:
    """sum_j p_j |v_j><v_j|."""
    dim = len(vectors[0])
    acc = np.zeros((dim, dim), dtype=complex)
    for p, v in zip(probs, vectors):
        v = np.asarray(v, dtype=complex)
        acc += p * np.outer(v, v.conj())
    return acc


def ensemble_average(probs, vectors, dim_a: int, dim_b: int, alpha: float) -> float:
    """sum_j p_j E_alpha(v_j), each term from eigvalsh of the reduced state."""
    return float(sum(p * entanglement_bits(v, dim_a, dim_b, alpha)
                     for p, v in zip(probs, vectors)))


def eigen_ensemble_average(rho, dim_a: int, dim_b: int, alpha: float) -> float:
    """Average E_alpha over rho's eigen-ensemble: the roof search's first start."""
    w, v = np.linalg.eigh(np.asarray(rho, dtype=complex))
    keep = w > ZERO_CUTOFF
    return ensemble_average(w[keep], list(v[:, keep].T), dim_a, dim_b, alpha)


def binomial_tail(r, n: int, b: float):
    """T = P[Binomial(n, b) <= r]: the retained mass of a truncation at level r.

    ``bdtr`` evaluates it as an incomplete beta function, not as a sum of
    level weights, and ``scipy.special`` is already loaded by entmono, so
    the check adds nothing to the run's resident memory.
    """
    return bdtr(np.asarray(r).astype(np.int64), n, b)


def exact_levels(n: int, r: int, a: float, b: float, alphas) -> dict:
    """Truncation quantities by direct summation over levels 0..r with math.comb.

    Level l holds C(n, l) squared coefficients a^(n-l) b^l; after truncation
    they are renormalized by the retained mass T.  Returns T, M = log2 of the
    retained count, and the per-copy e1 and e_alpha of the renormalized state.
    Only sensible for small n, where every term is an ordinary float.
    """
    counts = [math.comb(n, l) for l in range(r + 1)]
    probs = [a ** (n - l) * b ** l for l in range(r + 1)]
    tail = math.fsum(c * p for c, p in zip(counts, probs))
    lam = [p / tail for p in probs]
    e1 = -math.fsum(c * x * math.log2(x) for c, x in zip(counts, lam)) / n
    per_alpha = {
        alpha: math.log2(math.fsum(c * x ** alpha for c, x in zip(counts, lam))) / (n * (1.0 - alpha))
        for alpha in alphas
    }
    return {"T": tail, "M": math.log2(sum(counts)), "e1": e1, "e_alpha": per_alpha}


def _inverse_binary_entropy(h: float) -> float:
    """The x in [0, 1/2] with H(x) = h, by bisection (H increases there)."""
    lo, hi = 0.0, 0.5
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if binary_entropy(mid) < h:
            lo = mid
        else:
            hi = mid
    return hi


def x_star_bracket(b: float, n: int):
    """Interval that must hold the finite-N dilution step location.

    The step is r/n for the smallest level cutoff r whose retained count
    sum_{l<=r} C(n, l) reaches 2^(n H(b)).  Since that sum is at most
    2^(n H(r/n)) for r/n <= 1/2, the step is no lower than b.  Since
    C(n, k) >= 2^(n H(k/n)) / (n + 1), the step is below
    H^{-1}(H(b) + log2(n + 1)/n) + 1/n.  The width tends to 0 as log(n)/n.
    """
    return b, _inverse_binary_entropy(binary_entropy(b) + math.log2(n + 1) / n) + 1.0 / n
