"""Convex-roof extension of pure-state monotones, as a certified upper bound.

Every size-m pure-state ensemble realizing a rank-r density matrix arises
from an m x r matrix V with orthonormal columns applied to the scaled
eigenvectors: |phi_j> = sum_i V_ji sqrt(lambda_i) |e_i>.  The roof value is
the minimum of the ensemble average of the monotone over all such V; we
search that manifold with a derivative-free random-rotation descent and
return the best ensemble found.  The result is always a true upper bound on
the roof (it is the exact average of an explicit realizing ensemble); global
optimality is never claimed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .monotones import MonotoneSpec
from .states import (OUTCOME_FLOOR, SPECTRUM_CLAMP, DensityMatrix, PureState, _clamped_squares,
                     _phase_fixed_qr, ensure_rng)

STEP0, STEP_MIN = 0.6, 0.01  # the proposal step size decays exponentially from STEP0 to STEP_MIN


@dataclass(frozen=True)
class RoofEstimate:
    """Upper bound on the convex roof, with the realizing ensemble as certificate."""

    value: float
    ensemble: tuple
    restarts: int
    converged: bool
    m: int

    def reconstruction(self, dim: int) -> np.ndarray:
        acc = np.zeros((dim, dim), dtype=complex)
        for p, psi in self.ensemble:
            acc += p * np.outer(psi.amplitudes, psi.amplitudes.conj())
        return acc


def _eigen_decomposition(rho: DensityMatrix):
    """Eigenpairs above the rank cutoff, descending, with a deterministic phase fix."""
    w, v = np.linalg.eigh(rho.entries)
    order = np.argsort(w)[::-1]
    w, v = w[order], v[:, order]
    keep = w > SPECTRUM_CLAMP
    w, v = w[keep], v[:, keep]
    for k in range(v.shape[1]):
        pivot = int(np.argmax(np.abs(v[:, k])))
        phase = v[pivot, k] / abs(v[pivot, k])
        v[:, k] = v[:, k] / phase
    return w, v


def ensemble_from_isometry(rho: DensityMatrix, v, dim_a: int, dim_b: int):
    """Pure-state ensemble realizing rho from an isometry on its eigen-ensemble.

    ``v`` must have orthonormal columns, one per retained eigenvector of rho,
    and at least as many rows.  Members with negligible weight are dropped.
    """
    lam, evecs = _eigen_decomposition(rho)
    v = np.asarray(v, dtype=complex)
    if v.ndim != 2 or v.shape[1] != lam.size:
        raise ValueError(f"isometry must have {lam.size} columns (the rank of rho), got {v.shape}")
    if v.shape[0] < lam.size:
        raise ValueError(f"ensemble size {v.shape[0]} is below the rank {lam.size}")
    gram = v.conj().T @ v
    if np.max(np.abs(gram - np.eye(lam.size))) > 1e-10:
        raise ValueError("matrix columns are not orthonormal: V^dag V != I")
    return [(p, PureState(dim_a, dim_b, unit)) for p, unit in _members(v, np.sqrt(lam), evecs.T)]


def _members(v: np.ndarray, sqrt_lam: np.ndarray, evecs_t: np.ndarray):
    """Yield (weight, unit vector) per member that ``v`` realizes, except those below ``OUTCOME_FLOOR``."""
    phi = (v * sqrt_lam[None, :]) @ evecs_t
    for row in phi:
        p = float(np.real(np.vdot(row, row)))
        if p >= OUTCOME_FLOOR:
            yield p, row / np.sqrt(p)


def isometry_of_ensemble(rho: DensityMatrix, ensemble) -> np.ndarray:
    """Inverse map: the isometry whose rows encode a given realizing ensemble."""
    lam, evecs = _eigen_decomposition(rho)
    rows = []
    for p, psi in ensemble:
        phi = np.sqrt(p) * psi.amplitudes
        rows.append(evecs.conj().T @ phi / np.sqrt(lam))
    # Re-orthonormalize against roundoff in the supplied ensemble.
    return _phase_fixed_qr(np.array(rows))


def _random_isometry(m: int, r: int, rng) -> np.ndarray:
    return _phase_fixed_qr(rng.normal(size=(m, r)) + 1j * rng.normal(size=(m, r)))


def _eye_isometry(m: int, r: int) -> np.ndarray:
    v = np.zeros((m, r), dtype=complex)
    v[:r, :r] = np.eye(r)
    return v


def roof_estimate(rho: DensityMatrix, dim_a: int, dim_b: int, spec: MonotoneSpec,
                  m=None, restarts: int = 8, iterations: int = 600, seed=0,
                  initial_isometries=None) -> RoofEstimate:
    """Best ensemble-average of ``spec`` over realizing ensembles found by local search.

    Proposals are small complex Givens rotations mixing two random rows of the
    isometry, with an exponentially decaying step size; moves are accepted on
    strict decrease.  Restart 0 always starts from the eigen-ensemble, every
    supplied initial isometry gets its own run (even past the restart budget),
    and the remaining restarts are random.  Restarts use derived seeds, so the
    best value is non-increasing in the restart count for a fixed master seed.
    """
    if rho.dim != dim_a * dim_b:
        raise ValueError(f"rho has dimension {rho.dim}, expected {dim_a * dim_b}")
    lam, evecs = _eigen_decomposition(rho)
    rank = lam.size
    if m is None:
        m = rank + 2
    m = int(m)
    if m < rank:
        raise ValueError(f"ensemble size m={m} is below the rank {rank}")

    sqrt_lam = np.sqrt(lam)
    basis_t = evecs.T

    def objective(v: np.ndarray) -> float:
        members = list(_members(v, sqrt_lam, basis_t))
        units = np.array([unit for _, unit in members]).reshape(-1, dim_a, dim_b)
        vals = _clamped_squares(np.linalg.svd(units, compute_uv=False))
        values = spec.g(vals / vals.sum(axis=-1, keepdims=True))
        # one term at a time in member order; a pairwise sum would round accept decisions differently
        return sum(p * float(value) for (p, _), value in zip(members, values))

    starts = [_eye_isometry(m, rank)]
    for v0 in initial_isometries or ():
        v0 = np.asarray(v0, dtype=complex)
        if v0.shape[0] < m:
            pad = np.zeros((m, rank), dtype=complex)
            pad[: v0.shape[0], :] = v0
            v0 = pad
        starts.append(v0)

    master = ensure_rng(seed)
    n_runs = max(restarts, len(starts), 1)
    children = np.random.SeedSequence(master.integers(2**63)).spawn(n_runs)

    best_v = None
    best_val = np.inf
    best_tail_gain = 0.0
    checkpoint = int(0.8 * iterations)
    for ridx in range(n_runs):
        rng = np.random.default_rng(children[ridx])
        v = starts[ridx].copy() if ridx < len(starts) else _random_isometry(m, rank, rng)
        current = objective(v)
        at_checkpoint = current
        if m >= 2:
            decay = (STEP_MIN / STEP0) ** (1.0 / max(iterations, 1))
            step = STEP0
            for it in range(iterations):
                if it == checkpoint:
                    at_checkpoint = current
                p_row, q_row = rng.choice(m, size=2, replace=False)
                theta = rng.normal(scale=step)
                phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
                c, s = np.cos(theta), np.sin(theta) * phase
                trial = v.copy()
                trial[p_row] = c * v[p_row] - np.conj(s) * v[q_row]
                trial[q_row] = s * v[p_row] + c * v[q_row]
                val = objective(trial)
                if val < current:
                    v, current = trial, val
                step *= decay
        if current < best_val:
            best_val, best_v = current, v.copy()
            best_tail_gain = at_checkpoint - current

    members = ensemble_from_isometry(rho, best_v, dim_a, dim_b)
    value = float(sum(p * spec(psi) for p, psi in members))
    # Settled when the winning restart gained nothing measurable over its
    # final fifth of iterations.
    converged = best_tail_gain <= 1e-9
    return RoofEstimate(value=value, ensemble=tuple(members), restarts=n_runs,
                        converged=converged, m=m)
