"""Convex-roof extension of pure-state monotones, as a certified upper bound.

Every size-m pure-state ensemble realizing a rank-r density matrix arises
from an m x r matrix V with orthonormal columns applied to the scaled
eigenvectors: |phi_j> = sum_i V_ji sqrt(lambda_i) |e_i>.  The roof value is
the minimum of the ensemble average of the monotone over all such V; we
search that manifold with a derivative-free random-rotation descent and
return the best ensemble found.  The result is always a true upper bound on
the roof (it is the exact average of an explicit realizing ensemble); global
optimality is never claimed.

The restarts of one search advance in lockstep, each on its own generator,
and give results identical to running them one after another.  A rotation
changes two rows of V, so a step re-evaluates only those two members of each
restart and re-sums the cached terms of the rest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .monotones import MonotoneSpec
from .states import (OUTCOME_FLOOR, SPECTRUM_CLAMP, DensityMatrix, PureState, _haar_isometry, _mixture,
                     _phase_fixed_qr, _schmidt_values, _sq_norms, _within, ensure_rng)

STEP0, STEP_MIN = 0.6, 0.01  # the proposal step size decays exponentially from STEP0 to STEP_MIN


@dataclass(frozen=True)
class RoofEstimate:
    """Upper bound on the convex roof, with the realizing ensemble as certificate."""

    value: float
    ensemble: tuple
    restarts: int
    converged: bool
    m: int

    def reconstruction(self) -> np.ndarray:
        """The density matrix sum_j p_j |psi_j><psi_j| the ensemble realizes."""
        return _mixture(self.ensemble)


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
    return _members(_checked_isometry(v, lam.size), np.sqrt(lam), evecs.T, dim_a, dim_b)


def _checked_isometry(v, rank: int, cap=None) -> np.ndarray:
    """``v`` as a complex array, checked to have ``rank`` orthonormal columns and at most ``cap`` rows."""
    v = np.asarray(v, dtype=complex)
    if v.ndim != 2 or v.shape[1] != rank:
        raise ValueError(f"isometry must have {rank} columns (the rank of rho), got {v.shape}")
    if v.shape[0] < rank:
        raise ValueError(f"ensemble size {v.shape[0]} is below the rank {rank}")
    if cap is not None and v.shape[0] > cap:
        raise ValueError(f"ensemble size {v.shape[0]} exceeds the cap m={cap}")
    if not _within(v.conj().T @ v - np.eye(rank), 1e-10):
        raise ValueError("matrix columns are not orthonormal: V^dag V != I")
    return v


def _weighted_rows(v: np.ndarray, sqrt_lam: np.ndarray, evecs_t: np.ndarray):
    """Unnormalized members phi_j (the rows of the stacked isometries ``v``) and their weights."""
    phi = (v * sqrt_lam) @ evecs_t
    return phi, _sq_norms(phi)


def _members(v: np.ndarray, sqrt_lam: np.ndarray, evecs_t: np.ndarray, dim_a: int, dim_b: int):
    """(weight, PureState) per member that ``v`` realizes, except those below ``OUTCOME_FLOOR``."""
    phi, p = _weighted_rows(v, sqrt_lam, evecs_t)
    return [(float(w), PureState(dim_a, dim_b, row / np.sqrt(w)))
            for row, w in zip(phi, p) if w >= OUTCOME_FLOOR]


def isometry_of_ensemble(rho: DensityMatrix, ensemble) -> np.ndarray:
    """Inverse map: the isometry whose rows encode a given realizing ensemble."""
    lam, evecs = _eigen_decomposition(rho)
    rows = [evecs.conj().T @ (np.sqrt(p) * psi.amplitudes) / np.sqrt(lam) for p, psi in ensemble]
    # Re-orthonormalize against roundoff in the supplied ensemble.
    return _phase_fixed_qr(np.array(rows))


def _member_terms(v: np.ndarray, sqrt_lam: np.ndarray, evecs_t: np.ndarray, spec: MonotoneSpec,
                  dim_a: int, dim_b: int) -> np.ndarray:
    """p_j * g(spectrum_j) for each row j of the stacked isometries ``v`` (..., k, rank).

    Rows below ``OUTCOME_FLOOR`` give +0.0.  Weights and units are those of
    ``_members`` and the spectra bitwise those of a one-member evaluation, so
    summing the terms of one isometry left to right gives its ensemble average.
    """
    phi, p = _weighted_rows(v, sqrt_lam, evecs_t)
    keep = p >= OUTCOME_FLOOR
    terms = np.zeros(p.shape)
    if keep.any():
        units = phi[keep] / np.sqrt(p[keep])[:, None]
        terms[keep] = p[keep] * spec.g(_schmidt_values(units.reshape(-1, dim_a, dim_b)))
    return terms


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
    Supplied isometries must have orthonormal columns, one per eigenvector of
    rho, and at most m rows; restart and iteration counts must be non-negative.

    All restarts advance in lockstep, each drawing from its own generator, so
    the result is identical to running them one after another.  Each restart
    caches its members' terms p_j g_j; a step re-evaluates only the two
    members its rotation changed, with one stacked SVD and one ``spec.g``
    call across all restarts, and sums the terms left to right in member
    order.  The best run's sum is the reported value.
    """
    if rho.dim != dim_a * dim_b:
        raise ValueError(f"rho has dimension {rho.dim}, expected {dim_a * dim_b}")
    lam, evecs = _eigen_decomposition(rho)
    rank = lam.size
    m = rank + 2 if m is None else int(m)
    if m < rank:
        raise ValueError(f"ensemble size m={m} is below the rank {rank}")
    if restarts < 0 or iterations < 0:
        raise ValueError(f"restart and iteration counts must be non-negative, got "
                         f"restarts={restarts!r}, iterations={iterations!r}")

    sqrt_lam = np.sqrt(lam)
    basis_t = evecs.T
    master = ensure_rng(seed)
    starts = [np.eye(m, rank, dtype=complex)]
    starts += [_checked_isometry(v0, rank, m) for v0 in initial_isometries or ()]
    n_runs = max(restarts, len(starts), 1)
    children = np.random.SeedSequence(master.integers(2**63)).spawn(n_runs)
    rngs = [np.random.default_rng(child) for child in children]
    starts += [_haar_isometry(m, rank, rng) for rng in rngs[len(starts):]]
    # Shorter starts are padded with zero rows, which are members of weight 0.
    v = np.zeros((n_runs, m, rank), dtype=complex)
    for run, start in enumerate(starts):
        v[run, : start.shape[0]] = start

    terms = _member_terms(v, sqrt_lam, basis_t, spec, dim_a, dim_b)
    # accumulate sums each run's terms left to right, in member order; a
    # pairwise sum would round accept decisions differently
    current = np.add.accumulate(terms, axis=1)[:, -1]
    at_checkpoint = current
    checkpoint = int(0.8 * iterations)
    if m >= 2:
        runs = np.arange(n_runs)[:, None]
        pairs = np.empty((n_runs, 2), dtype=np.intp)
        theta, angle = np.empty(n_runs), np.empty(n_runs)
        decay = (STEP_MIN / STEP0) ** (1.0 / max(iterations, 1))
        step = STEP0
        for it in range(iterations):
            if it == checkpoint:
                at_checkpoint = current
            for run, rng in enumerate(rngs):
                pairs[run] = rng.choice(m, size=2, replace=False)
                theta[run] = rng.normal(scale=step)
                angle[run] = rng.uniform(0.0, 2.0 * np.pi)
            c = np.cos(theta)[:, None]
            s = (np.sin(theta) * np.exp(1j * angle))[:, None]
            old = v[runs, pairs]
            rotated = np.stack([c * old[:, 0] - np.conj(s) * old[:, 1],
                                s * old[:, 0] + c * old[:, 1]], axis=1)
            trial = terms.copy()
            trial[runs, pairs] = _member_terms(rotated, sqrt_lam, basis_t, spec, dim_a, dim_b)
            totals = np.add.accumulate(trial, axis=1)[:, -1]
            accept = totals < current
            v[runs[accept], pairs[accept]] = rotated[accept]
            terms[accept] = trial[accept]
            current = np.where(accept, totals, current)
            step *= decay

    best = int(np.argmin(current))  # ties go to the lowest-index restart
    members = _members(v[best], sqrt_lam, basis_t, dim_a, dim_b)
    # Settled when the winning restart gained nothing measurable over its
    # final fifth of iterations.
    converged = at_checkpoint[best] - current[best] <= 1e-9
    return RoofEstimate(value=float(current[best]), ensemble=tuple(members), restarts=n_runs,
                        converged=bool(converged), m=m)
