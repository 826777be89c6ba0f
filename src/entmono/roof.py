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
and give results identical to running them one after another.  Each run draws
its proposals in blocks up front, so a step makes no generator call.  A
rotation changes two rows of V, so a step re-evaluates only those two members
of each restart and re-sums the cached terms of the rest.  Where one party is
a qubit, each run scores a window of ``ROOF_LOOKAHEAD`` proposals at once and
takes the first that helps; no result depends on the window, the block size or
the lockstep.  The same descent searches the stacked runs of many states at
once (``_search``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .monotones import MonotoneSpec
from .states import (OUTCOME_FLOOR, SPECTRUM_CLAMP, DensityMatrix, PureState, _haar_isometry, _mixture,
                     _count, _phase_fixed_qr, _schmidt_values, _sq_norms, _within, ensure_rng)

STEP0, STEP_MIN = 0.6, 0.01  # the proposal step size decays exponentially from STEP0 to STEP_MIN
ROOF_DRAW_BLOCK = 256  # each run draws its proposals for this many steps at a time
ROOF_LOOKAHEAD = 8  # proposals a two-row run scores per pass (see _descend)


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
    return _ensemble_isometry(*_eigen_decomposition(rho), ensemble)


def _ensemble_isometry(lam: np.ndarray, evecs: np.ndarray, ensemble) -> np.ndarray:
    """``isometry_of_ensemble`` on the eigenpairs ``_eigen_decomposition`` gives."""
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


def _descend(v: np.ndarray, sqrt_lam, basis_t, spec: MonotoneSpec, dim_a: int, dim_b: int,
             rngs, iterations: int):
    """Random-rotation descent on a stack of runs ``v`` (n, m, rank), updated in place.

    Run k searches the ensembles of its own state: ``sqrt_lam`` (n, 1, rank)
    and ``basis_t`` (n, rank, d) hold the square-rooted eigenvalues and the
    transposed eigenvectors of each run, or broadcast to those shapes.  Step t
    proposes, per run, a complex Givens rotation of two distinct rows by angle
    theta ~ N(0, step_t^2) and phase phi ~ U[0, 2pi), with the step size
    decaying from STEP0 to STEP_MIN, and accepts it on strict decrease of the
    run's left-to-right sum of member terms.  Run k draws its proposals from
    ``rngs[k]``, one ``random((steps, 5))`` per ``ROOF_DRAW_BLOCK`` steps; every
    row is a contiguous slice of the stream mapped element by element, so the
    result does not depend on the block size.

    Where min(dim_a, dim_b) = 2, members are scored by the closed-form two-row
    kernel, whose cost hardly grows with the stack, and each run looks ahead
    (``_look_ahead``): it scores its next ``ROOF_LOOKAHEAD`` proposals from its
    current isometry in one call and takes the first that lowers its sum.  A
    rejected proposal leaves a run unchanged, so every accepted move, and so
    the result, is the one step-by-step search's, for any window.  Other dims
    take one step per call (``_step_together``), since a stacked SVD costs in
    proportion to its stack.  Returns each run's final sum and its sum at 80%
    of the iterations.
    """
    n, m, _ = v.shape
    terms = _member_terms(v, sqrt_lam, basis_t, spec, dim_a, dim_b)
    # accumulate sums each run's terms left to right, in member order; a
    # pairwise sum would round accept decisions differently
    current = np.add.accumulate(terms, axis=1)[:, -1]
    at_checkpoint = current.copy()
    if m < 2:
        return current, at_checkpoint
    state = v, terms, current, at_checkpoint

    def score(rotated):
        """Member terms of the rows ``rotated`` (n, k, rank) of each run."""
        return _member_terms(rotated, sqrt_lam, basis_t, spec, dim_a, dim_b)

    advance = _look_ahead if min(dim_a, dim_b) == 2 else _step_together
    checkpoint = int(0.8 * iterations)
    decay = (STEP_MIN / STEP0) ** (1.0 / max(iterations, 1))
    step = STEP0
    for first in range(0, iterations, ROOF_DRAW_BLOCK):
        size = min(ROOF_DRAW_BLOCK, iterations - first)
        u = np.stack([rng.random((size, 5)) for rng in rngs])
        # the step sizes by repeated multiplication, as a scalar loop would give them
        steps = np.multiply.accumulate(np.r_[step, np.full(size - 1, decay)])
        step = steps[-1] * decay
        # an ordered pair of distinct rows, uniform: u0 picks i, u1 one of the other m - 1
        i = (u[..., 0] * m).astype(np.intp)
        pairs = np.stack([i, (i + 1 + (u[..., 1] * (m - 1)).astype(np.intp)) % m], axis=-1)
        # Box-Muller on 1 - u2 in (0, 1]
        theta = steps * np.sqrt(-2.0 * np.log1p(-u[..., 2])) * np.cos(2.0 * np.pi * u[..., 3])
        cos = np.cos(theta)[..., None]
        sin = (np.sin(theta) * np.exp(1j * (2.0 * np.pi * u[..., 4])))[..., None]
        advance(state, score, (pairs, cos, sin), checkpoint - first)
    return current, at_checkpoint


def _rotated(old, c, s):
    """The rotation (c, s) of each row pair ``old`` (..., 2, rank): c r0 - conj(s) r1 and s r0 + c r1."""
    r0, r1 = old[..., 0, :], old[..., 1, :]
    return np.stack([c * r0 - np.conj(s) * r1, s * r0 + c * r1], axis=-2)


def _step_together(state, score, block, checkpoint):
    """One block of ``_descend``: every run takes step t of the block at once, for each t in turn."""
    v, terms, current, at_checkpoint = state
    pairs, cos, sin = block
    runs = np.arange(len(v))[:, None]
    for t in range(pairs.shape[1]):
        if t == checkpoint:
            at_checkpoint[:] = current
        pair = pairs[:, t]
        rotated = _rotated(v[runs, pair], cos[:, t], sin[:, t])
        trial = terms.copy()
        trial[runs, pair] = score(rotated)
        totals = np.add.accumulate(trial, axis=1)[:, -1]
        accept = totals < current
        v[runs[accept], pair[accept]] = rotated[accept]
        terms[accept] = trial[accept]
        current[accept] = totals[accept]


def _look_ahead(state, score, block, checkpoint):
    """One block of ``_descend``: each run moves past its first improving proposal of a window at a time.

    A pass applies each run's next ``ROOF_LOOKAHEAD`` proposals (fewer at the
    end of the block) to its current isometry, scores the 2 changed members of
    each in one call, forms the trial sums left to right, and moves the run
    past the first proposal that lowers its sum, applying it, or past the whole
    window.  Proposals after the accepted one were scored against a state that
    no longer holds, so the next pass scores them again.  A run that reaches the
    end of the block waits there, its windows empty, for the others.
    """
    v, terms, current, at_checkpoint = state
    pairs, cos, sin = block
    n, size, window = len(v), pairs.shape[1], ROOF_LOOKAHEAD
    offsets = np.arange(window)
    runs = np.arange(n)[:, None]
    position = np.zeros(n, dtype=np.intp)
    while position.min() < size:
        ahead = position[:, None] + offsets
        valid = ahead < size
        ahead = np.minimum(ahead, size - 1)
        pair = pairs[runs, ahead]  # (n, window, 2)
        rotated = _rotated(v[runs[..., None], pair], cos[runs, ahead], sin[runs, ahead])
        trial = np.repeat(terms[:, None], window, axis=1)
        trial[runs[..., None], offsets[:, None], pair] = score(rotated.reshape(n, 2 * window, -1)).reshape(n, window, 2)
        totals = np.add.accumulate(trial, axis=2)[..., -1]
        accept = (totals < current[:, None]) & valid
        hit = accept.any(axis=1)
        # the last proposal this pass consumes: the accepted one, else the window's end (-1 past the block)
        last = np.where(hit, accept.argmax(axis=1), valid.sum(axis=1) - 1)
        if 0 <= checkpoint < size:
            # the sum before the checkpoint step is the sum before this pass
            seen = (position <= checkpoint) & (checkpoint <= position + last)
            at_checkpoint[seen] = current[seen]
        took = last[hit]
        v[runs[hit], pair[hit, took]] = rotated[hit, took]
        terms[hit] = trial[hit, took]
        current[hit] = totals[hit, took]
        position += last + 1


def _search(searches, spec: MonotoneSpec, dim_a: int, dim_b: int, iterations: int) -> list:
    """Per search: its best isometry and sum, whether that run settled, and the run count.

    A search is (lam, evecs, m, restarts, seed, initial_isometries): a state's
    retained eigenpairs and ``roof_estimate``'s own arguments.  In list order,
    each checks its supplied starts, draws one master seed from ``seed`` and
    spawns a generator per run; runs start from the eigen-ensemble, then the
    supplied starts, then Haar isometries, padded with zero rows (members of
    weight 0) to m rows.  The runs of all searches of equal shape (runs, m,
    rank) advance as one stack through ``_descend``.  The best run has the
    lowest sum, ties to the lowest index, and settled when it gained nothing
    measurable over its final fifth of iterations.
    """
    groups = {}  # (runs, m, rank) -> per search: index, generators, per-run starts, sqrt(lam), evecs^T
    for index, (lam, evecs, m, restarts, seed, initial) in enumerate(searches):
        if isinstance(initial, np.ndarray) and initial.ndim != 3:
            raise ValueError("initial_isometries must be a sequence of isometries or a (k, rows, rank) "
                             f"stack of them, got an array of shape {initial.shape}")
        starts = [np.eye(m, lam.size, dtype=complex)]
        starts += [_checked_isometry(v0, lam.size, m) for v0 in (() if initial is None else initial)]
        n_runs = max(restarts, len(starts), 1)
        children = np.random.SeedSequence(ensure_rng(seed).integers(2**63)).spawn(n_runs)
        rngs = [np.random.default_rng(child) for child in children]
        starts += [_haar_isometry(m, lam.size, rng) for rng in rngs[len(starts):]]
        v = np.zeros((n_runs, m, lam.size), dtype=complex)
        for run, start in enumerate(starts):
            v[run, : start.shape[0]] = start
        groups.setdefault(v.shape, []).append((index, rngs, v, [np.sqrt(lam)[None]] * n_runs, [evecs.T] * n_runs))
    results = [None] * len(searches)
    for (n_runs, _, _), group in groups.items():
        indices, rngs, *stacks = zip(*group)
        v, sqrt_lam, basis_t = (np.concatenate(stack) for stack in stacks)
        current, at_checkpoint = _descend(v, sqrt_lam, basis_t, spec, dim_a, dim_b, sum(rngs, []), iterations)
        for index, first in zip(indices, range(0, len(v), n_runs)):
            best = first + int(np.argmin(current[first:first + n_runs]))
            results[index] = (v[best], current[best], at_checkpoint[best] - current[best] <= 1e-9, n_runs)
    return results


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
    rho, and at most m rows; m (when given) and the restart and iteration
    counts must be integers, the counts non-negative.

    ``_search`` runs the restarts in lockstep through ``_descend``, each on
    its own generator, so the result is identical to running them one after
    another.  A step re-evaluates only the two members its rotation changed
    (a two-row state scores several steps' worth at once, with the same
    result), and the best run's left-to-right sum of member terms is the
    reported value.  ``initial_isometries`` is a sequence of isometries or a
    (k, rows, rank) array of them.
    """
    dim_a, dim_b = _count(dim_a, "dim_a", 1), _count(dim_b, "dim_b", 1)
    if rho.dim != dim_a * dim_b:
        raise ValueError(f"rho has dimension {rho.dim}, expected {dim_a * dim_b}")
    restarts, iterations = _count(restarts, "restarts"), _count(iterations, "iterations")
    lam, evecs = _eigen_decomposition(rho)
    m = lam.size + 2 if m is None else _count(m, "m")
    if m < lam.size:
        raise ValueError(f"ensemble size m={m} is below the rank {lam.size}")
    [(v, value, converged, n_runs)] = _search([(lam, evecs, m, restarts, seed, initial_isometries)],
                                              spec, dim_a, dim_b, iterations)
    return RoofEstimate(value=float(value), ensemble=tuple(_members(v, np.sqrt(lam), evecs.T, dim_a, dim_b)),
                        restarts=n_runs, converged=bool(converged), m=m)
