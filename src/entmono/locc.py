"""Elementary one-party operations and Monte-Carlo monotonicity checks.

A unilocal operation is a set of outcome-labeled Kraus operators acting on a
single party's factor, complete in the sense sum K^dag K <= I (equality when
trace preserving).  This module applies such operations to bipartite states,
implements ancilla addition/dismissal and ensemble forgetting, builds the
two-outcome perturbation measurement that shifts a reduced state by +/- a
small Hermitian traceless delta, and screens candidate monotones against the
averaged-decrease conditions by randomized trial.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .monotones import MonotoneSpec
from .roof import _eigen_decomposition, _ensemble_isometry, _search
from .states import (
    OUTCOME_FLOOR,
    DensityMatrix,
    OutcomeEnsemble,
    PureState,
    _complex_normal,
    _count,
    _first_off_one,
    _kraus_outcome,
    _matrix_of,
    _mixture,
    _phase_fixed_qr,
    _require_distributions,
    _require_unit_norms,
    _schmidt_values,
    _spectrum_rows,
    _sq_norms,
    _to_matrix,
    _trace_out,
    _unit_rows,
    _within,
    ensure_rng,
    haar_unitary,
    random_pure_state,
    schmidt,
)

COMPLETENESS_TOL = 1e-9
MEASUREMENT_TOL = 1e-10
MONOTONICITY_TOL = 1e-9  # a C1/C2 margin below -MONOTONICITY_TOL is a violation
C1_BLOCK = 128  # the screens run this many trials at a time; check_c1 stacks a block's linear algebra


@dataclass(frozen=True)
class UnilocalOperation:
    """Outcome-labeled Kraus operators acting on one party's space.

    Every operator must map the same input dimension to the same output
    dimension.  Completeness sum K^dag K <= I is enforced at construction.
    """

    party: str
    outcomes: tuple

    def __post_init__(self):
        if self.party not in ("A", "B"):
            raise ValueError(f"party must be 'A' or 'B', got {self.party!r}")
        outcomes = []
        for label, ops in self.outcomes:
            ops = tuple(np.asarray(op, dtype=complex) for op in ops)
            if not ops:
                raise ValueError(f"outcome {label!r} has no Kraus operators")
            outcomes.append((str(label), ops))
        outcomes = tuple(outcomes)
        object.__setattr__(self, "outcomes", outcomes)
        shapes = {op.shape for _, ops in outcomes for op in ops}
        if len({s[1] for s in shapes}) != 1 or len({s[0] for s in shapes}) != 1:
            raise ValueError(f"all Kraus operators must share one shape, got {shapes}")
        if not all(np.isfinite(op).all() for _, ops in outcomes for op in ops):
            raise ValueError("non-finite Kraus operator")
        total = sum(op.conj().T @ op for _, ops in outcomes for op in ops)
        object.__setattr__(self, "_tp", bool(_trace_preserving(total)))

    @property
    def dim_in(self) -> int:
        return self.outcomes[0][1][0].shape[1]

    @property
    def dim_out(self) -> int:
        return self.outcomes[0][1][0].shape[0]

    @property
    def is_trace_preserving(self) -> bool:
        return self._tp


def _trace_preserving(total: np.ndarray):
    """Completeness of a stack (..., d, d) of sums K^dag K: True where the sum is the identity.

    Raises unless every sum is Hermitian and at most the identity, both within
    ``COMPLETENESS_TOL``.
    """
    gap = np.eye(total.shape[-1]) - total
    gap_h = np.swapaxes(gap.conj(), -1, -2)
    if not _within(gap - gap_h, COMPLETENESS_TOL):
        raise ValueError("completeness violation: sum K^dag K is not Hermitian")
    if not np.min(np.linalg.eigvalsh(0.5 * (gap + gap_h))) >= -COMPLETENESS_TOL:
        raise ValueError("completeness violation: sum K^dag K exceeds the identity")
    return np.max(np.abs(gap), axis=(-2, -1)) <= COMPLETENESS_TOL


def unilocal_unitary(party: str, u) -> UnilocalOperation:
    """Single-outcome reversible operation (a local basis change)."""
    return UnilocalOperation(party, (("u", (np.asarray(u, dtype=complex),)),))


def projective_measurement(party: str, dim: int, projectors=None) -> UnilocalOperation:
    """Complete von Neumann measurement; defaults to the computational basis."""
    dim = _count(dim, "dim", 1)
    if projectors is None:
        projectors = [np.outer(e := np.eye(dim)[k], e.conj()) for k in range(dim)]
    return UnilocalOperation(party, tuple((str(k), (p,)) for k, p in enumerate(projectors)))


def apply_unilocal(state, op: UnilocalOperation, dim_a=None, dim_b=None) -> OutcomeEnsemble:
    """Apply a unilocal operation, returning the outcome ensemble.

    Pure inputs with single-Kraus outcomes stay pure; for them each K acts on
    the coefficient matrix M (K M for party A, M K^T for party B).  Outcomes
    below the ``OUTCOME_FLOOR`` probability are dropped; for trace-preserving
    operations the probabilities are renormalized when accumulated drift
    exceeds 1e-12.  A lossy operation (total outcome mass short of 1 beyond
    tolerance) is rejected, since the result would not be a proper ensemble.
    """
    pure = isinstance(state, PureState)
    if pure:
        # a pure input never builds its density matrix
        m, dim_a, dim_b = state.coefficient_matrix, state.dim_a, state.dim_b
    else:
        mat, (dim_a, dim_b) = _to_matrix(state, dim_a, dim_b)
    on_a = op.party == "A"
    dim = dim_a if on_a else dim_b
    if op.dim_in != dim:
        raise ValueError(f"dimension mismatch: operation expects dim_{op.party.lower()}={op.dim_in}, "
                         f"state has {dim}")
    out_a, out_b = (op.dim_out, dim_b) if on_a else (dim_a, op.dim_out)
    # A pure input is the one-column map C -> H: each Kraus operator K gives
    # the column (K (x) I) psi, computed on the coefficient matrix M, and
    # several columns sum to a mixed outcome.
    probs, states = [], []
    for _, ops in op.outcomes:
        if pure and len(ops) == 1:
            v = _kraus_products(ops[0], m, on_a)
            p = float(_sq_norms(v.reshape(-1)))
            out = PureState(out_a, out_b, v / np.sqrt(p)) if p >= OUTCOME_FLOOR else None
        elif pure:
            columns = [_kraus_products(k, m, on_a).reshape(-1, 1) for k in ops]
            out, p = _kraus_outcome(np.ones((1, 1)), columns)
        else:
            ops = [np.kron(k, np.eye(dim_b)) if on_a else np.kron(np.eye(dim_a), k) for k in ops]
            out, p = _kraus_outcome(mat, ops)
        probs.append(0.0 if out is None else p)
        states.append(out)
    weights = _outcome_weights(np.array(probs), op.is_trace_preserving)
    return OutcomeEnsemble(tuple((float(w), s) for w, s in zip(weights, states) if s is not None))


def _kraus_products(kraus: np.ndarray, m: np.ndarray, on_a: bool) -> np.ndarray:
    """K M (party A) or M K^T (party B): Kraus operators on coefficient matrices; stacks broadcast."""
    return kraus @ m if on_a else m @ np.swapaxes(kraus, -1, -2)


def _outcome_weights(p: np.ndarray, trace_preserving) -> np.ndarray:
    """Settled outcome probabilities along the last axis, with dropped outcomes given as 0.

    Each total is summed left to right.  A total off 1 by more than 1e-9 means
    the operation loses weight on this input and raises; where the operation
    is trace preserving, a total off 1 by more than 1e-12 is renormalized.
    """
    total = np.add.accumulate(p, axis=-1)[..., -1:]
    lossy = _first_off_one(total, 1e-9)
    if lossy is not None:
        raise ValueError(
            f"outcome probabilities sum to {lossy!r}; the operation is not trace preserving on this input"
        )
    drift = np.asarray(trace_preserving)[..., None] & (abs(total - 1.0) > 1e-12)
    return np.where(drift, p / total, p)


def add_ancilla(state, party: str, ancilla, dim_a=None, dim_b=None) -> DensityMatrix:
    """Tensor an uncorrelated ancilla onto one party's factor.

    For party "A" the new ordering is (A, anc) | B, for party "B" it is
    A | (B, anc); in both cases the ancilla is the inner (fastest-varying)
    index of the extended factor.
    """
    rho, (dim_a, dim_b) = _to_matrix(state, dim_a, dim_b)
    anc = _matrix_of(ancilla)
    dq = anc.shape[0]
    if party == "B":
        return DensityMatrix(dim_a * dim_b * dq, np.kron(rho, anc))
    if party != "A":
        raise ValueError(f"party must be 'A' or 'B', got {party!r}")
    r4 = rho.reshape(dim_a, dim_b, dim_a, dim_b)
    out = np.einsum("ijkl,qr->iqjkrl", r4, anc)
    d = dim_a * dq * dim_b
    return DensityMatrix(d, out.reshape(d, d))


def dismiss_part(state, dims, axis: int) -> DensityMatrix:
    """Partial trace over one declared tensor factor.

    ``dims`` is the full factorization of the state's space; ``axis`` selects
    the factor to trace out.
    """
    rho = _matrix_of(state)
    dims = tuple(_count(d, "factor dimension", 1) for d in dims)
    if np.prod(dims) != rho.shape[0]:
        raise ValueError(f"unknown factor split: prod{dims} != matrix dimension {rho.shape[0]}")
    if not _count(axis, "axis") < len(dims):
        raise ValueError(f"unknown factor: axis {axis} outside the {len(dims)}-factor split")
    return _trace_out(rho, dims, axis)


def forget(ensemble: OutcomeEnsemble) -> DensityMatrix:
    """Drop the outcome record: the ensemble average sum q_k rho_k."""
    acc = _mixture(ensemble)
    return DensityMatrix(acc.shape[0], acc)


def _psd_sqrt(mat: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(mat)
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


@dataclass(frozen=True)
class PerturbationMeasurement:
    """Two-outcome measurement on B shifting Alice's reduced state by +/- delta.

    o1, o2 act on B's full space; tau is the Hermitian generator with
    spectral norm below 1, so (I +/- tau)/2 are both positive.
    """

    o1: np.ndarray
    o2: np.ndarray
    tau: np.ndarray

    def __post_init__(self):
        o1 = np.asarray(self.o1, dtype=complex)
        o2 = np.asarray(self.o2, dtype=complex)
        tau = np.asarray(self.tau, dtype=complex)
        object.__setattr__(self, "o1", o1)
        object.__setattr__(self, "o2", o2)
        object.__setattr__(self, "tau", tau)
        if not _within(tau - tau.conj().T, MEASUREMENT_TOL):
            raise ValueError("tau is not Hermitian")
        if not np.max(np.abs(np.linalg.eigvalsh(tau))) < 1.0 + 1e-12:
            raise ValueError("I +/- tau is not positive semidefinite")
        if not _within(o1.conj().T @ o1 + o2.conj().T @ o2 - np.eye(o1.shape[0]), MEASUREMENT_TOL):
            raise ValueError("O1^dag O1 + O2^dag O2 differs from the identity")

    def operation(self) -> UnilocalOperation:
        return UnilocalOperation("B", (("+", (self.o1,)), ("-", (self.o2,))))


def perturbation_measurement(psi: PureState, delta_sigma) -> PerturbationMeasurement:
    """Build the two-outcome measurement realizing sigma -> sigma +/- delta_sigma.

    ``delta_sigma`` is a Hermitian traceless matrix written in psi's Schmidt
    basis of A, with every entry bounded in modulus by min_l alpha_l^2.  The
    state must have full Schmidt rank on A (no vanishing coefficients).  Both
    outcomes occur with probability exactly 1/2.
    """
    spectrum, basis_a, basis_b = schmidt(psi)
    alphas = spectrum.values
    r = spectrum.rank()
    if r < psi.dim_a:
        raise ValueError(
            f"rank deficiency: reduced state on A has {psi.dim_a - r} vanishing eigenvalue(s)"
        )
    delta = np.asarray(delta_sigma, dtype=complex)
    if delta.shape != (r, r):
        raise ValueError(f"delta_sigma must be {r}x{r} in the Schmidt basis, got {delta.shape}")
    if not _within(delta - delta.conj().T, MEASUREMENT_TOL):
        raise ValueError("delta_sigma is not Hermitian")
    if not _within(np.trace(delta), MEASUREMENT_TOL):
        raise ValueError("delta_sigma is not traceless")
    bound = float(np.min(alphas[:r] ** 2))
    worst = float(np.max(np.abs(delta)))
    if not worst < bound:
        raise ValueError(
            f"perturbation bound violated: max |delta_sigma_ij| = {worst!r} >= min alpha^2 = {bound!r}"
        )
    # Element ordering: tau carries the conjugate of delta so the +/- outcomes
    # reduce on A to sigma +/- delta_sigma exactly (not its transpose).
    scale = np.sqrt(np.outer(alphas[:r], alphas[:r]))
    tau_small = delta.conj() / scale
    b = basis_b[:, :r]
    tau = b @ tau_small @ b.conj().T
    tau = 0.5 * (tau + tau.conj().T)
    eye = np.eye(psi.dim_b)
    o1 = _psd_sqrt(0.5 * (eye + tau))
    o2 = _psd_sqrt(0.5 * (eye - tau))
    return PerturbationMeasurement(o1=o1, o2=o2, tau=tau)


def random_unilocal_operation(party: str, dim: int, n_outcomes: int, rng=None) -> UnilocalOperation:
    """Trace-preserving operation with one Kraus operator per outcome.

    Drawn by dilating with an ancilla of size n_outcomes: a Haar unitary on
    party (x) ancilla is applied with the ancilla starting in |0>, and the
    outcome operators are read off the ancilla basis.  Completeness holds by
    construction, and every outcome of a pure input stays pure.
    """
    dim, n_outcomes = _count(dim, "dim", 1), _count(n_outcomes, "n_outcomes", 1)
    kraus = _dilation_kraus(haar_unitary(dim * n_outcomes, ensure_rng(rng)), dim, n_outcomes)
    return UnilocalOperation(party, tuple((str(k), (op,)) for k, op in enumerate(kraus)))


def _dilation_kraus(u: np.ndarray, dim: int, n_outcomes: int) -> np.ndarray:
    """Kraus operators <k|_anc U |0>_anc of unitaries U on party (x) ancilla.

    ``u`` is a stack (..., dim * n, dim * n) with the ancilla as the inner
    index; the result is a view of shape (..., n, dim, dim).
    """
    u = u.reshape(u.shape[:-2] + (dim, n_outcomes, dim, n_outcomes))[..., 0]
    return np.moveaxis(u, -2, -3)


@dataclass(frozen=True)
class TrialRecord:
    """One monotonicity trial: value before, ensemble average after."""

    trial: int
    monotone: str
    before: float
    after_avg: float

    @property
    def margin(self) -> float:
        return self.before - self.after_avg


@dataclass(frozen=True)
class MonotonicityReport:
    """Randomized C1/C2 trials: ``before`` and ``after`` have shape (trials, len(monotones)).

    ``records`` builds the ``TrialRecord``s from the two arrays on first use, trial-major.
    """

    condition: str
    trials: int
    dims: tuple
    seed: int
    tolerance: float
    monotones: tuple
    before: np.ndarray
    after: np.ndarray

    @cached_property
    def records(self) -> list:
        return [TrialRecord(t, name, b, a)
                for t, row in enumerate(zip(self.before.tolist(), self.after.tolist()))
                for name, b, a in zip(self.monotones, *row)]

    @property
    def violations(self) -> list:
        return [rec for rec in self.records if rec.margin < -self.tolerance]

    @property
    def max_violation(self) -> float:
        worst = min((rec.margin for rec in self.records), default=0.0)
        return max(0.0, -worst)

    @property
    def worst_record(self):
        return min(self.records, default=None, key=lambda rec: rec.margin)

    def summary_lines(self) -> list:
        lines = [
            f"condition {self.condition}: {self.trials} trials on dims {self.dims}, "
            f"seed {self.seed}, tolerance {self.tolerance:g}",
            f"violations: {len(self.violations)}",
            f"max violation: {self.max_violation:.6g}",
        ]
        worst = self.worst_record
        if worst is not None:
            lines.append(
                f"tightest trial: #{worst.trial} ({worst.monotone}) before={worst.before:.6g} "
                f"after={worst.after_avg:.6g} margin={worst.margin:.3g}"
            )
        for rec in self.violations[:10]:
            lines.append(
                f"VIOLATION trial #{rec.trial} ({rec.monotone}): before={rec.before!r} "
                f"after={rec.after_avg!r} margin={rec.margin!r}"
            )
        return lines


def _screen(condition, block, monotone, trials, dims, seed) -> MonotonicityReport:
    """The trial loop of both screens, ``C1_BLOCK`` trials at a time.

    ``block(children, dims, specs)`` gives the (before, after) arrays of shape
    (len(children), len(specs)) for the trials of those ``SeedSequence``
    children.  ``spawn`` is prefix-stable, so neither the block size nor the
    trial count changes the first trials.  A non-finite monotone value
    raises, naming the monotone and the trial.
    """
    trials = _count(trials, "trial count")
    specs = [monotone] if isinstance(monotone, MonotoneSpec) else list(monotone)
    dims = (_count(dims[0], "dim_a", 1), _count(dims[1], "dim_b", 1))
    before, after = np.empty((trials, len(specs))), np.empty((trials, len(specs)))
    streams = np.random.SeedSequence(seed)
    for first in range(0, trials, C1_BLOCK):
        last = min(first + C1_BLOCK, trials)
        before[first:last], after[first:last] = block(streams.spawn(last - first), dims, specs)
    bad = np.argwhere(~(np.isfinite(before) & np.isfinite(after)))
    if bad.size:
        raise ValueError(f"monotone {specs[bad[0, 1]].name!r} is not finite on trial #{bad[0, 0]}")
    return MonotonicityReport(condition, trials, dims, seed, MONOTONICITY_TOL,
                              tuple(spec.name for spec in specs), before, after)


def check_c1(monotone, trials: int = 10_000, dims=(4, 4), seed=0) -> MonotonicityReport:
    """Monte-Carlo screen of averaged decrease under unilocal operations.

    Each trial draws a Haar-random pure state and a random trace-preserving
    unilocal operation with 2 to 4 outcomes, which carry a single Kraus operator each (so
    post-states stay pure and the monotone is exactly evaluable), then checks
    mu(psi) >= sum_k p_k mu(psi_k) - ``MONOTONICITY_TOL``.  Accepts a single spec or a
    sequence evaluated on the same trial stream.  Trials use per-trial derived
    seeds, so aggregates are deterministic for a fixed master seed.

    Each block's linear algebra is done on stacks (see ``_c1_block``); every
    record is bitwise the one the per-trial functions give.
    """
    return _screen("C1", _c1_block, monotone, trials, dims, seed)


def _c1_block(children, dims, specs):
    """(before, after) arrays of shape (len(children), len(specs)) for one block of C1 trials.

    Each trial's generator draws, in order: the state's Gaussian vector (as
    ``random_pure_state``), the party, the outcome count, and the Gaussian
    block of the Haar unitary (as ``random_unilocal_operation``).  Then, for
    the whole block: one normalization of the states, one phase-fixed QR and
    one stack of Kraus products per (party, outcome count) group, one SVD over
    the states and all kept outcomes, one ``g`` call per spec, and the
    after-averages summed left to right from 0 as ``sum`` does.  Every check
    of the per-trial objects is kept, on stacks.
    """
    dim_a, dim_b = dims
    draws = []
    for child in children:
        rng = np.random.default_rng(child)
        z = _complex_normal(rng, dim_a * dim_b)
        on_a = bool(rng.random() < 0.5)
        n_out = int(rng.integers(2, 5))
        dim = dim_a if on_a else dim_b
        draws.append((z, (on_a, n_out), _complex_normal(rng, (dim * n_out, dim * n_out))))
    n = len(draws)
    psi = _unit_rows(np.array([z for z, _, _ in draws]))
    _require_unit_norms(np.sqrt(_sq_norms(psi)))
    m = psi.reshape(n, dim_a, dim_b)

    groups = {}
    for t, (_, key, _) in enumerate(draws):
        groups.setdefault(key, []).append(t)
    # kept outcomes, group by group: their trial, slot 1..n_out, weight and normalized matrix
    trial, slot, weight, mats = [], [], [], [m]
    for (on_a, n_out), idx in groups.items():
        dim = dim_a if on_a else dim_b
        kraus = _dilation_kraus(_phase_fixed_qr(np.array([draws[t][2] for t in idx])), dim, n_out)
        tp = _trace_preserving((np.swapaxes(kraus.conj(), -1, -2) @ kraus).sum(axis=1))
        v = _kraus_products(kraus, m[idx, None], on_a)
        p = _sq_norms(v.reshape(len(idx), n_out, -1))
        kept = p >= OUTCOME_FLOOR
        w = _outcome_weights(np.where(kept, p, 0.0), tp)
        _require_distributions(w)
        rows, k = np.nonzero(kept)
        v = v[kept] / np.sqrt(p[kept])[:, None, None]
        _require_unit_norms(np.sqrt(_sq_norms(v.reshape(len(v), -1))))
        trial.append(np.asarray(idx)[rows])
        slot.append(k + 1)
        weight.append(w[kept])
        mats.append(v)
    trial, slot, weight = (np.concatenate(a) for a in (trial, slot, weight))
    spectra = _spectrum_rows(_schmidt_values(np.concatenate(mats)))

    before, after = np.empty((n, len(specs))), np.empty((n, len(specs)))
    # column 0 is the 0 that sum() starts from; dropped and missing outcomes add 0
    terms = np.zeros((n, slot.max() + 1))
    for j, spec in enumerate(specs):
        values = spec.g(spectra)
        before[:, j] = values[:n]
        terms[trial, slot] = weight * values[n:]
        after[:, j] = np.add.accumulate(terms, axis=1)[:, -1]
    return before, after


def check_c2(monotone, trials: int = 200, dims=(2, 2), seed=0,
             ensemble_range=(2, 3)) -> MonotonicityReport:
    """Monte-Carlo screen of convexity under forgetting, via roof upper bounds.

    Each trial draws a random pure-state ensemble {q_k, psi_k}, its member
    count uniform in ``ensemble_range`` (two integers 1 <= lo <= hi), and checks
    sum q_k mu(psi_k) >= roof_estimate(sum q_k |psi_k><psi_k|) - ``MONOTONICITY_TOL``.
    The trial ensemble itself is handed to the roof search as a starting
    certificate, so the estimate never exceeds the left-hand side by more than
    numerical noise and the check is sound even when the local search stalls.
    Each roof search runs 2 restarts of 200 iterations; a block's searches
    go to one ``roof._search`` per monotone (see ``_c2_block``), and every
    record is bitwise the one the per-trial ``roof_estimate`` gives.
    """
    if not (np.shape(ensemble_range) == (2,) and all(isinstance(k, (int, np.integer)) for k in ensemble_range)
            and 1 <= ensemble_range[0] <= ensemble_range[1]):
        raise ValueError(f"ensemble range must be two integers 1 <= lo <= hi, got {ensemble_range!r}")
    return _screen("C2", partial(_c2_block, ensemble_range=ensemble_range), monotone, trials, dims, seed)


def _c2_block(children, dims, specs, ensemble_range):
    """(before, after) arrays of shape (len(children), len(specs)) for one block of C2 trials.

    Each trial's generator draws, in order: the member count, the members (as
    ``random_pure_state``), the Dirichlet weights, and then, inside
    ``roof._search``, one master seed per spec.  One eigendecomposition per
    trial gives its own isometry and its searches; one ``_search`` per spec
    covers the block, so every record is bitwise the one the per-trial
    ``roof_estimate(..., seed=rng, restarts=2)`` gives.
    """
    lo, hi = ensemble_range
    before = np.empty((len(children), len(specs)))
    searches = []  # per trial: (lam, evecs, m, restarts, generator, [own isometry])
    for t, child in enumerate(children):
        rng = np.random.default_rng(child)
        k = int(rng.integers(lo, hi + 1))
        members = [random_pure_state(*dims, rng) for _ in range(k)]
        probs = rng.dirichlet(np.ones(k))
        lam, evecs = _eigen_decomposition(DensityMatrix(dims[0] * dims[1], _mixture(zip(probs, members))))
        own = _ensemble_isometry(lam, evecs, zip(probs, members))
        searches.append((lam, evecs, max(own.shape[0], 4), 2, rng, [own]))
        before[t] = [sum(p * spec(psi) for p, psi in zip(probs, members)) for spec in specs]
    after = np.empty_like(before)
    for j, spec in enumerate(specs):
        after[:, j] = [value for _, value, *_ in _search(searches, spec, *dims, 200)]
    return before, after
