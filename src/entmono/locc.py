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

from dataclasses import dataclass, field

import numpy as np

from .monotones import MonotoneSpec
from .states import (
    OUTCOME_FLOOR,
    DensityMatrix,
    OutcomeEnsemble,
    PureState,
    _kraus_outcome,
    _matrix_of,
    density_of,
    ensure_rng,
    haar_unitary,
    random_pure_state,
    schmidt,
)

COMPLETENESS_TOL = 1e-9
MEASUREMENT_TOL = 1e-10


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
        total = sum(op.conj().T @ op for _, ops in outcomes for op in ops)
        gap = np.eye(self.dim_in) - total
        if np.max(np.abs(gap - gap.conj().T)) > COMPLETENESS_TOL:
            raise ValueError("completeness violation: sum K^dag K is not Hermitian")
        if float(np.min(np.linalg.eigvalsh(0.5 * (gap + gap.conj().T)))) < -COMPLETENESS_TOL:
            raise ValueError("completeness violation: sum K^dag K exceeds the identity")
        object.__setattr__(self, "_tp", bool(np.max(np.abs(gap)) <= COMPLETENESS_TOL))

    @property
    def dim_in(self) -> int:
        return self.outcomes[0][1][0].shape[1]

    @property
    def dim_out(self) -> int:
        return self.outcomes[0][1][0].shape[0]

    @property
    def is_trace_preserving(self) -> bool:
        return self._tp

    def output_dims(self, dim_a: int, dim_b: int):
        if self.party == "A":
            return self.dim_out, dim_b
        return dim_a, self.dim_out


def unilocal_unitary(party: str, u) -> UnilocalOperation:
    """Single-outcome reversible operation (a local basis change)."""
    return UnilocalOperation(party, (("u", (np.asarray(u, dtype=complex),)),))


def projective_measurement(party: str, dim: int, projectors=None) -> UnilocalOperation:
    """Complete von Neumann measurement; defaults to the computational basis."""
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
        dim_a, dim_b = state.dim_a, state.dim_b
    elif dim_a is None or dim_b is None:
        raise ValueError("dim_a and dim_b are required for density-matrix input")
    on_a = op.party == "A"
    dim = dim_a if on_a else dim_b
    if op.dim_in != dim:
        raise ValueError(f"dimension mismatch: operation expects dim_{op.party.lower()}={op.dim_in}, "
                         f"state has {dim}")
    out_a, out_b = op.output_dims(dim_a, dim_b)
    # A pure input is the one-column map C -> H: each Kraus operator K gives
    # the column (K (x) I) psi, computed on the coefficient matrix M as K M
    # (party A) or M K^T (party B), and several columns sum to a mixed outcome.
    m = state.coefficient_matrix if pure else None
    mat = np.ones((1, 1)) if pure else _matrix_of(state)

    items = []
    for _, ops in op.outcomes:
        if pure:
            ops = [(k @ m if on_a else m @ k.T).reshape(-1, 1) for k in ops]
        else:
            ops = [np.kron(k, np.eye(dim_b)) if on_a else np.kron(np.eye(dim_a), k) for k in ops]
        if pure and len(ops) == 1:
            p = float(np.real(np.vdot(ops[0], ops[0])))
            if p >= OUTCOME_FLOOR:
                items.append((p, PureState(out_a, out_b, ops[0] / np.sqrt(p))))
            continue
        rho, p = _kraus_outcome(mat, ops)
        if rho is not None:
            items.append((p, rho))

    total = sum(p for p, _ in items)
    if abs(total - 1.0) > 1e-9:
        raise ValueError(
            f"outcome probabilities sum to {total!r}; the operation is not trace preserving on this input"
        )
    if op.is_trace_preserving and abs(total - 1.0) > 1e-12:
        items = [(p / total, s) for p, s in items]
    return OutcomeEnsemble(tuple(items))


def add_ancilla(state, party: str, ancilla, dim_a=None, dim_b=None) -> DensityMatrix:
    """Tensor an uncorrelated ancilla onto one party's factor.

    For party "A" the new ordering is (A, anc) | B, for party "B" it is
    A | (B, anc); in both cases the ancilla is the inner (fastest-varying)
    index of the extended factor.
    """
    if isinstance(state, PureState):
        dim_a, dim_b = state.dim_a, state.dim_b
    elif dim_a is None or dim_b is None:
        raise ValueError("dim_a and dim_b are required for density-matrix input")
    rho, anc = _matrix_of(state), _matrix_of(ancilla)
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
    dims = tuple(int(d) for d in dims)
    if int(np.prod(dims)) != rho.shape[0]:
        raise ValueError(f"unknown factor split: prod{dims} != matrix dimension {rho.shape[0]}")
    if not 0 <= axis < len(dims):
        raise ValueError(f"unknown factor: axis {axis} outside the {len(dims)}-factor split")
    n = len(dims)
    r = rho.reshape(dims + dims)
    r = np.trace(r, axis1=axis, axis2=axis + n)
    keep = [d for i, d in enumerate(dims) if i != axis]
    d = int(np.prod(keep)) if keep else 1
    return DensityMatrix(d, r.reshape(d, d))


def forget(ensemble: OutcomeEnsemble) -> DensityMatrix:
    """Drop the outcome record: the ensemble average sum q_k rho_k."""
    acc = None
    dim = None
    for p, state in ensemble:
        mat = _matrix_of(state)
        acc = p * mat if acc is None else acc + p * mat
        dim = mat.shape[0]
    return DensityMatrix(dim, acc)


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
        dim = o1.shape[0]
        gap = o1.conj().T @ o1 + o2.conj().T @ o2 - np.eye(dim)
        if np.max(np.abs(gap)) > MEASUREMENT_TOL:
            raise ValueError("O1^dag O1 + O2^dag O2 differs from the identity")
        if np.max(np.abs(tau - tau.conj().T)) > MEASUREMENT_TOL:
            raise ValueError("tau is not Hermitian")
        eigs = np.linalg.eigvalsh(tau)
        if float(np.max(np.abs(eigs))) >= 1.0 + 1e-12:
            raise ValueError("I +/- tau is not positive semidefinite")

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
    if np.max(np.abs(delta - delta.conj().T)) > MEASUREMENT_TOL:
        raise ValueError("delta_sigma is not Hermitian")
    if abs(complex(np.trace(delta))) > MEASUREMENT_TOL:
        raise ValueError("delta_sigma is not traceless")
    bound = float(np.min(alphas[:r] ** 2))
    worst = float(np.max(np.abs(delta)))
    if worst >= bound:
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
    tau_eigs = np.linalg.eigvalsh(tau)
    if float(np.max(np.abs(tau_eigs))) > 1.0 + 1e-12:
        raise ValueError("I +/- tau is not positive semidefinite")
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
    rng = ensure_rng(rng)
    u = haar_unitary(dim * n_outcomes, rng).reshape(dim, n_outcomes, dim, n_outcomes)
    outcomes = tuple((str(k), (u[:, k, :, 0],)) for k in range(n_outcomes))
    return UnilocalOperation(party, outcomes)


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


@dataclass
class MonotonicityReport:
    """Aggregate of randomized C1/C2 trials for one or more monotones."""

    condition: str
    trials: int
    dims: tuple
    seed: int
    tolerance: float
    records: list = field(default_factory=list)

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


def _as_spec_list(monotone):
    if isinstance(monotone, MonotoneSpec):
        return [monotone]
    return list(monotone)


def check_c1(monotone, trials: int = 10_000, dims=(4, 4), seed=0,
             tolerance: float = 1e-9) -> MonotonicityReport:
    """Monte-Carlo screen of averaged decrease under unilocal operations.

    Each trial draws a Haar-random pure state and a random trace-preserving
    unilocal operation with 2 to 4 outcomes, which carry a single Kraus operator each (so
    post-states stay pure and the monotone is exactly evaluable), then checks
    mu(psi) >= sum_k p_k mu(psi_k) - tolerance.  Accepts a single spec or a
    sequence evaluated on the same trial stream.  Trials use per-trial derived
    seeds, so aggregates are deterministic for a fixed master seed.
    """
    specs = _as_spec_list(monotone)
    dims = (int(dims[0]), int(dims[1]))
    report = MonotonicityReport("C1", trials, dims, seed, tolerance)
    children = np.random.SeedSequence(seed).spawn(trials)
    for t in range(trials):
        rng = np.random.default_rng(children[t])
        psi = random_pure_state(*dims, rng)
        party = "A" if rng.random() < 0.5 else "B"
        n_out = int(rng.integers(2, 5))
        op = random_unilocal_operation(party, dims[0] if party == "A" else dims[1], n_out, rng)
        ensemble = apply_unilocal(psi, op)
        # one stack: the spectrum before, then one per outcome (all of psi's dims)
        stack = np.array([schmidt(psi)[0].values] + [schmidt(s)[0].values for _, s in ensemble])
        for spec in specs:
            values = spec.g(stack)
            after = float(sum(p * float(v) for (p, _), v in zip(ensemble, values[1:])))
            report.records.append(TrialRecord(t, spec.name, float(values[0]), after))
    return report


def check_c2(monotone, trials: int = 200, dims=(2, 2), seed=0, tolerance: float = 1e-9,
             ensemble_range=(2, 3)) -> MonotonicityReport:
    """Monte-Carlo screen of convexity under forgetting, via roof upper bounds.

    Each trial draws a random pure-state ensemble {q_k, psi_k} and checks
    sum q_k mu(psi_k) >= roof_estimate(sum q_k |psi_k><psi_k|) - tolerance.
    The trial ensemble itself is handed to the roof search as a starting
    certificate, so the estimate never exceeds the left-hand side by more than
    numerical noise and the check is sound even when the local search stalls.
    Each roof search runs 2 restarts of 200 iterations.
    """
    from .roof import isometry_of_ensemble, roof_estimate

    specs = _as_spec_list(monotone)
    dims = (int(dims[0]), int(dims[1]))
    report = MonotonicityReport("C2", trials, dims, seed, tolerance)
    children = np.random.SeedSequence(seed).spawn(trials)
    lo, hi = ensemble_range
    for t in range(trials):
        rng = np.random.default_rng(children[t])
        k = int(rng.integers(lo, hi + 1))
        members = [random_pure_state(*dims, rng) for _ in range(k)]
        probs = rng.dirichlet(np.ones(k))
        mixed = sum(p * density_of(psi).entries for p, psi in zip(probs, members))
        rho = DensityMatrix(dims[0] * dims[1], mixed)
        seed_iso = isometry_of_ensemble(rho, list(zip(probs, members)))
        for spec in specs:
            lhs = float(sum(p * spec(psi) for p, psi in zip(probs, members)))
            est = roof_estimate(
                rho, dims[0], dims[1], spec,
                m=max(seed_iso.shape[0], 4), seed=rng,
                restarts=2, iterations=200, initial_isometries=[seed_iso],
            )
            report.records.append(TrialRecord(t, spec.name, lhs, est.value))
    return report
