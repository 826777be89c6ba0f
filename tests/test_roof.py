import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entmono import (
    DensityMatrix,
    density_of,
    ensemble_from_isometry,
    isometry_of_ensemble,
    maximally_entangled,
    random_density_matrix,
    random_pure_state,
    roof_estimate,
)
from entmono import roof
from entmono.locc import check_c2
from entmono.monotones import alpha_entropy_spec, monotone_by_name
from entmono.states import _haar_isometry

E1 = alpha_entropy_spec(1.0)

# Pre-registered brute-force value for the benchmark mixture
#   rho = 0.5 |Bell><Bell| + 0.5 |01><01|
# with the Shannon spectrum function: minimum of the ensemble average over a
# 401 x 401 grid of size-2 ensembles (angle x relative phase) plus 1e5 random
# isometries of sizes 3 and 4, run once and frozen.  It also matches the
# two-qubit concurrence closed form to 3e-16.
BENCHMARK_ORACLE = 0.354578902665


def wootters_eof(rho: np.ndarray) -> float:
    """Entanglement of formation of a two-qubit density matrix in bits (Wootters, PRL 80, 2245).

    The concurrence is C = max(0, l1 - l2 - l3 - l4), with l_i the descending
    square roots of the eigenvalues of rho (Y (x) Y) rho* (Y (x) Y), and the
    EoF is the binary entropy of (1 + sqrt(1 - C^2)) / 2.
    """
    yy = np.kron([[0, -1j], [1j, 0]], [[0, -1j], [1j, 0]])
    eigs = np.linalg.eigvals(rho @ yy @ rho.conj() @ yy).real
    lam = np.sqrt(np.clip(np.sort(eigs)[::-1], 0.0, None))
    c = max(0.0, lam[0] - lam[1] - lam[2] - lam[3])
    x = 0.5 * (1.0 + np.sqrt(1.0 - c * c))
    return 0.0 if x >= 1.0 else float(-x * np.log2(x) - (1.0 - x) * np.log2(1.0 - x))


def isotropic_eof(f: float, d: int) -> float:
    """Entanglement of formation of the d x d isotropic state of singlet fraction F, in bits.

    Terhal and Vollbrecht (PRL 85, 2625): the convex hull co(R)(F) of
    R(F) = H2(gamma) + (1 - gamma) log2(d - 1), gamma = (sqrt(F) + sqrt((d-1)(1-F)))^2 / d.
    It is 0 for F <= 1/d and R(F) up to F = 4(d-1)/d^2 (which is 1 at d = 2); above
    that it is the line (d/(d-2))(F-1) log2(d-1) + log2 d.  That middle region is
    proven only for d <= 3, so larger d is refused.
    """
    assert d in (2, 3), "the closed form is proven for d = 2 and d = 3 only"
    if f <= 1.0 / d:
        return 0.0
    if f > 4.0 * (d - 1) / d**2:
        return d / (d - 2) * (f - 1.0) * np.log2(d - 1) + np.log2(d)
    gamma = (np.sqrt(f) + np.sqrt((d - 1) * (1.0 - f))) ** 2 / d
    h2 = 0.0 if gamma >= 1.0 else -gamma * np.log2(gamma) - (1.0 - gamma) * np.log2(1.0 - gamma)
    return float(h2 + (1.0 - gamma) * np.log2(d - 1))


def isotropic_eof_hull(f, d: int, samples: int = 200_001) -> np.ndarray:
    """The isotropic EoF co(R)(F) at the points ``f``, for any d, as a numerical lower convex hull.

    R is sampled on ``samples`` even points of [1/d, 1] and on the points
    ``f`` themselves, so where the hull touches R it is R there exactly.  The
    hull is Andrew's monotone chain, kept strictly convex from below.
    """
    f = np.atleast_1d(np.asarray(f, dtype=float))
    x = np.union1d(np.linspace(1.0 / d, 1.0, samples), f[f > 1.0 / d])
    gamma = np.minimum((np.sqrt(x) + np.sqrt((d - 1) * (1.0 - x))) ** 2 / d, 1.0)
    p = np.stack([gamma, 1.0 - gamma])
    y = -np.where(p > 0.0, p * np.log2(np.where(p > 0.0, p, 1.0)), 0.0).sum(axis=0)
    y += (1.0 - gamma) * np.log2(d - 1)
    hull = []
    for xb, yb in zip(x.tolist(), y.tolist()):
        # drop the last vertex while it is not strictly below the chord to the new point
        while len(hull) >= 2 and ((hull[-1][0] - hull[-2][0]) * (yb - hull[-2][1])
                                  - (hull[-1][1] - hull[-2][1]) * (xb - hull[-2][0])) <= 0.0:
            hull.pop()
        hull.append((xb, yb))
    hx, hy = np.array(hull).T
    return np.where(f <= 1.0 / d, 0.0, np.interp(f, hx, hy))


def isotropic_state(f: float, d: int) -> DensityMatrix:
    """rho_F = F |Phi+><Phi+| + (1 - F)(I - |Phi+><Phi+|)/(d^2 - 1)."""
    phi = density_of(maximally_entangled(d)).entries
    return DensityMatrix(d * d, f * phi + (1.0 - f) * (np.eye(d * d) - phi) / (d * d - 1))


def werner_eof(p: float) -> float:
    """Entanglement of formation of the d x d Werner state of antisymmetric weight p, in bits.

    Vollbrecht and Werner (PRA 64, 062307): for every d it is
    H2(1/2 - sqrt(p (1 - p))) when p >= 1/2, and 0 below.
    """
    if p <= 0.5:
        return 0.0
    x = 0.5 - np.sqrt(p * (1.0 - p))
    return 0.0 if x <= 0.0 else float(-x * np.log2(x) - (1.0 - x) * np.log2(1.0 - x))


def werner_state(p: float, d: int) -> DensityMatrix:
    """rho_p = p P_as / dim_as + (1 - p) P_s / dim_s, with P_as, P_s = (I -/+ SWAP) / 2."""
    swap = np.eye(d * d)[[(j % d) * d + j // d for j in range(d * d)]]
    anti, sym = (np.eye(d * d) - swap) / 2.0, (np.eye(d * d) + swap) / 2.0
    return DensityMatrix(d * d, (p * anti / (d * (d - 1) / 2) + (1.0 - p) * sym / (d * (d + 1) / 2))
                         .astype(complex))


def benchmark_state() -> DensityMatrix:
    bell = maximally_entangled(2)
    v01 = np.zeros(4, dtype=complex)
    v01[1] = 1.0
    return DensityMatrix(4, 0.5 * density_of(bell).entries + 0.5 * np.outer(v01, v01.conj()))


class TestEnsembleFromIsometry:
    def test_identity_recovers_eigen_ensemble(self):
        rho = benchmark_state()
        members = ensemble_from_isometry(rho, np.eye(2), 2, 2)
        probs = sorted(p for p, _ in members)
        eigs = sorted(np.linalg.eigvalsh(rho.entries))[-2:]
        assert np.allclose(probs, eigs, atol=1e-12)

    def test_probabilities_sum_to_one(self, rng):
        rho = benchmark_state()
        members = ensemble_from_isometry(rho, _haar_isometry(4, 2, rng), 2, 2)
        assert sum(p for p, _ in members) == pytest.approx(1.0, abs=1e-10)

    def test_reconstruction(self, rng):
        rho = benchmark_state()
        for m in (2, 3, 5):
            members = ensemble_from_isometry(rho, _haar_isometry(m, 2, rng), 2, 2)
            acc = sum(p * np.outer(s.amplitudes, s.amplitudes.conj()) for p, s in members)
            assert np.max(np.abs(acc - rho.entries)) < 1e-10

    def test_rejects_non_isometry(self):
        rho = benchmark_state()
        with pytest.raises(ValueError, match="orthonormal"):
            ensemble_from_isometry(rho, np.ones((3, 2)), 2, 2)

    def test_rejects_too_few_members(self):
        rho = benchmark_state()
        with pytest.raises(ValueError, match="below the rank"):
            ensemble_from_isometry(rho, np.eye(2)[:1, :], 2, 2)

    def test_round_trip_through_isometry_of_ensemble(self, rng):
        rho = benchmark_state()
        members = ensemble_from_isometry(rho, _haar_isometry(3, 2, rng), 2, 2)
        v = isometry_of_ensemble(rho, members)
        again = ensemble_from_isometry(rho, v, 2, 2)
        for (p1, s1), (p2, s2) in zip(members, again):
            assert p1 == pytest.approx(p2, abs=1e-10)


class TestRoofEstimate:
    def test_pure_input_reproduces_monotone(self, rng):
        for _ in range(5):
            psi = random_pure_state(2, 3, rng)
            est = roof_estimate(density_of(psi), 2, 3, E1, restarts=2, iterations=80, seed=rng)
            assert est.value == pytest.approx(E1(psi), abs=1e-10)

    def test_diagonal_separable_mixture(self):
        rho = DensityMatrix(4, np.diag([0.3, 0.0, 0.0, 0.7]).astype(complex))
        est = roof_estimate(rho, 2, 2, E1, restarts=2, iterations=150, seed=0)
        assert est.value <= 1e-6

    def test_degenerate_diagonal_separable_mixture(self):
        rho = DensityMatrix(4, np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex))
        est = roof_estimate(rho, 2, 2, E1, restarts=2, iterations=150, seed=0)
        assert est.value <= 1e-6

    def test_benchmark_brackets_oracle(self):
        est = roof_estimate(benchmark_state(), 2, 2, E1, restarts=20, iterations=600, seed=11)
        # soundness: never below the true roof; quality: within 1e-3 above it
        assert est.value >= BENCHMARK_ORACLE - 1e-9
        assert est.value == pytest.approx(BENCHMARK_ORACLE, abs=1e-3)

    def test_restart_monotonicity(self):
        rho = benchmark_state()
        few = roof_estimate(rho, 2, 2, E1, restarts=3, iterations=150, seed=21).value
        more = roof_estimate(rho, 2, 2, E1, restarts=6, iterations=150, seed=21).value
        assert more <= few + 1e-12

    def test_certificate_invariants(self, rng):
        rho = benchmark_state()
        est = roof_estimate(rho, 2, 2, E1, restarts=4, iterations=200, seed=2)
        assert np.max(np.abs(est.reconstruction() - rho.entries)) < 1e-8
        recomputed = sum(p * E1(psi) for p, psi in est.ensemble)
        assert recomputed == pytest.approx(est.value, abs=1e-10)

    def test_mixing_convexity_with_union_certificate(self, rng):
        parts = []
        for _ in range(2):
            psi1 = random_pure_state(2, 2, rng)
            psi2 = random_pure_state(2, 2, rng)
            w = float(rng.uniform(0.3, 0.7))
            mat = w * density_of(psi1).entries + (1 - w) * density_of(psi2).entries
            parts.append(DensityMatrix(4, mat))
        q = float(rng.uniform(0.3, 0.7))
        mix = DensityMatrix(4, q * parts[0].entries + (1 - q) * parts[1].entries)

        certs = [roof_estimate(r, 2, 2, E1, restarts=4, iterations=300, seed=5) for r in parts]
        union = [(q * p, psi) for p, psi in certs[0].ensemble]
        union += [((1 - q) * p, psi) for p, psi in certs[1].ensemble]
        seed_iso = isometry_of_ensemble(mix, union)
        est = roof_estimate(mix, 2, 2, E1, m=len(union), restarts=4, iterations=300, seed=5,
                            initial_isometries=[seed_iso])
        weighted = q * certs[0].value + (1 - q) * certs[1].value
        assert est.value <= weighted + 1e-6

    def test_never_below_wootters_eof(self, rng):
        assert wootters_eof(benchmark_state().entries) == pytest.approx(BENCHMARK_ORACLE, abs=1e-12)
        for rank in (2, 2, 3, 3, 4, 4):
            rho = random_density_matrix(4, rng, rank=rank)
            est = roof_estimate(rho, 2, 2, E1, restarts=2, iterations=100, seed=rng)
            assert est.value >= wootters_eof(rho.entries) - 1e-9

    def test_m_below_rank_rejected(self):
        with pytest.raises(ValueError, match="below the rank"):
            roof_estimate(benchmark_state(), 2, 2, E1, m=1, restarts=1, iterations=10, seed=0)


class TestIsotropicOracle:
    @pytest.mark.parametrize("f", [0.0, 0.3, 0.5, 0.6, 0.75, 0.9, 0.99, 1.0])
    def test_two_qubit_formula_is_wootters(self, f):
        assert isotropic_eof(f, 2) == pytest.approx(wootters_eof(isotropic_state(f, 2).entries), abs=1e-12)

    def test_qutrit_line_meets_the_curve(self):
        # the hull's line touches R at F = 8/9 and ends at log2 3 for the maximally entangled state
        corner = 8.0 / 9.0
        line = 3.0 * (corner - 1.0) + np.log2(3.0)
        assert isotropic_eof(corner, 3) == pytest.approx(line, abs=1e-12)
        assert isotropic_eof(1.0, 3) == pytest.approx(np.log2(3.0), abs=1e-15)
        assert isotropic_eof(1.0 / 3.0, 3) == 0.0

    @pytest.mark.parametrize("f", [0.5, 0.7, 0.85, 0.95])
    def test_qutrit_estimate_never_below_the_oracle(self, f):
        est = roof_estimate(isotropic_state(f, 3), 3, 3, E1, seed=1)
        assert est.value >= isotropic_eof(f, 3) - 1e-9

    def test_hull_is_the_qutrit_closed_form(self):
        # the closed form is R up to F = 8/9, then the line; the hull is built knowing neither
        f = np.r_[np.linspace(0.0, 1.0, 201), 8.0 / 9.0, 0.5, 0.7, 0.85, 0.95]
        want = np.array([isotropic_eof(x, 3) for x in f])
        assert np.max(np.abs(isotropic_eof_hull(f, 3) - want)) <= 1e-12

    def test_ququart_estimate_never_below_the_hull(self):
        # no closed form is proven at d = 4; default estimates sit 0.72, 0.35
        # and 0.10 bits above the hull (ROADMAP item 2)
        f = np.array([0.4, 0.7, 0.9])
        values = [roof_estimate(isotropic_state(x, 4), 4, 4, E1, seed=1).value for x in f]
        assert np.min(values - isotropic_eof_hull(f, 4)) >= -1e-9


class TestWernerOracle:
    def test_closed_form_is_convex(self):
        values = np.array([werner_eof(p) for p in np.linspace(0.0, 1.0, 401)])
        assert np.min(values[:-2] - 2.0 * values[1:-1] + values[2:]) >= -1e-12

    @pytest.mark.parametrize("p", [0.0, 0.3, 0.5, 0.6, 0.8, 0.95, 1.0])
    def test_two_qubit_formula_is_wootters(self, p):
        assert werner_eof(p) == pytest.approx(wootters_eof(werner_state(p, 2).entries), abs=1e-12)

    @pytest.mark.parametrize("p", [0.6, 0.8, 0.95])
    def test_qutrit_estimate_never_below_the_oracle(self, p):
        est = roof_estimate(werner_state(p, 3), 3, 3, E1, seed=1)
        assert est.value >= werner_eof(p) - 1e-9


class TestSearchQuality:
    @pytest.mark.parametrize("rank", [2, 3, 4])
    def test_default_estimates_stay_near_wootters(self, rank):
        # 4x below the benchmark's ROOF_CEILING of 0.02 bits
        rng = np.random.default_rng(40 + rank)
        for _ in range(5):
            rho = random_density_matrix(4, rng, rank=rank)
            est = roof_estimate(rho, 2, 2, E1, seed=int(rng.integers(2**31)))
            assert -1e-9 <= est.value - wootters_eof(rho.entries) <= 0.005


def reference_search(rho, dims, spec, m, restarts, iterations, seed):
    """The roof search one restart after another, drawing one proposal row per step."""
    lam, evecs = roof._eigen_decomposition(rho)
    rank, sqrt_lam, basis_t = lam.size, np.sqrt(lam), evecs.T
    children = np.random.SeedSequence(np.random.default_rng(seed).integers(2**63)).spawn(max(restarts, 1))
    totals = []
    for run, child in enumerate(children):
        rng = np.random.default_rng(child)
        v = np.eye(m, rank, dtype=complex) if run == 0 else _haar_isometry(m, rank, rng)
        terms = roof._member_terms(v[None], sqrt_lam, basis_t, spec, *dims)[0]
        total = np.add.accumulate(terms)[-1]
        step = roof.STEP0
        decay = (roof.STEP_MIN / roof.STEP0) ** (1.0 / max(iterations, 1))
        for _ in range(iterations if m >= 2 else 0):
            u = rng.random(5)
            i = int(u[0] * m)
            j = (i + 1 + int(u[1] * (m - 1))) % m
            theta = step * np.sqrt(-2.0 * np.log1p(-u[2:3])) * np.cos(2.0 * np.pi * u[3:4])
            c, s = np.cos(theta), np.sin(theta) * np.exp(1j * (2.0 * np.pi * u[4:5]))
            rows = np.stack([c * v[i] - np.conj(s) * v[j], s * v[i] + c * v[j]])
            trial = terms.copy()
            trial[[i, j]] = roof._member_terms(rows[None], sqrt_lam, basis_t, spec, *dims)[0]
            if np.add.accumulate(trial)[-1] < total:
                v[[i, j]], terms, total = rows, trial, np.add.accumulate(trial)[-1]
            step *= decay
        totals.append(total)
    return float(min(totals))


def estimate_bits(est):
    """An estimate as exact hex strings: value, member weights and amplitudes, converged."""
    members = tuple((p.hex(), psi.amplitudes.tobytes().hex()) for p, psi in est.ensemble)
    return est.value.hex(), members, est.converged


class TestDrawSchedule:
    """Each run draws its proposals in blocks; neither the block size nor lockstep changes a bit."""

    @settings(max_examples=25, deadline=None)
    @given(dims=st.sampled_from([(2, 2), (2, 3)]), rank=st.integers(1, 6), extra=st.integers(0, 2),
           restarts=st.integers(1, 3), iterations=st.integers(0, 40), block=st.integers(1, 9),
           seed=st.integers(0, 2**32 - 1))
    def test_block_size_changes_nothing(self, dims, rank, extra, restarts, iterations, block, seed):
        rho = random_density_matrix(dims[0] * dims[1], np.random.default_rng(seed),
                                    rank=min(rank, dims[0] * dims[1]))
        m = roof._eigen_decomposition(rho)[0].size + extra
        want = roof_estimate(rho, *dims, E1, m=m, restarts=restarts, iterations=iterations, seed=seed)
        with mock.patch.object(roof, "ROOF_DRAW_BLOCK", block):
            got = roof_estimate(rho, *dims, E1, m=m, restarts=restarts, iterations=iterations, seed=seed)
        assert estimate_bits(got) == estimate_bits(want)

    @settings(max_examples=30, deadline=None)
    @given(dims=st.sampled_from([(2, 2), (2, 3)]), rank=st.integers(1, 6), extra=st.integers(0, 2),
           restarts=st.integers(1, 3), iterations=st.integers(0, 40), window=st.integers(1, 9),
           block=st.one_of(st.none(), st.integers(1, 9)),
           name=st.sampled_from(["e0", "e1", "e_alpha:0.5", "trace_fn:linear", "control:sum_squares"]),
           seed=st.integers(0, 2**32 - 1))
    def test_window_changes_nothing(self, dims, rank, extra, restarts, iterations, window, block, name, seed):
        # m = rank + extra: m = 2 at rank 2 (or rank 1 and one extra row), zero-padded starts past the rank;
        # a small block puts block ends and the 80% checkpoint inside windows
        rho = random_density_matrix(dims[0] * dims[1], np.random.default_rng(seed),
                                    rank=min(rank, dims[0] * dims[1]))
        m = roof._eigen_decomposition(rho)[0].size + extra
        spec = monotone_by_name(name)
        want = roof_estimate(rho, *dims, spec, m=m, restarts=restarts, iterations=iterations, seed=seed)
        patches = {"ROOF_LOOKAHEAD": window, **({} if block is None else {"ROOF_DRAW_BLOCK": block})}
        with mock.patch.multiple(roof, **patches):
            got = roof_estimate(rho, *dims, spec, m=m, restarts=restarts, iterations=iterations, seed=seed)
        assert estimate_bits(got) == estimate_bits(want)

    @settings(max_examples=25, deadline=None)
    @given(dims=st.sampled_from([(2, 2), (2, 3)]), rank=st.integers(1, 6), extra=st.integers(0, 2),
           runs=st.integers(1, 4), iterations=st.integers(0, 60), window=st.integers(1, 9),
           block=st.one_of(st.none(), st.integers(1, 9)), seed=st.integers(0, 2**32 - 1))
    def test_look_ahead_is_the_step_loop(self, dims, rank, extra, runs, iterations, window, block, seed):
        # every run's final isometry, final sum and sum at the 80% checkpoint, against the
        # one-step-per-call loop the other dims take, on the same two-row kernel
        rho = random_density_matrix(dims[0] * dims[1], np.random.default_rng(seed),
                                    rank=min(rank, dims[0] * dims[1]))
        lam, evecs = roof._eigen_decomposition(rho)
        m = lam.size + extra
        sizes = {} if block is None else {"ROOF_DRAW_BLOCK": block}

        def descend(**patches):
            rng = np.random.default_rng(seed)
            # run 0 is the zero-padded eigen-ensemble, the others Haar
            v = np.array([np.eye(m, lam.size, dtype=complex)] + [_haar_isometry(m, lam.size, rng)
                                                                 for _ in range(runs - 1)])
            rngs = [np.random.default_rng([seed, k]) for k in range(runs)]
            with mock.patch.multiple(roof, **patches, **sizes):
                sums = roof._descend(v, np.broadcast_to(np.sqrt(lam), (runs, 1, lam.size)),
                                     np.broadcast_to(evecs.T, (runs, *evecs.T.shape)), E1, *dims, rngs, iterations)
            return v.tobytes(), *(x.tobytes() for x in sums)

        assert descend(ROOF_LOOKAHEAD=window) == descend(_look_ahead=roof._step_together)

    def test_window_changes_no_c2_record(self):
        reports = []
        for window in (1, 8):
            with mock.patch.object(roof, "ROOF_LOOKAHEAD", window):
                reports.append(check_c2(E1, trials=4, dims=(2, 2), seed=9))
        assert len({(r.before.tobytes(), r.after.tobytes()) for r in reports}) == 1

    @pytest.mark.parametrize("iterations", [0, 1, roof.ROOF_DRAW_BLOCK + 1])
    def test_equal_to_the_one_row_per_step_search(self, iterations):
        rho = random_density_matrix(6, np.random.default_rng(11), rank=3)
        est = roof_estimate(rho, 2, 3, E1, m=4, restarts=3, iterations=iterations, seed=12)
        assert est.value.hex() == reference_search(rho, (2, 3), E1, 4, 3, iterations, 12).hex()

    def test_single_pair(self, rng):
        # m = 2 leaves one unordered pair of rows; every step rotates it
        rho = random_density_matrix(4, rng, rank=2)
        est = roof_estimate(rho, 2, 2, E1, m=2, restarts=2, iterations=150, seed=3)
        assert est.value.hex() == reference_search(rho, (2, 2), E1, 2, 2, 150, 3).hex()
        start = sum(p * E1(psi) for p, psi in ensemble_from_isometry(rho, np.eye(2), 2, 2))
        assert wootters_eof(rho.entries) - 1e-9 <= est.value < start

    def test_single_member_takes_no_step(self, rng):
        # m = rank = 1: no pair to rotate, so the iteration count changes nothing
        psi = random_pure_state(2, 2, rng)
        ests = [roof_estimate(density_of(psi), 2, 2, E1, m=1, restarts=2, iterations=it, seed=5)
                for it in (0, 1, roof.ROOF_DRAW_BLOCK + 1)]
        assert len({estimate_bits(est) for est in ests}) == 1
        assert ests[0].converged and ests[0].value == pytest.approx(E1(psi), abs=1e-12)


def search_bits(result):
    """A ``roof._search`` result as exact hex strings: isometry, sum, converged, run count."""
    v, value, converged, n_runs = result
    return v.tobytes().hex(), value.hex(), bool(converged), n_runs


class TestSearch:
    """Searches handed to one ``roof._search`` share stacks, yet each gets the result it gets alone."""

    @settings(max_examples=30, deadline=None)
    @given(dims=st.sampled_from([(2, 2), (2, 3)]),
           plan=st.lists(st.tuples(st.integers(1, 4), st.integers(0, 1), st.integers(0, 3), st.integers(0, 2)),
                         min_size=2, max_size=6),
           iterations=st.sampled_from([0, 7, 40]),
           name=st.sampled_from(["e0", "e1", "e_alpha:0.5", "trace_fn:linear", "control:sum_squares"]),
           seed=st.integers(0, 2**32 - 1))
    def test_each_search_as_if_alone(self, dims, plan, iterations, name, seed):
        # per search: rank, m - rank, restarts and supplied starts, some shorter than m
        rng = np.random.default_rng(seed)
        searches = []
        for rank, extra, restarts, supplied in plan:
            rho = random_density_matrix(dims[0] * dims[1], rng, rank=rank)
            lam, evecs = roof._eigen_decomposition(rho)
            m = lam.size + extra
            starts = [_haar_isometry(int(rng.integers(lam.size, m + 1)), lam.size, rng) for _ in range(supplied)]
            searches.append((lam, evecs, m, restarts, int(rng.integers(2**32)), starts))
        spec = monotone_by_name(name)
        together = roof._search(searches, spec, *dims, iterations)
        alone = [roof._search([search], spec, *dims, iterations)[0] for search in searches]
        assert [search_bits(r) for r in together] == [search_bits(r) for r in alone]


class TestObjectiveIsTheReportedValue:
    """The terms the search minimizes sum to the value reported for the same isometry."""

    @settings(max_examples=40, deadline=None)
    @given(dims=st.sampled_from([(2, 2), (2, 3), (3, 3)]), rank=st.integers(1, 9),
           extra=st.integers(0, 2), padding=st.integers(0, 2),
           name=st.sampled_from(["e0", "e1", "e_alpha:0.5", "trace_fn:linear", "control:sum_squares"]),
           seed=st.integers(0, 2**32 - 1))
    def test_member_terms_sum_to_the_ensemble_average(self, dims, rank, extra, padding, name, seed):
        rng = np.random.default_rng(seed)
        spec = monotone_by_name(name)
        rho = random_density_matrix(dims[0] * dims[1], rng, rank=min(rank, dims[0] * dims[1]))
        lam, evecs = roof._eigen_decomposition(rho)
        m = lam.size + extra
        # a stack of isometries, each with zero rows appended: members of weight 0
        v = np.zeros((3, m + padding, lam.size), dtype=complex)
        for k in range(3):
            v[k, :m] = _haar_isometry(m, lam.size, rng)
        terms = roof._member_terms(v, np.sqrt(lam), evecs.T, spec, *dims)
        for k in range(3):
            members = roof._members(v[k], np.sqrt(lam), evecs.T, *dims)
            want = sum(p * spec(psi) for p, psi in members)
            assert sum(terms[k].tolist()).hex() == want.hex()

    @settings(max_examples=40, deadline=None)
    @given(dims=st.sampled_from([(2, 2), (2, 3), (3, 3)]), rank=st.integers(1, 9),
           extra=st.integers(0, 2), short_start=st.booleans(), restarts=st.integers(0, 3),
           iterations=st.sampled_from([0, 7, 40]),
           name=st.sampled_from(["e0", "e1", "e_alpha:0.5", "trace_fn:linear", "control:sum_squares"]),
           seed=st.integers(0, 2**32 - 1))
    def test_estimate_value_is_its_ensemble_average(self, dims, rank, extra, short_start, restarts,
                                                     iterations, name, seed):
        # A supplied start shorter than m is padded with zero rows inside the search.
        rng = np.random.default_rng(seed)
        spec = monotone_by_name(name)
        rho = random_density_matrix(dims[0] * dims[1], rng, rank=min(rank, dims[0] * dims[1]))
        rank = roof._eigen_decomposition(rho)[0].size
        starts = [_haar_isometry(rank, rank, rng)] if short_start else []
        est = roof_estimate(rho, *dims, spec, m=rank + extra, restarts=restarts, iterations=iterations,
                            seed=seed, initial_isometries=starts)
        assert est.value.hex() == sum(p * spec(psi) for p, psi in est.ensemble).hex()


class TestRoofEdgeCases:
    def test_zero_padded_isometry_with_one_restart(self):
        # The eigen-ensemble and the supplied two-member ensemble are both
        # padded to six rows, so many steps rotate two zero rows in both runs.
        rho = benchmark_state()
        eigen = ensemble_from_isometry(rho, np.eye(2), 2, 2)
        start = ensemble_from_isometry(rho, _haar_isometry(2, 2, np.random.default_rng(3)), 2, 2)
        est = roof_estimate(rho, 2, 2, E1, m=6, restarts=1, iterations=120, seed=4,
                            initial_isometries=[isometry_of_ensemble(rho, start)])
        assert est.restarts == 2 and est.m == 6
        assert est.value <= min(sum(p * E1(psi) for p, psi in ens) for ens in (eigen, start)) + 1e-12
        assert est.value >= BENCHMARK_ORACLE - 1e-9
        assert np.max(np.abs(est.reconstruction() - rho.entries)) < 1e-10

    @pytest.mark.parametrize("m", [None, 1, 2])
    def test_rank_one_state(self, rng, m):
        psi = random_pure_state(2, 3, rng)
        est = roof_estimate(density_of(psi), 2, 3, E1, m=m, restarts=3, iterations=60, seed=1)
        assert est.m == (3 if m is None else m)
        assert est.value == pytest.approx(E1(psi), abs=1e-10)

    def test_m_equal_to_rank(self, rng):
        rho = random_density_matrix(4, rng, rank=3)
        est = roof_estimate(rho, 2, 2, E1, m=3, restarts=3, iterations=200, seed=6)
        assert est.m == 3 and len(est.ensemble) <= 3
        assert est.value >= wootters_eof(rho.entries) - 1e-9
        assert np.max(np.abs(est.reconstruction() - rho.entries)) < 1e-10

    def test_supplied_start_longer_than_the_cap_rejected(self, rng):
        # rows past m were never searched, yet such a start could win outright
        with pytest.raises(ValueError, match="ensemble size 6 exceeds the cap m=2"):
            roof_estimate(benchmark_state(), 2, 2, E1, m=2, restarts=1, iterations=0, seed=0,
                          initial_isometries=[_haar_isometry(6, 2, rng)])

    def test_stack_of_starts_equals_the_list(self, rng):
        rho = random_density_matrix(4, rng, rank=2)
        starts = np.array([_haar_isometry(3, 2, rng), _haar_isometry(3, 2, rng)])
        want = roof_estimate(rho, 2, 2, E1, restarts=1, iterations=30, seed=3, initial_isometries=list(starts))
        got = roof_estimate(rho, 2, 2, E1, restarts=1, iterations=30, seed=3, initial_isometries=starts)
        assert estimate_bits(got) == estimate_bits(want) and got.restarts == 3

    def test_bare_matrix_start_rejected(self, rng):
        # one isometry, not a sequence of them: its rows are not isometries
        message = r"initial_isometries must be a sequence .* got an array of shape \(3, 2\)"
        with pytest.raises(ValueError, match=message):
            roof_estimate(benchmark_state(), 2, 2, E1, restarts=1, iterations=0,
                          initial_isometries=_haar_isometry(3, 2, rng))

    def test_supplied_start_must_be_an_isometry(self, rng):
        # A scaled isometry realizes four times rho; it never wins the search,
        # so only a check on entry can catch it.
        rho = benchmark_state()
        with pytest.raises(ValueError, match="not orthonormal"):
            roof_estimate(rho, 2, 2, E1, restarts=1, iterations=10, seed=0,
                          initial_isometries=[2.0 * _haar_isometry(3, 2, rng)])

    def test_nan_start_rejected(self):
        # a NaN start used to drop every member and certify a bound of 0 for a roof of 1
        with pytest.raises(ValueError, match="not orthonormal"):
            roof_estimate(density_of(maximally_entangled(2)), 2, 2, E1, restarts=1, iterations=0,
                          initial_isometries=[np.full((2, 1), np.nan)])

    def test_nan_isometry_rejected(self):
        with pytest.raises(ValueError, match="not orthonormal"):
            ensemble_from_isometry(DensityMatrix(4, np.eye(4) / 4), np.full((4, 4), np.nan), 2, 2)

    @pytest.mark.parametrize("name, count", [("m", 4.7), ("m", "5"), ("m", 4.0), ("restarts", 2.5),
                                             ("restarts", None), ("iterations", float("inf")),
                                             ("iterations", np.float64(10))])
    def test_non_integral_counts_rejected(self, name, count):
        with pytest.raises(ValueError, match=re.escape(f"{name} must be an integer, got {count!r}")):
            roof_estimate(benchmark_state(), 2, 2, E1, **{"restarts": 1, "iterations": 0, name: count})

    def test_numpy_integer_counts(self):
        want = roof_estimate(benchmark_state(), 2, 2, E1, m=4, restarts=2, iterations=30, seed=1)
        got = roof_estimate(benchmark_state(), 2, 2, E1, m=np.int64(4), restarts=np.int32(2),
                            iterations=np.uint8(30), seed=1)
        assert estimate_bits(got) == estimate_bits(want) and got.m == 4 and got.restarts == 2

    def test_zero_iterations_returns_best_start(self, rng):
        rho = random_density_matrix(6, rng, rank=3)
        eigen = ensemble_from_isometry(rho, np.eye(3), 2, 3)
        est = roof_estimate(rho, 2, 3, E1, restarts=1, iterations=0, seed=0)
        assert est.converged
        assert est.value == sum(p * E1(psi) for p, psi in eigen)
        more = roof_estimate(rho, 2, 3, E1, restarts=4, iterations=0, seed=0)
        assert more.value <= est.value + 1e-12


@settings(max_examples=12, deadline=None)
@given(dims=st.sampled_from([(2, 2), (2, 3)]), rank=st.integers(1, 4), state_seed=st.integers(0, 2**32 - 1))
def test_restarts_are_prefixes_and_certificates_hold(dims, rank, state_seed):
    # The restarts of a run with fewer restarts are the first ones of a run
    # with more, so the best value cannot go up as restarts are added.
    dim = dims[0] * dims[1]
    rho = random_density_matrix(dim, np.random.default_rng(state_seed), rank=rank)
    values = []
    for restarts in (1, 2, 3, 4):
        est = roof_estimate(rho, *dims, E1, restarts=restarts, iterations=60, seed=17)
        assert np.max(np.abs(est.reconstruction() - rho.entries)) < 1e-8
        assert sum(p * E1(psi) for p, psi in est.ensemble) == pytest.approx(est.value, abs=1e-10)
        values.append(est.value)
    assert all(later <= earlier + 1e-12 for earlier, later in zip(values, values[1:]))
