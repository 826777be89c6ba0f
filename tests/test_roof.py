import numpy as np
import pytest

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
from entmono.monotones import alpha_entropy_spec
from entmono.roof import _random_isometry

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
        members = ensemble_from_isometry(rho, _random_isometry(4, 2, rng), 2, 2)
        assert sum(p for p, _ in members) == pytest.approx(1.0, abs=1e-10)

    def test_reconstruction(self, rng):
        rho = benchmark_state()
        for m in (2, 3, 5):
            members = ensemble_from_isometry(rho, _random_isometry(m, 2, rng), 2, 2)
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
        members = ensemble_from_isometry(rho, _random_isometry(3, 2, rng), 2, 2)
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
        assert np.max(np.abs(est.reconstruction(4) - rho.entries)) < 1e-8
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
