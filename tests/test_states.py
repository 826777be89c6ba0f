import numpy as np
import pytest

from entmono import (
    DensityMatrix,
    OutcomeEnsemble,
    PureState,
    SchmidtSpectrum,
    apply_kraus,
    density_of,
    haar_unitary,
    maximally_entangled,
    partial_trace_a,
    partial_trace_b,
    phase_distance,
    product_state,
    random_density_matrix,
    random_pure_state,
    schmidt,
    tensor_bipartite,
)
from entmono.states import _within

BELL = maximally_entangled(2)
NON_FINITE = (np.nan, np.inf, -np.inf)


def basis_state(dim_a, dim_b, i, j):
    vec = np.zeros(dim_a * dim_b, dtype=complex)
    vec[i * dim_b + j] = 1.0
    return PureState(dim_a, dim_b, vec)


class TestPureState:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="norm"):
            PureState(2, 2, np.array([1.0, 1.0, 0.0, 0.0]))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            PureState(2, 3, np.array([1.0, 0.0, 0.0, 0.0]))

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_rejects_non_finite_amplitude(self, bad):
        for amps in ([bad, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, bad], [1.0, complex(0.0, bad), 0.0, 0.0]):
            with pytest.raises(ValueError, match="norm"):
                PureState(2, 2, np.array(amps, dtype=complex))

    def test_coefficient_matrix_round_trip(self, rng):
        psi = random_pure_state(3, 4, rng)
        again = PureState.from_coefficient_matrix(psi.coefficient_matrix)
        assert np.allclose(again.amplitudes, psi.amplitudes)


class TestDensityMatrix:
    def test_rejects_non_hermitian(self):
        m = np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(2, m)

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(2, np.eye(2))

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_rejects_non_finite_entry(self, bad):
        for i, j in ((0, 0), (0, 1), (1, 1)):
            m = np.diag([0.5, 0.5]).astype(complex)
            m[i, j] = bad
            m[j, i] = np.conj(bad)
            with pytest.raises(ValueError, match="finite"):
                DensityMatrix(2, m)

    def test_rejects_negative_eigenvalue(self):
        m = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(ValueError, match="eigenvalue"):
            DensityMatrix(2, m)


class TestWithin:
    @pytest.mark.parametrize("x, tol, expected", [
        ([0.5, -1.0], 1.0, True),
        ([0.5, -1.5], 1.0, False),
        ([0.0, np.nan], 1.0, False),
        (complex(0.0, np.inf), 1.0, False),
        ([], 0.0, True),
    ])
    def test_nan_is_never_within_tolerance(self, x, tol, expected):
        assert _within(np.asarray(x), tol) is expected


class TestSchmidtSpectrum:
    def test_sorts_descending(self):
        s = SchmidtSpectrum([0.1, 0.6, 0.3])
        assert np.all(np.diff(s.values) <= 0)

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError, match="sums to"):
            SchmidtSpectrum([0.5, 0.4])

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_rejects_non_finite_entry(self, bad):
        for values in ([bad, 0.5], [0.5, 0.5, bad], [bad]):
            with pytest.raises(ValueError, match="lie in"):
                SchmidtSpectrum(values)

    def test_padding(self):
        s = SchmidtSpectrum([0.7, 0.3])
        assert np.allclose(s.padded(4), [0.7, 0.3, 0.0, 0.0])


class TestOutcomeEnsemble:
    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_rejects_non_finite_probability(self, bad):
        for probs in ((bad, 1.0), (0.5, 0.5, bad)):
            with pytest.raises(ValueError, match="probabilities"):
                OutcomeEnsemble(tuple((p, BELL) for p in probs))


class TestDensityOf:
    def test_basis_state_projector(self):
        rho = density_of(basis_state(2, 2, 0, 0))
        assert np.allclose(rho.entries, np.diag([1, 0, 0, 0]))

    def test_bell_corners(self):
        rho = density_of(BELL).entries
        expected = np.zeros((4, 4))
        for i in (0, 3):
            for j in (0, 3):
                expected[i, j] = 0.5
        assert np.allclose(rho, expected)

    def test_random_state_trace_and_purity(self, rng):
        rho = density_of(random_pure_state(3, 5, rng)).entries
        assert abs(np.trace(rho) - 1.0) < 1e-10
        assert abs(np.trace(rho @ rho) - 1.0) < 1e-10


class TestPartialTrace:
    def test_product_state(self, rng):
        a = rng.normal(size=3) + 1j * rng.normal(size=3)
        b = rng.normal(size=2) + 1j * rng.normal(size=2)
        psi = product_state(a, b)
        a = a / np.linalg.norm(a)
        assert np.allclose(partial_trace_b(psi).entries, np.outer(a, a.conj()), atol=1e-12)

    def test_bell_gives_maximally_mixed(self):
        assert np.allclose(partial_trace_b(BELL).entries, np.eye(2) / 2)
        assert np.allclose(partial_trace_a(BELL).entries, np.eye(2) / 2)

    def test_eigenvalues_match_schmidt_weights(self, rng):
        # eigendecomposition oracle: rotate the canonical (0.7, 0.3) state by
        # random locals and read the weights back off the reduced state
        psi = PureState.from_schmidt_values([0.7, 0.3])
        ua, ub = haar_unitary(2, rng), haar_unitary(2, rng)
        rotated = PureState.from_coefficient_matrix(ua @ psi.coefficient_matrix @ ub.T)
        eigs = np.sort(np.linalg.eigvalsh(partial_trace_b(rotated).entries))
        assert np.allclose(eigs, [0.3, 0.7], atol=1e-10)

    def test_matrix_input_requires_dims(self):
        rho = density_of(BELL)
        with pytest.raises(ValueError, match="required"):
            partial_trace_b(rho.entries)

    def test_dimension_mismatch(self):
        rho = density_of(BELL)
        with pytest.raises(ValueError, match="mismatch"):
            partial_trace_b(rho, 3, 2)

    def test_both_reductions_share_spectrum(self, rng):
        for _ in range(25):
            da, db = rng.integers(2, 7, size=2)
            psi = random_pure_state(int(da), int(db), rng)
            wa = np.sort(np.linalg.eigvalsh(partial_trace_b(psi).entries))[::-1]
            wb = np.sort(np.linalg.eigvalsh(partial_trace_a(psi).entries))[::-1]
            k = min(len(wa), len(wb))
            assert np.max(np.abs(wa[:k] - wb[:k])) < 1e-9
            assert np.all(np.abs(wa[k:]) < 1e-9) and np.all(np.abs(wb[k:]) < 1e-9)


class TestSchmidt:
    def test_bell_spectrum(self):
        spectrum, _, _ = schmidt(BELL)
        assert np.allclose(spectrum.values, [0.5, 0.5])

    def test_product_state_rank_one(self, rng):
        psi = product_state(rng.normal(size=3), rng.normal(size=3))
        spectrum, _, _ = schmidt(psi)
        assert spectrum.values[0] == pytest.approx(1.0, abs=1e-12)
        assert spectrum.rank() == 1

    def test_local_unitary_invariance(self, rng):
        for _ in range(50):
            da, db = int(rng.integers(2, 7)), int(rng.integers(2, 7))
            psi = random_pure_state(da, db, rng)
            ua, ub = haar_unitary(da, rng), haar_unitary(db, rng)
            rotated = PureState.from_coefficient_matrix(ua @ psi.coefficient_matrix @ ub.T)
            s0, s1 = schmidt(psi)[0].values, schmidt(rotated)[0].values
            assert np.max(np.abs(s0 - s1)) < 1e-9

    def test_reconstruction_and_orthonormal_bases(self, rng):
        for _ in range(25):
            da, db = int(rng.integers(2, 7)), int(rng.integers(2, 7))
            psi = random_pure_state(da, db, rng)
            spectrum, ba, bb = schmidt(psi)
            assert np.allclose(ba.conj().T @ ba, np.eye(ba.shape[1]), atol=1e-10)
            assert np.allclose(bb.conj().T @ bb, np.eye(bb.shape[1]), atol=1e-10)
            rebuilt = sum(
                np.sqrt(w) * np.kron(ba[:, k], bb[:, k])
                for k, w in enumerate(spectrum.values)
            )
            assert phase_distance(psi.amplitudes, rebuilt) < 1e-9


class TestDegenerateInputs:
    @pytest.mark.parametrize("rank", [0, -1])
    def test_random_density_matrix_rejects_nonpositive_rank(self, rank):
        with pytest.raises(ValueError, match=f"rank must be at least 1, got {rank}"):
            random_density_matrix(4, rng=0, rank=rank)

    @pytest.mark.parametrize("vec_a, vec_b, name", [([0, 0], [1, 0], "vec_a"), ([1, 0], [0, 0, 0], "vec_b")])
    def test_product_state_rejects_zero_vector(self, vec_a, vec_b, name):
        with pytest.raises(ValueError, match=f"{name} is the zero vector"):
            product_state(vec_a, vec_b)


class TestApplyKraus:
    def test_identity_channel(self, rng):
        rho = density_of(random_pure_state(2, 2, rng))
        out, p = apply_kraus(rho, [np.eye(4)])
        assert p == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(out.entries, rho.entries)

    def test_projective_outcome_on_bell(self):
        proj = np.kron(np.eye(2), np.diag([1.0, 0.0]))
        out, p = apply_kraus(density_of(BELL), [proj])
        assert p == pytest.approx(0.5, abs=1e-12)
        assert np.allclose(out.entries, np.diag([1, 0, 0, 0]))

    def test_impossible_outcome(self):
        proj = np.kron(np.eye(2), np.diag([0.0, 1.0]))
        rho = density_of(basis_state(2, 2, 0, 0))
        with pytest.raises(ValueError, match="impossible outcome"):
            apply_kraus(rho, [proj])

    def test_complete_set_probabilities_sum_to_one(self, rng):
        rho = density_of(random_pure_state(2, 3, rng))
        total = 0.0
        for k in range(3):
            proj = np.kron(np.eye(2), np.diag(np.eye(3)[k]))
            try:
                total += apply_kraus(rho, [proj])[1]
            except ValueError:
                pass
        assert total == pytest.approx(1.0, abs=1e-9)


class TestTensorBipartite:
    def test_spectrum_is_kron_of_spectra(self, rng):
        psi = random_pure_state(2, 3, rng)
        phi = random_pure_state(3, 2, rng)
        combined = tensor_bipartite(psi, phi)
        assert combined.dim_a == 6 and combined.dim_b == 6
        expected = np.zeros(6)
        kron = np.sort(np.kron(schmidt(psi)[0].values, schmidt(phi)[0].values))[::-1]
        expected[: kron.size] = kron
        assert np.allclose(schmidt(combined)[0].values, expected, atol=1e-10)
