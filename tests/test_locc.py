from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entmono import (
    DensityMatrix,
    MonotoneSpec,
    OutcomeEnsemble,
    PerturbationMeasurement,
    PureState,
    UnilocalOperation,
    add_ancilla,
    apply_unilocal,
    check_c1,
    check_c2,
    density_of,
    dismiss_part,
    forget,
    haar_unitary,
    maximally_entangled,
    monotone_by_name,
    monotone_from_concave,
    partial_trace_b,
    perturbation_measurement,
    phase_distance,
    projective_measurement,
    random_pure_state,
    random_unilocal_operation,
    schmidt,
    unilocal_unitary,
)
from entmono import locc
from entmono.locc import TrialRecord
from entmono.monotones import alpha_entropy_spec
from entmono.roof import isometry_of_ensemble, roof_estimate

from conftest import random_traceless_hermitian

BELL = maximally_entangled(2)
E1 = alpha_entropy_spec(1.0)
# a spec whose every value is NaN: the screens must reject it, not count it as passing
NAN_SPEC = MonotoneSpec("nan", g=lambda p: np.full(np.shape(p)[:-1], np.nan))


def vidal_spec(l):
    """Vidal's E_l(p) = sum of the descending weights from the l-th on: concave and piecewise linear."""
    return MonotoneSpec(f"vidal:E_{l}", g=lambda p: np.sort(p, axis=-1)[..., ::-1][..., l - 1:].sum(axis=-1))


def ket(dim_a, dim_b, i, j):
    vec = np.zeros(dim_a * dim_b, dtype=complex)
    vec[i * dim_b + j] = 1.0
    return PureState(dim_a, dim_b, vec)


class TestUnilocalOperation:
    def test_completeness_violation_rejected(self):
        too_big = np.eye(2) * 1.2
        with pytest.raises(ValueError, match="completeness"):
            UnilocalOperation("A", (("0", (too_big,)),))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_kraus_operator_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite Kraus operator"):
            apply_unilocal(BELL, UnilocalOperation("A", (("0", (np.array([[bad, 0], [0, 1]]),)),)))
        with pytest.raises(ValueError, match="non-finite Kraus operator"):
            UnilocalOperation("B", (("0", (np.eye(2),)), ("1", (np.full((2, 2), bad),))))

    def test_subnormalized_accepted_but_flagged(self):
        half = np.eye(2) / np.sqrt(2)
        op = UnilocalOperation("B", (("0", (half,)),))
        assert not op.is_trace_preserving

    def test_random_operation_is_trace_preserving(self, rng):
        for m in (2, 3, 4):
            op = random_unilocal_operation("A", 3, m, rng)
            assert op.is_trace_preserving
            total = sum(k.conj().T @ k for _, ops in op.outcomes for k in ops)
            assert np.max(np.abs(total - np.eye(3))) < 1e-9


class TestApplyUnilocal:
    def test_unitary_single_outcome_same_spectrum(self, rng):
        psi = random_pure_state(3, 3, rng)
        op = unilocal_unitary("B", haar_unitary(3, rng))
        ensemble = apply_unilocal(psi, op)
        assert len(ensemble) == 1
        p, out = ensemble.items[0]
        assert p == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(schmidt(psi)[0].values - schmidt(out)[0].values)) < 1e-10

    def test_basis_measurement_on_bell(self):
        ensemble = apply_unilocal(BELL, projective_measurement("B", 2))
        assert len(ensemble) == 2
        for k, (p, state) in enumerate(ensemble):
            assert p == pytest.approx(0.5, abs=1e-12)
            assert schmidt(state)[0].rank() == 1
            assert phase_distance(state.amplitudes, ket(2, 2, k, k).amplitudes) < 1e-10

    def test_probabilities_sum_to_one(self, rng):
        for _ in range(20):
            psi = random_pure_state(3, 4, rng)
            op = random_unilocal_operation("B", 4, int(rng.integers(2, 5)), rng)
            total = sum(p for p, _ in apply_unilocal(psi, op))
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_no_signalling_on_reduced_state(self, rng):
        psi = random_pure_state(3, 3, rng)
        op = random_unilocal_operation("B", 3, 3, rng)
        sigma = partial_trace_b(psi).entries
        averaged = sum(p * partial_trace_b(state).entries for p, state in apply_unilocal(psi, op))
        assert np.max(np.abs(averaged - sigma)) < 1e-9

    def test_lossy_operation_rejected(self, rng):
        half = np.eye(2) / np.sqrt(2)
        op = UnilocalOperation("B", (("0", (half,)),))
        with pytest.raises(ValueError, match="not trace preserving"):
            apply_unilocal(BELL, op)

    def test_dimension_changing_operation(self, rng):
        # isometry embedding Bob's qubit into a qutrit
        iso = np.zeros((3, 2), dtype=complex)
        iso[0, 0] = iso[1, 1] = 1.0
        op = UnilocalOperation("B", (("0", (iso,)),))
        ensemble = apply_unilocal(BELL, op)
        p, out = ensemble.items[0]
        assert out.dim_b == 3
        assert np.allclose(schmidt(out)[0].values, [0.5, 0.5])

    def test_coarse_grained_outcome_is_mixed(self):
        # both projectors merged into one outcome: the label is forgotten and
        # the pure input decoheres into a diagonal mixture
        p0, p1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
        op = UnilocalOperation("B", (("any", (p0, p1)),))
        ensemble = apply_unilocal(BELL, op)
        assert len(ensemble) == 1
        p, state = ensemble.items[0]
        assert p == pytest.approx(1.0, abs=1e-12)
        assert isinstance(state, DensityMatrix)
        assert np.allclose(state.entries, np.diag([0.5, 0, 0, 0.5]))

    def test_density_matrix_input_needs_dims(self, rng):
        rho = density_of(BELL)
        op = projective_measurement("A", 2)
        with pytest.raises(ValueError, match="required"):
            apply_unilocal(rho, op)
        ensemble = apply_unilocal(rho, op, dim_a=2, dim_b=2)
        assert sum(p for p, _ in ensemble) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("party", ["A", "B"])
    def test_density_matrix_of_wrong_shape_rejected(self, party):
        # the operation fits the declared dims 2x3; the 4x4 matrix does not
        op = unilocal_unitary(party, np.eye(2 if party == "A" else 3))
        with pytest.raises(ValueError, match="dimension mismatch"):
            apply_unilocal(density_of(BELL), op, 2, 3)


def _random_kraus(dim_in, dim_out, n_out, rng):
    """n_out operators dim_in -> dim_out with sum K^dag K = I: blocks of an isometry."""
    iso = haar_unitary(dim_out * n_out, rng)[:, :dim_in]
    return [iso[k * dim_out:(k + 1) * dim_out] for k in range(n_out)]


class TestPureStatePath:
    """Pure inputs are transformed on the coefficient matrix, never on the full space."""

    @pytest.mark.parametrize("party", ["A", "B"])
    @pytest.mark.parametrize("dim_out", [2, 3, 5])
    def test_matches_kron_reference(self, party, dim_out, rng):
        dim_a, dim_b = 3, 4
        for _ in range(5):
            psi = random_pure_state(dim_a, dim_b, rng)
            kraus = _random_kraus(dim_a if party == "A" else dim_b, dim_out, 3, rng)
            op = UnilocalOperation(party, tuple((str(k), (K,)) for k, K in enumerate(kraus)))
            ensemble = apply_unilocal(psi, op)
            assert len(ensemble) == len(kraus)
            for (p, out), K in zip(ensemble, kraus):
                full = np.kron(K, np.eye(dim_b)) if party == "A" else np.kron(np.eye(dim_a), K)
                vec = full @ psi.amplitudes
                weight = float(np.vdot(vec, vec).real)
                ref = vec / np.sqrt(weight)
                assert isinstance(out, PureState)
                assert (out.dim_a, out.dim_b) == ((dim_out, dim_b) if party == "A" else (dim_a, dim_out))
                assert p == pytest.approx(weight, abs=1e-14)
                overlap = np.vdot(ref, out.amplitudes)
                assert np.max(np.abs(out.amplitudes - overlap / abs(overlap) * ref)) <= 1e-14

    @pytest.mark.parametrize("party, expected", [("A", "dim_a=2, state has 3"),
                                                 ("B", "dim_b=2, state has 4")])
    @pytest.mark.parametrize("pure", [True, False])
    def test_wrong_input_dimension_rejected(self, party, expected, pure, rng):
        psi = random_pure_state(3, 4, rng)
        op = unilocal_unitary(party, haar_unitary(2, rng))
        state, dims = (psi, (None, None)) if pure else (density_of(psi), (3, 4))
        with pytest.raises(ValueError, match="dimension mismatch") as info:
            apply_unilocal(state, op, *dims)
        assert expected in str(info.value)


class TestAncilla:
    def test_bell_plus_pure_ancilla_keeps_entanglement(self):
        anc = DensityMatrix(2, np.diag([1.0, 0.0]).astype(complex))
        rho = add_ancilla(BELL, "B", anc)
        reduced = partial_trace_b(rho, 2, 4)
        assert np.allclose(np.sort(np.linalg.eigvalsh(reduced.entries)), [0.5, 0.5], atol=1e-10)

    def test_mixed_ancilla_trace_one(self, rng):
        anc = DensityMatrix(2, np.diag([0.3, 0.7]).astype(complex))
        rho = add_ancilla(random_pure_state(2, 2, rng), "A", anc)
        assert abs(np.trace(rho.entries) - 1.0) < 1e-10

    def test_round_trip_both_parties(self, rng):
        psi = random_pure_state(2, 3, rng)
        base = density_of(psi)
        anc = DensityMatrix(2, np.diag([0.25, 0.75]).astype(complex))
        onto_b = add_ancilla(psi, "B", anc)
        back = dismiss_part(onto_b, (2, 3, 2), 2)
        assert np.max(np.abs(back.entries - base.entries)) < 1e-10
        onto_a = add_ancilla(psi, "A", anc)
        back = dismiss_part(onto_a, (2, 2, 3), 1)
        assert np.max(np.abs(back.entries - base.entries)) < 1e-10

    @pytest.mark.parametrize("party", ["A", "B"])
    def test_density_matrix_of_wrong_shape_rejected(self, party):
        anc = DensityMatrix(2, np.diag([1.0, 0.0]).astype(complex))
        with pytest.raises(ValueError, match="dimension mismatch"):
            add_ancilla(density_of(BELL), party, anc, 2, 3)

    def test_dismiss_unknown_factor(self):
        rho = density_of(BELL)
        with pytest.raises(ValueError, match="unknown factor"):
            dismiss_part(rho, (2, 2), 5)
        with pytest.raises(ValueError, match="unknown factor"):
            dismiss_part(rho, (3, 2), 0)


class TestForget:
    def test_single_member(self):
        rho = forget(OutcomeEnsemble(((1.0, BELL),)))
        assert np.max(np.abs(rho.entries - density_of(BELL).entries)) < 1e-12

    def test_orthogonal_mixture_is_diagonal(self):
        ens = OutcomeEnsemble(((0.5, ket(2, 2, 0, 0)), (0.5, ket(2, 2, 1, 1))))
        rho = forget(ens)
        assert np.allclose(rho.entries, np.diag([0.5, 0, 0, 0.5]))

    def test_output_is_valid_density(self, rng):
        members = [random_pure_state(2, 2, rng) for _ in range(3)]
        probs = rng.dirichlet(np.ones(3))
        rho = forget(OutcomeEnsemble(tuple(zip(probs, members))))
        assert abs(np.trace(rho.entries) - 1.0) < 1e-10
        assert np.max(np.abs(rho.entries - rho.entries.conj().T)) < 1e-10


class TestPerturbationMeasurement:
    def test_bell_diagonal_shift(self):
        pm = perturbation_measurement(BELL, np.diag([0.1, -0.1]).astype(complex))
        ensemble = apply_unilocal(BELL, pm.operation())
        assert len(ensemble) == 2
        # Bell's Schmidt basis on A is computational, sigma = I/2: the shifted
        # reduced states are literally diag(0.6, 0.4) and diag(0.4, 0.6).
        expected = [np.diag([0.6, 0.4]), np.diag([0.4, 0.6])]
        for (p, state), exp in zip(ensemble, expected):
            assert p == pytest.approx(0.5, abs=1e-10)
            assert np.max(np.abs(partial_trace_b(state).entries - exp)) < 1e-9

    def test_zero_shift_reproduces_input(self):
        pm = perturbation_measurement(BELL, np.zeros((2, 2), dtype=complex))
        assert np.allclose(pm.o1, np.eye(2) / np.sqrt(2), atol=1e-12)
        assert np.allclose(pm.o2, np.eye(2) / np.sqrt(2), atol=1e-12)
        for p, state in apply_unilocal(BELL, pm.operation()):
            assert p == pytest.approx(0.5, abs=1e-12)
            assert phase_distance(state.amplitudes, BELL.amplitudes) < 1e-10

    def test_componentwise_bound_enforced(self):
        with pytest.raises(ValueError, match="bound violated"):
            perturbation_measurement(BELL, np.diag([0.3, -0.3]).astype(complex))

    def test_rank_deficiency_rejected(self):
        product = ket(2, 2, 0, 0)
        with pytest.raises(ValueError, match="rank deficiency"):
            perturbation_measurement(product, np.zeros((2, 2), dtype=complex))

    def test_non_traceless_rejected(self):
        with pytest.raises(ValueError, match="traceless"):
            perturbation_measurement(BELL, np.diag([0.1, 0.1]).astype(complex))

    def test_nan_shift_rejected(self):
        with pytest.raises(ValueError, match="delta_sigma"):
            perturbation_measurement(BELL, np.diag([np.nan, np.nan]).astype(complex))

    @pytest.mark.parametrize("o1, tau, message", [
        (np.full((2, 2), np.nan), np.zeros((2, 2)), "identity"),
        (np.eye(2) / np.sqrt(2), np.full((2, 2), np.nan), "tau"),
        (np.eye(2) / np.sqrt(2), 1.5 * np.eye(2), "positive semidefinite"),
    ])
    def test_bad_operators_rejected(self, o1, tau, message):
        with pytest.raises(ValueError, match=message):
            PerturbationMeasurement(o1=o1, o2=np.eye(2) / np.sqrt(2), tau=tau)

    def test_random_battery(self, rng):
        for _ in range(20):
            da = int(rng.integers(2, 4))
            db = int(rng.integers(da, 5))
            psi = random_pure_state(da, db, rng)
            spectrum, basis_a, _ = schmidt(psi)
            delta = random_traceless_hermitian(da, rng)
            bound = float(np.min(spectrum.values[:da] ** 2))
            delta *= 0.9 * bound / np.max(np.abs(delta))
            pm = perturbation_measurement(psi, delta)
            comp = pm.o1.conj().T @ pm.o1 + pm.o2.conj().T @ pm.o2
            assert np.max(np.abs(comp - np.eye(db))) < 1e-10
            sigma = basis_a @ np.diag(spectrum.values[:da]) @ basis_a.conj().T
            shift = basis_a @ delta @ basis_a.conj().T
            for (p, state), sign in zip(apply_unilocal(psi, pm.operation()), (1, -1)):
                assert p == pytest.approx(0.5, abs=1e-10)
                reduced = partial_trace_b(state).entries
                assert np.max(np.abs(reduced - (sigma + sign * shift))) < 1e-9


class TestCheckC1:
    def test_entropy_spec_has_no_violations(self):
        report = check_c1(E1, trials=300, dims=(3, 3), seed=5)
        assert report.violations == []
        assert report.max_violation < 1e-9

    def test_multiple_specs_share_trials(self):
        specs = [alpha_entropy_spec(a) for a in (0.0, 0.5, 1.0)]
        report = check_c1(specs, trials=100, dims=(3, 3), seed=5)
        assert len(report.records) == 300
        assert report.violations == []

    def test_convex_control_caught(self):
        control = monotone_by_name("control:sum_squares")
        report = check_c1(control, trials=100, dims=(4, 4), seed=5)
        assert len(report.violations) >= 1
        assert report.max_violation > 1e-6

    @pytest.mark.parametrize("dims", [(3, 3), (4, 4)])
    def test_vidal_kinks_have_no_violations(self, dims):
        # The E_l have kinks wherever two weights meet, where the smooth Renyi
        # family has none; their convex complements (the Ky Fan sums of the
        # l - 1 largest weights) must be flagged on the same trials.
        specs = [monotone_from_concave(vidal_spec(l), samples=300) for l in range(2, dims[0] + 1)]
        ky_fan = [MonotoneSpec(f"ky_fan:{spec.name}", g=lambda p, g=spec.g: 1.0 - g(p), normalized=False)
                  for spec in specs]
        report = check_c1(specs + ky_fan, trials=300, dims=dims, seed=11)
        assert len(report.records) == 300 * 2 * len(specs)
        assert report.violations and all(rec.monotone.startswith("ky_fan:") for rec in report.violations)

    def test_unilocal_unitaries_preserve_value(self, rng):
        # invariance, not just monotonicity, for the reversible step
        for _ in range(50):
            psi = random_pure_state(3, 3, rng)
            party = "A" if rng.random() < 0.5 else "B"
            op = unilocal_unitary(party, haar_unitary(3, rng))
            (p, out), = apply_unilocal(psi, op).items
            assert abs(E1(psi) - p * E1(out)) < 1e-10

    def test_deterministic_for_fixed_seed(self):
        r1 = check_c1(E1, trials=50, dims=(3, 3), seed=9)
        r2 = check_c1(E1, trials=50, dims=(3, 3), seed=9)
        assert [rec.margin for rec in r1.records] == [rec.margin for rec in r2.records]

    def test_summary_lines_render(self):
        report = check_c1(E1, trials=20, dims=(2, 2), seed=1)
        text = "\n".join(report.summary_lines())
        assert "C1" in text and "violations: 0" in text

    def test_report_holds_arrays_and_builds_records(self):
        specs = [E1, monotone_by_name("control:sum_squares")]
        report = check_c1(specs, trials=60, dims=(3, 3), seed=2)
        assert report.monotones == ("e_alpha:1", "control:sum_squares")
        assert report.before.shape == report.after.shape == (60, 2)
        records = report.records
        assert [(rec.trial, rec.monotone) for rec in records[:3]] == [
            (0, "e_alpha:1"), (0, "control:sum_squares"), (1, "e_alpha:1")]
        assert report.violations == [rec for rec in records if rec.margin < -report.tolerance]
        assert report.worst_record == min(records, key=lambda rec: rec.margin)
        assert report.max_violation == max(0.0, -min(rec.margin for rec in records))

    def test_empty_report(self):
        report = check_c1(E1, trials=0, dims=(2, 2), seed=1)
        assert report.records == [] and report.worst_record is None and report.max_violation == 0.0

    @pytest.mark.parametrize("screen", [check_c1, check_c2])
    @pytest.mark.parametrize("trials, message", [(-1, "trial count must be non-negative, got -1"),
                                                 (2.5, "trial count must be an integer, got 2.5")])
    def test_bad_trial_count_rejected(self, screen, trials, message):
        with pytest.raises(ValueError, match=message):
            screen(E1, trials=trials, dims=(2, 2), seed=1)

    @pytest.mark.parametrize("screen", [check_c1, check_c2])
    def test_non_finite_monotone_rejected(self, screen):
        with pytest.raises(ValueError, match=r"monotone 'nan' is not finite on trial #0"):
            screen([E1, NAN_SPEC], trials=2, dims=(2, 2), seed=1)


C1_SPECS = [monotone_by_name(name) for name in
            ("e0", "e1", "e_alpha:0.5", "trace_fn:linear", "trace_fn:shannon", "control:sum_squares")]


def reference_c1(specs, trials, dims, seed):
    """The C1 screen trial by trial through the public per-trial functions, one g call per trial."""
    records = []
    children = np.random.SeedSequence(seed).spawn(trials)
    for t in range(trials):
        rng = np.random.default_rng(children[t])
        psi = random_pure_state(*dims, rng)
        party = "A" if rng.random() < 0.5 else "B"
        n_out = int(rng.integers(2, 5))
        op = random_unilocal_operation(party, dims[0] if party == "A" else dims[1], n_out, rng)
        ensemble = apply_unilocal(psi, op)
        stack = np.array([schmidt(psi)[0].values] + [schmidt(s)[0].values for _, s in ensemble])
        for spec in specs:
            values = spec.g(stack)
            after = float(sum(p * float(v) for (p, _), v in zip(ensemble, values[1:])))
            records.append(TrialRecord(t, spec.name, float(values[0]), after))
    return records


def record_bits(records):
    """Records with their values as exact hex strings, so that -0.0 and 0.0 differ."""
    return [(rec.trial, rec.monotone, rec.before.hex(), rec.after_avg.hex()) for rec in records]


class TestBlockedC1:
    """check_c1 stacks a block's linear algebra; its records are those of the per-trial screen."""

    @pytest.mark.parametrize("dims", [(2, 2), (2, 6), (3, 5), (6, 2), (8, 8), (1, 3), (3, 1), (1, 1)])
    def test_records_equal_the_per_trial_screen(self, dims):
        report = check_c1(C1_SPECS, trials=30, dims=dims, seed=3)
        assert record_bits(report.records) == record_bits(reference_c1(C1_SPECS, 30, dims, 3))

    def test_equal_across_a_block_boundary(self):
        trials = locc.C1_BLOCK + 5
        report = check_c1(C1_SPECS, trials=trials, dims=(2, 3), seed=4)
        assert record_bits(report.records) == record_bits(reference_c1(C1_SPECS, trials, (2, 3), 4))

    @settings(max_examples=25, deadline=None)
    @given(dims=st.sampled_from([(2, 2), (1, 3), (3, 2)]), seed=st.integers(0, 3),
           block=st.integers(1, 9), total=st.integers(1, 24), data=st.data())
    def test_fewer_trials_give_a_prefix(self, dims, seed, block, total, data):
        # SeedSequence.spawn is prefix-stable, so neither the trial count nor
        # the block size changes the records of the first trials
        k = data.draw(st.integers(0, total - 1), label="k")
        full = check_c1(C1_SPECS, trials=total, dims=dims, seed=seed)
        with mock.patch.object(locc, "C1_BLOCK", block):
            part = check_c1(C1_SPECS, trials=k, dims=dims, seed=seed)
        assert record_bits(part.records) == record_bits(full.records[:k * len(C1_SPECS)])

    @pytest.mark.parametrize("dims", [(0, 3), (-1, 2)])
    def test_nonpositive_dims_rejected(self, dims):
        with pytest.raises(ValueError, match="positive"):
            check_c1(E1, trials=1, dims=dims)



def reference_c2(specs, trials, dims, seed, ensemble_range=(2, 3)):
    """The C2 screen trial by trial, each trial's ensemble and roof searches drawn from its own stream."""
    records = []
    children = np.random.SeedSequence(seed).spawn(trials)
    for t in range(trials):
        rng = np.random.default_rng(children[t])
        k = int(rng.integers(ensemble_range[0], ensemble_range[1] + 1))
        members = [random_pure_state(*dims, rng) for _ in range(k)]
        ensemble = list(zip(rng.dirichlet(np.ones(k)), members))
        rho = forget(OutcomeEnsemble(tuple(ensemble)))
        seed_iso = isometry_of_ensemble(rho, ensemble)
        for spec in specs:
            lhs = float(sum(p * spec(psi) for p, psi in ensemble))
            est = roof_estimate(rho, dims[0], dims[1], spec, m=max(seed_iso.shape[0], 4), seed=rng,
                                restarts=2, iterations=200, initial_isometries=[seed_iso])
            records.append(TrialRecord(t, spec.name, lhs, est.value))
    return records


C2_SPECS = [E1, monotone_by_name("trace_fn:linear")]


class TestBlockedC2:
    """check_c2 runs through the same block loop as check_c1; its records are the per-trial ones."""

    @pytest.mark.parametrize("dims, ensemble_range", [((2, 2), (2, 3)), ((2, 3), (1, 3))])
    def test_records_equal_the_per_trial_screen(self, dims, ensemble_range):
        report = check_c2(C2_SPECS, trials=3, dims=dims, seed=5, ensemble_range=ensemble_range)
        assert report.before.shape == (3, len(C2_SPECS))
        want = reference_c2(C2_SPECS, 3, dims, 5, ensemble_range)
        assert record_bits(report.records) == record_bits(want)

    def test_equal_across_block_boundaries(self):
        with mock.patch.object(locc, "C1_BLOCK", 2):
            report = check_c2(E1, trials=5, dims=(2, 2), seed=6)
        assert record_bits(report.records) == record_bits(reference_c2([E1], 5, (2, 2), 6))

    @pytest.mark.parametrize("block", [2, 5])
    def test_a_block_mixing_ranks_and_monotones(self, block):
        # the first five trials draw ensembles of 1, 2 and 3 members, so a
        # block of five holds three ranks, and three monotones triple the groups
        specs = C2_SPECS + [monotone_by_name("e_alpha:0.5")]
        children = np.random.SeedSequence(2).spawn(5)
        assert {int(np.random.default_rng(c).integers(1, 4)) for c in children} == {1, 2, 3}
        with mock.patch.object(locc, "C1_BLOCK", block):
            report = check_c2(specs, trials=7, dims=(2, 3), seed=2, ensemble_range=(1, 3))
        assert record_bits(report.records) == record_bits(reference_c2(specs, 7, (2, 3), 2, (1, 3)))

    @pytest.mark.parametrize("block", [1, 2, 3])
    def test_fewer_trials_give_a_prefix(self, block):
        full = check_c2(E1, trials=4, dims=(2, 2), seed=8)
        with mock.patch.object(locc, "C1_BLOCK", block):
            part = check_c2(E1, trials=3, dims=(2, 2), seed=8)
        assert record_bits(part.records) == record_bits(full.records[:3])

    @pytest.mark.parametrize("dims", [(0, 2), (2, -1)])
    def test_nonpositive_dims_rejected(self, dims):
        with pytest.raises(ValueError, match="positive"):
            check_c2(E1, trials=1, dims=dims)

    def test_each_trial_is_eigendecomposed_once(self):
        # one decomposition gives the trial's own isometry and its roof searches
        with mock.patch.object(np.linalg, "eigh", wraps=np.linalg.eigh) as eigh:
            check_c2(E1, trials=5, dims=(2, 2))
        assert eigh.call_count == 5

    @pytest.mark.parametrize("trials", [0, 2])
    @pytest.mark.parametrize("ensemble_range", [(0, 0), (0, 2), (3, 2), (1.5, 2), (1, 2.0), ("1", 2),
                                                (2,), (1, 2, 3), 3])
    def test_bad_ensemble_range_rejected(self, trials, ensemble_range):
        # before any draw, so even zero trials raise
        with mock.patch.object(np.random, "default_rng") as draws:
            with pytest.raises(ValueError, match=r"ensemble range must be two integers 1 <= lo <= hi"):
                check_c2(E1, trials=trials, ensemble_range=ensemble_range)
        draws.assert_not_called()

    def test_numpy_integer_ensemble_range(self):
        report = check_c2(E1, trials=2, dims=(2, 2), seed=4, ensemble_range=(np.int64(1), np.int32(3)))
        assert record_bits(report.records) == record_bits(reference_c2([E1], 2, (2, 2), 4, (1, 3)))


class TestCheckC2:
    def test_single_member_ensembles_touch_equality(self):
        report = check_c2(E1, trials=10, dims=(2, 2), seed=3, ensemble_range=(1, 1))
        for rec in report.records:
            assert abs(rec.margin) < 1e-8

    def test_random_mixtures_respect_convexity(self):
        report = check_c2(E1, trials=30, dims=(2, 2), seed=3)
        assert report.violations == []

    def test_bell_plus_product_example(self, rng):
        from entmono.roof import isometry_of_ensemble, roof_estimate

        members = [BELL, ket(2, 2, 0, 0)]
        probs = [0.5, 0.5]
        mixed = sum(p * density_of(psi).entries for p, psi in zip(probs, members))
        rho = DensityMatrix(4, mixed)
        seed_iso = isometry_of_ensemble(rho, list(zip(probs, members)))
        est = roof_estimate(rho, 2, 2, E1, m=4, restarts=4, iterations=400, seed=7,
                            initial_isometries=[seed_iso])
        average = sum(p * E1(psi) for p, psi in zip(probs, members))
        assert average == pytest.approx(0.5, abs=1e-12)
        assert est.value <= average + 1e-9

    def test_orthogonal_product_ensemble_gives_zero(self):
        report = check_c2(E1, trials=1, dims=(2, 2), seed=0, ensemble_range=(1, 1))
        # direct orthogonal-product construction
        from entmono.roof import roof_estimate

        rho = DensityMatrix(4, np.diag([0.25, 0.25, 0.25, 0.25]).astype(complex))
        est = roof_estimate(rho, 2, 2, E1, restarts=4, iterations=300, seed=1)
        assert est.value <= 1e-6
