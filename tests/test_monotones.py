import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entmono import (
    MonotoneSpec,
    MonotoneValidationError,
    SchmidtSpectrum,
    delta_e_alpha_of_fidelity,
    e_alpha,
    maximally_entangled,
    monotone_by_name,
    monotone_from_concave,
    random_density_matrix,
    random_pure_state,
    renyi_entropy,
    tensor_bipartite,
    trace_fn_spec,
)
from entmono.monotones import linear_entropy_term, shannon_term

# direct high-precision evaluation of -0.7 log2 0.7 - 0.3 log2 0.3
H_07_03 = 0.8812908992306927

# squared Schmidt coefficients of the worked 3x3 pair, printed to 4 decimals
SOURCE_33 = SchmidtSpectrum([0.5000, 0.4991, 0.0009])
TARGET_33 = SchmidtSpectrum([0.7000, 0.2737, 0.0263])


def simplex_points(max_size=6):
    return (
        st.lists(st.floats(1e-6, 1.0), min_size=2, max_size=max_size)
        .map(lambda ws: np.array(ws) / np.sum(ws))
    )


class TestRenyiEntropy:
    def test_uniform_gives_log_n(self):
        for n in (2, 3, 5):
            for alpha in (0.0, 0.3, 0.5, 1.0):
                assert renyi_entropy(np.full(n, 1.0 / n), alpha) == pytest.approx(
                    np.log2(n), abs=1e-12
                )

    def test_deterministic_gives_zero(self):
        for alpha in (0.0, 0.5, 1.0):
            assert renyi_entropy([1.0, 0.0], alpha) == pytest.approx(0.0, abs=1e-12)

    def test_shannon_value(self):
        assert renyi_entropy([0.7, 0.3], 1.0) == pytest.approx(0.8813, abs=1e-4)
        assert renyi_entropy([0.7, 0.3], 1.0) == pytest.approx(H_07_03, abs=1e-15)

    def test_alpha_zero_counts_support(self):
        assert renyi_entropy([0.5, 0.5 - 1e-13, 1e-13], 0.0) == pytest.approx(1.0)

    def test_rejects_alpha_outside_range(self):
        with pytest.raises(ValueError, match="alpha"):
            renyi_entropy([0.5, 0.5], 1.5)
        with pytest.raises(ValueError, match="alpha"):
            renyi_entropy([0.5, 0.5], -0.1)

    def test_rejects_bad_distribution(self):
        with pytest.raises(ValueError, match="sum"):
            renyi_entropy([0.5, 0.4], 0.5)

    @settings(max_examples=200, deadline=None)
    @given(p=simplex_points(), a1=st.floats(0, 1), a2=st.floats(0, 1))
    def test_monotone_in_alpha(self, p, a1, a2):
        lo, hi = min(a1, a2), max(a1, a2)
        assert renyi_entropy(p, lo) >= renyi_entropy(p, hi) - 1e-9

    @settings(max_examples=200, deadline=None)
    @given(p=simplex_points())
    def test_permutation_symmetry(self, p):
        assert renyi_entropy(p[::-1], 0.6) == pytest.approx(renyi_entropy(p, 0.6), abs=1e-10)

    def test_continuity_toward_shannon(self, rng):
        for _ in range(50):
            p = rng.dirichlet(np.ones(int(rng.integers(2, 7)))) + 1e-6
            p = p / p.sum()
            assert abs(renyi_entropy(p, 0.9999) - renyi_entropy(p, 1.0)) < 1e-3


class TestEAlpha:
    def test_worked_pair_shares_entropy_of_entanglement(self):
        assert e_alpha(SOURCE_33, 1.0) == pytest.approx(1.0099, abs=2e-3)
        assert e_alpha(TARGET_33, 1.0) == pytest.approx(1.0099, abs=2e-3)

    def test_maximally_entangled_any_alpha(self):
        for n in (2, 3, 4):
            psi = maximally_entangled(n)
            for alpha in (0.0, 0.25, 0.5, 1.0):
                assert e_alpha(psi, alpha) == pytest.approx(np.log2(n), abs=1e-10)

    def test_matches_reduced_state_route(self, rng):
        # the spectrum route must agree with S_alpha of the partial trace
        from entmono import partial_trace_b

        for _ in range(10):
            psi = random_pure_state(3, 4, rng)
            eigs = np.clip(np.linalg.eigvalsh(partial_trace_b(psi).entries), 0.0, None)
            for alpha in (0.25, 0.5, 0.75):
                via_trace = np.log2(np.sum(eigs**alpha)) / (1.0 - alpha)
                assert e_alpha(psi, alpha) == pytest.approx(via_trace, abs=1e-10)

    def test_additivity_on_states(self, rng):
        for _ in range(20):
            psi = random_pure_state(2, 3, rng)
            phi = random_pure_state(3, 2, rng)
            combined = tensor_bipartite(psi, phi)
            for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
                assert e_alpha(combined, alpha) == pytest.approx(
                    e_alpha(psi, alpha) + e_alpha(phi, alpha), abs=1e-9
                )

    def test_bounded_by_log_min_dimension(self, rng):
        for _ in range(50):
            da, db = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            psi = random_pure_state(da, db, rng)
            for alpha in (0.0, 0.5, 1.0):
                val = e_alpha(psi, alpha)
                assert -1e-12 <= val <= np.log2(min(da, db)) + 1e-9

    def test_trace_power_concavity(self, rng):
        # Tr sigma^alpha is concave on density matrices for alpha in (0, 1)
        def trace_power(m, alpha):
            return float(np.sum(np.clip(np.linalg.eigvalsh(m), 0, None) ** alpha))

        for _ in range(40):
            dim = int(rng.integers(2, 5))
            s1 = random_density_matrix(dim, rng).entries
            s2 = random_density_matrix(dim, rng).entries
            lam = float(rng.uniform())
            for alpha in (0.3, 0.5, 0.8):
                mixed = trace_power(lam * s1 + (1 - lam) * s2, alpha)
                split = lam * trace_power(s1, alpha) + (1 - lam) * trace_power(s2, alpha)
                assert mixed >= split - 1e-9


class TestMonotoneSpecValidation:
    def test_shannon_spec_matches_e1(self, rng):
        spec = monotone_from_concave(
            MonotoneSpec("shannon", g=lambda p: renyi_entropy(p, 1.0)), samples=2000
        )
        for _ in range(100):
            psi = random_pure_state(3, 3, rng)
            assert spec(psi) == pytest.approx(e_alpha(psi, 1.0), abs=1e-10)

    def test_parabolic_trace_fn_is_valid_and_zero_on_products(self):
        spec = monotone_from_concave(trace_fn_spec(linear_entropy_term, "linear"), samples=2000)
        assert spec(SchmidtSpectrum([1.0])) == pytest.approx(0.0, abs=1e-12)
        assert spec(SchmidtSpectrum([0.5, 0.5])) == pytest.approx(0.5, abs=1e-12)

    def test_convex_spec_rejected(self):
        convex = MonotoneSpec("sum-squares", g=lambda p: float(np.sum(p**2)), normalized=False)
        with pytest.raises(MonotoneValidationError, match="concavity"):
            monotone_from_concave(convex, samples=2000)

    def test_normalization_flag_enforced(self):
        shifted = MonotoneSpec("shifted", g=lambda p: renyi_entropy(p, 1.0) + 0.5)
        with pytest.raises(MonotoneValidationError, match="point distribution"):
            monotone_from_concave(shifted, samples=100)

    def test_g_with_one_scalar_for_a_stack_rejected(self):
        scalar = MonotoneSpec("scalar", g=lambda p: float(np.sum(linear_entropy_term(np.asarray(p)))))
        with pytest.raises(MonotoneValidationError, match="stack of spectra"):
            monotone_from_concave(scalar, samples=200)

    def test_validation_error_carries_sample(self):
        convex = MonotoneSpec("sum-squares", g=lambda p: float(np.sum(p**2)), normalized=False)
        try:
            monotone_from_concave(convex, samples=2000)
        except MonotoneValidationError as exc:
            assert exc.sample is not None
        else:
            pytest.fail("expected rejection")


class TestTraceFnSpec:
    def test_shannon_instance_gives_one_bit(self):
        spec = trace_fn_spec(shannon_term, "shannon")
        assert spec(SchmidtSpectrum([0.5, 0.5])) == pytest.approx(1.0, abs=1e-12)

    def test_endpoint_normalization_enforced(self):
        with pytest.raises(ValueError, match="expected 0"):
            trace_fn_spec(lambda x: x, "identity")

    def test_convex_f_hat_rejected(self):
        with pytest.raises(ValueError, match="concavity"):
            trace_fn_spec(lambda x: x * x - x, "negative-parabola")


class TestDeltaEAlpha:
    def test_balanced_fidelity_gives_one_for_all_alpha(self):
        for alpha in (0.1, 0.25, 0.5, 0.75, 1.0):
            assert delta_e_alpha_of_fidelity(0.5, alpha) == pytest.approx(1.0, abs=1e-12)

    def test_product_state_endpoint(self):
        for alpha in (0.25, 0.5, 1.0):
            assert delta_e_alpha_of_fidelity(1.0, alpha) == pytest.approx(0.0, abs=1e-12)

    def test_alpha_zero_step(self):
        assert delta_e_alpha_of_fidelity(0.9, 0.0) == 1.0
        assert delta_e_alpha_of_fidelity(1.0, 0.0) == 0.0
        assert delta_e_alpha_of_fidelity(0.0, 0.0) == 0.0

    def test_joins_shannon_branch_near_alpha_one(self):
        for fidelity in (0.01, 0.3, 0.5, 0.9):
            for alpha in (1.0 - 1e-13, 1.0 - 5e-13):
                assert delta_e_alpha_of_fidelity(fidelity, alpha) == pytest.approx(
                    delta_e_alpha_of_fidelity(fidelity, 1.0), abs=1e-12
                )

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            delta_e_alpha_of_fidelity(1.2, 0.5)
        with pytest.raises(ValueError):
            delta_e_alpha_of_fidelity(0.5, 2.0)


NORMALIZED = ("e0", "e1", "e_alpha:0.5", "e_alpha:0.999999", "e_alpha:0.9999999999999",
              "trace_fn:shannon", "trace_fn:linear")
REGISTRY_NAMES = st.one_of(
    st.sampled_from(NORMALIZED + ("control:sum_squares",)),
    st.floats(0.0, 1.0).map(lambda a: f"e_alpha:{a!r}"),
)


@st.composite
def simplex_stacks(draw):
    """A (k, n) stack of probability vectors, zero entries included."""
    k, n = draw(st.integers(1, 5)), draw(st.integers(1, 10))
    entry = st.one_of(st.just(0.0), st.floats(1e-6, 1.0))
    weights = np.array(draw(st.lists(entry, min_size=k * n, max_size=k * n))).reshape(k, n)
    weights[weights.sum(axis=1) == 0.0, 0] = 1.0
    return weights / weights.sum(axis=1, keepdims=True)


class TestStackContract:
    @settings(max_examples=300, deadline=None)
    @given(name=REGISTRY_NAMES, stack=simplex_stacks())
    def test_g_of_a_stack_is_its_row_values(self, name, stack):
        spec = monotone_by_name(name)
        assert np.array_equal(spec.g(stack), [spec.g(row) for row in stack])

    @pytest.mark.parametrize("name", NORMALIZED)  # the convex control is 1 there
    def test_point_distributions_give_positive_zero(self, name):
        spec = monotone_by_name(name)
        for n in range(1, 7):
            for point in np.eye(n):
                value = spec.g(point)
                assert value == 0.0 and not np.signbit(value)
            assert not np.any(np.signbit(spec.g(np.eye(n))))

    @pytest.mark.parametrize("alpha", [0.0, 0.25, 0.5, 1.0 - 1e-6, 1.0 - 1e-13, 1.0])
    def test_delta_e_alpha_endpoints_give_positive_zero(self, alpha):
        for fidelity in (0.0, 1.0):
            value = delta_e_alpha_of_fidelity(fidelity, alpha)
            assert value == 0.0 and not np.signbit(value)


ORDERS = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, 1.0 - 1e-13, 1.0 - 2e-12]),
    st.floats(1.0 - 1e-4, 1.0 - 1e-12),  # the log1p window
    st.floats(0.0, 1.0),
)


class TestArrayOfOrders:
    @settings(max_examples=300, deadline=None)
    @given(stack=simplex_stacks(), alphas=st.lists(ORDERS, max_size=12), one_d=st.booleans())
    def test_entries_are_the_scalar_calls(self, stack, alphas, one_d):
        p = stack[0] if one_d else stack
        alphas = np.array(alphas)
        values = renyi_entropy(p, alphas)
        assert values.shape == alphas.shape + p.shape[:-1]
        for value, alpha in zip(values, alphas):
            scalar = renyi_entropy(p, float(alpha))
            assert np.array_equal(value, scalar) and np.array_equal(np.signbit(value),
                                                                    np.signbit(scalar))

    def test_orders_keep_their_shape(self):
        p = np.array([[0.3, 0.7], [0.1, 0.9], [1.0, 0.0]])
        alphas = np.array([[0.0, 0.25], [0.5, 1.0 - 1e-6], [0.999, 1.0]])
        values = renyi_entropy(p, alphas)
        assert values.shape == (3, 2, 3)
        for i, j in np.ndindex(alphas.shape):
            assert np.array_equal(values[i, j], renyi_entropy(p, float(alphas[i, j])))
        assert e_alpha(SchmidtSpectrum([0.3, 0.7]), [0.5])[0] == e_alpha(
            SchmidtSpectrum([0.3, 0.7]), 0.5)
        assert type(renyi_entropy([0.3, 0.7], np.float64(0.5))) is float

    @pytest.mark.parametrize("bad", [float("nan"), -0.1, 1.5])
    def test_an_invalid_order_raises_the_scalar_message(self, bad):
        with pytest.raises(ValueError) as scalar:
            renyi_entropy([0.3, 0.7], bad)
        with pytest.raises(ValueError, match=re.escape(str(scalar.value))):
            renyi_entropy([0.3, 0.7], np.array([0.25, bad, 0.5]))


class TestNearOne:
    @settings(max_examples=300, deadline=None)
    @given(stack=simplex_stacks(), gap=st.floats(0.0, 1e-4, exclude_min=True))
    def test_departure_from_shannon_is_first_order(self, stack, gap):
        # E_alpha - E_1 = (1 - alpha) Var_p(ln p) / (2 ln 2) + O((1 - alpha)^2)
        alpha = 1.0 - gap
        for p in stack:
            ln_p = np.log(p[p > 0.0])
            var = float(np.sum(p[p > 0.0] * ln_p**2) - np.sum(p[p > 0.0] * ln_p) ** 2)
            excess = renyi_entropy(p, alpha) - renyi_entropy(p, 1.0)
            assert -1e-13 <= excess <= gap * var / np.log(2.0) + 1e-13

    def test_pinned_order_joins_shannon(self):
        # the generic form was 8.8e-6 off here
        assert abs(renyi_entropy([0.3, 0.7], 1.0 - 2e-12) - H_07_03) <= 1e-12
        assert abs(delta_e_alpha_of_fidelity(0.3, 1.0 - 2e-12) - H_07_03) <= 1e-12


class TestRegistry:
    def test_builtin_names(self):
        assert monotone_by_name("e0").name == "e0"
        assert monotone_by_name("e1").name == "e1"
        spec = monotone_by_name("e_alpha:0.5")
        assert spec(SchmidtSpectrum([0.5, 0.5])) == pytest.approx(1.0)
        assert monotone_by_name("trace_fn:shannon")(SchmidtSpectrum([0.5, 0.5])) == pytest.approx(1.0)
        assert monotone_by_name("trace_fn:linear")(SchmidtSpectrum([0.5, 0.5])) == pytest.approx(0.5)

    def test_control_spec_is_exposed_but_flagged(self):
        control = monotone_by_name("control:sum_squares")
        assert not control.normalized
        with pytest.raises(MonotoneValidationError):
            monotone_from_concave(control, samples=2000)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown monotone"):
            monotone_by_name("nope")
        with pytest.raises(ValueError, match="unknown trace_fn"):
            monotone_by_name("trace_fn:nope")
        with pytest.raises(ValueError, match="cannot parse"):
            monotone_by_name("e_alpha:abc")
        with pytest.raises(ValueError, match="alpha"):
            monotone_by_name("e_alpha:1.5")
