from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entmono import (
    ConversionBound,
    SchmidtSpectrum,
    bound_average_yield,
    bound_multicopy,
    bound_single,
    e_alpha,
    locally_equivalent,
)
from entmono.conversion import DENOMINATOR_FLOOR

SOURCE_33 = SchmidtSpectrum([0.5000, 0.4991, 0.0009])
TARGET_33 = SchmidtSpectrum([0.7000, 0.2737, 0.0263])
H_07_03 = 0.8812908992306927
BELL = SchmidtSpectrum([0.5, 0.5])


def random_spectrum(rng, size):
    return SchmidtSpectrum(rng.dirichlet(np.ones(size)))


class TestLocallyEquivalent:
    def test_permutation_handled_by_sorting(self):
        assert locally_equivalent(SchmidtSpectrum([0.6, 0.4]), SchmidtSpectrum([0.4, 0.6]))

    def test_distinct_spectra(self):
        assert not locally_equivalent(SchmidtSpectrum([0.6, 0.4]), SchmidtSpectrum([0.7, 0.3]))

    def test_zero_padding(self):
        assert locally_equivalent(SchmidtSpectrum([0.5, 0.5, 0.0]), SchmidtSpectrum([0.5, 0.5]))

    def test_tolerance_override(self):
        a = SchmidtSpectrum([0.7001, 0.2999])
        b = SchmidtSpectrum([0.7, 0.3])
        assert not locally_equivalent(a, b)
        assert locally_equivalent(a, b, tol=1e-3)


class TestBoundSingle:
    def test_worked_pair_half_alpha_ratio(self):
        bound = bound_single(SOURCE_33, TARGET_33)
        curve = dict(bound.per_alpha_curve)
        assert curve[0.5] == pytest.approx(0.8754, abs=5e-3)
        assert bound.value <= 0.88

    def test_equal_entropy_but_not_interconvertible(self):
        # the pair shares E_1 yet the family bound sits well below one
        ratio_e1 = e_alpha(SOURCE_33, 1.0) / e_alpha(TARGET_33, 1.0)
        assert ratio_e1 == pytest.approx(1.0, abs=2e-3)
        assert bound_single(SOURCE_33, TARGET_33).value < 0.88

    def test_identity_conversion(self):
        bound = bound_single(SOURCE_33, SOURCE_33)
        assert bound.value == pytest.approx(1.0, abs=1e-12)
        assert all(r == pytest.approx(1.0, abs=1e-12) for _, r in bound.per_alpha_curve)

    def test_grid_minimum_at_shannon_end(self):
        bound = bound_single(SchmidtSpectrum([0.7, 0.3]), BELL)
        assert bound.minimizing_alpha == pytest.approx(1.0)
        assert bound.value == pytest.approx(H_07_03, abs=1e-3)

    def test_separable_target_rejected(self):
        with pytest.raises(ValueError, match="denominator vanishes"):
            bound_single(BELL, SchmidtSpectrum([1.0]))

    def test_ratios_clipped_to_probability_range(self):
        bound = bound_single(BELL, SchmidtSpectrum([0.9, 0.1]))
        assert all(0.0 <= r <= 1.0 for _, r in bound.per_alpha_curve)
        assert bound.value == pytest.approx(1.0)

    def test_equivalent_spectra_bound_one_both_directions(self):
        s = SchmidtSpectrum([0.6, 0.3, 0.1])
        t = SchmidtSpectrum([0.3, 0.1, 0.6, 0.0])  # permuted and zero-padded
        assert locally_equivalent(s, t)
        assert bound_single(s, t).value == pytest.approx(1.0, abs=1e-12)
        assert bound_single(t, s).value == pytest.approx(1.0, abs=1e-12)

    def test_symmetry_sanity(self, rng):
        for _ in range(30):
            s = random_spectrum(rng, int(rng.integers(2, 5)))
            t = random_spectrum(rng, int(rng.integers(2, 5)))
            if locally_equivalent(s, t):
                continue
            assert bound_single(s, t).value * bound_single(t, s).value <= 1.0 + 1e-9

    def test_grid_refinement_never_raises_bound(self, rng):
        for _ in range(10):
            s = random_spectrum(rng, 3)
            t = random_spectrum(rng, 3)
            coarse = bound_single(s, t, np.linspace(0, 1, 101)).value
            fine = bound_single(s, t, np.linspace(0, 1, 201)).value
            assert fine <= coarse + 1e-12

    def test_invariants_enforced_on_construction(self):
        with pytest.raises(ValueError, match="minimum"):
            ConversionBound(value=0.5, minimizing_alpha=0.5, per_alpha_curve=((0.5, 0.9),))
        with pytest.raises(ValueError, match="negative"):
            ConversionBound(value=-0.1, minimizing_alpha=0.5, per_alpha_curve=((0.5, -0.1),))


def exact_pair(source, target):
    """Both spectra as Fractions, zero-padded to one length and normalized exactly."""
    n = max(source.size, target.size)
    pair = []
    for s in (source, target):
        v = [Fraction(float(x)) for x in s] + [Fraction(0)] * (n - s.size)
        pair.append([x / sum(v) for x in v])
    return pair


def vidal_probability(a, b) -> Fraction:
    """Optimal single-copy conversion probability a -> b (Vidal, PRL 83, 1046).

    P = min over l of E_l(a) / E_l(b), with E_l the sum of the descending
    squared Schmidt coefficients from the l-th on.
    """
    return min(sum(a[l:]) / sum(b[l:]) for l in range(len(b)) if sum(b[l:]) > 0)


def majorizes(b, a) -> bool:
    """Whether every head sum of b is at least that of a."""
    return all(sum(b[:k]) >= sum(a[:k]) for k in range(1, len(a) + 1))


@st.composite
def spectra(draw):
    weights = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=5)))
    return SchmidtSpectrum(weights / weights.sum())


class TestVidalOracle:
    @settings(max_examples=300, deadline=None)
    @given(source=spectra(), target=spectra())
    def test_bound_never_below_optimal_probability(self, source, target):
        a, b = exact_pair(source.values, target.values)
        p = vidal_probability(a, b)
        assert bound_single(source, target).value >= float(p) - 1e-12
        assert majorizes(b, a) == (p == 1)


def reference_curve(source, target, grid):
    """(alpha, ratio) pairs from one scalar e_alpha call per order and spectrum."""
    curve = []
    for alpha in grid:
        denom = e_alpha(target, float(alpha))
        if denom >= DENOMINATOR_FLOOR:
            curve.append((float(alpha), e_alpha(source, float(alpha)) / denom))
    return curve


@st.composite
def grids(draw):
    if draw(st.booleans()):
        return np.linspace(0.0, 1.0, draw(st.sampled_from([1, 2, 3, 11, 201, 2001])))
    special = st.sampled_from([0.0, 0.5, 1.0, 1.0 - 1e-13, 1.0 - 1e-6])
    return np.array(draw(st.lists(st.one_of(special, st.floats(0.0, 1.0)), min_size=1,
                                  max_size=40)))


class TestScalarReference:
    @settings(max_examples=200, deadline=None)
    @given(source=spectra(), target=spectra(), grid=grids(), copies=st.integers(1, 5))
    def test_bounds_equal_the_scalar_loop(self, source, target, grid, copies):
        curve = reference_curve(source, target, grid)
        clipped = tuple((a, min(r, 1.0)) for a, r in curve)
        best = min(range(len(clipped)), key=lambda i: clipped[i][1])
        bound = bound_single(source, target, grid)
        assert repr(bound.per_alpha_curve) == repr(clipped)
        assert repr((bound.value, bound.minimizing_alpha)) == repr(clipped[best][::-1])
        assert repr(bound_average_yield(source, target, copies, grid)) == repr(
            float(copies) * min(r for _, r in curve))


class TestMultiCopy:
    def test_copy_count_independent(self):
        base = bound_single(SOURCE_33, TARGET_33).value
        for n in (1, 2, 5, 100):
            assert bound_multicopy(SOURCE_33, TARGET_33, n).value == pytest.approx(base, abs=1e-12)

    def test_explicit_tensors_agree(self):
        for n in (2, 3):
            s = SOURCE_33.values
            t = TARGET_33.values
            for _ in range(n - 1):
                s = np.kron(s, SOURCE_33.values)
                t = np.kron(t, TARGET_33.values)
            explicit = bound_single(SchmidtSpectrum(np.sort(s)[::-1]), SchmidtSpectrum(np.sort(t)[::-1]))
            symbolic = bound_multicopy(SOURCE_33, TARGET_33, n)
            assert explicit.value == pytest.approx(symbolic.value, abs=1e-9)

    def test_identity_many_copies(self):
        assert bound_multicopy(TARGET_33, TARGET_33, 5).value == pytest.approx(1.0, abs=1e-12)

    def test_rejects_bad_copy_count(self):
        with pytest.raises(ValueError, match="positive"):
            bound_multicopy(SOURCE_33, TARGET_33, 0)


class TestAverageYield:
    def test_worked_pair_hundred_copies(self):
        top = bound_average_yield(SOURCE_33, TARGET_33, 100)
        # the alpha = 1/2 member alone caps the mean at 87.54; the family
        # minimum can only tighten that
        assert top <= 87.54 + 0.5
        assert top == pytest.approx(100 * bound_single(SOURCE_33, TARGET_33).value, abs=1e-9)

    def test_identical_pair(self):
        assert bound_average_yield(TARGET_33, TARGET_33, 10) == pytest.approx(10.0, abs=1e-9)

    def test_bell_to_lopsided_pair(self):
        grid = np.linspace(0, 1, 201)
        target = SchmidtSpectrum([0.7, 0.3])
        # the alpha = 1 endpoint maximizes the ratio at 10 / H(0.3)
        endpoint = 10 * e_alpha(BELL, 1.0) / e_alpha(target, 1.0)
        assert endpoint == pytest.approx(11.35, abs=0.02)
        # but the grid minimum sits at alpha = 0, where both ranks agree
        assert bound_average_yield(BELL, target, 10, grid) == pytest.approx(10.0, abs=1e-9)
