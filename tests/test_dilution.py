import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln, logsumexp

from entmono import (
    DilutionTarget,
    discontinuity_report,
    entropy_curves,
    fidelity_curve,
    log_binom,
    m_of_r,
    renyi_entropy,
    tail_mass,
    truncation_index,
    x_star,
    x_star_finite,
)
from entmono import dilution
from entmono.monotones import _NEAR_ONE, ALPHA_ONE_TOL

PI6 = DilutionTarget(math.pi / 6)
THETAS = (math.pi / 8, math.pi / 6, math.pi / 5)


def brute_curves(theta, n, x, alphas):
    """Full-spectrum reference: exact integer binomials, plain float powers.

    Enumerates every coefficient level of the truncated power state without
    logs, gammaln, or log-sum-exp, so it is independent of the library path.
    """
    a, b = math.cos(theta) ** 2, math.sin(theta) ** 2
    r = min(max(math.floor(x * n), 0), n)
    counts = [math.comb(n, l) for l in range(r + 1)]
    weights = [a ** (n - l) * b**l for l in range(r + 1)]
    t = math.fsum(c * w for c, w in zip(counts, weights))
    m = math.log2(sum(counts))
    e1 = -math.fsum(c * (w / t) * math.log2(w / t) for c, w in zip(counts, weights)) / n
    out = {}
    for alpha in alphas:
        if alpha == 1.0:
            out[alpha] = e1
        else:
            s = math.fsum(c * (w / t) ** alpha for c, w in zip(counts, weights))
            out[alpha] = math.log2(s) / (n * (1.0 - alpha))
    return r, t, m, e1, out


def chunked_reference(theta, n, r, alphas, chunk=1 << 16):
    """Per-cutoff sums as separate log-sum-exp passes over gammaln weights.

    Every quantity at cutoff r is summed from scratch over levels 0..r in
    chunks of at most ``chunk`` levels, the chunk partials joined by another
    log-sum-exp (or by fsum in the linear domain), so no running prefix is
    shared between cutoffs.  Returns (ln T, M in bits, e1, {alpha: e_alpha}).
    """
    log_a, log_b = math.log(math.cos(theta) ** 2), math.log(math.sin(theta) ** 2)

    def chunks():
        for start in range(0, r + 1, chunk):
            l = np.arange(start, min(start + chunk, r + 1))
            log_c = gammaln(n + 1) - gammaln(l + 1) - gammaln(n - l + 1)
            yield log_c, log_c + (n - l) * log_a + l * log_b

    log_t = logsumexp([logsumexp(log_w) for _, log_w in chunks()])
    m_bits = logsumexp([logsumexp(log_c) for log_c, _ in chunks()]) / math.log(2)
    shannon, renyi = [], {alpha: [] for alpha in alphas}
    for log_c, log_w in chunks():
        log_lam = log_w - log_c - log_t
        shannon.append(-float((np.exp(log_w - log_t) * log_lam).sum()))
        for alpha in alphas:
            renyi[alpha].append(logsumexp(log_c + alpha * log_lam))
    e1 = math.fsum(shannon) / (n * math.log(2))
    per_alpha = {alpha: logsumexp(parts) / (n * math.log(2) * (1.0 - alpha))
                 for alpha, parts in renyi.items()}
    return log_t, m_bits, e1, per_alpha


def full_table(target, n, r_values, alphas):
    """Every sum as one running log-sum-exp over all N + 1 levels, read at each cutoff.

    Orders within ``_NEAR_ONE`` of 1 take their log1p form over every level
    l <= r.  Returns (T, M / N, e1, {alpha: e_alpha}) per cutoff.
    """
    l = np.arange(n + 1)
    log_c = gammaln(n + 1) - gammaln(l + 1) - gammaln(n - l + 1)
    log_p = (n - l) * math.log(target.a) + l * math.log(target.b)
    log_w = log_c + log_p
    log_t = np.logaddexp.accumulate(log_w)[r_values]
    with np.errstate(divide="ignore"):
        mean_level = np.exp(np.logaddexp.accumulate(log_w + np.log(l))[r_values] - log_t)
    nats = (log_t - log_p[r_values]) - math.log(target.a / target.b) * (r_values - mean_level)
    e1 = nats / (n * math.log(2))
    per_alpha = {}
    for alpha in alphas:
        gap = 1.0 - alpha
        if gap < _NEAR_ONE:
            log_s = []
            for r, lt in zip(r_values, log_t):
                x = gap * (lt - log_p[: r + 1])
                with np.errstate(divide="ignore"):
                    terms = log_w[: r + 1] - lt + x + np.log(-np.expm1(-x))
                log_s.append(np.logaddexp(0.0, logsumexp(terms)))
        else:
            log_s = np.logaddexp.accumulate(log_c + alpha * log_p)[r_values] - alpha * log_t
        per_alpha[alpha] = np.asarray(log_s) / (n * math.log(2) * gap)
    m_per_copy = np.logaddexp.accumulate(log_c)[r_values] / (n * math.log(2))
    return np.minimum(np.exp(log_t), 1.0), m_per_copy, e1, per_alpha


def literal_spectrum(theta, n, x):
    """The truncated coefficient list written out entry by entry."""
    a, b = math.cos(theta) ** 2, math.sin(theta) ** 2
    r = min(max(math.floor(x * n), 0), n)
    levels = [np.full(math.comb(n, l), a ** (n - l) * b**l) for l in range(r + 1)]
    flat = np.concatenate(levels)
    return flat / flat.sum()


class TestDilutionTarget:
    def test_weights(self):
        assert PI6.a == pytest.approx(0.75, abs=1e-12)
        assert PI6.b == pytest.approx(0.25, abs=1e-12)
        assert PI6.a + PI6.b == pytest.approx(1.0, abs=1e-12)

    def test_guard_boundaries(self):
        for theta in (0.0, math.pi / 4, -0.1, 1.0):
            with pytest.raises(ValueError, match="theta"):
                DilutionTarget(theta)
        # sin^2 theta underflows: cos^2/sin^2 overflows, or sin^2 is exactly 0
        for theta in (1e-155, 5.734297452961379e-159, 1e-170, 5e-324):
            with pytest.raises(ValueError, match=f"theta {theta!r} is too small"):
                DilutionTarget(theta)
        DilutionTarget(1.4e-154)  # still accepted: cos^2/sin^2 is about 5e307

    def test_single_copy_entropies(self):
        assert PI6.entanglement(1.0) == pytest.approx(0.811278, abs=1e-6)
        assert PI6.entanglement(0.5) == pytest.approx(
            2 * math.log2(math.sqrt(0.75) + math.sqrt(0.25)), abs=1e-12
        )


class TestLogBinom:
    def test_small_value(self):
        assert log_binom(4, 1) == pytest.approx(math.log(4), abs=1e-12)

    def test_integer_oracle_up_to_thirty(self):
        for n in range(1, 31):
            for l in range(n + 1):
                exact = math.log(math.comb(n, l))
                got = log_binom(n, l)
                assert abs(got - exact) <= 1e-12 * max(1.0, abs(exact))

    def test_huge_arguments_stay_finite(self):
        val = log_binom(10**6, 5 * 10**5)
        assert math.isfinite(val)
        # Stirling: ln C(2m, m) ~ 2m ln 2 - 0.5 ln(pi m)
        m = 5 * 10**5
        stirling = 2 * m * math.log(2) - 0.5 * math.log(math.pi * m)
        assert val == pytest.approx(stirling, rel=1e-6)

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            log_binom(4, 5)
        with pytest.raises(ValueError, match="out of range"):
            log_binom(4, -1)

    @pytest.mark.parametrize("n, l", [(4, float("nan")), (float("nan"), 2)])
    def test_nan_index_out_of_range(self, n, l):
        with pytest.raises(ValueError, match="out of range"):
            log_binom(n, l)


class TestTruncationIndex:
    def test_floor_with_inclusive_boundary(self):
        assert truncation_index(0.25, 4) == 1
        assert truncation_index(0.5, 4) == 2
        assert truncation_index(0.49, 4) == 1

    def test_clamped_to_range(self):
        assert truncation_index(0.0, 10) == 0
        assert truncation_index(1.0, 10) == 10


class TestTailMass:
    def test_five_term_reference(self):
        # exact dyadic arithmetic: (81 + 4*27) / 256
        assert tail_mass(PI6, 4, 1) == pytest.approx(189 / 256, abs=1e-9)

    def test_full_range_is_one(self):
        for n in (4, 30, 1000):
            assert tail_mass(PI6, n, n) == pytest.approx(1.0, abs=1e-12)

    def test_single_term(self):
        for n in (1, 5, 20):
            assert tail_mass(PI6, n, 0) == pytest.approx(0.75**n, rel=1e-12)

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            tail_mass(PI6, 4, 5)

    def test_nan_cutoff_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            tail_mass(PI6, 4, float("nan"))
        with pytest.raises(ValueError, match="out of range"):
            m_of_r(4, float("nan"))


class TestFidelityCurve:
    def test_both_conventions_at_quarter(self):
        paper, normalized = fidelity_curve(PI6, 4, [0.25])
        assert normalized[0] == pytest.approx(0.738281, abs=1e-6)
        assert paper[0] == pytest.approx(0.545059, abs=1e-6)
        assert paper[0] == pytest.approx(normalized[0] ** 2, abs=1e-12)

    def test_endpoint(self):
        paper, normalized = fidelity_curve(PI6, 7, [1.0])
        assert paper[0] == pytest.approx(1.0, abs=1e-12)
        assert normalized[0] == pytest.approx(1.0, abs=1e-12)

    def test_monotone_in_x(self):
        xs = np.linspace(0, 1, 21)
        paper, normalized = fidelity_curve(PI6, 50, xs)
        assert np.all(np.diff(paper) >= -1e-15)
        assert np.all(np.diff(normalized) >= -1e-15)

    def test_large_n_concentration(self):
        paper, normalized = fidelity_curve(PI6, 5000, [0.20, 0.30])
        assert paper[0] < 0.01 and normalized[0] < 0.01
        assert paper[1] > 0.99 and normalized[1] > 0.99

    def test_rejects_out_of_range_samples(self):
        with pytest.raises(ValueError, match="samples"):
            fidelity_curve(PI6, 4, [1.5])

    @pytest.mark.parametrize("x", [np.nan, 1.5, -0.1])
    def test_entropy_curves_reject_samples_outside_the_unit_interval(self, x):
        with pytest.raises(ValueError, match=r"x samples must lie in \[0, 1\]"):
            entropy_curves(DilutionTarget(0.5), 10, [0.5, x])


class TestXStar:
    def test_asymptotic_matches_b(self):
        assert x_star(PI6) == pytest.approx(0.25, abs=1e-12)

    def test_approaches_half_for_balanced_target(self):
        nearly = DilutionTarget(math.pi / 4 - 1e-6)
        assert x_star(nearly) == pytest.approx(0.5, abs=1e-5)

    def test_finite_solver_close_to_asymptotic(self):
        assert x_star_finite(PI6, 1000) == pytest.approx(0.25, abs=0.02)

    def test_finite_solver_crossing(self):
        n = 200
        goal = n * PI6.entanglement(1.0)
        r = round(x_star_finite(PI6, n) * n)
        assert m_of_r(n, r) >= goal
        assert m_of_r(n, r - 1) < goal


class TestEntropyCurves:
    def test_full_truncation_recovers_single_copy_values(self):
        curve = entropy_curves(PI6, 12, [1.0], alphas=[0.0, 0.25, 0.5, 1.0])
        assert curve.e1_per_copy[0] == pytest.approx(PI6.entanglement(1.0), abs=1e-9)
        assert curve.e1_per_copy[0] == pytest.approx(0.811278, abs=1e-6)
        for alpha in (0.25, 0.5):
            assert curve.e_alpha_per_copy[alpha][0] == pytest.approx(
                PI6.entanglement(alpha), abs=1e-9
            )

    @pytest.mark.parametrize("theta", THETAS)
    def test_matches_brute_force_small_n(self, theta):
        target = DilutionTarget(theta)
        alphas = [0.0, 0.25, 0.5, 0.75, 1.0]
        xs = [0.0, 0.15, 0.3, 0.5, 0.75, 1.0]
        for n in (1, 2, 5, 11, 24, 30):
            curve = entropy_curves(target, n, xs, alphas=alphas)
            for i, x in enumerate(xs):
                r, t, m, e1, per_alpha = brute_curves(theta, n, x, alphas)
                assert curve.r_values[i] == r
                assert curve.tail[i] == pytest.approx(t, abs=1e-10)
                assert curve.m_of_r[i] == pytest.approx(m, abs=1e-10)
                assert curve.e1_per_copy[i] == pytest.approx(e1, abs=1e-10)
                for alpha in alphas:
                    assert curve.e_alpha_per_copy[alpha][i] == pytest.approx(
                        per_alpha[alpha], abs=1e-10
                    )

    def test_matches_literal_coefficient_list(self):
        # the spelled-out 2^N spectrum fed through the generic entropy code
        for n in (4, 9, 14):
            for x in (0.3, 0.6, 1.0):
                spectrum = literal_spectrum(math.pi / 6, n, x)
                curve = entropy_curves(PI6, n, [x], alphas=[0.5])
                assert curve.e1_per_copy[0] == pytest.approx(
                    renyi_entropy(spectrum, 1.0) / n, abs=1e-10
                )
                assert curve.e_alpha_per_copy[0.5][0] == pytest.approx(
                    renyi_entropy(spectrum, 0.5) / n, abs=1e-10
                )

    def test_renyi_ordering_along_curve(self):
        xs = np.linspace(0.05, 1.0, 12)
        curve = entropy_curves(PI6, 400, xs, alphas=[0.25, 0.5, 0.75])
        for alpha in (0.25, 0.5, 0.75):
            assert np.all(curve.e_alpha_per_copy[alpha] >= curve.e1_per_copy - 1e-9)

    def test_m_of_r_boundary(self):
        for n in (10, 200, 5000):
            curve = entropy_curves(PI6, n, [1.0], alphas=[0.5])
            assert curve.m_of_r[0] == pytest.approx(n, abs=1e-9)

    def test_step_function_convergence(self):
        lo, hi = [], []
        for n in (100, 500, 1000, 5000):
            _, normalized = fidelity_curve(PI6, n, [0.20, 0.30])
            lo.append(normalized[0])
            hi.append(normalized[1])
        assert all(np.diff(lo) <= 0), "below the step the fidelity must sink toward 0"
        assert all(np.diff(hi) >= 0), "above the step the fidelity must climb toward 1"

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError, match="alpha"):
            entropy_curves(PI6, 10, [0.5], alphas=[1.5])

    def test_alpha_within_one_tol_takes_shannon_branch(self):
        xs = np.linspace(0.0, 1.0, 11)
        near = [1.0 - 1e-15, 1.0 - 0.5 * ALPHA_ONE_TOL]
        target = DilutionTarget(0.5)
        curve = entropy_curves(target, 10, xs, alphas=near)
        for alpha in near:
            assert np.array_equal(curve.e_alpha_per_copy[alpha], curve.e1_per_copy)
        assert curve.e_alpha_per_copy[near[0]][-1] == pytest.approx(target.entanglement(1.0), abs=1e-9)

    @pytest.mark.parametrize("n", [0, -3])
    def test_rejects_copy_count_below_one(self, n):
        with pytest.raises(ValueError, match="copy count"):
            entropy_curves(PI6, n, [0.5])
        with pytest.raises(ValueError, match="copy count"):
            x_star_finite(PI6, n)
        with pytest.raises(ValueError, match="copy count"):
            fidelity_curve(PI6, n, [0.5])


class TestNearOneWindow:
    """Orders with 0 < 1 - alpha < 1e-4 against a 50-digit sum over the same float a and b."""

    ALPHAS = (1.0 - 2e-12, 1.0 - 1e-9, 1.0 - 5e-5)

    @staticmethod
    def reference(target, n, r, alpha):
        with mpmath.workdps(50):
            a, b, gap = mpmath.mpf(target.a), mpmath.mpf(target.b), 1 - mpmath.mpf(alpha)
            p = [a ** (n - l) * b**l for l in range(r + 1)]
            w = [mpmath.binomial(n, l) * p[l] for l in range(r + 1)]
            t = mpmath.fsum(w)
            s = mpmath.fsum(wl / t * (pl / t) ** -gap for wl, pl in zip(w, p))
            return float(mpmath.log(s, 2) / (n * gap))

    @pytest.mark.parametrize("n", [100, 1000])
    def test_matches_the_exact_sum(self, n):
        target = DilutionTarget(0.5)
        xs = [0.0, 0.3, 0.6, 1.0]
        curve = entropy_curves(target, n, xs, alphas=self.ALPHAS)
        for alpha in self.ALPHAS:
            for r, value in zip(curve.r_values, curve.e_alpha_per_copy[alpha]):
                assert value == pytest.approx(self.reference(target, n, int(r), alpha), abs=1e-13)
            assert curve.e_alpha_per_copy[alpha][0] == 0.0


class TestMillionCopyDrift:
    """Running prefix sums at N = 10^6 against per-cutoff chunked log-sum-exp."""

    N = 10**6
    ALPHAS = (0.0, 0.25, 0.5, 0.9)

    @pytest.mark.parametrize("theta", [math.pi / 6, 0.7])
    def test_prefix_sums_match_chunked_reference(self, theta):
        target = DilutionTarget(theta)
        step = round(target.b * self.N)
        cutoffs = [0, 1, 1000, self.N // 5, step - 1000, step, step + 1000, self.N // 2,
                   3 * self.N // 4, self.N]
        xs = [r / self.N for r in cutoffs]
        curve = entropy_curves(target, self.N, xs, alphas=self.ALPHAS)
        for i, r in enumerate(curve.r_values):
            log_t, m_bits, e1, per_alpha = chunked_reference(theta, self.N, int(r), self.ALPHAS)
            assert abs(curve.tail[i] - math.exp(log_t)) <= 1e-10, r
            assert abs(curve.m_of_r[i] - m_bits) / self.N <= 1e-11, r
            assert abs(curve.e1_per_copy[i] - e1) <= 1e-11, r
            for alpha in self.ALPHAS:
                assert abs(curve.e_alpha_per_copy[alpha][i] - per_alpha[alpha]) <= 1e-11, (r, alpha)
        assert curve.r_values[0] == 0 and curve.e1_per_copy[0] == 0.0
        assert all(curve.e_alpha_per_copy[alpha][0] == 0.0 for alpha in self.ALPHAS)
        values = [curve.tail, curve.m_of_r, curve.e1_per_copy, *curve.e_alpha_per_copy.values()]
        assert all(np.all(v >= 0.0) for v in values)

    def test_x_star_finite_matches_reference_bisection(self):
        target = DilutionTarget(math.pi / 6)
        goal = self.N * target.entanglement(1.0)

        def m_bits(r):
            return chunked_reference(math.pi / 6, self.N, r, ())[1]

        lo, hi = 0, self.N
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if m_bits(mid) >= goal else (mid, hi)
        assert x_star_finite(target, self.N) == hi / self.N


class TestLevelWindows:
    """Each sum reads the union of its checked windows, not all N + 1 levels."""

    @settings(max_examples=60, deadline=None)
    @given(
        theta=st.floats(1e-12, math.pi / 4, exclude_max=True),
        n=st.integers(1, 2000),
        xs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
        alpha=st.floats(0.01, 0.99),
        gap=st.floats(2 * ALPHA_ONE_TOL, 0.99 * _NEAR_ONE),
    )
    def test_windows_match_the_full_table(self, theta, n, xs, alpha, gap):
        target = DilutionTarget(theta)
        alphas = (alpha, 1.0 - gap)
        curve = entropy_curves(target, n, xs, alphas=(0.0, *alphas))
        tail, m_per_copy, e1, per_alpha = full_table(target, n, curve.r_values, alphas)
        assert np.all(np.abs(curve.tail - tail) <= 1e-14 * tail)
        assert np.all(np.abs(curve.e_alpha_per_copy[0.0] - m_per_copy) <= 1e-13)
        assert np.all(np.abs(curve.e1_per_copy - e1) <= 1e-13)
        for a in alphas:
            assert np.all(np.abs(curve.e_alpha_per_copy[a] - per_alpha[a]) <= 1e-13), a
        l = np.arange(n + 1)
        running_m = np.logaddexp.accumulate(gammaln(n + 1) - gammaln(l + 1) - gammaln(n - l + 1)) / math.log(2)
        crossing = min(int(np.searchsorted(running_m, n * target.entanglement(1.0))), n)
        assert x_star_finite(target, n) == crossing / n

    @staticmethod
    def window_terms(target, n, key, r, lo, hi, log_t):
        """The log-terms of sum ``key`` at cutoff r over levels lo..hi, as the window rule sees them."""
        l = np.arange(lo, hi + 1)
        log_c = gammaln(n + 1) - gammaln(l + 1) - gammaln(n - l + 1)
        log_p = (n - l) * math.log(target.a) + l * math.log(target.b)
        with np.errstate(divide="ignore"):
            if key == "m":
                return log_c
            if key == "t":
                return log_c + log_p
            if key == "l":
                return log_c + log_p + np.log(l)
            if 1.0 - key >= _NEAR_ONE:
                return log_c + key * log_p
            x = (1.0 - key) * (log_t - log_p)
            return log_c + log_p - log_t + x + np.log(-np.expm1(-x))

    @pytest.mark.parametrize("theta", [math.pi / 6, 0.7])
    def test_a_million_copies_read_under_five_percent(self, theta, monkeypatch):
        n = 10**6
        target = DilutionTarget(theta)
        r_values = np.array([truncation_index(x, n) for x in np.linspace(0.0, 1.0, 11)])
        log_t = dilution._level_sum(target, n, r_values, "t")
        tables = []  # the windows and table of each pass; a sum's last pass is its checked one
        union = dilution._union

        def spy(lo, hi):
            tables.append((lo, hi, union(lo, hi)))
            return tables[-1][2]

        monkeypatch.setattr(dilution, "_union", spy)
        for key in ["t", "m", "l", 0.25, 0.5, 0.99995]:
            dilution._level_sum(target, n, r_values, key, log_t if key == 0.99995 else None)
            lo, hi, levels = tables[-1]
            assert levels.size < 0.05 * (n + 1), key
            for r, a, b, lt in zip(r_values, lo, hi, log_t):
                assert 0 <= a <= b <= r
                assert np.array_equal(levels[np.searchsorted(levels, a):][: b - a + 1], np.arange(a, b + 1))
                terms = self.window_terms(target, n, key, r, a, b, lt)
                peak = terms.max()
                assert a == 0 or terms[0] <= peak - dilution.DROP, (key, r)
                assert b == r or terms[-1] <= peak - dilution.DROP, (key, r)

    def test_short_first_windows_are_widened(self, monkeypatch):
        # every window starts as the single level r; the check must grow each one to its full reach
        target, n = DilutionTarget(0.6), 5000
        xs = np.linspace(0.0, 1.0, 21)
        alphas = (0.0, 0.3, 0.99995)
        want = entropy_curves(target, n, xs, alphas=alphas)
        monkeypatch.setattr(dilution, "_first_windows", lambda n_tilde, r_values, s: (r_values, r_values))
        got = entropy_curves(target, n, xs, alphas=alphas)
        tail, m_per_copy, e1, per_alpha = full_table(target, n, got.r_values, alphas[1:])
        assert np.all(np.abs(got.tail - tail) <= 1e-14 * tail)
        assert np.all(np.abs(got.e1_per_copy - e1) <= 1e-13)
        for alpha in alphas:
            assert np.allclose(got.e_alpha_per_copy[alpha], want.e_alpha_per_copy[alpha],
                               rtol=1e-14, atol=1e-15)
        assert np.all(np.abs(got.e_alpha_per_copy[0.3] - per_alpha[0.3]) <= 1e-13)
        assert got.e_alpha_per_copy[0.99995][0] == 0.0 and got.e1_per_copy[0] == 0.0

    def test_no_samples_give_empty_curves(self):
        curve = entropy_curves(PI6, 10, [], alphas=(0.0, 0.5, 0.99995, 1.0))
        assert curve.r_values.size == curve.tail.size == curve.m_of_r.size == curve.e1_per_copy.size == 0
        assert all(values.size == 0 for values in curve.e_alpha_per_copy.values())

    @pytest.mark.parametrize("theta", [1e-3, 0.3, math.pi / 4 - 1e-6])
    def test_scalar_entry_points_match_the_full_table(self, theta):
        target, n = DilutionTarget(theta), 3000
        l = np.arange(n + 1)
        log_c = gammaln(n + 1) - gammaln(l + 1) - gammaln(n - l + 1)
        log_p = (n - l) * math.log(target.a) + l * math.log(target.b)
        log_t = np.logaddexp.accumulate(log_c + log_p)
        m_bits = np.logaddexp.accumulate(log_c) / math.log(2)
        for r in (0, 1, 17, n // 3, n // 2, n - 1, n):
            assert tail_mass(target, n, r) == pytest.approx(min(math.exp(log_t[r]), 1.0), rel=1e-14, abs=0)
            assert m_of_r(n, r) == pytest.approx(m_bits[r], rel=1e-15, abs=0)
        crossing = min(int(np.searchsorted(m_bits, n * target.entanglement(1.0))), n)
        assert x_star_finite(target, n) == crossing / n


class TestDiscontinuityReport:
    def test_alpha_one_rejected(self):
        with pytest.raises(ValueError, match="alpha"):
            discontinuity_report(PI6, [100], 1.0, 0.05)

    def test_delta_guard(self):
        with pytest.raises(ValueError, match="delta"):
            discontinuity_report(PI6, [100], 0.5, 0.0)

    @pytest.mark.parametrize("delta", [-0.1, np.nan])
    def test_negative_or_nan_delta_named(self, delta):
        with pytest.raises(ValueError, match="delta must be positive"):
            discontinuity_report(PI6, [100], 0.5, delta)

    def test_gap_persists_while_fidelity_saturates(self):
        rows = discontinuity_report(PI6, [100, 500, 1000, 5000], 0.5, 0.05)
        infidelity = [1.0 - row.fidelity_normalized for row in rows]
        assert all(np.diff(infidelity) < 0)
        assert rows[-1].fidelity_normalized >= 0.99
        assert rows[-1].fidelity_paper >= 0.99
        assert all(row.gap > 0.02 for row in rows)
        reference = PI6.entanglement(0.5)
        for row in rows:
            assert row.gap == pytest.approx(reference - row.e_alpha, abs=1e-12)
