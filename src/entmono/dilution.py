"""Truncated many-copy states from entanglement dilution, at large copy counts.

The target of the dilution is a two-term state with squared coefficients
(a, b) = (cos^2 theta, sin^2 theta), a > b > 0.  The Schmidt coefficients of
its N-fold tensor power group into N+1 levels: level l holds C(N, l) equal
squared coefficients p_l = a^(N-l) b^l.  Truncating to levels l <= x*N and
renormalizing yields the state whose fidelity with the full power and whose
per-copy order-alpha entropies this module evaluates.

Every sum over levels runs in the natural-log domain (binomials at N ~ 10^6
overflow any fixed-width float) as a running log-sum-exp over one table of
level log-weights, read at each cutoff (orders just below alpha = 1 take one
pass per cutoff instead); conversion to base-2 happens only at output.  The fidelity is reported in two conventions that agree on all
step-function conclusions: the squared tail mass T^2 and the normalized-state
overlap T (see ``fidelity_curve``).  Entropies use the standard non-negative
sign convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .monotones import _NEAR_ONE, ALPHA_ONE_TOL, renyi_entropy
from .states import _count

LN2 = math.log(2.0)


@dataclass(frozen=True)
class DilutionTarget:
    """Two-term dilution target parametrized by theta in (0, pi/4)."""

    theta: float

    def __post_init__(self):
        if not 0.0 < self.theta < math.pi / 4:
            raise ValueError(
                f"theta must lie strictly inside (0, pi/4), got {self.theta!r}; "
                "the target must be entangled but not maximally so"
            )
        if not (self.b > 0.0 and math.isfinite(self.a / self.b)):  # sin^2 underflows near 1e-154
            raise ValueError(f"theta {self.theta!r} is too small: cos^2/sin^2 theta overflows a float")

    @property
    def a(self) -> float:
        return math.cos(self.theta) ** 2

    @property
    def b(self) -> float:
        return math.sin(self.theta) ** 2

    def entanglement(self, alpha: float) -> float:
        """E_alpha of a single copy, from the closed two-point spectrum."""
        return renyi_entropy([self.a, self.b], alpha)


@dataclass(frozen=True)
class DiscontinuityRow:
    """One schedule entry of the fixed-offset truncation diagnostics."""

    n_tilde: int
    x: float
    fidelity_paper: float
    fidelity_normalized: float
    e1: float
    e_alpha: float
    gap: float


@dataclass(frozen=True)
class DilutionCurve:
    """Sampled truncation curves for one (theta, N) pair.

    ``e_alpha_per_copy`` maps each requested alpha to its sampled vector;
    ``x_star`` is the asymptotic step location b = sin^2 theta.
    """

    n_tilde: int
    x_samples: np.ndarray
    r_values: np.ndarray
    m_of_r: np.ndarray
    tail: np.ndarray
    fidelity_paper: np.ndarray
    fidelity_normalized: np.ndarray
    e1_per_copy: np.ndarray
    e_alpha_per_copy: dict
    x_star: float


def _log_binomials(n_tilde, l):
    """ln C(N, l) via log-gamma, elementwise over the level index l."""
    return gammaln(n_tilde + 1) - gammaln(l + 1) - gammaln(n_tilde - l + 1)


def log_binom(n: int, l: int) -> float:
    """Natural log of the binomial coefficient C(n, l), via log-gamma."""
    if not 0 <= l <= n:  # NaN fails it
        raise ValueError(f"binomial index out of range: C({n}, {l})")
    return float(_log_binomials(_count(n, "n"), _count(l, "l")))


def truncation_index(x: float, n_tilde: int) -> int:
    """Largest retained level r = floor(x * N), clamped into [0, N]."""
    n_tilde = _count(n_tilde, "copy count N")
    return int(min(max(math.floor(x * n_tilde), 0), n_tilde))


def _level_table(target: DilutionTarget, n_tilde: int, r_max: int):
    """Levels l = 0..r_max with ln C(N, l) and ln p_l = (N-l) ln a + l ln b."""
    l = np.arange(r_max + 1)
    return l, _log_binomials(n_tilde, l), (n_tilde - l) * math.log(target.a) + l * math.log(target.b)


def _prefix(log_terms: np.ndarray, r):
    """ln sum_{l<=r} exp(log_terms[l]) at each cutoff r, from one running log-sum-exp."""
    return np.logaddexp.accumulate(log_terms)[r]


def _near_one_log_sums(log_w: np.ndarray, log_p: np.ndarray, log_t: np.ndarray, r_values, gap: float):
    """ln sum_{l<=r} C(N,l) lambda_l^alpha at each cutoff r, for 0 < gap = 1 - alpha < ``_NEAR_ONE``.

    With lambda_l = p_l / T_r the sum is 1 + S_r, where
    S_r = sum_l (w_l / T_r) expm1(gap (ln T_r - ln p_l)) has no negative term
    (T_r >= p_l), so S_r is a log-sum-exp and ln(1 + S_r) cancels nothing.
    S_r depends on the cutoff through T_r, so each sample takes its own pass
    over l <= r: O(r) per sample.
    """
    out = np.empty(len(r_values))
    for k, (r, lt) in enumerate(zip(r_values, log_t)):
        x = gap * (lt - log_p[: r + 1])
        with np.errstate(divide="ignore"):  # x = 0 where T_r = p_l, as at r = 0: a zero term
            log_terms = log_w[: r + 1] - lt + x + np.log(-np.expm1(-x))  # ln(expm1(x)) without overflow
        top = log_terms.max()
        out[k] = 0.0 if top == -np.inf else np.logaddexp(0.0, top + np.log(np.exp(log_terms - top).sum()))
    return out


def tail_mass(target: DilutionTarget, n_tilde: int, r: int) -> float:
    """T = sum_{l<=r} C(N,l) a^(N-l) b^l, in (0, 1], by log-sum-exp."""
    if not 0 <= r <= n_tilde:
        raise ValueError(f"level cutoff out of range: r={r}, N={n_tilde}")
    n_tilde, r = _count(n_tilde, "copy count N"), _count(r, "level cutoff r")
    _, log_c, log_p = _level_table(target, n_tilde, r)
    return float(min(math.exp(_prefix(log_c + log_p, r)), 1.0))


def m_of_r(n_tilde: int, r: int) -> float:
    """Base-2 log of the retained coefficient count: the teleportation cost in ebits."""
    if not 0 <= r <= n_tilde:
        raise ValueError(f"level cutoff out of range: r={r}, N={n_tilde}")
    n_tilde, r = _count(n_tilde, "copy count N"), _count(r, "level cutoff r")
    return float(_prefix(_log_binomials(n_tilde, np.arange(r + 1)), r) / LN2)


def fidelity_curve(target: DilutionTarget, n_tilde: int, x_samples):
    """Fidelity of the truncation with the full tensor power, both conventions.

    Returns two sampled vectors: the squared tail mass T^2 (the raw projection
    amplitude squared, emitted as the F_paper column) and the overlap of the
    renormalized truncation with the power, |<xi|psi^N>|^2 = T (the
    F_normalized column).  The conventions agree at T = 1 and on every
    step-function conclusion.
    """
    curve = entropy_curves(target, n_tilde, x_samples, alphas=())
    return curve.fidelity_paper, curve.fidelity_normalized


def x_star(target: DilutionTarget) -> float:
    """Asymptotic step location of the fidelity curve.

    Per copy, the log of the retained count tends to the binary entropy
    H(x) for x <= 1/2, and the matching condition H(x*) = H(b) with
    x* <= 1/2 forces x* = b.
    """
    return target.b


def x_star_finite(target: DilutionTarget, n_tilde: int) -> float:
    """Finite-N step location: smallest r with m_of_r(r) >= N H(b), as a fraction.

    One running log-sum-exp over all N + 1 binomials gives m_of_r for every r;
    it is non-decreasing, so a binary search on it finds the exact crossing.
    """
    n_tilde = _count(n_tilde, "copy count N", 1)
    goal = n_tilde * target.entanglement(1.0)
    m_bits = np.logaddexp.accumulate(_log_binomials(n_tilde, np.arange(n_tilde + 1))) / LN2
    # rounding may keep m_of_r(N) = N a hair below a goal close to N
    return min(int(np.searchsorted(m_bits, goal)), n_tilde) / n_tilde


def entropy_curves(target: DilutionTarget, n_tilde: int, x_samples, alphas=(0.5,)) -> DilutionCurve:
    """Per-copy entropies and fidelities of the truncation along x samples.

    For cutoff r the normalized squared coefficients are lambda_l = p_l / T
    with multiplicity C(N, l); the per-copy Shannon entropy is
    -(1/N) sum C(N,l) lambda_l log2 lambda_l and the order-alpha value is
    log2(sum C(N,l) lambda_l^alpha) / (N (1 - alpha)), or the Shannon value
    within ``ALPHA_ONE_TOL`` of alpha = 1.  Each sum is one running log-sum-exp
    over the level table, read at every cutoff: O(N + S) per call.  Orders
    with 1 - alpha below ``monotones._NEAR_ONE`` (the window ``renyi_entropy``
    uses) instead take ``_near_one_log_sums``, O(r) per sample.  Shifting
    the Shannon sum about level r, N ln2 e1 = (ln T - ln p_r) - ln(a/b)(r - L),
    with L the mean retained level, gives exactly 0 at r = 0 and avoids the
    order-N cancellation of ln T - sum_l C(N,l) p_l ln p_l / T.
    """
    n_tilde = _count(n_tilde, "copy count N", 1)
    xs = np.asarray(x_samples, dtype=float)
    if not np.all((xs >= 0.0) & (xs <= 1.0)):  # written so that NaN fails it
        raise ValueError("x samples must lie in [0, 1]")
    alphas = [float(a) for a in alphas]
    for alpha in alphas:
        if not 0.0 <= alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {alpha!r}")
    r_values = np.array([truncation_index(x, n_tilde) for x in xs], dtype=int)
    l, log_c, log_p = _level_table(target, n_tilde, int(r_values.max(initial=0)))
    log_w = log_c + log_p
    log_t = _prefix(log_w, r_values)
    tails = np.minimum(np.exp(log_t), 1.0)
    ms = _prefix(log_c, r_values) / LN2
    with np.errstate(divide="ignore"):
        log_lw = log_w + np.log(l)  # ln(l w_l), -inf at l = 0
    mean_level = np.exp(_prefix(log_lw, r_values) - log_t)
    nats = (log_t - log_p[r_values]) - math.log(target.a / target.b) * (r_values - mean_level)
    e1 = nats / (LN2 * n_tilde) + 0.0

    per_alpha = {}
    for alpha in alphas:
        if abs(alpha - 1.0) < ALPHA_ONE_TOL:
            per_alpha[alpha] = e1.copy()
        elif alpha == 0.0:
            per_alpha[alpha] = ms / n_tilde
        else:
            if 1.0 - alpha < _NEAR_ONE:
                log_s = _near_one_log_sums(log_w, log_p, log_t, r_values, 1.0 - alpha)
            else:
                log_s = _prefix(log_c + alpha * log_p, r_values) - alpha * log_t
            per_alpha[alpha] = log_s / (LN2 * n_tilde * (1.0 - alpha)) + 0.0

    return DilutionCurve(
        n_tilde=n_tilde,
        x_samples=xs,
        r_values=r_values,
        m_of_r=ms,
        tail=tails,
        fidelity_paper=tails * tails,
        fidelity_normalized=tails.copy(),
        e1_per_copy=e1,
        e_alpha_per_copy=per_alpha,
        x_star=x_star(target),
    )


def discontinuity_report(target: DilutionTarget, n_tilde_schedule, alpha: float,
                         delta: float):
    """Fixed-offset diagnostics just past the step, across a copy-count schedule.

    At x = x* + delta the fidelity climbs toward one with growing N, while the
    per-copy order-alpha entropy (alpha < 1) stays measurably below the
    single-copy value E_alpha: the per-copy entropy is discontinuous as a
    function of fidelity.  Rows report both fidelity conventions, e1, e_alpha,
    and the gap E_alpha - e_alpha; no claim is made about the limit of
    e_alpha itself.
    """
    if not 0.0 <= alpha < 1.0:
        raise ValueError(
            f"alpha must lie in [0, 1); got {alpha!r} (order 1 is the continuous case)"
        )
    if not delta > 0.0:
        raise ValueError(f"delta must be positive, got {delta!r}")
    x = min(x_star(target) + delta, 1.0)
    reference = target.entanglement(alpha)
    rows = []
    for n_tilde in n_tilde_schedule:
        curve = entropy_curves(target, n_tilde, [x], alphas=[alpha])
        e_a = float(curve.e_alpha_per_copy[alpha][0])
        rows.append(DiscontinuityRow(
            n_tilde=curve.n_tilde, x=x, fidelity_paper=float(curve.fidelity_paper[0]),
            fidelity_normalized=float(curve.fidelity_normalized[0]),
            e1=float(curve.e1_per_copy[0]), e_alpha=e_a, gap=reference - e_a,
        ))
    return rows
