"""Truncated many-copy states from entanglement dilution, at large copy counts.

The target of the dilution is a two-term state with squared coefficients
(a, b) = (cos^2 theta, sin^2 theta), a > b > 0.  The Schmidt coefficients of
its N-fold tensor power group into N+1 levels: level l holds C(N, l) equal
squared coefficients p_l = a^(N-l) b^l.  Truncating to levels l <= x*N and
renormalizing yields the state whose fidelity with the full power and whose
per-copy order-alpha entropies this module evaluates.

Every sum over levels runs in the natural-log domain (binomials at N ~ 10^6
overflow any fixed-width float), and conversion to base-2 happens only at
output.  A sum reads only the levels that count.  Its log-terms are concave in
l: ln C(N, l) + s l, plus ln l for the mean level, plus ln expm1(gap Delta_l)
for orders just below alpha = 1.  For a cutoff r, the sum's window is a run of
levels [lo, hi] inside [0, r] that holds the largest term on [0, r], and every
edge other than 0 and r must lie at least ``DROP`` nats below that peak; a
window whose edge does not is widened until it does.  By concavity the terms
beyond such an edge fall by at least DROP / K nats per level, K the edge's
distance from the peak, so the levels dropped on each side add up to at most
e^-DROP K / DROP of the peak term: the sum loses at most 2 e^-DROP K / DROP of
itself, under 2^-53 for every K below 10^7.

Each series (T, the retained count, the mean level, each order) has its own
level table: the union of that series' windows, O(S sqrt N) levels for S
cutoffs and never more than N + 1.  ln C(N, l) and ln p_l are computed only
there, each level exactly as a full table would have it.  The series' sum is
one running log-sum-exp over its table, read at the last table level at or
below r: every level it adds to the window is a true term of the sum, so where
the table covers [0, r] the value is the full table's, bit for bit.  Orders
just below alpha = 1 take one pass per cutoff over its window.

The fidelity is reported in two conventions that agree on all step-function
conclusions: the squared tail mass T^2 and the normalized-state overlap T (see
``fidelity_curve``).  Entropies use the standard non-negative sign convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .monotones import _NEAR_ONE, ALPHA_ONE_TOL, renyi_entropy
from .states import _count, _outside

LN2 = math.log(2.0)
DROP = 50.0  # nats below a sum's peak at which its window may end


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


def _log_p(target: DilutionTarget, n_tilde, l):
    """ln p_l = (N - l) ln a + l ln b, elementwise over the level index l."""
    return (n_tilde - l) * math.log(target.a) + l * math.log(target.b)


def log_binom(n: int, l: int) -> float:
    """Natural log of the binomial coefficient C(n, l), via log-gamma."""
    if _outside(0, l, n):
        raise ValueError(f"binomial index out of range: C({n}, {l})")
    return float(_log_binomials(_count(n, "n"), _count(l, "l")))


def _cutoff(n_tilde, r):
    """N and the level cutoff r as ints with 0 <= r <= N."""
    if _outside(0, r, n_tilde):
        raise ValueError(f"level cutoff out of range: r={r}, N={n_tilde}")
    return _count(n_tilde, "copy count N"), _count(r, "level cutoff r")


def truncation_index(x: float, n_tilde: int) -> int:
    """Largest retained level r = floor(x * N), clamped into [0, N]."""
    n_tilde = _count(n_tilde, "copy count N")
    return int(min(max(math.floor(x * n_tilde), 0), n_tilde))


def _first_windows(n_tilde, r_values, s):
    """A window [lo, hi] per cutoff r for log-terms ln C(N, l) + s l, from a Gaussian estimate.

    Up to a constant the terms are a binomial with success probability
    p = 1 / (1 + e^-s), so about the mean N p they fall like
    (l - N p)^2 / (2 N p (1 - p)).  Each window reaches 1.2 ``DROP`` down the
    widest of these parabolas, that of p = 1/2, from its peak on [0, r], so
    the central window that holds most of a table has the same size for every
    target and order.  ``_level_sum`` checks it.
    """
    p = 1.0 / (1.0 + math.exp(-s))
    mean = n_tilde * p
    reach = 0.6 * DROP * n_tilde  # squared distance from the mean of a 1.2 DROP fall at p = 1/2
    lo = np.floor(mean - np.sqrt((mean - np.minimum(r_values, mean)) ** 2 + reach)) - 1
    lo = np.maximum(lo, 0).astype(int)
    return lo, np.clip(math.ceil(mean + math.sqrt(reach)) + 1, lo, r_values)


def _union(lo, hi):
    """The sorted distinct levels that the windows [lo, hi] cover."""
    order = np.argsort(lo, kind="stable")
    lo, reach = lo[order], np.maximum.accumulate(hi[order])
    start, end = np.ones(lo.size, dtype=bool), np.ones(lo.size, dtype=bool)
    start[1:] = end[:-1] = lo[1:] > reach[:-1] + 1  # a window that starts a run ends the one before
    return np.concatenate([np.arange(0), *map(np.arange, lo[start], reach[end] + 1)])


def _level_sum(target, n_tilde: int, r_values, key, log_t=None):
    """ln sum_{l<=r} e^f(l) at each cutoff r for the one series named by ``key``.

    Keys: "m" for ln C(N, l) (``target`` may be None), "t" for
    ln w_l = ln C(N, l) + ln p_l, "l" for ln(l w_l), and an order alpha in
    (0, 1) for ln C(N, l) + alpha ln p_l.  Given ``log_t`` = ln T_r, an order
    within ``_NEAR_ONE`` of 1 instead sums ln sum_{l<=r} C(N,l) lambda_l^alpha
    with lambda_l = p_l / T_r, as 1 + S_r where
    S_r = sum_l (w_l / T_r) expm1(gap (ln T_r - ln p_l)), gap = 1 - alpha,
    has no negative term (T_r >= p_l), so ln(1 + S_r) cancels nothing.  S_r
    depends on the cutoff through T_r, so each cutoff takes its own pass over
    its window.  Otherwise the sum is one running log-sum-exp over the table
    of the series' windows, read at every cutoff.  Each window starts from
    ``_first_windows``; one whose low edge (not 0) or high edge (not r) lies
    under ``DROP`` below the window's peak is widened by its width, until
    none does.
    """
    slope = {"m": 0.0, "t": 1.0, "l": 1.0}.get(key, key)
    lo, hi = _first_windows(n_tilde, r_values, slope * (0.0 if target is None else math.log(target.b / target.a)))
    while True:
        levels = _union(lo, hi)
        at_lo, at_hi = np.searchsorted(levels, lo), np.searchsorted(levels, hi)
        terms = _log_binomials(n_tilde, levels)
        if key != "m":
            log_p = _log_p(target, n_tilde, levels)
            terms = terms + (1.0 if log_t is not None else slope) * log_p  # ln w_l under the near-one pass
        if key == "l":
            with np.errstate(divide="ignore"):
                terms = terms + np.log(levels)  # ln(l w_l), -inf at l = 0
        if log_t is None:
            sums = np.logaddexp.accumulate(terms)[np.searchsorted(levels, r_values, side="right") - 1]
            bounds = np.empty(2 * at_lo.size, dtype=int)
            bounds[0::2], bounds[1::2] = at_lo, at_hi + 1
            # one max per window; each odd slot runs from one window's stop to the next one's start and is dropped
            peak = np.maximum.reduceat(np.append(terms, -np.inf), bounds)[::2]
            first, last = terms[at_lo], terms[at_hi]
        else:
            sums, peak, first, last = np.empty((4, len(r_values)))
            for k, (i, j, lt) in enumerate(zip(at_lo, at_hi + 1, log_t)):
                x = (1.0 - key) * (lt - log_p[i:j])
                with np.errstate(divide="ignore"):  # x = 0 where T_r = p_l, as at r = 0: a zero term
                    window = terms[i:j] - lt + x + np.log(-np.expm1(-x))  # ln(expm1(x)) without overflow
                top = peak[k] = window.max()
                first[k], last[k] = window[0], window[-1]
                sums[k] = 0.0 if top == -np.inf else np.logaddexp(0.0, top + np.log(np.exp(window - top).sum()))
        short_lo, short_hi = (lo > 0) & (first > peak - DROP), (hi < r_values) & (last > peak - DROP)
        if not (short_lo.any() or short_hi.any()):
            return sums
        width = hi - lo + 1
        lo = np.where(short_lo, np.maximum(lo - width, 0), lo)
        hi = np.where(short_hi, np.minimum(hi + width, r_values), hi)


def tail_mass(target: DilutionTarget, n_tilde: int, r: int) -> float:
    """T = sum_{l<=r} C(N,l) a^(N-l) b^l, in (0, 1], by log-sum-exp."""
    n_tilde, r = _cutoff(n_tilde, r)
    return float(min(math.exp(_level_sum(target, n_tilde, np.array([r]), "t")[0]), 1.0))


def m_of_r(n_tilde: int, r: int) -> float:
    """Base-2 log of the retained coefficient count: the teleportation cost in ebits."""
    n_tilde, r = _cutoff(n_tilde, r)
    return float(_level_sum(None, n_tilde, np.array([r]), "m")[0] / LN2)


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

    Since sum_{l <= bN} C(N, l) <= 2^(N H(b)) for b < 1/2, the crossing lies
    at or above r0 = floor(b N).  ``_level_sum`` reads m_of_r over the cutoff
    run r0 ... r0 + size, each cutoff through its own checked window; size
    starts at the width of r0's first window and doubles until the run holds
    the crossing.  m_of_r is non-decreasing, so a binary search on the run
    finds the exact crossing.
    """
    n_tilde = _count(n_tilde, "copy count N", 1)
    goal = n_tilde * target.entanglement(1.0)
    r0 = truncation_index(target.b, n_tilde)
    size = r0 - int(_first_windows(n_tilde, np.array([r0]), 0.0)[0][0]) + 1
    while True:
        m_bits = _level_sum(None, n_tilde, np.arange(r0, min(r0 + size, n_tilde) + 1), "m") / LN2
        k = int(np.searchsorted(m_bits, goal))
        if k < m_bits.size or r0 + size >= n_tilde:
            # rounding may keep m_of_r(N) = N a hair below a goal close to N
            return min(r0 + k, n_tilde) / n_tilde
        size *= 2


def entropy_curves(target: DilutionTarget, n_tilde: int, x_samples, alphas=(0.5,)) -> DilutionCurve:
    """Per-copy entropies and fidelities of the truncation along x samples.

    For cutoff r the normalized squared coefficients are lambda_l = p_l / T
    with multiplicity C(N, l); the per-copy Shannon entropy is
    -(1/N) sum C(N,l) lambda_l log2 lambda_l and the order-alpha value is
    log2(sum C(N,l) lambda_l^alpha) / (N (1 - alpha)), or the Shannon value
    within ``ALPHA_ONE_TOL`` of alpha = 1.  Each series is one ``_level_sum``
    call: one running log-sum-exp over its own table, the union of that
    series' checked windows (see the module docstring), read at every cutoff.
    That is O(S sqrt N) per call rather than O(N), and each sum loses at most
    2 e^-DROP K / DROP of itself, K its widest window.  Orders with
    1 - alpha below ``monotones._NEAR_ONE`` (the window ``renyi_entropy``
    uses) instead take one pass per cutoff over its window, given ln T:
    O(window) per sample.  Shifting the Shannon sum about level r,
    N ln2 e1 = (ln T - ln p_r) - ln(a/b)(r - L), with L the mean retained
    level, gives exactly 0 at r = 0 and avoids the order-N cancellation of
    ln T - sum_l C(N,l) p_l ln p_l / T.
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
    log_t = _level_sum(target, n_tilde, r_values, "t")
    tails = np.minimum(np.exp(log_t), 1.0)
    ms = _level_sum(target, n_tilde, r_values, "m") / LN2
    mean_level = np.exp(_level_sum(target, n_tilde, r_values, "l") - log_t)
    log_p_r = _log_p(target, n_tilde, r_values)
    nats = (log_t - log_p_r) - math.log(target.a / target.b) * (r_values - mean_level)
    e1 = nats / (LN2 * n_tilde) + 0.0

    per_alpha = {}
    for alpha in alphas:
        if abs(alpha - 1.0) < ALPHA_ONE_TOL:
            per_alpha[alpha] = e1.copy()
        elif alpha == 0.0:
            per_alpha[alpha] = ms / n_tilde
        else:
            if 1.0 - alpha < _NEAR_ONE:
                log_s = _level_sum(target, n_tilde, r_values, alpha, log_t)
            else:
                log_s = _level_sum(target, n_tilde, r_values, alpha) - alpha * log_t
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
