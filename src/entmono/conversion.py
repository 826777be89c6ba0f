"""Local-equivalence tests and conversion-probability bounds from the Renyi family.

Two bipartite pure states are interconvertible with certainty by local means
exactly when their Schmidt spectra coincide; otherwise every member of the
E_alpha family caps the success probability of a single-shot conversion by
the ratio E_alpha(source)/E_alpha(target).  The bound functions scan an alpha
grid and keep the smallest ratio.  Additivity makes the per-copy bound
independent of the copy count.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .monotones import e_alpha
from .states import SchmidtSpectrum

DENOMINATOR_FLOOR = 1e-12


@dataclass(frozen=True)
class ConversionBound:
    """Upper bound on a conversion probability from the E_alpha ratio curve.

    ``per_alpha_curve`` holds (alpha, ratio) pairs with each ratio clipped to
    [0, 1] -- every grid point is individually a valid probability bound --
    and ``value`` is their minimum, attained at ``minimizing_alpha``.
    """

    value: float
    minimizing_alpha: float
    per_alpha_curve: tuple

    def __post_init__(self):
        ratios = np.array([r for _, r in self.per_alpha_curve])
        if ratios.size == 0:
            raise ValueError("bound requires a non-empty ratio curve")
        if float(ratios.min()) < 0.0:
            raise ValueError("ratio curve has a negative entry")
        if abs(self.value - float(ratios.min())) > 1e-12:
            raise ValueError("bound value does not equal the curve minimum")


def _pad_pair(s1: SchmidtSpectrum, s2: SchmidtSpectrum):
    n = max(s1.values.size, s2.values.size)
    return s1.padded(n), s2.padded(n)


def locally_equivalent(s1: SchmidtSpectrum, s2: SchmidtSpectrum, tol: float = 1e-9) -> bool:
    """Whether the two spectra coincide entrywise after zero-padding.

    Equal spectra mean the underlying states are related by local unitaries
    and hence reversibly interconvertible with certainty.
    """
    a, b = _pad_pair(s1, s2)
    return bool(np.max(np.abs(a - b)) <= tol)


def _ratio_curve(source: SchmidtSpectrum, target: SchmidtSpectrum, alpha_grid):
    if target.rank() < 2:
        raise ValueError("bound undefined: denominator vanishes (target is separable)")
    alphas = np.linspace(0.0, 1.0, 201) if alpha_grid is None else np.asarray(alpha_grid, dtype=float)
    if alphas.size == 0:
        raise ValueError("bound undefined: the alpha grid is empty")
    denom = e_alpha(target, alphas)
    kept = denom >= DENOMINATOR_FLOOR
    for alpha in alphas[~kept]:
        warnings.warn(f"skipping alpha={alpha:g}: E_alpha(target) vanishes", stacklevel=3)
    if not kept.any():
        raise ValueError("bound undefined: denominator vanishes at every grid point")
    return alphas[kept], e_alpha(source, alphas[kept]) / denom[kept]


def bound_single(source: SchmidtSpectrum, target: SchmidtSpectrum,
                 alpha_grid=None) -> ConversionBound:
    """Smallest E_alpha ratio over the grid: an upper bound on P(source -> target)."""
    alphas, ratios = _ratio_curve(source, target, alpha_grid)
    clipped = np.minimum(ratios, 1.0)
    best = np.argmin(clipped)
    return ConversionBound(value=float(clipped[best]), minimizing_alpha=float(alphas[best]),
                           per_alpha_curve=tuple(zip(alphas.tolist(), clipped.tolist())))


def bound_multicopy(source: SchmidtSpectrum, target: SchmidtSpectrum, n_copies: int,
                    alpha_grid=None) -> ConversionBound:
    """Bound for converting N source copies into N target copies.

    By additivity E_alpha(psi tensor N) = N E_alpha(psi), so the ratio, and
    with it the bound, is independent of N; no N-fold tensor is built.
    """
    if int(n_copies) < 1:
        raise ValueError(f"n_copies must be a positive integer, got {n_copies!r}")
    return bound_single(source, target, alpha_grid)


def bound_average_yield(source: SchmidtSpectrum, target: SchmidtSpectrum, n_copies: int,
                        alpha_grid=None) -> float:
    """Upper bound on the average number of target copies from N source copies.

    Gambling strategies may yield a variable copy count; monotonicity of each
    E_alpha bounds the expectation by N * E_alpha(source)/E_alpha(target), and
    the smallest grid ratio gives the tightest family bound.  Unlike the
    probability bounds this is a count, so it is not clipped at one.
    """
    if int(n_copies) < 1:
        raise ValueError(f"n_copies must be a positive integer, got {n_copies!r}")
    return float(n_copies) * float(_ratio_curve(source, target, alpha_grid)[1].min())
