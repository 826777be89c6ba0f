"""Entanglement monotones on pure states from concave spectrum functions.

A symmetric, concave function g on probability simplices defines a monotone on
bipartite pure states through evaluation on the Schmidt spectrum.  The Renyi
family E_alpha (alpha in [0, 1], base-2 logs throughout) is the built-in
instance; the order-0 entropy counts spectrum entries above ``SPECTRUM_CLAMP``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .states import (SPECTRUM_CLAMP, PureState, SchmidtSpectrum, _first_off_one, _schmidt_values, _within,
                     ensure_rng)

CONCAVITY_SLACK = 1e-9
SYMMETRY_TOL = 1e-9
NORMALIZATION_TOL = 1e-12
PROB_NEG_TOL = 1e-12
# Within this distance of alpha = 1 the order-alpha quotients switch to their
# Shannon limit: the generic form cancels catastrophically there, while the
# switch changes the exact value by O(ALPHA_ONE_TOL).
ALPHA_ONE_TOL = 1e-12
# For 0 < 1 - alpha below this window, ln(sum p^alpha) is evaluated as
# log1p(sum p expm1((alpha - 1) ln p)): the generic form takes the log of a sum
# within O(1 - alpha) of one, and its rounding error grows like 1 / (1 - alpha).
_NEAR_ONE = 1e-4


class MonotoneValidationError(ValueError):
    """A randomized symmetry/concavity/normalization check failed.

    The offending sample is kept on the ``sample`` attribute.
    """

    def __init__(self, message, sample=None):
        super().__init__(message)
        self.sample = sample


def spectrum_of(state_or_spectrum) -> SchmidtSpectrum:
    """Coerce a PureState, SchmidtSpectrum, or raw weight vector to a spectrum."""
    if isinstance(state_or_spectrum, SchmidtSpectrum):
        return state_or_spectrum
    if isinstance(state_or_spectrum, PureState):
        return SchmidtSpectrum(_schmidt_values(state_or_spectrum.coefficient_matrix))
    return SchmidtSpectrum(np.asarray(state_or_spectrum, dtype=float))


@dataclass(frozen=True)
class MonotoneSpec:
    """A named symmetric concave function on probability simplices.

    ``g`` maps an array of shape (..., n) to values of shape (...), reducing
    over the last axis: a 1-D spectrum gives one value, and a (k, n) stack of
    spectra gives the k row values, each equal to g on that row alone.
    ``normalized`` asserts g vanishes on point distributions (1, 0, ..., 0),
    so the induced monotone vanishes on product states.  Calling the spec
    evaluates the induced pure-state monotone: g applied to the Schmidt
    spectrum of the argument.
    """

    name: str
    g: Callable[[np.ndarray], np.ndarray | float]
    normalized: bool = True

    def __call__(self, state_or_spectrum) -> float:
        return float(self.g(spectrum_of(state_or_spectrum).values))


def renyi_entropy(p, alpha):
    """Order-alpha entropy of each probability vector along the last axis, in bits.

    alpha = 1 is the Shannon entropy (0 log 0 := 0); alpha = 0 is the log of
    the number of entries above ``SPECTRUM_CLAMP``; otherwise
    log2(sum p^alpha) / (1 - alpha), summed through log1p and expm1 when
    1 - alpha < 1e-4.  Within ``ALPHA_ONE_TOL`` of alpha = 1 the Shannon
    branch is used.  Values are clamped at +0.0.  A 1-D vector gives a
    float, a (..., n) stack an array of shape (...); every row must be a
    probability vector.  An array of orders prepends its shape, each entry
    equal to its scalar call.
    """
    orders = np.asarray(alpha, dtype=float) if hasattr(alpha, "__len__") else None
    # the scalar order, or the orders outside [0, 1]
    bad = [alpha] if orders is None else orders[~((orders >= 0.0) & (orders <= 1.0))]
    if len(bad) and not 0.0 <= bad[0] <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {float(bad[0])!r}")
    p = np.array(p, dtype=float, ndmin=1)
    if p.size == 0:
        raise ValueError("probability vector must be non-empty")
    # written so that NaN fails both checks
    low = p.min()
    if not low >= -PROB_NEG_TOL:
        raise ValueError("probability vector has a negative or NaN entry")
    total = _first_off_one(p.sum(axis=-1), 1e-9)
    if total is not None:
        raise ValueError(f"probabilities sum to {total!r}, expected 1 within 1e-9")
    # only entries within PROB_NEG_TOL below zero need the clamp; a -0.0 left
    # as it is gives the same values
    if low < 0.0:
        p = np.maximum(p, 0.0)
    if orders is not None:
        a = orders.reshape(orders.shape + (1,) * (p.ndim - 1))
        # a scalar 0.5 takes numpy's sqrt fast path, which pow can miss by an ulp
        sums = np.where(a[..., None] == 0.5, np.sqrt(p), p ** a[..., None]).sum(axis=-1)
        # orders at 1 divide by zero here; np.select takes the Shannon value for them
        with np.errstate(divide="ignore", invalid="ignore"):
            generic = np.log2(sums) / (1.0 - a)
            near = _near_one(p, a[..., None])
        values = np.select([abs(a - 1.0) < ALPHA_ONE_TOL, a == 0.0, 1.0 - a < _NEAR_ONE], [
            shannon_term(p).sum(axis=-1) + 0.0, np.log2((p > SPECTRUM_CLAMP).sum(axis=-1)), near],
            generic)
    elif abs(alpha - 1.0) < ALPHA_ONE_TOL:
        # + 0.0 turns the -0.0 of a point distribution into 0.0
        values = shannon_term(p).sum(axis=-1) + 0.0
    elif alpha == 0.0:
        values = np.log2((p > SPECTRUM_CLAMP).sum(axis=-1))
    elif 1.0 - alpha < _NEAR_ONE:
        values = _near_one(p, alpha)
    else:
        values = np.log2((p**alpha).sum(axis=-1)) / (1.0 - alpha)
    # rounding puts a point distribution of weight 1 - ulp a few ulps below 0;
    # no branch returns -0.0, so the clamp gives +0.0 there
    values = np.maximum(values, 0.0)
    return float(values) if values.ndim == 0 else values


def _near_one(p, alpha):
    """log2(sum p^alpha) / (1 - alpha) along the last axis for alpha near 1; alpha broadcasts."""
    terms = p * np.expm1((alpha - 1.0) * np.log(np.where(p > 0.0, p, 1.0)))
    return (np.log1p(terms.sum(axis=-1, keepdims=True)) / ((1.0 - alpha) * np.log(2.0)) + 0.0)[..., 0]


def e_alpha(state_or_spectrum, alpha):
    """Order-alpha entanglement entropy: renyi_entropy of the Schmidt spectrum."""
    return renyi_entropy(spectrum_of(state_or_spectrum).values, alpha)


def monotone_from_concave(spec: MonotoneSpec, samples: int = 10_000, seed=0) -> MonotoneSpec:
    """Screen a spec on a sampled battery and return it as a pure-state evaluator.

    The screen covers normalization, permutation symmetry and concavity on
    simplices of size up to 6, and the stack contract of ``MonotoneSpec.g``.
    A failed sample raises MonotoneValidationError (hard rejection); a pass is
    advisory only, since concavity of an arbitrary function cannot be decided
    by evaluation.
    """
    rng = ensure_rng(seed)
    if spec.normalized:
        for n in range(1, 7):
            point = np.eye(n)[0]
            val = float(spec.g(point))
            if not _within(val, NORMALIZATION_TOL):
                raise MonotoneValidationError(
                    f"not a valid monotone spec ({spec.name}): g on a point distribution of "
                    f"size {n} is {val!r}, expected 0",
                    sample=point,
                )
    drawn = {}  # simplex size -> [(x, g(x)), ...]
    for _ in range(samples):
        n = int(rng.integers(2, 7))
        x = rng.dirichlet(np.ones(n))
        perm = rng.permutation(n)
        gx = float(spec.g(x))
        if not _within(gx - float(spec.g(x[perm])), SYMMETRY_TOL):
            raise MonotoneValidationError(
                f"not a valid monotone spec ({spec.name}): not permutation symmetric",
                sample=(x, perm),
            )
        y = rng.dirichlet(np.ones(n))
        lam = float(rng.uniform())
        mix = lam * x + (1.0 - lam) * y
        if not float(spec.g(mix)) >= lam * gx + (1.0 - lam) * float(spec.g(y)) - CONCAVITY_SLACK:
            raise MonotoneValidationError(
                f"not a valid monotone spec ({spec.name}): concavity violated at lambda={lam!r}",
                sample=(x, y, lam),
            )
        drawn.setdefault(n, []).append((x, gx))
    for n, pairs in drawn.items():
        stack = np.array([x for x, _ in pairs])
        if not np.array_equal(np.asarray(spec.g(stack), dtype=float), [gx for _, gx in pairs],
                              equal_nan=True):
            raise MonotoneValidationError(
                f"not a valid monotone spec ({spec.name}): g must map a (k, {n}) stack of "
                f"spectra to its k row values",
                sample=stack,
            )
    return spec


def trace_fn_spec(f_hat: Callable[[np.ndarray], np.ndarray], name: str = "trace_fn",
                  samples: int = 2000, seed=0) -> MonotoneSpec:
    """Spec g(p) = sum_i f_hat(p_i) for f_hat concave on [0, 1] with f_hat(0) = f_hat(1) = 0.

    ``f_hat`` must act elementwise on arrays.  The endpoint conditions make g
    vanish on point distributions and keep it insensitive to zero-padding of
    the spectrum.  The sum runs left to right along the last axis.
    """
    for endpoint in (0.0, 1.0):
        val = float(f_hat(endpoint))
        if not _within(val, NORMALIZATION_TOL):
            raise ValueError(f"f_hat({endpoint}) = {val!r}, expected 0")
    # per sample: x, y, then lambda, in the generator's draw order
    x, y, lam = np.ascontiguousarray(ensure_rng(seed).uniform(size=(samples, 3)).T)
    mix = lam * x + (1.0 - lam) * y
    failed = np.flatnonzero(~(f_hat(mix) >= lam * f_hat(x) + (1.0 - lam) * f_hat(y) - CONCAVITY_SLACK))
    if failed.size:
        i = failed[0]
        raise ValueError(
            f"f_hat failed a concavity sample at x={x[i]!r}, y={y[i]!r}, lambda={float(lam[i])!r}"
        )

    def g(p: np.ndarray) -> np.ndarray:
        return np.add.accumulate(f_hat(np.asarray(p, dtype=float)), axis=-1)[..., -1] + 0.0

    return MonotoneSpec(name=name, g=g, normalized=True)


def shannon_term(x):
    """-x log2 x elementwise, 0 where x <= 0."""
    return -x * np.log2(np.where(x > 0.0, x, 1.0))


def linear_entropy_term(x):
    """x (1 - x) elementwise."""
    return x * (1.0 - x)


def delta_e_alpha_of_fidelity(fidelity: float, alpha: float) -> float:
    """Entanglement gained over the fiducial product state, as a function of fidelity.

    For alpha in (0, 1): log2(F^alpha + (1-F)^alpha) / (1 - alpha); at alpha = 1,
    and within ``ALPHA_ONE_TOL`` of it, the binary Shannon entropy of F.  At
    alpha = 0 the value is a step: 0 at the product-state endpoints F in {0, 1}
    and 1 for every F strictly between.
    """
    if not 0.0 <= fidelity <= 1.0:
        raise ValueError(f"fidelity must lie in [0, 1], got {fidelity!r}")
    if alpha == 0.0:  # unlike renyi_entropy's clamp count, 1 for every F strictly inside (0, 1)
        return 0.0 if fidelity in (0.0, 1.0) else 1.0
    return renyi_entropy([fidelity, 1.0 - fidelity], alpha)


def alpha_entropy_spec(alpha: float, name=None) -> MonotoneSpec:
    """MonotoneSpec wrapping E_alpha evaluation."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha!r}")
    return MonotoneSpec(name=name or f"e_alpha:{alpha:g}", g=lambda p: renyi_entropy(p, alpha))


_TRACE_FN_BUILTINS = {
    "shannon": shannon_term,
    "linear": linear_entropy_term,
}


def _sum_of_squares(p: np.ndarray) -> np.ndarray:
    return np.sum(np.asarray(p, dtype=float) ** 2, axis=-1)


def monotone_by_name(name: str) -> MonotoneSpec:
    """Registry lookup: "e0", "e1", "e_alpha:<value>", "trace_fn:<builtin>".

    "control:sum_squares" is a deliberately convex (hence invalid) spec kept
    as a negative control: monotonicity screens must flag it.
    """
    if name == "control:sum_squares":
        return MonotoneSpec(name=name, g=_sum_of_squares, normalized=False)
    if name == "e0":
        return alpha_entropy_spec(0.0, name="e0")
    if name == "e1":
        return alpha_entropy_spec(1.0, name="e1")
    if name.startswith("e_alpha:"):
        try:
            alpha = float(name.split(":", 1)[1])
        except ValueError as exc:
            raise ValueError(f"cannot parse alpha in monotone name {name!r}") from exc
        return alpha_entropy_spec(alpha)
    if name.startswith("trace_fn:"):
        key = name.split(":", 1)[1]
        if key not in _TRACE_FN_BUILTINS:
            raise ValueError(
                f"unknown trace_fn builtin {key!r}; available: {sorted(_TRACE_FN_BUILTINS)}"
            )
        return trace_fn_spec(_TRACE_FN_BUILTINS[key], name=name)
    raise ValueError(f"unknown monotone name {name!r}")
