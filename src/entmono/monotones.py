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

from .states import SPECTRUM_CLAMP, PureState, SchmidtSpectrum, ensure_rng, schmidt

CONCAVITY_SLACK = 1e-9
SYMMETRY_TOL = 1e-9
NORMALIZATION_TOL = 1e-12
PROB_NEG_TOL = 1e-12
# Within this distance of alpha = 1 the order-alpha quotients switch to their
# Shannon limit: the generic form cancels catastrophically there, while the
# switch changes the exact value by O(ALPHA_ONE_TOL).
ALPHA_ONE_TOL = 1e-12


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
        return schmidt(state_or_spectrum)[0]
    return SchmidtSpectrum(np.asarray(state_or_spectrum, dtype=float))


@dataclass(frozen=True)
class MonotoneSpec:
    """A named symmetric concave function on probability simplices.

    ``normalized`` asserts g vanishes on point distributions (1, 0, ..., 0),
    so the induced monotone vanishes on product states.  Calling the spec
    evaluates the induced pure-state monotone: g applied to the Schmidt
    spectrum of the argument.
    """

    name: str
    g: Callable[[np.ndarray], float]
    normalized: bool = True

    def __call__(self, state_or_spectrum) -> float:
        return float(self.g(spectrum_of(state_or_spectrum).values))


def renyi_entropy(p, alpha: float) -> float:
    """Order-alpha entropy of a probability vector, in bits.

    alpha = 1 is the Shannon entropy (0 log 0 := 0); alpha = 0 is the log of
    the number of entries above ``SPECTRUM_CLAMP``; otherwise
    log2(sum p^alpha) / (1 - alpha).  Within ``ALPHA_ONE_TOL`` of alpha = 1
    the Shannon branch is used.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha!r}")
    p = np.asarray(p, dtype=float).reshape(-1)
    if p.size == 0:
        raise ValueError("probability vector must be non-empty")
    if float(p.min()) < -PROB_NEG_TOL:
        raise ValueError("probability vector has a negative entry")
    total = float(p.sum())
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"probabilities sum to {total!r}, expected 1 within 1e-9")
    p = np.clip(p, 0.0, None)
    if abs(alpha - 1.0) < ALPHA_ONE_TOL:
        nz = p[p > 0.0]
        return float(-(nz * np.log2(nz)).sum())
    if alpha == 0.0:
        return float(np.log2(np.count_nonzero(p > SPECTRUM_CLAMP)))
    return float(np.log2(np.sum(p**alpha)) / (1.0 - alpha))


def e_alpha(state_or_spectrum, alpha: float) -> float:
    """Order-alpha entanglement entropy: renyi_entropy of the Schmidt spectrum."""
    return renyi_entropy(spectrum_of(state_or_spectrum).values, alpha)


def entropy_of_entanglement(state_or_spectrum) -> float:
    return e_alpha(state_or_spectrum, 1.0)


def _random_simplex_point(rng, size) -> np.ndarray:
    return rng.dirichlet(np.ones(size))


def validate_monotone_spec(spec: MonotoneSpec, samples: int = 10_000, max_size: int = 6, seed=0) -> None:
    """Randomized screening of a spec's symmetry, concavity, and normalization.

    A failed sample raises MonotoneValidationError (hard rejection); a pass is
    advisory only, since concavity of an arbitrary function cannot be decided
    by evaluation.
    """
    rng = ensure_rng(seed)
    if spec.normalized:
        for n in range(1, max_size + 1):
            point = np.zeros(n)
            point[0] = 1.0
            val = float(spec.g(point))
            if abs(val) > NORMALIZATION_TOL:
                raise MonotoneValidationError(
                    f"not a valid monotone spec ({spec.name}): g on a point distribution of "
                    f"size {n} is {val!r}, expected 0",
                    sample=point,
                )
    for _ in range(samples):
        n = int(rng.integers(2, max_size + 1))
        x = _random_simplex_point(rng, n)
        perm = rng.permutation(n)
        gx = float(spec.g(x))
        if abs(gx - float(spec.g(x[perm]))) > SYMMETRY_TOL:
            raise MonotoneValidationError(
                f"not a valid monotone spec ({spec.name}): not permutation symmetric",
                sample=(x, perm),
            )
        y = _random_simplex_point(rng, n)
        lam = float(rng.uniform())
        mix = lam * x + (1.0 - lam) * y
        if float(spec.g(mix)) < lam * gx + (1.0 - lam) * float(spec.g(y)) - CONCAVITY_SLACK:
            raise MonotoneValidationError(
                f"not a valid monotone spec ({spec.name}): concavity violated at lambda={lam!r}",
                sample=(x, y, lam),
            )


def monotone_from_concave(spec: MonotoneSpec, samples: int = 10_000, seed=0) -> MonotoneSpec:
    """Validate a spec on a sampled battery and return it as a pure-state evaluator."""
    validate_monotone_spec(spec, samples=samples, seed=seed)
    return spec


def trace_fn_spec(f_hat: Callable[[float], float], name: str = "trace_fn",
                  samples: int = 2000, seed=0) -> MonotoneSpec:
    """Spec g(p) = sum_i f_hat(p_i) for f_hat concave on [0, 1] with f_hat(0) = f_hat(1) = 0.

    The endpoint conditions make g vanish on point distributions and keep it
    insensitive to zero-padding of the spectrum.
    """
    for endpoint in (0.0, 1.0):
        val = float(f_hat(endpoint))
        if abs(val) > NORMALIZATION_TOL:
            raise ValueError(f"f_hat({endpoint}) = {val!r}, expected 0")
    rng = ensure_rng(seed)
    for _ in range(samples):
        x, y = rng.uniform(size=2)
        lam = float(rng.uniform())
        mix = lam * x + (1.0 - lam) * y
        if float(f_hat(mix)) < lam * float(f_hat(x)) + (1.0 - lam) * float(f_hat(y)) - CONCAVITY_SLACK:
            raise ValueError(
                f"f_hat failed a concavity sample at x={x!r}, y={y!r}, lambda={lam!r}"
            )

    def g(p: np.ndarray) -> float:
        return float(sum(f_hat(float(v)) for v in np.asarray(p, dtype=float).reshape(-1)))

    return MonotoneSpec(name=name, g=g, normalized=True)


def shannon_term(x: float) -> float:
    return 0.0 if x <= 0.0 else float(-x * np.log2(x))


def linear_entropy_term(x: float) -> float:
    return float(x * (1.0 - x))


def delta_e_alpha_of_fidelity(fidelity: float, alpha: float) -> float:
    """Entanglement gained over the fiducial product state, as a function of fidelity.

    For alpha in (0, 1): log2(F^alpha + (1-F)^alpha) / (1 - alpha); at alpha = 1,
    and within ``ALPHA_ONE_TOL`` of it, the binary Shannon entropy of F.  At
    alpha = 0 the value is a step: 0 at the product-state endpoints F in {0, 1}
    and 1 for every F strictly between.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha!r}")
    if not 0.0 <= fidelity <= 1.0:
        raise ValueError(f"fidelity must lie in [0, 1], got {fidelity!r}")
    if alpha == 0.0:
        return 0.0 if fidelity in (0.0, 1.0) else 1.0
    if abs(alpha - 1.0) < ALPHA_ONE_TOL:
        return shannon_term(fidelity) + shannon_term(1.0 - fidelity)
    return float(np.log2(fidelity**alpha + (1.0 - fidelity) ** alpha) / (1.0 - alpha))


def alpha_entropy_spec(alpha: float, name=None) -> MonotoneSpec:
    """MonotoneSpec wrapping E_alpha evaluation."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha!r}")
    return MonotoneSpec(name=name or f"e_alpha:{alpha:g}", g=lambda p: renyi_entropy(p, alpha))


_TRACE_FN_BUILTINS = {
    "shannon": shannon_term,
    "linear": linear_entropy_term,
}


def _sum_of_squares(p: np.ndarray) -> float:
    return float(np.sum(np.asarray(p, dtype=float) ** 2))


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
