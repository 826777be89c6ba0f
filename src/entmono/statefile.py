"""JSON file formats for states, density matrices, and roof certificates.

A state file holds exactly one representation:

  {"label": "bell", "amplitudes": {"dim_a": 2, "dim_b": 2,
                                   "re_im": [[re, im], ...]}}   # row-major
  {"label": "published", "schmidt": [0.5, 0.5]}                 # descending weights

A density file replaces "amplitudes" with "density" (row-major d x d entries,
d = dim_a * dim_b).  Dimensions must be JSON integers.  A roof certificate
stores the estimate value and the realizing ensemble as a list of
{"probability", "amplitudes"} records, so it can be re-imported and
re-evaluated independently.
"""

from __future__ import annotations

import json

import numpy as np

from .states import DensityMatrix, PureState, SchmidtSpectrum, density_of

_REPRESENTATIONS = ("amplitudes", "schmidt", "density")


class StateFileError(ValueError):
    """Raised when a state file cannot be parsed or violates its schema."""


def _floats(items, what, length=None):
    """Entries of a JSON list of numbers as floats; booleans and strings are not numbers."""
    if (not isinstance(items, list) or len(items) != (length or len(items))
            or any(type(item) not in (int, float) for item in items)):
        raise ValueError(f"{what}, got {items!r}")
    return [float(item) for item in items]


def _complex_array(node, path, context):
    if not isinstance(node, dict):
        raise StateFileError(f"{path}: {context} must be an object")
    for key in ("dim_a", "dim_b", "re_im"):
        if key not in node:
            raise StateFileError(f"{path}: {context} is missing key {key!r}")
    dim_a, dim_b = node["dim_a"], node["dim_b"]
    for key, dim in (("dim_a", dim_a), ("dim_b", dim_b)):
        if type(dim) is not int:  # JSON integers only: not 2.0, true or "2"
            raise StateFileError(f"{path}: malformed {context}: {key} must be an integer, got {dim!r}")
    try:
        pairs = [_floats(pair, "each re_im item must be a list of 2 numbers", 2) for pair in node["re_im"]]
    except (TypeError, ValueError, OverflowError) as exc:
        raise StateFileError(f"{path}: malformed {context}: {exc}") from exc
    vec = np.array([re + 1j * im for re, im in pairs])
    return dim_a, dim_b, vec


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise StateFileError(f"{path}: cannot read file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise StateFileError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc


def _parse_state_file(path, accepted):
    """Read a state file once and parse its one representation, which must be in ``accepted``.

    "amplitudes" gives a PureState, "schmidt" a SchmidtSpectrum, "density" (DensityMatrix, dim_a, dim_b).
    """
    doc = _load_json(path)
    if not isinstance(doc, dict):
        raise StateFileError(f"{path}: top level must be an object")
    present = [key for key in _REPRESENTATIONS if key in doc]
    if len(present) != 1 or present[0] not in accepted:
        names = ", ".join(repr(key) for key in accepted[:-1]) + f" or {accepted[-1]!r}"
        raise StateFileError(f"{path}: expected exactly one of {names}, found {present or 'neither'}")
    key = present[0]
    if key == "schmidt":
        try:
            return SchmidtSpectrum(np.array(_floats(doc["schmidt"], "expected a list of numbers")))
        except (ValueError, OverflowError) as exc:
            raise StateFileError(f"{path}: invalid schmidt spectrum: {exc}") from exc
    dim_a, dim_b, vec = _complex_array(doc[key], path, key)
    if key == "amplitudes":
        try:
            return PureState(dim_a, dim_b, vec)
        except ValueError as exc:
            raise StateFileError(f"{path}: invalid pure state: {exc}") from exc
    d = dim_a * dim_b
    if vec.size != d * d:
        raise StateFileError(f"{path}: density has {vec.size} entries, expected {d * d}")
    try:
        if dim_a < 1 or dim_b < 1:
            raise ValueError("local dimensions must be positive")
        return DensityMatrix(d, vec.reshape(d, d)), dim_a, dim_b
    except ValueError as exc:
        raise StateFileError(f"{path}: invalid density input: {exc}") from exc


def load_state(path):
    """Load a pure state or a Schmidt spectrum; exactly one must be present."""
    return _parse_state_file(path, ("amplitudes", "schmidt"))


def load_bipartite_density(path):
    """Load any representation as (DensityMatrix, dim_a, dim_b).

    Pure amplitudes become their projector; a bare Schmidt spectrum is
    realized canonically on C^r (x) C^r.
    """
    loaded = _parse_state_file(path, _REPRESENTATIONS)
    if isinstance(loaded, tuple):
        return loaded
    psi = loaded if isinstance(loaded, PureState) else PureState.from_schmidt_values(loaded.values)
    return density_of(psi), psi.dim_a, psi.dim_b


def _amplitude_node(psi: PureState) -> dict:
    return {
        "dim_a": psi.dim_a,
        "dim_b": psi.dim_b,
        "re_im": [[float(z.real), float(z.imag)] for z in psi.amplitudes],
    }


def save_certificate(path, estimate, monotone_name: str, label=None) -> None:
    """Persist a roof estimate's realizing ensemble for independent re-checking."""
    doc = {
        "monotone": monotone_name,
        "value": float(estimate.value),
        "m": int(estimate.m),
        "restarts": int(estimate.restarts),
        "converged": bool(estimate.converged),
        "ensemble": [
            {"probability": float(p), "amplitudes": _amplitude_node(psi)}
            for p, psi in estimate.ensemble
        ],
    }
    if label:
        doc["label"] = label
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_certificate(path):
    """Return (value, monotone_name, ensemble) from a certificate file."""
    doc = _load_json(path)
    if not isinstance(doc, dict) or "ensemble" not in doc:
        raise StateFileError(f"{path}: not a roof certificate (missing 'ensemble')")
    try:
        ensemble = []
        for item in doc["ensemble"]:
            dim_a, dim_b, vec = _complex_array(item["amplitudes"], path, "ensemble amplitudes")
            ensemble.append((float(item["probability"]), PureState(dim_a, dim_b, vec)))
        return float(doc["value"]), str(doc.get("monotone", "")), ensemble
    except (KeyError, TypeError, ValueError) as exc:
        raise StateFileError(f"{path}: malformed certificate: {exc}") from exc
