"""Property tests for the state-file parser.

Documents are drawn from a small grammar: the three representation keys
("amplitudes", "schmidt", "density") alone, together or missing, extra keys,
values of the wrong type, non-integral dimensions, NaN and infinite numbers,
strings and booleans in place of numbers, and entry lists of the wrong length.
Every document must either load or raise StateFileError, a document that loads
holds only JSON numbers where numbers belong, and the two loaders must agree
on the documents they share.
"""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entmono import (
    PureState,
    StateFileError,
    density_of,
    load_bipartite_density,
    load_certificate,
    load_state,
)

KEYS = ("amplitudes", "schmidt", "density")
NUMBER = st.one_of(
    st.floats(-1.5, 1.5),
    st.sampled_from([float("nan"), float("inf"), float("-inf")]),
)
NOT_A_NUMBER = st.sampled_from(["1", "10", "0.5", True, False])
JUNK = st.one_of(
    st.none(), NOT_A_NUMBER, st.integers(-3, 3), NUMBER, st.text(max_size=3),
    st.lists(st.integers(0, 2), max_size=2),
    st.dictionaries(st.sampled_from(["dim_a", "re_im", "x"]), st.integers(0, 2), max_size=2),
)
BAD_DIM = st.sampled_from([0, -1, 2.0, 2.9, True, False, "2", None, float("nan")])


@st.composite
def unit_vector(draw, size):
    parts = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=2 * size, max_size=2 * size)))
    vec = parts[0::2] + 1j * parts[1::2]
    norm = float(np.linalg.norm(vec))
    if norm < 1e-3:
        vec = np.eye(size)[0].astype(complex)
        norm = 1.0
    return vec / norm


def disguised(value):
    """A string, or for 0 and 1 also a boolean, that float() reads as ``value``."""
    return st.sampled_from([repr(value)] + ([bool(value)] if value in (0.0, 1.0) else []))


@st.composite
def corrupted(draw, entries):
    """``entries`` (a list), sometimes one entry short or long, or with a NaN/inf, non-number or junk entry."""
    entries = list(entries)
    change = draw(st.sampled_from(["none"] * 6 + ["short", "long", "number", "junk"]
                                  + ["not-number"] * 3))
    if change == "short" and entries:
        entries.pop()
    elif change == "long":
        entries.append(entries[-1] if entries else 0.0)
    elif change == "number" and entries:
        value = draw(NUMBER)
        k = draw(st.integers(0, len(entries) - 1))
        entries[k] = [value, entries[k][1]] if isinstance(entries[k], list) else value
    elif change == "not-number" and entries:
        k = draw(st.integers(0, len(entries) - 1))
        entry = entries[k]
        if not isinstance(entry, list):
            entries[k] = draw(disguised(entry))
        elif entry in ([1.0, 0.0], [0.0, 0.0]) and draw(st.booleans()):
            entries[k] = f"{entry[0]:.0f}{entry[1]:.0f}"  # a string that unpacks into two digits
        else:
            j = draw(st.integers(0, 1))
            entries[k] = [draw(disguised(v)) if i == j else v for i, v in enumerate(entry)]
    elif change == "junk" and entries:
        entries[draw(st.integers(0, len(entries) - 1))] = draw(JUNK)
    return entries


@st.composite
def complex_node(draw, density):
    dim_a, dim_b = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    vec = draw(unit_vector(dim_a * dim_b))
    values = np.outer(vec, vec.conj()).reshape(-1) if density else vec
    node = {"dim_a": dim_a, "dim_b": dim_b,
            "re_im": draw(corrupted([[float(z.real), float(z.imag)] for z in values]))}
    change = draw(st.sampled_from(["none"] * 5 + ["dim", "drop", "junk", "junk", "extra"]))
    key = draw(st.sampled_from(["dim_a", "dim_b", "re_im", "re_im"]))
    if change == "dim":
        node[draw(st.sampled_from(["dim_a", "dim_b"]))] = draw(BAD_DIM)
    elif change == "drop":
        del node[key]
    elif change == "junk":
        node[key] = draw(JUNK)
    elif change == "extra":
        node["label"] = draw(JUNK)
    return node


@st.composite
def schmidt_node(draw):
    weights = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4)))
    if weights.sum() > 1e-3:
        weights = np.sort(weights / weights.sum())[::-1]
    return draw(corrupted([float(w) for w in weights]))


NODES = {
    "amplitudes": complex_node(density=False),
    "schmidt": schmidt_node(),
    "density": complex_node(density=True),
}


@st.composite
def documents(draw):
    if draw(st.integers(0, 9)) == 0:
        return draw(JUNK)
    keys = draw(st.sampled_from([("amplitudes",)] * 3 + [("schmidt",)] * 3 + [("density",)] * 3
                                + [(), ("amplitudes", "schmidt"), ("schmidt", "density"),
                                   ("amplitudes", "density")]))
    doc = draw(st.dictionaries(st.sampled_from(["label", "note", "dim_a"]), JUNK, max_size=2))
    for key in keys:
        doc[key] = draw(st.one_of(NODES[key], NODES[key], NODES[key], JUNK))
    return doc


def _is_number(value) -> bool:
    return type(value) in (int, float)


def _numbers_in_place(doc, key) -> bool:
    """Whether the loaded node's schmidt entries, or its re_im [re, im] pairs, are all JSON numbers."""
    if key == "schmidt":
        return isinstance(doc[key], list) and all(map(_is_number, doc[key]))
    return all(isinstance(z, list) and len(z) == 2 and all(map(_is_number, z))
               for z in doc[key]["re_im"])


def _load(loader, path):
    """(result, None) if ``loader`` loads the file, (None, error) if it raises StateFileError."""
    try:
        return loader(path), None
    except StateFileError as exc:
        return None, exc


@settings(max_examples=400, deadline=None)
@given(doc=documents())
@example(doc={"schmidt": "1"})
@example(doc={"schmidt": True})
@example(doc={"schmidt": [True, False]})
@example(doc={"amplitudes": {"dim_a": 1, "dim_b": 1, "re_im": ["10"]}})
@example(doc={"amplitudes": {"dim_a": 1, "dim_b": 1, "re_im": [["1", 0.0]]}})
def test_loaders_load_or_raise_state_file_error(doc, tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "drawn_state.json"
    path.write_text(json.dumps(doc))
    state, state_error = _load(load_state, str(path))
    density, density_error = _load(load_bipartite_density, str(path))
    present = [key for key in KEYS if key in doc] if isinstance(doc, dict) else []

    if density is not None:
        rho, dim_a, dim_b = density
        assert type(dim_a) is int and type(dim_b) is int and dim_a >= 1 and dim_b >= 1
        assert rho.dim == dim_a * dim_b and np.all(np.isfinite(rho.entries))
        assert _numbers_in_place(doc, present[0])
    if present in (["amplitudes"], ["schmidt"]):
        assert (state_error is None) == (density_error is None)
        if state_error is not None:
            assert str(state_error) == str(density_error)
        else:
            psi = state if isinstance(state, PureState) else PureState.from_schmidt_values(state.values)
            rho, dim_a, dim_b = density
            assert (dim_a, dim_b) == (psi.dim_a, psi.dim_b)
            assert np.array_equal(rho.entries, density_of(psi).entries)
    elif present == ["density"]:
        assert state_error is not None
    else:
        assert state_error is not None and density_error is not None


@pytest.mark.parametrize("dims, entries", [((-2, -2), 16), ((0, 0), 0), ((0, 3), 0)])
def test_density_with_non_positive_dims_rejected(dims, entries, tmp_path):
    doc = {"density": {"dim_a": dims[0], "dim_b": dims[1], "re_im": [[0.25, 0.0]] * entries}}
    path = tmp_path / "density.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(StateFileError, match="local dimensions must be positive"):
        load_bipartite_density(str(path))


def _certificate(value=0.5, probability=1.0):
    member = {"probability": probability, "amplitudes": {"dim_a": 1, "dim_b": 1, "re_im": [[1.0, 0.0]]}}
    return {"monotone": "e1", "value": value, "ensemble": [member]}


def test_certificate_loads(tmp_path):
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(_certificate()))
    value, name, ensemble = load_certificate(str(path))
    assert (value, name, [p for p, _ in ensemble]) == (0.5, "e1", [1.0])


@pytest.mark.parametrize("field, bad", [
    ("value", "0.5"), ("value", True), ("probability", "1.0"), ("probability", True),
])
def test_certificate_non_numbers_rejected(field, bad, tmp_path):
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(_certificate(**{field: bad})))
    with pytest.raises(StateFileError, match=f"{field} must be a number"):
        load_certificate(str(path))
