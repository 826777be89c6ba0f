"""Every count and dimension argument goes through one rule, ``states._count``.

An ``int`` or ``np.integer`` (not a bool) at or above the argument's lower
bound passes and is used as the Python int; anything else raises
``ValueError`` naming the argument, before any random draw.  ``tail_mass``,
``m_of_r``, ``log_binom`` and ``random_density_matrix(rank=)`` test their
range first (so NaN reads as out of range), then apply the rule.
"""

import json
import math
import re
from dataclasses import fields, is_dataclass
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from entmono import (
    DensityMatrix,
    DilutionTarget,
    PureState,
    SchmidtSpectrum,
    add_ancilla,
    apply_unilocal,
    bound_average_yield,
    bound_multicopy,
    check_c1,
    check_c2,
    discontinuity_report,
    dismiss_part,
    entropy_curves,
    fidelity_curve,
    log_binom,
    m_of_r,
    maximally_entangled,
    partial_trace_a,
    partial_trace_b,
    projective_measurement,
    random_density_matrix,
    random_unilocal_operation,
    roof_estimate,
    tail_mass,
    truncation_index,
    unilocal_unitary,
    x_star_finite,
)
from entmono.cli import main
from entmono.monotones import alpha_entropy_spec
from entmono.states import _count

E1 = alpha_entropy_spec(1.0)
AMP4 = np.full(4, 0.5)
RHO = random_density_matrix(4, 3, rank=3)
RHO12 = random_density_matrix(12, 1)
ANCILLA = DensityMatrix(2, np.eye(2) / 2)
FLIP = unilocal_unitary("A", np.array([[0.0, 1.0], [1.0, 0.0]]))
TARGET = DilutionTarget(0.5)
XS = np.linspace(0.0, 1.0, 11)
SOURCE, DEST = SchmidtSpectrum([0.5, 0.3, 0.2]), SchmidtSpectrum([0.6, 0.25, 0.15])
CUTOFF_RANGE = "level cutoff out of range"
BINOMIAL_RANGE = "binomial index out of range"


class Row(NamedTuple):
    """One routed argument: ``call(value)`` passes ``value`` as that argument, all else valid."""

    entry: str
    name: str  # the argument's name in the rule's messages
    low: int
    call: object
    goods: tuple  # valid values
    none_is_default: bool = False
    guard: str = None  # the message of a range test that runs before the rule


ROWS = [
    Row("PureState", "dim_a", 1, lambda v: PureState(v, 2, AMP4), (2,)),
    Row("PureState", "dim_b", 1, lambda v: PureState(2, v, AMP4), (2,)),
    Row("DensityMatrix", "dim", 1, lambda v: DensityMatrix(v, np.eye(4) / 4), (4,)),
    Row("random_density_matrix", "rank", 1, lambda v: random_density_matrix(4, 0, rank=v), (1, 2, 4),
        none_is_default=True, guard="rank must be at least 1"),
    Row("partial_trace_a", "dim_a", 1, lambda v: partial_trace_a(RHO, v, 2), (2,), none_is_default=True),
    Row("partial_trace_a", "dim_b", 1, lambda v: partial_trace_a(RHO, 2, v), (2,), none_is_default=True),
    Row("partial_trace_b", "dim_a", 1, lambda v: partial_trace_b(RHO, v, 2), (2,), none_is_default=True),
    Row("partial_trace_b", "dim_b", 1, lambda v: partial_trace_b(RHO, 2, v), (2,), none_is_default=True),
    Row("apply_unilocal", "dim_a", 1, lambda v: apply_unilocal(RHO, FLIP, v, 2), (2,), none_is_default=True),
    Row("apply_unilocal", "dim_b", 1, lambda v: apply_unilocal(RHO, FLIP, 2, v), (2,), none_is_default=True),
    Row("add_ancilla", "dim_a", 1, lambda v: add_ancilla(RHO, "A", ANCILLA, v, 2), (2,), none_is_default=True),
    Row("add_ancilla", "dim_b", 1, lambda v: add_ancilla(RHO, "B", ANCILLA, 2, v), (2,), none_is_default=True),
    Row("dismiss_part", "factor dimension", 1, lambda v: dismiss_part(RHO12, (2, v, 2), 0), (3,)),
    Row("dismiss_part", "axis", 0, lambda v: dismiss_part(RHO12, (2, 3, 2), v), (0, 1, 2)),
    Row("check_c1", "trial count", 0, lambda v: check_c1(E1, trials=v, dims=(2, 2), seed=1), (0, 1, 3)),
    Row("check_c1", "dim_a", 1, lambda v: check_c1(E1, trials=2, dims=(v, 2), seed=1), (1, 2, 3)),
    Row("check_c1", "dim_b", 1, lambda v: check_c1(E1, trials=2, dims=(2, v), seed=1), (1, 2, 3)),
    Row("check_c2", "trial count", 0, lambda v: check_c2(E1, trials=v, dims=(2, 2), seed=1), (0, 1)),
    Row("check_c2", "dim_a", 1, lambda v: check_c2(E1, trials=1, dims=(v, 2), seed=1), (2, 3)),
    Row("check_c2", "dim_b", 1, lambda v: check_c2(E1, trials=1, dims=(2, v), seed=1), (2, 3)),
    Row("roof_estimate", "dim_a", 1, lambda v: roof_estimate(RHO, v, 2, E1, restarts=1, iterations=5), (2,)),
    Row("roof_estimate", "dim_b", 1, lambda v: roof_estimate(RHO, 2, v, E1, restarts=1, iterations=5), (2,)),
    Row("roof_estimate", "m", 0, lambda v: roof_estimate(RHO, 2, 2, E1, m=v, restarts=1, iterations=5), (3, 5),
        none_is_default=True),
    Row("roof_estimate", "restarts", 0, lambda v: roof_estimate(RHO, 2, 2, E1, restarts=v, iterations=5),
        (0, 1, 2)),
    Row("roof_estimate", "iterations", 0, lambda v: roof_estimate(RHO, 2, 2, E1, restarts=2, iterations=v),
        (0, 7)),
    Row("bound_multicopy", "n_copies", 1, lambda v: bound_multicopy(SOURCE, DEST, v), (1, 4)),
    Row("bound_average_yield", "n_copies", 1, lambda v: bound_average_yield(SOURCE, DEST, v), (1, 4, 100)),
    Row("entropy_curves", "copy count N", 1, lambda v: entropy_curves(TARGET, v, XS), (1, 24, 1000)),
    Row("fidelity_curve", "copy count N", 1, lambda v: fidelity_curve(TARGET, v, XS), (1, 24)),
    Row("x_star_finite", "copy count N", 1, lambda v: x_star_finite(TARGET, v), (1, 24, 1000)),
    Row("discontinuity_report", "copy count N", 1, lambda v: discontinuity_report(TARGET, [24, v], 0.5, 0.05),
        (24, 1000)),
    Row("truncation_index", "copy count N", 0, lambda v: truncation_index(0.3, v), (0, 1, 10)),
    Row("tail_mass", "copy count N", 0, lambda v: tail_mass(TARGET, v, 1), (1, 10), guard=CUTOFF_RANGE),
    Row("tail_mass", "level cutoff r", 0, lambda v: tail_mass(TARGET, 10, v), (0, 3, 10), guard=CUTOFF_RANGE),
    Row("m_of_r", "copy count N", 0, lambda v: m_of_r(v, 3), (3, 10), guard=CUTOFF_RANGE),
    Row("m_of_r", "level cutoff r", 0, lambda v: m_of_r(10, v), (0, 3, 10), guard=CUTOFF_RANGE),
    Row("log_binom", "n", 0, lambda v: log_binom(v, 2), (2, 10), guard=BINOMIAL_RANGE),
    Row("log_binom", "l", 0, lambda v: log_binom(10, v), (0, 2, 10), guard=BINOMIAL_RANGE),
    Row("maximally_entangled", "n", 1, maximally_entangled, (1, 3)),
    Row("projective_measurement", "dim", 1, lambda v: projective_measurement("A", v), (1, 3)),
    Row("random_unilocal_operation", "dim", 1, lambda v: random_unilocal_operation("A", v, 2, 7), (1, 3)),
    Row("random_unilocal_operation", "n_outcomes", 1, lambda v: random_unilocal_operation("B", 2, v, 7), (1, 3)),
    Row("SchmidtSpectrum.padded", "length", 0, SOURCE.padded, (3, 5)),
]
ROW_IDS = [f"{row.entry}-{row.name}" for row in ROWS]
BAD = [1.5, 2.0, np.float64(3), "3", True, np.bool_(True), math.nan, math.inf, np.array(2), None]


def bits(obj):
    """``obj`` as nested tuples of type names and exact values: floats as hex, arrays as bytes."""
    if isinstance(obj, np.ndarray):
        return "ndarray", obj.dtype.str, obj.shape, obj.tobytes()
    if is_dataclass(obj):
        return (type(obj).__name__,) + tuple(bits(getattr(obj, f.name)) for f in fields(obj))
    if isinstance(obj, dict):
        return tuple((bits(key), bits(value)) for key, value in obj.items())
    if isinstance(obj, (list, tuple)):
        return tuple(bits(item) for item in obj)
    return type(obj).__name__, obj.hex() if isinstance(obj, float) else obj


def raised(row, value):
    """The message of the ValueError that ``row`` raises for ``value``; no generator may be built."""
    with mock.patch.object(np.random, "default_rng") as draws:
        with pytest.raises(ValueError) as info:
            row.call(value)
    draws.assert_not_called()
    return str(info.value)


@pytest.mark.parametrize("row", ROWS, ids=ROW_IDS)
@settings(max_examples=30, deadline=None)
@given(value=st.sampled_from(BAD))
def test_non_integers_rejected_by_name(row, value):
    assume(not (value is None and row.none_is_default))
    message = raised(row, value)
    assert message == f"{row.name} must be an integer, got {value!r}" or row.guard and message.startswith(row.guard)


@pytest.mark.parametrize("row", ROWS, ids=ROW_IDS)
def test_below_the_lower_bound_rejected_by_name(row):
    message = raised(row, row.low - 1)
    want = f"{row.name} must be {'positive' if row.low else 'non-negative'}, got {row.low - 1!r}"
    assert message == want or row.guard and message.startswith(row.guard)


@pytest.mark.parametrize("row", ROWS, ids=ROW_IDS)
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_numpy_integers_give_the_python_int_result(row, data):
    good = data.draw(st.sampled_from(row.goods))
    kind = data.draw(st.sampled_from([np.int64, np.int32]))
    assert bits(row.call(kind(good))) == bits(row.call(good))


@pytest.mark.parametrize("value, low, want", [(3, 0, 3), (np.int64(3), 1, 3), (np.uint8(0), 0, 0), (1, 1, 1)])
def test_count_returns_a_python_int(value, low, want):
    got = _count(value, "x", low)
    assert got == want and type(got) is int


@pytest.mark.parametrize("value, low, message", [
    (-1, 0, "x must be non-negative, got -1"),
    (0, 1, "x must be positive, got 0"),
    (np.int32(-2), 1, "x must be positive, got np.int32(-2)"),
    (False, 0, "x must be an integer, got False"),
    (3.0, 0, "x must be an integer, got 3.0"),
])
def test_count_messages(value, low, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        _count(value, "x", low)


class TestCoercedBeforeTheRule:
    """Arguments that were truncated, accepted or failed elsewhere before the one rule."""

    def test_check_c1_fractional_dim(self):
        # ran on 2x2 and reported dims (2, 2)
        with pytest.raises(ValueError, match=re.escape("dim_a must be an integer, got 2.7")):
            check_c1(E1, trials=2, dims=(2.7, 2))

    def test_check_c2_string_dim(self):
        # was read as 2x3
        with pytest.raises(ValueError, match=re.escape("dim_b must be an integer, got '3'")):
            check_c2(E1, trials=1, dims=(2, "3"))

    def test_average_yield_for_fractional_copies(self):
        # returned a yield for 1.5 copies
        with pytest.raises(ValueError, match=re.escape("n_copies must be an integer, got 1.5")):
            bound_average_yield(SOURCE, DEST, 1.5)

    def test_x_star_finite_fractional_n(self):
        # returned 0.8
        with pytest.raises(ValueError, match=re.escape("copy count N must be an integer, got 2.5")):
            x_star_finite(TARGET, 2.5)

    def test_entropy_curves_fractional_n(self):
        with pytest.raises(ValueError, match=re.escape("copy count N must be an integer, got 2.5")):
            entropy_curves(TARGET, 2.5, XS)

    def test_discontinuity_report_fractional_n(self):
        # N = 10.7 was turned into 10
        with pytest.raises(ValueError, match=re.escape("copy count N must be an integer, got 10.7")):
            discontinuity_report(TARGET, [10.7], 0.5, 0.05)

    def test_dismiss_part_fractional_factor(self):
        # traced as if the dims were 2x2
        with pytest.raises(ValueError, match=re.escape("factor dimension must be an integer, got 2.5")):
            dismiss_part(RHO, (2.5, 2), 0)

    def test_dismiss_part_fractional_axis(self):
        # ended in a numpy TypeError
        with pytest.raises(ValueError, match=re.escape("axis must be an integer, got 0.5")):
            dismiss_part(RHO, (2, 2), 0.5)

    def test_roof_estimate_float_dim(self):
        # ended in a numpy TypeError
        with pytest.raises(ValueError, match=re.escape("dim_a must be an integer, got 2.0")):
            roof_estimate(RHO, 2.0, 2, E1, restarts=1, iterations=5)

    def test_pure_state_float_dim(self):
        # was accepted
        with pytest.raises(ValueError, match=re.escape("dim_a must be an integer, got 2.0")):
            PureState(2.0, 2, AMP4)

    def test_truncation_index_fractional_n(self):
        # returned floor(x * 2.5)
        with pytest.raises(ValueError, match=re.escape("copy count N must be an integer, got 2.5")):
            truncation_index(0.5, 2.5)

    def test_tail_mass_fractional_cutoff(self):
        # raised IndexError
        with pytest.raises(ValueError, match=re.escape("level cutoff r must be an integer, got 2.5")):
            tail_mass(TARGET, 10, 2.5)

    def test_tail_mass_fractional_n(self):
        # returned 0.909
        with pytest.raises(ValueError, match=re.escape("copy count N must be an integer, got 2.5")):
            tail_mass(TARGET, 2.5, 1)

    def test_m_of_r_fractional_cutoff(self):
        # raised IndexError
        with pytest.raises(ValueError, match=re.escape("level cutoff r must be an integer, got 2.5")):
            m_of_r(10, 2.5)

    def test_m_of_r_fractional_n(self):
        # returned 7.663
        with pytest.raises(ValueError, match=re.escape("copy count N must be an integer, got 10.5")):
            m_of_r(10.5, 3)

    def test_log_binom_fractional_index(self):
        # returned 4.354
        with pytest.raises(ValueError, match=re.escape("l must be an integer, got 2.5")):
            log_binom(10, 2.5)

    def test_random_density_matrix_fractional_rank(self):
        # raised TypeError
        with pytest.raises(ValueError, match=re.escape("rank must be an integer, got 1.5")):
            random_density_matrix(4, 0, rank=1.5)

    def test_density_matrix_float_dim(self):
        # stored dim = 4.0
        with pytest.raises(ValueError, match=re.escape("dim must be an integer, got 4.0")):
            DensityMatrix(4.0, np.eye(4) / 4)


class TestComparedBeforeTheRule:
    """Arguments that ended in a TypeError before the one rule named them."""

    def test_log_binom_string_index(self):
        # '<=' not supported between instances of 'int' and 'str'
        with pytest.raises(ValueError, match=re.escape("l must be an integer, got '3'")):
            log_binom(10, "3")

    @pytest.mark.parametrize("cutoff", ["3", None])
    def test_tail_mass_cutoff_that_does_not_compare(self, cutoff):
        with pytest.raises(ValueError, match=re.escape(f"level cutoff r must be an integer, got {cutoff!r}")):
            tail_mass(TARGET, 10, cutoff)

    @pytest.mark.parametrize("cutoff", ["3", None])
    def test_m_of_r_cutoff_that_does_not_compare(self, cutoff):
        with pytest.raises(ValueError, match=re.escape(f"level cutoff r must be an integer, got {cutoff!r}")):
            m_of_r(10, cutoff)

    def test_projective_measurement_float_dim(self):
        # 'float' object cannot be interpreted as an integer
        with pytest.raises(ValueError, match=re.escape("dim must be an integer, got 2.0")):
            projective_measurement("A", 2.0)

    def test_maximally_entangled_float_n(self):
        with pytest.raises(ValueError, match=re.escape("n must be an integer, got 2.0")):
            maximally_entangled(2.0)

    def test_random_unilocal_operation_float_outcomes(self):
        with pytest.raises(ValueError, match=re.escape("n_outcomes must be an integer, got 2.0")):
            random_unilocal_operation("A", 2, 2.0)

    def test_padded_float_length(self):
        with pytest.raises(ValueError, match=re.escape("length must be an integer, got 3.0")):
            SOURCE.padded(3.0)


@pytest.mark.parametrize("argv, message", [
    (["dilution", "--theta", "0.5", "--n", "0"], "copy count N must be positive, got 0"),
    (["roof", "{mixed}", "--restarts", "-3"], "restarts must be non-negative, got -3"),
    (["roof", "{mixed}", "--iterations", "-3"], "iterations must be non-negative, got -3"),
    (["roof", "{mixed}", "--m", "-1"], "m must be non-negative, got -1"),
    (["roof", "{mixed}", "--m", "2"], "ensemble size m=2 is below the rank 3"),
    (["check", "--dims", "0x2"], "dim_a must be positive, got 0"),
    (["check", "--condition", "c2", "--dims", "2x0"], "dim_b must be positive, got 0"),
    (["bound", "{source}", "{target}", "--copies", "0"], "n_copies must be positive, got 0"),
])
def test_cli_count_messages(argv, message, tmp_path, capsys):
    docs = {
        "mixed": {"density": {"dim_a": 2, "dim_b": 2, "re_im": [[x.real, x.imag] for x in RHO.entries.reshape(-1)]}},
        "source": {"schmidt": SOURCE.values.tolist()},
        "target": {"schmidt": DEST.values.tolist()},
    }
    paths = {}
    for name, doc in docs.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    assert main([arg.format(**paths) for arg in argv]) == 3
    assert capsys.readouterr().err == f"error: {message}\n"
