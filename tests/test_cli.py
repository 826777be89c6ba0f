import argparse
import contextlib
import io
import json
import math
import os
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entmono import MonotoneSpec, cli, load_certificate, monotone_by_name
from entmono.cli import main

BELL_DOC = {
    "label": "bell",
    "amplitudes": {
        "dim_a": 2,
        "dim_b": 2,
        "re_im": [[2**-0.5, 0.0], [0.0, 0.0], [0.0, 0.0], [2**-0.5, 0.0]],
    },
}
SOURCE_DOC = {"label": "source", "schmidt": [0.5000, 0.4991, 0.0009]}
TARGET_DOC = {"label": "target", "schmidt": [0.7000, 0.2737, 0.0263]}
# a point spectrum whose weight rounds one ulp below 1
ULP_DOC = {"label": "one minus ulp", "schmidt": [0.9999999999999999]}
MIXED_DOC = {
    "label": "half bell, half 01",
    "density": {
        "dim_a": 2,
        "dim_b": 2,
        "re_im": [
            [0.25, 0.0], [0.0, 0.0], [0.0, 0.0], [0.25, 0.0],
            [0.0, 0.0], [0.5, 0.0], [0.0, 0.0], [0.0, 0.0],
            [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0],
            [0.25, 0.0], [0.0, 0.0], [0.0, 0.0], [0.25, 0.0],
        ],
    },
}


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, doc in (
        ("bell", BELL_DOC), ("source", SOURCE_DOC), ("target", TARGET_DOC), ("mixed", MIXED_DOC),
        ("ulp", ULP_DOC),
    ):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        paths[name] = str(path)
    return paths


class TestSchmidtCommand:
    def test_bell_table(self, files, tmp_path, capsys):
        out = tmp_path / "table.csv"
        assert main(["schmidt", files["bell"], "--csv", str(out)]) == 0
        text = capsys.readouterr().out
        assert "0.5000 0.5000" in text
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "alpha,e_alpha"
        for row in rows[1:]:
            assert float(row.split(",")[1]) == pytest.approx(1.0, abs=1e-9)

    def test_published_spectrum_entropy(self, files, capsys):
        assert main(["schmidt", files["source"]]) == 0
        assert "E_1 = 1.0095" in capsys.readouterr().out

    def test_malformed_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["schmidt", str(bad)]) == 2
        assert "line" in capsys.readouterr().err

    def test_missing_representation_exits_2(self, tmp_path, capsys):
        doc = tmp_path / "empty.json"
        doc.write_text("{}")
        assert main(["schmidt", str(doc)]) == 2

    @pytest.mark.parametrize("dim_a", [2.9, True, "2", 2.0])
    def test_non_integral_dimension_exits_2(self, dim_a, tmp_path, capsys):
        doc = json.loads(json.dumps(BELL_DOC))
        doc["amplitudes"]["dim_a"] = dim_a
        path = tmp_path / "bad_dims.json"
        path.write_text(json.dumps(doc))
        assert main(["schmidt", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert "dim_a must be an integer" in captured.err


    @pytest.mark.parametrize("doc", [
        {"schmidt": "1"},
        {"schmidt": True},
        {"schmidt": [True, False]},
        {"amplitudes": {"dim_a": 1, "dim_b": 1, "re_im": ["10"]}},
    ], ids=["string-spectrum", "true-spectrum", "boolean-entries", "string-re-im"])
    def test_non_number_entries_exit_2(self, doc, tmp_path, capsys):
        path = tmp_path / "not_numbers.json"
        path.write_text(json.dumps(doc))
        assert main(["schmidt", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")

    def test_product_state_entropy_is_positive_zero(self, tmp_path, capsys):
        doc = json.loads(json.dumps(BELL_DOC))
        doc["amplitudes"]["re_im"] = [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
        path = tmp_path / "product.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "product.csv"
        assert main(["schmidt", str(path), "--alphas", "1", "--csv", str(out)]) == 0
        assert "E_1 = 0.0000" in capsys.readouterr().out
        assert out.read_text() == "alpha,e_alpha\n1,0\n"

    def test_point_spectrum_short_of_one_prints_positive_zero(self, files, capsys):
        assert main(["schmidt", files["ulp"]]) == 0
        out = capsys.readouterr().out
        assert "E_0.5 = 0.0000" in out and "E_0.75 = 0.0000" in out
        assert "-0.0000" not in out

    @pytest.mark.parametrize("alphas, shown", [("0.5,2", "2.0"), ("nan", "nan")])
    def test_order_outside_unit_interval_exits_3(self, files, alphas, shown, capsys):
        assert main(["schmidt", files["source"], "--alphas", alphas]) == 3
        assert capsys.readouterr().err == f"error: alpha must lie in [0, 1], got {shown}\n"


class TestBoundCommand:
    def test_worked_pair(self, files, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        assert main(["bound", files["source"], files["target"], "--csv", str(out)]) == 0
        text = capsys.readouterr().out
        assert "P <=" in text
        value = float(text.split("P <=")[1].split()[0])
        assert value <= 0.88
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "alpha,ratio"
        assert len(rows) == 202

    def test_identical_files_give_one(self, files, capsys):
        assert main(["bound", files["source"], files["source"]]) == 0
        text = capsys.readouterr().out
        assert "P <= 1.0000" in text
        assert "locally equivalent (tol 1e-09): yes" in text

    def test_separable_target_exits_3(self, files, tmp_path, capsys):
        sep = tmp_path / "sep.json"
        sep.write_text(json.dumps({"schmidt": [1.0]}))
        assert main(["bound", files["source"], str(sep)]) == 3
        assert "denominator vanishes" in capsys.readouterr().err

    def test_empty_grid_exits_3(self, files, capsys):
        assert main(["bound", files["source"], files["target"], "--grid", "0"]) == 3
        assert capsys.readouterr().err == "error: bound undefined: the alpha grid is empty\n"

    def test_copies_below_one_print_no_result(self, files, capsys):
        # the equivalence and bound lines were printed before the copy count was checked
        assert main(["bound", files["source"], files["target"], "--copies", "0"]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: n_copies must be positive, got 0\n"

    def test_point_spectrum_short_of_one_bounds_at_zero(self, files, capsys):
        assert main(["bound", files["ulp"], files["target"]]) == 0
        assert "P <= 0.0000" in capsys.readouterr().out

    @pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
    def test_equivalence_tolerance_must_be_finite_and_non_negative(self, files, tol, capsys):
        assert main(["bound", files["source"], files["target"], f"--equiv-tol={tol}"]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "equivalence tolerance" in captured.err

    def test_closed_pipe_exits_1_without_traceback(self, files, tmp_path, capsys):
        # as in `entmono bound A B | head -1` once head has exited
        fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)

        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def fileno(self):
                return fd

        try:
            with contextlib.redirect_stdout(ClosedPipe()):
                assert main(["bound", files["source"], files["target"]]) == 1
            # the descriptor now points at devnull, so the flush at exit cannot fail
            assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
        finally:
            os.close(fd)
        assert capsys.readouterr().err == ""

    def test_one_point_grid_is_alpha_zero(self, files, capsys):
        assert main(["bound", files["source"], files["target"], "--grid", "1"]) == 0
        assert "(minimizing alpha 0)" in capsys.readouterr().out


class TestDilutionCommand:
    def test_small_run_matches_reference_row(self, files, tmp_path):
        out = tmp_path / "curve.csv"
        rc = main(["dilution", "--theta", str(math.pi / 6), "--n", "4",
                   "--samples", "5", "--csv", str(out)])
        assert rc == 0
        rows = out.read_text().strip().splitlines()
        header = rows[0].split(",")
        row = dict(zip(header, rows[2].split(",")))  # x = 0.25 -> r = 1
        assert rows[2].startswith("0.25,")
        assert float(row["T"]) == pytest.approx(189 / 256, abs=1e-9)
        assert float(row["F_paper"]) == pytest.approx((189 / 256) ** 2, abs=1e-9)

    @pytest.mark.parametrize("alphas, names", [
        ("0.999999999998,1", ["e_alpha:0.999999999998", "e_alpha:1"]),
        ("0.99999,0.999999999998", ["e_alpha:0.99999", "e_alpha:0.999999999998"]),
        ("0,0.5,1,0.25", ["e_alpha:0", "e_alpha:0.5", "e_alpha:1", "e_alpha:0.25"]),
    ])
    def test_distinct_orders_get_distinct_headers(self, alphas, names, capsys):
        # ``:g`` keeps 6 digits; an order it would round is written in full
        assert main(["dilution", "--theta", "0.5", "--n", "20", "--samples", "3", "--alphas", alphas]) == 0
        header = capsys.readouterr().out.splitlines()[2].split(",")
        assert header[7:] == names

    def test_theta_guard_exits_3(self, capsys):
        assert main(["dilution", "--theta", "0", "--n", "4"]) == 3
        assert "theta" in capsys.readouterr().err

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_copy_count_below_one_exits_3(self, n, capsys):
        assert main(["dilution", "--theta", "0.5", "--n", n]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "copy count" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""


class TestCheckCommand:
    def test_valid_monotone_passes(self, files, tmp_path, capsys):
        out = tmp_path / "report.csv"
        rc = main(["check", "--monotone", "e_alpha:0.5", "--trials", "40",
                   "--dims", "3x3", "--seed", "7", "--csv", str(out)])
        assert rc == 0
        assert "violations: 0" in capsys.readouterr().out
        assert out.read_text().startswith("trial,monotone,mu_before,mu_after_avg,margin")

    def test_convex_control_exits_4(self, capsys):
        rc = main(["check", "--monotone", "control:sum_squares", "--trials", "40",
                   "--dims", "3x3", "--seed", "7"])
        assert rc == 4
        assert "VIOLATION" in capsys.readouterr().out

    def test_c2_condition_runs(self, capsys):
        rc = main(["check", "--condition", "c2", "--monotone", "e1", "--trials", "5",
                   "--dims", "2x2", "--seed", "3"])
        assert rc == 0

    @pytest.mark.parametrize("condition, trials", [("c1", "-2"), ("c2", "-1")])
    def test_negative_trial_count_exits_3(self, condition, trials, capsys):
        assert main(["check", "--condition", condition, "--trials", trials, "--dims", "2x2"]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "trial count must be non-negative" in captured.err

    def test_bad_dims_exits_2(self, capsys):
        assert main(["check", "--dims", "4by4", "--trials", "1"]) == 2

    @pytest.mark.parametrize("condition", ["c1", "c2"])
    def test_non_finite_monotone_exits_3(self, condition, capsys, monkeypatch):
        nan = MonotoneSpec("nan", g=lambda p: np.full(np.shape(p)[:-1], np.nan))
        monkeypatch.setattr(cli, "monotone_by_name", lambda name: nan)
        assert main(["check", "--condition", condition, "--trials", "2", "--dims", "2x2"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: monotone 'nan' is not finite on trial #0\n"


class TestRoofCommand:
    def test_certificate_round_trip(self, files, tmp_path, capsys):
        cert = tmp_path / "cert.json"
        rc = main(["roof", files["mixed"], "--monotone", "e1", "--restarts", "6",
                   "--iterations", "300", "--seed", "5", "--certificate", str(cert)])
        assert rc == 0
        reported = float(capsys.readouterr().out.split("roof upper bound (e1):")[1].split()[0])
        value, name, ensemble = load_certificate(str(cert))
        spec = monotone_by_name(name)
        recomputed = sum(p * spec(psi) for p, psi in ensemble)
        assert recomputed == pytest.approx(value, abs=1e-10)
        assert value == pytest.approx(reported, abs=1e-4)

    def test_pure_state_input(self, files, capsys):
        assert main(["roof", files["bell"], "--restarts", "2", "--iterations", "50"]) == 0
        assert "1.0000" in capsys.readouterr().out

    @pytest.mark.parametrize("option", ["--iterations", "--restarts"])
    def test_negative_count_exits_3(self, files, option, capsys):
        assert main(["roof", files["bell"], option, "-3"]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "must be non-negative" in captured.err

    def test_non_integral_density_dimension_exits_2(self, tmp_path, capsys):
        doc = json.loads(json.dumps(MIXED_DOC))
        doc["density"]["dim_b"] = 2.5
        path = tmp_path / "bad_dims.json"
        path.write_text(json.dumps(doc))
        assert main(["roof", str(path)]) == 2
        assert "dim_b must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["schmidt", "{bell}", "--csv", "{missing}"],
    ["bound", "{source}", "{target}", "--csv", "{dir}"],
    ["dilution", "--theta", "0.5", "--n", "10", "--csv", "{missing}"],
    ["check", "--trials", "3", "--dims", "2x2", "--csv", "{missing}"],
    ["roof", "{mixed}", "--restarts", "1", "--iterations", "5", "--certificate", "{missing}"],
], ids=lambda argv: argv[0])
def test_unwritable_output_exits_2_with_one_line(argv, files, tmp_path, capsys):
    # each printed its results, then a FileNotFoundError or IsADirectoryError traceback, and exited 1
    paths = dict(files, missing=str(tmp_path / "no_such_dir" / "out"), dir=str(tmp_path))
    assert main([arg.format(**paths) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "cannot write file" in captured.err
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert not (tmp_path / "no_such_dir").exists()


EDGE_FLOATS = (-0.0, math.inf, -math.inf, math.nan, 5e-324, 1e12 - 1, 1e12 + 1, 999999999999.5)
CSV_COLUMNS = {
    "float": st.one_of(st.floats(), st.sampled_from(EDGE_FLOATS)),
    "np.float64": st.one_of(st.floats(), st.sampled_from(EDGE_FLOATS)).map(np.float64),
    "int": st.integers(-2**70, 2**70),
    "np.int64": st.integers(-2**63, 2**63 - 1).map(np.int64),
    "str": st.text(st.characters(blacklist_characters=",\n\r"), max_size=6),
}


@st.composite
def csv_tables(draw):
    """A header and rows whose columns each hold one cell kind, as every command's columns do."""
    kinds = draw(st.lists(st.sampled_from(sorted(CSV_COLUMNS)), min_size=1, max_size=5))
    rows = draw(st.lists(st.tuples(*(CSV_COLUMNS[kind] for kind in kinds)), max_size=6))
    return [f"c{i}" for i in range(len(kinds))], rows


def reference_csv(header, rows) -> str:
    """The CSV written one cell at a time: a str as it is, any other cell through float and :.12g."""
    lines = [",".join(header)]
    lines += [",".join(c if isinstance(c, str) else f"{float(c):.12g}" for c in row) for row in rows]
    return "\n".join(lines) + "\n"


class TestGoldenContracts:
    """Freeze the CSV column contracts and one fully-worked dilution table."""

    @settings(max_examples=200, deadline=None)
    @given(table=csv_tables())
    @example(table=(["x"], []))
    @example(table=(["trial", "monotone"], []))
    @example(table=(["x", "name", "i"], [(v, "e1", np.int64(-3)) for v in EDGE_FLOATS]))
    def test_cells_match_the_per_cell_format(self, table):
        header, rows = table
        assert cli._csv("-", header, iter(rows)) == reference_csv(header, rows)

    # theta = pi/6 makes every tail mass exactly dyadic: T(r) = sum of
    # C(4,l) 3^(4-l) / 256 over l <= r
    DILUTION_GOLDEN = {
        "header": "x,r,M_of_r,T,F_paper,F_normalized,e1,e_alpha:0.5",
        "x": [0.0, 0.25, 0.5, 0.75, 1.0],
        "r": [0, 1, 2, 3, 4],
        "T": [81 / 256, 189 / 256, 243 / 256, 255 / 256, 1.0],
        "e1": [0.0, 0.532021319723, 0.748454514229, 0.80520482926, 0.811278124459],
        "e_alpha:0.5": [0.0, 0.557686968171, 0.808033938826, 0.888315053304, 0.899968626953],
    }

    def test_dilution_table(self, tmp_path):
        out = tmp_path / "golden.csv"
        assert main(["dilution", "--theta", str(math.pi / 6), "--n", "4",
                     "--samples", "5", "--csv", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == self.DILUTION_GOLDEN["header"]
        cols = lines[0].split(",")
        for i, line in enumerate(lines[1:]):
            row = dict(zip(cols, line.split(",")))
            assert float(row["x"]) == pytest.approx(self.DILUTION_GOLDEN["x"][i], abs=1e-12)
            assert int(float(row["r"])) == self.DILUTION_GOLDEN["r"][i]
            assert float(row["T"]) == pytest.approx(self.DILUTION_GOLDEN["T"][i], abs=1e-9)
            assert float(row["F_paper"]) == pytest.approx(
                self.DILUTION_GOLDEN["T"][i] ** 2, abs=1e-9
            )
            assert float(row["F_normalized"]) == pytest.approx(
                self.DILUTION_GOLDEN["T"][i], abs=1e-9
            )
            assert float(row["e1"]) == pytest.approx(self.DILUTION_GOLDEN["e1"][i], abs=1e-9)
            assert float(row["e_alpha:0.5"]) == pytest.approx(
                self.DILUTION_GOLDEN["e_alpha:0.5"][i], abs=1e-9
            )

    def test_fixed_headers(self, files, tmp_path):
        cases = {
            "alpha,e_alpha": ["schmidt", files["bell"]],
            "alpha,ratio": ["bound", files["source"], files["target"]],
            "trial,monotone,mu_before,mu_after_avg,margin": [
                "check", "--monotone", "e1", "--trials", "5", "--dims", "2x2", "--seed", "1",
            ],
        }
        for header, argv in cases.items():
            out = tmp_path / f"{argv[0]}.csv"
            assert main(argv + ["--csv", str(out)]) == 0
            assert out.read_text().splitlines()[0] == header


class TestDeterminism:
    def test_check_csv_byte_identical(self, files, tmp_path, capsys):
        """The same check twice, with every other command run in between, gives the same stdout and CSV."""
        outs = []
        for idx in (1, 2):
            out = tmp_path / f"r{idx}.csv"
            main(["check", "--monotone", "e1", "--trials", "25", "--dims", "2x2",
                  "--seed", "42", "--csv", str(out)])
            outs.append((capsys.readouterr().out, out.read_bytes()))
            if idx == 1:
                assert main(["schmidt", files["source"], "--csv", "-"]) == 0
                assert main(["bound", files["source"], files["target"], "--csv", "-"]) == 0
                assert main(["dilution", "--theta", "0.5", "--n", "50", "--samples", "7"]) == 0
                assert main(["roof", files["mixed"], "--restarts", "1", "--iterations", "20",
                             "--certificate", str(tmp_path / "cert.json")]) == 0
                assert capsys.readouterr().out != ""
        assert outs[0] == outs[1]

    def test_parser_built_once_per_process(self, files, capsys):
        main(["schmidt", files["bell"]])
        # autospec binds self, and side_effect passes each call on to the real __init__
        init = argparse.ArgumentParser.__init__
        with mock.patch.object(argparse.ArgumentParser, "__init__", autospec=True,
                               side_effect=init) as built:
            assert main(["schmidt", files["bell"]]) == 0
            assert main(["check", "--trials", "2", "--dims", "2x2"]) == 0
        assert built.call_count == 0
        assert "E_1 = 1.0000" in capsys.readouterr().out

    def test_seed_env_var_used(self, files, tmp_path, monkeypatch):
        results = []
        for seed in ("3", "3", "4"):
            monkeypatch.setenv("ENTMONO_SEED", seed)
            out = tmp_path / f"c{len(results)}.csv"
            main(["check", "--monotone", "e1", "--trials", "10", "--dims", "2x2",
                  "--csv", str(out)])
            results.append(out.read_bytes())
        assert results[0] == results[1]
        assert results[0] != results[2]

    def test_unparsable_seed_env_var_exits_2(self, monkeypatch, capsys):
        monkeypatch.setenv("ENTMONO_SEED", "abc")
        assert main(["check", "--trials", "2", "--dims", "2x2"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "ENTMONO_SEED" in captured.err
        assert "Traceback" not in captured.err


# A nan or inf, or a zero printed with a minus sign, as a whole token.
BAD_NUMBER = re.compile(r"(?<![\w.-])(-?nan|-?inf|-0(\.0*)?)(?![\w.])", re.IGNORECASE)
STATE_FILES = ("bell", "source", "target", "mixed", "ulp")


@pytest.fixture(scope="module")
def state_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_property")
    for name, doc in zip(STATE_FILES, (BELL_DOC, SOURCE_DOC, TARGET_DOC, MIXED_DOC, ULP_DOC)):
        (root / f"{name}.json").write_text(json.dumps(doc))
    return root


@st.composite
def cli_arguments(draw):
    """argv for one of the five commands, with finite numbers from small ranges."""
    def number(strategy):
        return repr(draw(strategy))

    state = st.sampled_from(STATE_FILES)
    alphas = ",".join(number(st.floats(-0.5, 1.5)) for _ in range(draw(st.integers(1, 3))))
    command = draw(st.sampled_from(["schmidt", "bound", "dilution", "check", "roof"]))
    if command == "schmidt":
        return ["schmidt", draw(state), f"--alphas={alphas}", "--csv", "out.csv"]
    if command == "bound":
        return ["bound", draw(state), draw(state), f"--grid={number(st.integers(-3, 50))}",
                f"--copies={number(st.integers(-1, 3))}",
                f"--equiv-tol={number(st.floats(allow_nan=False, allow_infinity=False))}",
                "--csv", "out.csv"]
    if command == "dilution":
        return ["dilution", f"--theta={number(st.floats(-1.0, 1.0))}",
                f"--n={number(st.integers(-2, 50))}", f"--samples={number(st.integers(-1, 20))}",
                f"--alphas={alphas}"]
    monotone = draw(st.sampled_from(["e0", "e1", "e_alpha:0.5", "trace_fn:linear"]))
    seed = f"--seed={number(st.integers(0, 99))}"
    if command == "check":
        dims = f"{number(st.integers(-1, 3))}x{number(st.integers(-1, 3))}"
        return ["check", "--condition", draw(st.sampled_from(["c1", "c2"])),
                "--monotone", monotone, f"--trials={number(st.integers(-3, 5))}",
                f"--dims={dims}", seed, "--csv", "out.csv"]
    return ["roof", draw(state), "--monotone", monotone,
            f"--iterations={number(st.integers(-3, 20))}",
            f"--restarts={number(st.integers(-3, 20))}", seed]


class TestCliProperty:
    @settings(max_examples=60, deadline=None)
    @given(argv=cli_arguments())
    @example(argv=["schmidt", "ulp", "--alphas=0.5,0.75", "--csv", "out.csv"])
    @example(argv=["schmidt", "bell", "--alphas=-0.0", "--csv", "out.csv"])
    @example(argv=["dilution", "--theta=5.734297452961379e-159", "--n=1", "--samples=1", "--alphas=0.0"])
    def test_clean_exit_and_finite_output(self, state_dir, argv):
        """Every command exits 0, 2, 3 or 4 and prints no nan, inf or -0; exits 2 and 3 print and write nothing."""
        csv = state_dir / "out.csv"
        csv.unlink(missing_ok=True)
        paths = {name: str(state_dir / f"{name}.json") for name in STATE_FILES}
        argv = [paths.get(arg, str(csv) if arg == "out.csv" else arg) for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's usage error
                code = exc.code
        assert code in (0, 2, 3, 4), err.getvalue()
        if code not in (0, 4):
            assert out.getvalue() == "" and not csv.exists(), (code, out.getvalue())
        text = out.getvalue() + (csv.read_text() if csv.exists() else "")
        assert not BAD_NUMBER.search(text), text
