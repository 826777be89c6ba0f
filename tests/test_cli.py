import json
import math

import pytest

from entmono import load_certificate, monotone_by_name
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

    def test_bad_dims_exits_2(self, capsys):
        assert main(["check", "--dims", "4by4", "--trials", "1"]) == 2


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

    def test_non_integral_density_dimension_exits_2(self, tmp_path, capsys):
        doc = json.loads(json.dumps(MIXED_DOC))
        doc["density"]["dim_b"] = 2.5
        path = tmp_path / "bad_dims.json"
        path.write_text(json.dumps(doc))
        assert main(["roof", str(path)]) == 2
        assert "dim_b must be an integer" in capsys.readouterr().err


class TestGoldenContracts:
    """Freeze the CSV column contracts and one fully-worked dilution table."""

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
    def test_check_csv_byte_identical(self, tmp_path):
        outs = []
        for idx in (1, 2):
            out = tmp_path / f"r{idx}.csv"
            main(["check", "--monotone", "e1", "--trials", "25", "--dims", "2x2",
                  "--seed", "42", "--csv", str(out)])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

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
