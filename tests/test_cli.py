import argparse
import csv
import io
import json
import math
import re
import tracemalloc
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtnnet import errors, generators
from dtnnet.asymptotics import dtn_asymptotic
from dtnnet.cli import build_parser, main
from dtnnet.generators import grid_packing, ring_packing
from dtnnet.geometry import analyze, load_packing, save_packing
from dtnnet.network import build_network


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_packing(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


# Nine disjoint disks whose centers lie 1e-9 apart, closer than Qhull separates.
MERGED_CLUSTER = [
    {"x": 0.3 + 1e-9 * i, "y": 0.3 + 1e-9 * j, "r": 1e-10} for i in range(3) for j in range(3)
] + [{"x": -0.5, "y": 0.0, "r": 0.1}]


@pytest.fixture
def ring_file(tmp_path, capsys):
    path = str(tmp_path / "ring.json")
    code = main(["gen", "ring", "--n", "8", "--ring-radius", "0.85",
                 "--disk-radius", "0.1", "--out", path])
    capsys.readouterr()
    assert code == 0
    return path


@pytest.fixture
def empty_file(tmp_path):
    return write_packing(tmp_path, "empty.json", {"L": 1.0, "inclusions": []})


class TestParserReuse:
    """``main`` builds its parser once and reuses it."""

    def test_calls_with_different_potentials_write_independent_results(self, ring_file,
                                                                       capsys):
        argv = ["analyze", "--packing", ring_file, "--cos", "1=1"]
        _, one, _ = run(capsys, *argv)
        _, both, _ = run(capsys, *argv, "--cos", "2=0.5", "--sin", "1=0.2")
        _, again, _ = run(capsys, *argv)
        assert json.loads(both)["quad_form"] > json.loads(one)["quad_form"]
        assert again == one

    @pytest.mark.parametrize("command", ["", "gen", "analyze", "dtn", "sweep", "validate"])
    def test_help_is_that_of_a_fresh_parser(self, capsys, command):
        def help_text(parse):
            with pytest.raises(SystemExit):
                parse(command.split() + ["--help"])
            return capsys.readouterr().out

        fresh = help_text(build_parser().parse_args)
        assert fresh.startswith("usage: dtnnet")
        for _ in range(2):
            assert help_text(main) == fresh


class TestGen:
    def test_ring_stdout_is_valid_packing(self, capsys):
        code, out, _ = run(capsys, "gen", "ring", "--n", "6")
        assert code == 0
        obj = json.loads(out)
        assert obj["L"] == 1.0
        assert len(obj["inclusions"]) == 6

    def test_random_seed_deterministic(self, capsys):
        args = ["gen", "random", "--n", "10", "--disk-radius", "0.06",
                "--delta-min", "0.02", "--seed", "5"]
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_round_trip_via_file(self, ring_file, capsys, tmp_path):
        code, out, _ = run(capsys, "gen", "ring", "--n", "8",
                           "--ring-radius", "0.85", "--disk-radius", "0.1")
        assert code == 0
        with open(ring_file, "r", encoding="utf-8") as fh:
            assert fh.read() == out

    def test_infeasible_ring_exit_2(self, capsys):
        code, _, err = run(capsys, "gen", "ring", "--n", "8",
                           "--ring-radius", "0.85", "--disk-radius", "0.4")
        assert code == 2
        assert json.loads(err)["error"] == "InfeasibleError"

    def test_negative_seed_exit_2_and_no_file(self, capsys, tmp_path):
        path = tmp_path / "random.json"
        code, out, err = run(capsys, "gen", "random", "--n", "3", "--seed", "-1",
                             "--out", str(path))
        assert code == 2
        assert out == ""
        assert json.loads(err) == {"error": "InfeasibleError",
                                   "message": "seed must be non-negative, got -1"}
        assert not path.exists()

    def test_infinite_grid_domain_exit_2_and_no_file(self, capsys, tmp_path):
        path = tmp_path / "grid.json"
        code, out, err = run(capsys, "gen", "grid", "--domain-radius", "inf",
                             "--out", str(path))
        assert code == 2
        assert out == ""
        assert json.loads(err) == {"error": "InfeasibleError",
                                   "message": "a grid patch needs a finite domain radius, got inf"}
        assert not path.exists()

    def test_subnormal_grid_pitch_exit_2_and_no_file(self, capsys, tmp_path):
        # limit / pitch overflows to inf: the site count is refused before any int().
        path = tmp_path / "grid.json"
        code, out, err = run(capsys, "gen", "grid", "--disk-radius", "1e-320",
                             "--gap", "1e-320", "--out", str(path))
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "MemoryError"
        assert not path.exists()

    @pytest.mark.parametrize("kind", ["ring", "random"])
    def test_negative_radius_exit_2_and_no_file(self, capsys, tmp_path, kind):
        path = tmp_path / "bad.json"
        code, out, err = run(capsys, "gen", kind, "--n", "4" if kind == "ring" else "3",
                             "--disk-radius", "-0.1", "--out", str(path))
        assert code == 2
        assert out == ""
        assert json.loads(err) == {"error": "ParseError",
                                   "message": "inclusion 0: radius must be positive, got -0.1"}
        assert not path.exists()


class TestAnalyze:
    def test_constant_potential_costs_nothing(self, ring_file, capsys):
        code, out, _ = run(capsys, "analyze", "--packing", ring_file, "--cos", "0=1")
        assert code == 0
        obj = json.loads(out)
        assert abs(obj["quad_form"]) <= 1e-9
        assert abs(obj["E_net"]) <= 1e-10
        assert all(abs(v - 1.0) <= 1e-12 for v in obj["excitation"])

    def test_reference_only_for_empty_packing(self, empty_file, capsys):
        code, out, _ = run(capsys, "analyze", "--packing", empty_file, "--cos", "3=1")
        assert code == 0
        obj = json.loads(out)
        assert obj["E_ref"] == pytest.approx(1.5 * math.pi, rel=1e-12)
        assert obj["quad_form"] == pytest.approx(3.0 * math.pi, rel=1e-12)
        assert obj["E_net"] == 0.0
        assert obj["excitation"] == []
        assert obj["per_mode"] == [{"k": k, "epsilon": 0.0, "eta": 0.0, "regime": 2}
                                   for k in range(4)]

    def test_malformed_file_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "analyze", "--packing", str(path), "--cos", "1=1")
        assert code == 2
        assert json.loads(err)["error"] == "ParseError"

    @pytest.mark.parametrize(
        "disks, kind",
        [
            ([{"x": -0.1, "y": 0.0, "r": 0.1}, {"x": 0.1, "y": 0.0, "r": 0.1}], "OverlapError"),
            ([{"x": 0.95, "y": 0.0, "r": 0.1}], "OutsideDomainError"),
            (MERGED_CLUSTER, "OverlapError"),
        ],
        ids=["overlap", "outside", "merged-centers"],
    )
    def test_invalid_packing_exit_2(self, tmp_path, capsys, disks, kind):
        path = write_packing(tmp_path, "invalid.json", {"L": 1.0, "inclusions": disks})
        code, _, err = run(capsys, "analyze", "--packing", path, "--cos", "1=1")
        assert code == 2
        assert json.loads(err)["error"] == kind

    def test_missing_potential_exit_2(self, ring_file, capsys):
        code, _, err = run(capsys, "analyze", "--packing", ring_file)
        assert code == 2
        assert json.loads(err)["error"] == "ParseError"

    def test_bad_mode_argument_exit_2(self, ring_file, capsys):
        code, _, err = run(capsys, "analyze", "--packing", ring_file, "--cos", "x=1")
        assert code == 2
        assert json.loads(err)["error"] == "ParseError"

    def test_deterministic_output(self, ring_file, capsys):
        args = ["analyze", "--packing", ring_file, "--cos", "2=1", "--sin", "3=0.5"]
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_delta_max_edge_keeping_every_gap_changes_nothing(self, ring_file, capsys):
        widest = float(analyze(load_packing(ring_file)).gap_widths.max())
        args = ["analyze", "--packing", ring_file, "--cos", "2=1", "--sin", "3=0.5"]
        code, plain, _ = run(capsys, *args)
        assert code == 0
        code, cut, _ = run(capsys, *args, "--delta-max-edge", repr(widest))
        assert code == 0
        assert cut == plain

    def test_delta_max_edge_nan_exit_2(self, ring_file, capsys):
        code, _, err = run(capsys, "analyze", "--packing", ring_file, "--cos", "1=1",
                           "--delta-max-edge", "nan")
        assert code == 2
        assert json.loads(err)["error"] == "ParseError"


def disks(*centers, r=0.1):
    return {"L": 1.0, "inclusions": [{"x": x, "y": y, "r": r} for x, y in centers]}


class TestDegenerateInputs:
    @pytest.mark.parametrize(
        "packing",
        [disks((0.3, 0.0), (0.7, 0.0)), disks((-0.5, 0.0), (0.0, 0.0), (0.5, 0.0))],
        ids=["one-ray", "collinear-chain"],
    )
    def test_shared_boundary_angle_exit_3(self, tmp_path, capsys, packing):
        path = write_packing(tmp_path, "degenerate.json", packing)
        code, _, err = run(capsys, "analyze", "--packing", path, "--cos", "1=1")
        assert code == 3
        assert json.loads(err)["error"] == "DegenerateAngleError"

    @pytest.mark.parametrize(
        "command",
        [["analyze", "--cos", "1=1"], ["sweep", "--k-from", "1", "--k-to", "3"]],
        ids=["analyze", "sweep"],
    )
    def test_disconnected_interior_exit_3(self, tmp_path, capsys, command):
        # No gap of the 61-disk grid is below 0.001: every interior disk floats.
        path = str(tmp_path / "grid61.json")
        save_packing(grid_packing(0.1, 0.02), path)
        code, out, err = run(capsys, command[0], "--packing", path, *command[1:],
                             "--delta-max-edge", "0.001")
        assert code == 3
        assert out == ""
        assert json.loads(err)["error"] == "SingularSystemError"

    @pytest.mark.parametrize(
        "text",
        ['{"L": 1.0, "inclusions": [{"x": NaN, "y": 0.0, "r": 0.1}]}',
         '{"L": Infinity, "inclusions": [{"x": 0.0, "y": 0.0, "r": 0.1}]}'],
        ids=["nan-coordinate", "infinite-domain"],
    )
    def test_non_finite_json_exit_2(self, tmp_path, capsys, text):
        path = tmp_path / "nonfinite.json"
        path.write_text(text)
        code, _, err = run(capsys, "analyze", "--packing", str(path), "--cos", "1=1")
        assert code == 2
        assert json.loads(err)["error"] == "ParseError"

    # Each asks for more than 2^57 bytes, beyond any address space: the
    # allocation fails at once and no memory is touched.
    @pytest.mark.parametrize(
        "command",
        [["validate", "--cos", "1=1", "--oracle-m", "100000000"],
         ["analyze", "--cos", "100000000000000000=1"],
         ["sweep", "--k-from", "0", "--k-to", "100000000000000000"]],
        ids=["validate", "analyze", "sweep"],
    )
    def test_oversized_request_exit_2(self, ring_file, capsys, command):
        code, out, err = run(capsys, command[0], "--packing", ring_file, *command[1:])
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "MemoryError"

    @pytest.mark.parametrize("k", ["2000000000000000000", "100000000000000000000"])
    def test_mode_past_the_largest_array_exit_2(self, ring_file, capsys, k):
        # numpy refuses such a coefficient array by its size, before allocating it.
        code, out, err = run(capsys, "analyze", "--packing", ring_file, "--cos", f"{k}=1")
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "ParseError"

    @pytest.mark.parametrize("kind", ["ring", "grid"])
    def test_generator_beyond_physical_memory_exit_2(self, tmp_path, capsys, monkeypatch,
                                                     kind):
        # Physical memory read as 1 KB: the default ring and grid need more.
        monkeypatch.setattr(errors, "_physical_memory", lambda: 1024)
        path = tmp_path / "out.json"
        code, out, err = run(capsys, "gen", kind, "--out", str(path))
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "MemoryError"
        assert not path.exists()

    def test_resonance_matrix_beyond_physical_memory_exit_2(self, ring_file, capsys,
                                                             monkeypatch):
        # Physical memory read as 1 MiB: the R of K = 2000 needs about 264 MB.
        monkeypatch.setattr(errors, "_physical_memory", lambda: 1 << 20)
        code, out, err = run(capsys, "analyze", "--packing", ring_file, "--cos", "2000=1")
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "MemoryError"

    @pytest.mark.parametrize(
        "command",
        [["analyze", "--cos", "1=1e308", "--cos", "1=1e308"],
         ["analyze", "--sin", "2=1e308", "--sin", "2=1e308"],
         ["validate", "--cos", "1=1e308", "--cos", "1=1e308", "--oracle-m", "8"]],
        ids=["analyze-cos", "analyze-sin", "validate"],
    )
    def test_coefficients_summing_to_infinity_exit_2_and_nothing_written(
        self, ring_file, tmp_path, capsys, command
    ):
        # Each argument is finite, their sum is not.
        path = tmp_path / "out.json"
        for out_args in ([], ["--out", str(path)]):
            code, out, err = run(capsys, command[0], "--packing", ring_file, *command[1:],
                                 *out_args)
            assert code == 2
            assert out == ""
            assert json.loads(err) == {"error": "ParseError",
                                       "message": "bad potential: coefficients must be finite"}
        assert not path.exists()

    def test_identical_mode_with_unequal_radii_exit_2(self, tmp_path, capsys):
        path = write_packing(tmp_path, "bidisperse.json", {
            "L": 1, "inclusions": [{"x": 0.5, "y": 0, "r": 0.1}, {"x": -0.5, "y": 0, "r": 0.2}]})
        code, out, err = run(capsys, "analyze", "--packing", path, "--cos", "1=1")
        assert code == 2
        assert out == ""
        assert json.loads(err) == {"error": "ModeError",
                                   "message": "identical mode requires equal radii"}

    @pytest.mark.parametrize("command", [["analyze"], ["validate", "--oracle-m", "8"]],
                             ids=["analyze", "validate"])
    def test_non_finite_result_exit_3_and_nothing_written(self, ring_file, tmp_path, capsys,
                                                          command):
        # cos theta at amplitude 1e200 has an energy of about 1e400: past the float range.
        path = tmp_path / "out.json"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for out_args in ([], ["--out", str(path)]):
                code, out, err = run(capsys, command[0], "--packing", ring_file,
                                     "--cos", "1=1e200", *command[1:], *out_args)
                assert code == 3
                assert out == ""
                assert len(err.splitlines()) == 1
                assert json.loads(err)["error"] == "DomainError"
        assert [str(w.message) for w in caught] == []
        assert not path.exists()

    @pytest.mark.parametrize(
        "command",
        [["gen", "ring", "--n", "8"],
         ["analyze", "--packing", "RING", "--cos", "1=1"],
         ["dtn", "--packing", "RING"],
         ["sweep", "--packing", "RING", "--k-from", "0", "--k-to", "3"],
         ["validate", "--packing", "RING", "--cos", "1=1", "--oracle-m", "4"]],
        ids=["gen", "analyze", "dtn", "sweep", "validate"],
    )
    def test_unwritable_out_exit_2(self, ring_file, tmp_path, capsys, command):
        path = str(tmp_path / "missing" / "out.json")
        argv = [ring_file if arg == "RING" else arg for arg in command]
        code, out, err = run(capsys, *argv, "--out", path)
        assert code == 2
        assert out == ""
        error = json.loads(err)
        assert error["error"] == "ParseError"
        assert error["message"].startswith(f"cannot write output file {path}: ")


class TestDtn:
    def test_matrix_shape_and_symmetry(self, ring_file, capsys):
        code, out, _ = run(capsys, "dtn", "--packing", ring_file)
        assert code == 0
        obj = json.loads(out)
        lam = obj["dtn_matrix"]
        assert len(lam) == 8 and all(len(row) == 8 for row in lam)
        for i in range(8):
            for j in range(8):
                assert lam[i][j] == pytest.approx(lam[j][i], abs=1e-9)

    def test_empty_packing_exit_2(self, empty_file, capsys):
        code, _, err = run(capsys, "dtn", "--packing", empty_file)
        assert code == 2
        assert json.loads(err)["error"] == "EmptyPackingError"


class TestSweep:
    def test_rows_and_regimes(self, ring_file, capsys):
        code, out, _ = run(capsys, "sweep", "--packing", ring_file,
                           "--k-from", "1", "--k-to", "100")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 100
        regimes = [int(r["regime"]) for r in rows]
        assert all(a <= b for a, b in zip(regimes, regimes[1:]))
        assert regimes[0] == 1
        for r in rows:
            total = float(r["E_net"]) + float(r["E_ref"]) + float(r["R_res"])
            assert float(r["total"]) == pytest.approx(total, rel=1e-12)
            assert float(r["quad_form"]) == pytest.approx(2.0 * total, rel=1e-12)

    def test_zero_mode_row(self, ring_file, capsys):
        code, out, _ = run(capsys, "sweep", "--packing", ring_file,
                           "--k-from", "0", "--k-to", "0")
        assert code == 0
        row = next(csv.DictReader(io.StringIO(out)))
        assert float(row["total"]) == pytest.approx(0.0, abs=1e-10)

    def test_empty_packing_is_the_reference_medium(self, empty_file, capsys):
        code, out, _ = run(capsys, "sweep", "--packing", empty_file,
                           "--k-from", "0", "--k-to", "5")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [int(r["k"]) for r in rows] == list(range(6))
        for r in rows:
            k = int(r["k"])
            assert int(r["regime"]) == 2
            assert float(r["E_net"]) == float(r["R_res"]) == 0.0
            assert float(r["quad_form"]) == pytest.approx(math.pi * k, rel=1e-15, abs=0.0)

    def test_empty_range_exit_2(self, ring_file, capsys):
        code, _, err = run(capsys, "sweep", "--packing", ring_file,
                           "--k-from", "5", "--k-to", "2")
        assert code == 2
        assert json.loads(err)["error"] == "ParseError"

    def test_wide_sweep_memory_is_bounded(self, tmp_path, capsys):
        # Each block of rows is written before the next is computed: holding all 20 000
        # rows before writing any peaks near 9.5 MB here.
        path, out = str(tmp_path / "grid61.json"), tmp_path / "sweep.csv"
        save_packing(grid_packing(0.1, 0.02), path)
        tracemalloc.start()
        try:
            code = main(["sweep", "--packing", path, "--k-from", "1", "--k-to", "20000",
                         "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert capsys.readouterr() == ("", "")
        assert len(out.read_text().splitlines()) == 20001
        assert peak < 6e6


class TestValidate:
    def test_options_shared_with_analyze_have_its_help(self):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))

        def helps(command):
            return {a.dest: a.help for a in sub.choices[command]._actions}

        analyze_help, validate_help = helps("analyze"), helps("validate")
        assert {dest: validate_help[dest] for dest in analyze_help} == analyze_help
        assert sub.choices["validate"].parse_args(
            ["--packing", "a", "b"]).packing == ["a", "b"]

    def test_empty_packing_agrees_with_oracle(self, empty_file, capsys):
        code, out, _ = run(capsys, "validate", "--packing", empty_file,
                           "--cos", "2=1", "--oracle-m", "8")
        assert code == 0
        entry = json.loads(out)["results"][0]
        assert entry["relative_difference"] <= 1e-8
        assert math.isfinite(entry["oracle_condition"])
        assert entry["oracle_condition"] >= 1.0

    def test_empty_packing_dtn_error(self, empty_file, capsys):
        # Both sides are diag(pi k) over the modes 0..K.
        code, out, _ = run(capsys, "validate", "--packing", empty_file,
                           "--cos", "2=1", "--sin", "1=0.5", "--oracle-m", "8")
        assert code == 0
        entry = json.loads(out)["results"][0]
        assert entry["dtn_error"] <= 1e-8
        assert entry["dtn_error_offdiag"] <= 1e-8

    def test_dtn_matrix_reproduces_the_asymptotic_form(self, ring_file, capsys):
        code, out, _ = run(capsys, "validate", "--packing", ring_file, "--cos", "1=0.7",
                           "--cos", "3=-0.2", "--sin", "2=0.4", "--oracle-m", "16")
        assert code == 0
        entry = json.loads(out)["results"][0]
        a = analyze(load_packing(ring_file))
        c = np.array([0.0, 0.7, 0.0, -0.2, 0.0, 0.4, 0.0])
        q = c @ dtn_asymptotic(3, a, build_network(a)) @ c
        assert q == pytest.approx(entry["quad_form_asymptotic"], rel=1e-12)
        assert 0.0 < entry["dtn_error"] < 1.0
        # On the 8-fold ring modes k, m <= 3 couple on neither side (k +- m is never 8).
        assert entry["dtn_error_offdiag"] <= 1e-10

    def test_constant_mode_errors_are_zero_to_roundoff(self, ring_file, capsys):
        # A constant trace carries no flux: the oracle's form is exactly 0.
        code, out, _ = run(capsys, "validate", "--packing", ring_file,
                           "--cos", "0=1", "--oracle-m", "4")
        assert code == 0
        entry = json.loads(out)["results"][0]
        assert entry["quad_form_oracle"] == 0.0
        assert entry["relative_difference"] <= 1e-20
        assert entry["dtn_error"] <= 1e-20

    def test_guarded_geometry_refuses_oracle(self, tmp_path, capsys):
        path = write_packing(
            tmp_path, "tight.json",
            {"L": 10.0, "inclusions": [
                {"x": -1.00005, "y": 0.0, "r": 1.0},
                {"x": 1.00005, "y": 0.0, "r": 1.0},
            ]},
        )
        code, out, _ = run(capsys, "validate", "--packing", path,
                           "--cos", "1=1", "--oracle-m", "8")
        assert code == 0
        entry = json.loads(out)["results"][0]
        assert "oracle_refused" in entry
        assert "quad_form_asymptotic" in entry
        assert "oracle_condition" not in entry
        assert "dtn_error" not in entry and "dtn_error_offdiag" not in entry

    def test_oracle_m_below_frequency_exit_2(self, empty_file, capsys):
        code, _, err = run(capsys, "validate", "--packing", empty_file,
                           "--cos", "9=1", "--oracle-m", "4")
        assert code == 2
        assert json.loads(err)["error"] == "ParseError"

    def test_oracle_m_zero_exit_2(self, ring_file, capsys):
        code, _, err = run(capsys, "validate", "--packing", ring_file,
                           "--cos", "0=1", "--oracle-m", "0")
        assert code == 2
        assert json.loads(err)["error"] == "ParseError"

    def test_trend_reported_for_sequences(self, tmp_path, capsys):
        paths = []
        for idx, ring_radius in enumerate((0.86, 0.88)):
            p = str(tmp_path / f"seq{idx}.json")
            assert main(["gen", "ring", "--n", "8", "--ring-radius",
                         str(ring_radius), "--disk-radius", "0.1",
                         "--out", p]) == 0
            paths.append(p)
        capsys.readouterr()
        code, out, _ = run(capsys, "validate", "--packing", *paths,
                           "--cos", "1=1", "--oracle-m", "24")
        assert code == 0
        obj = json.loads(out)
        assert len(obj["trend"]) == 2
        for item in obj["trend"]:
            assert item["relative_error"] >= 0.0


# The exit code of each error kind the CLI can write: every DtnError subclass's own,
# and 2 for MemoryError.
EXIT_CODES = {cls.__name__: cls.exit_code for cls in errors.DtnError.__subclasses__()}
EXIT_CODES["MemoryError"] = 2


def test_readme_table_lists_every_error_kind_with_its_exit_code():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = re.findall(r"^\| `(\w+)` \| (\d) \|", readme, flags=re.MULTILINE)
    assert {kind: int(code) for kind, code in table} == EXIT_CODES


@pytest.fixture(scope="module")
def ring8_file(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("cli") / "ring8.json")
    save_packing(ring_packing(8, 0.85, 0.1), path)
    return path


FLAG_VALUES = st.sampled_from(["nan", "inf", "-inf", "0", "-0.0", "5e-324", "1e-320",
                               "1e-300", "1e300", "1e308", "-1", "1"])
GEN_FLAGS = {
    "ring": ["--n", "--ring-radius", "--disk-radius", "--domain-radius"],
    "grid": ["--disk-radius", "--gap", "--domain-radius"],
    "random": ["--n", "--disk-radius", "--delta-min", "--domain-radius", "--seed"],
}


def integers(top):
    return st.integers(-1, top).map(str)


@st.composite
def requests(draw, packing):
    """One dtnnet command line: each float flag from FLAG_VALUES, each integer at most
    50 (gen), 64 (sweep, a mode of psi) or 16 (--oracle-m); a --cos or --sin may repeat."""
    command = draw(st.sampled_from(["gen", "analyze", "dtn", "sweep", "validate"]))
    if command == "gen":
        kind = draw(st.sampled_from(sorted(GEN_FLAGS)))
        argv = ["gen", kind]
        for flag in GEN_FLAGS[kind]:  # a flag left out keeps its default
            value = draw(st.none() | (integers(50) if flag in ("--n", "--seed") else FLAG_VALUES))
            argv += [] if value is None else [f"{flag}={value}"]
        return argv
    argv = [command, "--packing", packing, "--mode",
            draw(st.sampled_from(["identical", "generalized"]))]
    if draw(st.booleans()):
        argv += [f"--delta-max-edge={draw(FLAG_VALUES)}"]
    if command in ("analyze", "validate"):
        for _ in range(draw(st.integers(0, 3))):
            flag = draw(st.sampled_from(["--cos", "--sin"]))
            argv += [f"{flag}={draw(st.integers(0, 64))}={draw(FLAG_VALUES)}"] * draw(
                st.integers(1, 2))
    if command == "sweep":
        argv += [f"--k-from={draw(integers(64))}",
                 f"--k-to={draw(integers(64) | FLAG_VALUES)}"]  # argparse refuses a float
    if command == "validate":
        argv += [f"--oracle-m={draw(integers(16))}"]
    return argv


@settings(max_examples=500)
@given(data=st.data())
def test_no_command_line_ends_in_a_traceback(ring8_file, data):
    argv = data.draw(requests(ring8_file))
    out, err = io.StringIO(), io.StringIO()
    # Physical memory read as 400 disks: a larger grid is refused before it allocates,
    # and the R of K <= 64 still fits.
    with pytest.MonkeyPatch.context() as patch, redirect_stdout(out), redirect_stderr(err):
        patch.setattr(errors, "_physical_memory", lambda: 400 * generators._BYTES_PER_DISK)
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses the command line
            assert exc.code == 2
            return
    if code == 0:
        assert err.getvalue() == ""
        return
    assert out.getvalue() == ""
    lines = err.getvalue().splitlines()
    assert len(lines) == 1
    kind = json.loads(lines[0])["error"]
    assert EXIT_CODES[kind] == code
