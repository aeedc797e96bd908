"""Command-line interface: exit codes, JSON schema, determinism."""

import builtins
import contextlib
import csv
import io
import json
import math
import os
import stat
import subprocess
import sys
import tempfile
import threading
import time
from itertools import product as iproduct
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kerrpurify import cli
from kerrpurify.cli import main


def read_csv(path) -> list:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def refused(argv, capsys):
    """(stdout, stderr) of a command line the parser refuses: it exits 2."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    return captured.out, captured.err


class TestVerifyBranches:
    def test_default_all_pass(self, capsys):
        code, out, _ = run_cli(["verify-branches"], capsys)
        assert code == 0
        assert "14/14" in out

    def test_only_filter(self, capsys):
        code, out, _ = run_cli(["verify-branches", "--only", "qnd1-double-clean"],
                               capsys)
        assert code == 0
        assert "1/1" in out

    def test_only_is_repeatable(self, capsys):
        # --only is the one flag that takes a value more than once
        code, out, _ = run_cli(["verify-branches", "--only", "qnd1-double-clean",
                                "--only=qnd3-single-clean"], capsys)
        assert code == 0
        assert "2/2" in out

    def test_unknown_case_exits_2(self, capsys):
        code, _, err = run_cli(["verify-branches", "--only", "no-such-case"], capsys)
        assert code == 2
        assert "unknown case ids" in err

    @pytest.mark.parametrize("only", [[""], [","], [",", ""]], ids=["empty", "comma", "both"])
    def test_only_without_a_case_id_exits_2(self, capsys, only):
        argv = ["verify-branches"] + [arg for value in only for arg in ("--only", value)]
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "--only" in err

    def test_equal_angles_exit_2(self, capsys):
        code, _, err = run_cli(
            ["verify-branches", "--theta", "1/4", "--theta-prime", "1/4"], capsys
        )
        assert code == 2

    def test_alternate_angles_pass(self, capsys):
        code, out, _ = run_cli(
            ["verify-branches", "--theta", "1/8", "--theta-prime", "5/8"], capsys
        )
        assert code == 0
        assert "14/14" in out

    def test_angles_from_config_file(self, capsys, tmp_path):
        # flag > config file > default, as for stage1
        equal = tmp_path / "equal.cfg"
        equal.write_text("theta=1/4\ntheta-prime=1/4\n")
        code, out, err = run_cli(["verify-branches", "--config", str(equal)], capsys)
        assert code == 2
        assert err.startswith("error:") and "differ" in err
        assert "transformation checks" not in out
        code, out, _ = run_cli(["verify-branches", "--config", str(equal),
                                "--theta-prime", "5/8"], capsys)
        assert code == 0 and "14/14" in out
        alternate = tmp_path / "alternate.cfg"
        alternate.write_text("theta=1/8\ntheta-prime=5/8\n")
        code, out, _ = run_cli(["verify-branches", "--config", str(alternate)], capsys)
        assert code == 0 and "14/14" in out


class TestStage1Command:
    ARGS = ["stage1", "--p1", "0.1", "--p2", "0.01", "--f0", "0.8"]

    def test_exact_json_document(self, capsys, tmp_path):
        out_file = tmp_path / "run.json"
        code, out, _ = run_cli(self.ARGS + ["--mode", "exact", "--out", str(out_file)],
                               capsys)
        assert code == 0
        doc = json.loads(out_file.read_text())
        for key in ("params", "fidelity", "closed_form_fidelity", "yield",
                    "counts", "mode", "seed"):
            assert key in doc
        assert abs(doc["fidelity"] - doc["closed_form_fidelity"]) < 1e-12
        assert abs(doc["fidelity"] - 516 / 517) < 1e-12
        # probabilities round-trip at full precision
        assert doc["fidelity"] == json.loads(json.dumps(doc))["fidelity"]
        assert doc["params"]["theta"] == "1/4"

    def test_mc_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = self.ARGS + ["--mode", "mc", "--trials", "100000", "--seed", "7"]
        assert run_cli(argv + ["--out", str(a)], capsys)[0] == 0
        assert run_cli(argv + ["--out", str(b)], capsys)[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_out_of_range_f0_exits_2(self, capsys):
        code, _, err = run_cli(
            ["stage1", "--p1", "0.1", "--p2", "0.01", "--f0", "1.2"], capsys
        )
        assert code == 2

    def test_missing_flag_exits_2(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        out, err = refused(["stage1", "--p1", "0.1", "--p2", "0.01", "--out", "run.json",
                            "--csv", "rows.csv"], capsys)
        assert out == "" and "required: --f0" in err
        assert list(tmp_path.iterdir()) == []

    def test_csv_append(self, capsys, tmp_path):
        path = tmp_path / "rows.csv"
        argv = self.ARGS + ["--csv", str(path)]
        run_cli(argv, capsys)
        run_cli(argv, capsys)
        rows = read_csv(path)
        assert len(rows) == 3  # header + 2 appended runs
        assert rows[0][0] == "p1"


class TestStage2Command:
    def test_rounds_and_baseline(self, capsys, tmp_path):
        out_file = tmp_path / "run.json"
        code, out, _ = run_cli(
            ["stage2", "--F", "0.8", "--rounds", "2", "--baseline",
             "--out", str(out_file)], capsys
        )
        assert code == 0
        doc = json.loads(out_file.read_text())
        assert abs(doc["rounds"][0]["fidelity"] - 16 / 17) < 1e-12
        assert abs(doc["rounds"][0]["yield"] - 0.68) < 1e-12
        assert abs(doc["rounds"][1]["fidelity"] - 256 / 257) < 1e-12
        assert abs(doc["yield_ratio"] - 2.0) < 1e-12

    def test_half_fidelity_exits_2(self, capsys):
        code, _, err = run_cli(["stage2", "--F", "0.5"], capsys)
        assert code == 2

    def test_above_one_exits_2(self, capsys):
        code, _, _ = run_cli(["stage2", "--F", "1.1"], capsys)
        assert code == 2

    @pytest.mark.parametrize("rounds", ["538", "1000000000"])
    @pytest.mark.parametrize("argv", [
        ["stage2", "--F", "0.8", "--out", "run.json", "--csv", "rows.csv"],
        ["sweep", "stage2", "--F", "0.6,0.8", "--baseline", "--csv", "rows.csv"],
    ], ids=["stage2", "sweep"])
    def test_rounds_above_the_cap_exit_2_before_any_work(self, capsys, tmp_path,
                                                         monkeypatch, argv, rounds):
        # every round is kept and written, so a count past the cap is refused
        # before the first round runs, at once and with no file written
        monkeypatch.chdir(tmp_path)
        start = time.monotonic()
        code, out, err = run_cli(argv + ["--rounds", rounds], capsys)
        assert time.monotonic() - start < 5
        assert code == 2 and out == ""
        assert err.startswith("error:") and "rounds must lie in [1, 537]" in err
        assert list(tmp_path.iterdir()) == []


class TestSweep:
    def test_stage1_grid(self, capsys, tmp_path):
        path = tmp_path / "grid.csv"
        code, out, _ = run_cli(
            ["sweep", "stage1", "--p1", "0.02,0.05", "--p2", "0.001",
             "--f0", "0.7,0.8,0.9", "--csv", str(path)], capsys
        )
        assert code == 0
        rows = read_csv(path)
        assert len(rows) == 1 + 2 * 1 * 3

    def test_stage2_grid_with_baseline(self, capsys, tmp_path):
        path = tmp_path / "grid2.csv"
        code, _, _ = run_cli(
            ["sweep", "stage2", "--F", "0.6,0.8", "--rounds", "2",
             "--baseline", "--csv", str(path)], capsys
        )
        assert code == 0
        rows = read_csv(path)
        assert len(rows) == 1 + 2 * 2
        header = rows[0]
        ratio = float(rows[1][header.index("yield_ratio")])
        assert abs(ratio - 2.0) < 1e-12


    @pytest.mark.parametrize("argv", [
        ["sweep", "stage2", "--F", "0.6,0.8", "--rounds", "3", "--baseline"],
        ["stage2", "--F", "0.8", "--rounds", "3", "--baseline"],
    ], ids=["sweep", "stage2"])
    def test_rounds_with_baseline_rows_match_the_header(self, capsys, tmp_path, argv):
        path = tmp_path / "rounds.csv"
        assert run_cli(argv + ["--csv", str(path)], capsys)[0] == 0
        header, *rows = read_csv(path)
        assert header[-2:] == ["pbs_yield", "yield_ratio"]
        assert rows and all(len(row) == len(header) for row in rows)
        for row in rows:
            baseline = [row[header.index(c)] for c in ("pbs_yield", "yield_ratio")]
            assert (baseline == ["", ""]) == (row[header.index("round")] != "1")

    def test_each_grid_parsed_once(self, capsys, tmp_path, monkeypatch):
        parsed = []
        real_parse = cli._parse_grid

        def counting_parse(text):
            parsed.append(text)
            return real_parse(text)

        # the grids' declared type is read when the cached parser is built
        monkeypatch.setattr(cli, "_parse_grid", counting_parse)
        p1, p2, f0 = "0.01,0.02,0.03,0.04,0.05", "0.001,0.002,0.003,0.004", "0.6,0.7,0.8,0.9,0.95"
        path = tmp_path / "grid.csv"
        cli.build_parser.cache_clear()
        try:
            code, out, _ = run_cli(["sweep", "stage1", "--p1", p1, "--p2", p2, "--f0", f0,
                                    "--csv", str(path)], capsys)
        finally:
            cli.build_parser.cache_clear()
        assert code == 0 and "wrote 100 stage1 rows" in out
        assert sorted(parsed) == sorted([p1, p2, f0])
        assert len(read_csv(path)) == 1 + 100

    @pytest.mark.parametrize("grids, options", [
        ({"--p1": ["0.02", "0.3"], "--p2": ["0", "0.001"], "--f0": ["0", "0.7", "1"]},
         ["--variant", "qnd3", "--theta", "1/8", "--theta-prime", "5/8"]),
        ({"--p1": ["0.02", "0.05"], "--p2": ["0.001"], "--f0": ["0.7", "0.8"]},
         ["--mode", "mc", "--trials", "2000", "--seed", "4"]),
        ({"--F": ["0.55", "0.65", "0.999999999", "1"]}, ["--rounds", "2", "--baseline"]),
        ({"--F": ["0.55", "0.65"]},
         ["--rounds", "2", "--baseline", "--mode", "mc", "--trials", "2000", "--seed", "4"]),
    ], ids=["stage1-exact", "stage1-mc", "stage2-exact", "stage2-mc"])
    def test_sweep_rows_equal_the_command_rows(self, capsys, tmp_path, grids, options):
        # one command per grid point, in grid order, writes the sweep's file
        pipeline = "stage1" if "--p1" in grids else "stage2"
        single, swept = tmp_path / "single.csv", tmp_path / "swept.csv"
        for point in iproduct(*grids.values()):
            flags = [x for pair in zip(grids, point) for x in pair]
            assert run_cli([pipeline] + flags + options + ["--csv", str(single)], capsys)[0] == 0
        sweep = [x for flag, grid in grids.items() for x in (flag, ",".join(grid))]
        assert run_cli(["sweep", pipeline] + sweep + options + ["--csv", str(swept)],
                       capsys)[0] == 0
        assert swept.read_bytes() == single.read_bytes()

    @pytest.mark.parametrize("argv", [
        ["sweep", "stage1", "--p1", "0.1", "--p2", "0.01", "--f0", "0.8,1.5,0.9"],
        ["sweep", "stage1", "--p1", "0.1,0.7", "--p2", "0.4", "--f0", "0.8"],
        ["sweep", "stage1", "--p1", "0.1", "--p2", "0.01", "--f0", "0.8,nan", "--mode", "mc",
         "--trials", "100"],
        ["sweep", "stage2", "--F", "0.8,0.5,0.9", "--rounds", "2", "--baseline"],
    ], ids=["stage1-f0", "stage1-sum", "stage1-mc", "stage2"])
    def test_one_invalid_point_leaves_the_csv(self, capsys, tmp_path, argv):
        path = tmp_path / "grid.csv"
        valid = [x.split(",")[0] for x in argv]
        assert run_cli(valid + ["--csv", str(path)], capsys)[0] == 0
        before = path.read_bytes()
        code, out, err = run_cli(argv + ["--csv", str(path)], capsys)
        assert code == 2
        assert err.startswith("error:") and "wrote" not in out
        assert path.read_bytes() == before

    @pytest.mark.parametrize("grids", [
        ["--p1", "0.6,0.02", "--p2", "0.5", "--f0", "0.8"],
        ["--p1", "0.02,0", "--p2", "0", "--f0", "0.8"],
    ], ids=["sum-above-one", "sum-zero"])
    def test_sweep_checks_each_point_like_stage1(self, capsys, tmp_path, grids):
        path = tmp_path / "grid.csv"
        code, _, err = run_cli(["sweep", "stage1", "--csv", str(path)] + grids, capsys)
        assert code == 2
        assert err.startswith("error:") and "p1 + p2" in err
        assert not path.exists()

    def test_one_open_per_sweep(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "grid.csv"
        opens = []
        real_open = builtins.open

        def counting_open(file, *args, **kwargs):
            opens.append(file)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        code, _, _ = run_cli(
            ["sweep", "stage1", "--p1", "0.02,0.05", "--p2", "0.001",
             "--f0", "0.7,0.8,0.9", "--csv", str(path)], capsys
        )
        assert code == 0
        assert opens.count(str(path)) == 1

    def test_mixed_schemas_exit_2(self, capsys, tmp_path):
        path = tmp_path / "grid.csv"
        code, _, _ = run_cli(["sweep", "stage1", "--p1", "0.02", "--p2", "0.001",
                              "--f0", "0.8", "--csv", str(path)], capsys)
        assert code == 0
        before = path.read_bytes()
        code, _, err = run_cli(["sweep", "stage2", "--F", "0.8", "--csv", str(path)], capsys)
        assert code == 2
        assert err.startswith("error:")
        code, _, err = run_cli(["stage2", "--F", "0.8", "--csv", str(path)], capsys)
        assert code == 2
        assert path.read_bytes() == before

    @pytest.mark.parametrize("argv", [
        ["sweep", "stage1", "--p1", "0.02,0.05", "--p2", "0.001", "--f0", "0.8"],
        ["stage1", "--p1", "0.1", "--p2", "0.01", "--f0", "0.8"],
        ["sweep", "stage2", "--F", "0.6,0.8", "--rounds", "2", "--baseline"],
        ["stage2", "--F", "0.8", "--rounds", "2"],
    ], ids=["sweep-stage1", "stage1", "sweep-stage2", "stage2"])
    @pytest.mark.parametrize("cut", ["\r\n", "\n"])
    def test_append_ends_an_open_last_line(self, capsys, tmp_path, argv, cut):
        # a last line that lost its line end is ended before the new rows
        path = tmp_path / "rows.csv"
        assert run_cli(argv + ["--csv", str(path)], capsys)[0] == 0
        path.write_bytes(path.read_bytes().removesuffix(cut.encode()))
        assert run_cli(argv + ["--csv", str(path)], capsys)[0] == 0
        header, *rows = read_csv(path)
        assert rows and len(rows) % 2 == 0
        assert all(len(row) == len(header) for row in rows)
        assert rows[:len(rows) // 2] == rows[len(rows) // 2:]

    @pytest.mark.parametrize("argv, flag", [
        (["sweep", "stage1", "--p1", "0.1", "--p2", "0.01"], "--f0"),
        (["sweep", "stage2", "--rounds", "2"], "--F"),
    ], ids=["stage1", "stage2"])
    def test_missing_grid_exits_2_and_writes_no_csv(self, capsys, tmp_path, argv, flag):
        path = tmp_path / "grid.csv"
        out, err = refused(argv + ["--csv", str(path)], capsys)
        assert out == "" and f"required: {flag}" in err
        assert not path.exists()

    @pytest.mark.parametrize("argv", [
        ["sweep", "stage1", "--p1", ",", "--p2", "0.1", "--f0", "0.8"],
        ["sweep", "stage1", "--p1", "0.02", "--p2", ",", "--f0", "0.8"],
        ["sweep", "stage1", "--p1", "0.02", "--p2", "0.1", "--f0", ",,"],
        ["sweep", "stage2", "--F", ","],
    ], ids=["p1", "p2", "f0", "F"])
    def test_empty_grid_exits_2_and_leaves_the_csv(self, capsys, tmp_path, argv):
        path = tmp_path / "grid.csv"
        filled = {"stage1": ["--p1", "0.02", "--p2", "0.1", "--f0", "0.8"],
                  "stage2": ["--F", "0.8"]}[argv[1]]
        assert run_cli(argv[:2] + filled + ["--csv", str(path)], capsys)[0] == 0
        before = path.read_bytes()
        flag = next(f for f, grid in zip(argv[2::2], argv[3::2]) if not grid.strip(","))
        out, err = refused(argv + ["--csv", str(path)], capsys)
        assert out == ""
        assert f"argument {flag}: grid" in err and "no values" in err
        assert path.read_bytes() == before


def _writer_text(lines) -> str:
    """``lines`` as the csv module's default dialect writes them."""
    text = io.StringIO(newline="")
    csv.writer(text).writerows(lines)
    return text.getvalue()


# every kind of cell a CLI row holds: floats at their edges, counts and seeds
# up to 2**64 - 1, empty cells and the fixed names
CSV_CELLS = (st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e300])
             | st.integers(0, 2**64 - 1) | st.none()
             | st.sampled_from(["qnd1", "qnd3", "exact", "mc"]))
CSV_HEADERS = [cli.STAGE1_CSV_HEADER, cli._stage2_csv_header(False),
               cli._stage2_csv_header(True)]


@st.composite
def csv_appends(draw) -> tuple:
    """(header, the file's text before or None for no file, rows to append)."""
    header = draw(st.sampled_from(CSV_HEADERS))
    rows = st.lists(st.lists(CSV_CELLS, min_size=len(header), max_size=len(header)),
                    max_size=4)
    before = draw(st.sampled_from([None, "", "headed", "\r\n", "\n"]))
    if before not in (None, ""):
        text = _writer_text([header] + draw(rows))
        before = text if before == "headed" else text.removesuffix(before)
    return header, before, draw(rows)


class TestCsvText:
    """``_append_csv`` writes rows as joined text, not through ``csv.writer``;
    the bytes must stay the writer's."""

    @settings(max_examples=300, deadline=None)
    @given(case=csv_appends())
    def test_bytes_equal_the_csv_writers(self, case):
        # a new, empty, headed or open-ended file gains exactly the bytes
        # csv.writer would add: the header or an ended last line, then the rows
        header, before, rows = case
        lead = ([header] if not before
                else [] if before.endswith(("\r", "\n")) else [[]])
        with tempfile.TemporaryDirectory() as root:
            path = os.path.join(root, "rows.csv")
            if before is not None:
                with open(path, "w", newline="") as fh:
                    fh.write(before)
            cli._append_csv(path, header, rows)
            with open(path, "rb") as fh:
                written = fh.read()
        assert written == ((before or "") + _writer_text(lead + rows)).encode()

    @pytest.mark.parametrize("argv", [
        ["sweep", "stage1", "--p1", "0.02,0.05", "--p2", "0.001", "--f0", "0.7,0.9"],
        ["sweep", "stage2", "--F", "0.55,0.75", "--rounds", "2", "--baseline"],
        ["stage1", "--p1", "0.1", "--p2", "0.01", "--f0", "0.8"],
        ["stage2", "--F", "0.8", "--rounds", "2", "--baseline"],
    ], ids=["sweep-stage1", "sweep-stage2", "stage1", "stage2"])
    @pytest.mark.parametrize("mode", [["--mode", "mc", "--trials", "2000", "--seed", "3"],
                                      ["--mode", "exact"]], ids=["mc", "exact"])
    def test_rows_hold_builtin_cells_only(self, capsys, tmp_path, monkeypatch, argv, mode):
        # str and repr differ for a numpy scalar (np.float64(0.5) renders as
        # 0.5 and as np.float64(0.5)), so every cell must be a built-in value:
        # Monte Carlo counts reach the rows through .tolist()
        cells = []
        real_append = cli._append_csv

        def recording_append(path, header, rows, *args):
            cells.extend(v for row in rows for v in row)
            return real_append(path, header, rows, *args)

        monkeypatch.setattr(cli, "_append_csv", recording_append)
        assert run_cli(argv + mode + ["--csv", str(tmp_path / "rows.csv")], capsys)[0] == 0
        assert cells
        assert {type(v) for v in cells} <= {float, int, type(None), str}, cells
        assert {v for v in cells if type(v) is str} <= {"qnd1", "qnd3", "exact", "mc"}


class TestSeedRange:
    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    @pytest.mark.parametrize("argv", [
        ["stage1", "--p1", "0.1", "--p2", "0.01", "--f0", "0.8"],
        ["stage2", "--F", "0.8"],
    ], ids=["stage1", "stage2"])
    def test_out_of_range_seed_exits_2(self, capsys, argv, seed):
        code, out, err = run_cli(argv + ["--mode", "mc", "--trials", "10",
                                         "--seed", seed], capsys)
        assert code == 2
        assert err.startswith("error:") and "seed" in err
        assert "Traceback" not in out + err


class TestTrialRange:
    # numpy's multinomial takes fewer than 2**63 trials and raises
    # OverflowError beyond: the run refuses them first, with exit 2
    @pytest.mark.parametrize("trials", ["0", str(2**63), str(2**64)])
    @pytest.mark.parametrize("argv", [
        ["stage1", "--p1", "0.1", "--p2", "0.01", "--f0", "0.8", "--out", "run.json",
         "--csv", "rows.csv"],
        ["sweep", "stage2", "--F", "0.7,0.8", "--baseline", "--csv", "rows.csv"],
    ], ids=["stage1", "sweep"])
    def test_a_trial_count_numpy_cannot_draw_exits_2_and_writes_nothing(
            self, capsys, tmp_path, monkeypatch, argv, trials):
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(argv + ["--mode", "mc", "--trials", trials], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "trials" in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def test_the_largest_trial_count_runs(self, capsys, tmp_path):
        out = tmp_path / "run.json"
        assert run_cli(["stage2", "--F", "0.8", "--mode", "mc", "--trials", str(2**63 - 1),
                        "--out", str(out)], capsys)[0] == 0
        assert json.loads(out.read_text())["trials"] == 2**63 - 1


NO_NUMPY_CLI = """
import sys
sys.modules["numpy"] = None  # importing numpy raises ImportError
from kerrpurify.cli import main
sys.exit(main(sys.argv[1:]))
"""


class TestMonteCarloWithoutNumpy:
    # only Monte Carlo needs numpy: without it, --mode mc exits 2 with an
    # error line, never a traceback, and writes no file
    @pytest.mark.parametrize("argv", [
        ["stage1", "--p1", "0.1", "--p2", "0.01", "--f0", "0.8", "--out", "run.json",
         "--csv", "rows.csv"],
        ["stage2", "--F", "0.8", "--baseline", "--out", "run.json"],
        ["sweep", "stage1", "--p1", "0.1", "--p2", "0.01", "--f0", "0.7,0.8",
         "--csv", "rows.csv"],
    ], ids=["stage1", "stage2", "sweep"])
    def test_mc_exits_2_and_writes_nothing(self, tmp_path, argv):
        src = Path(cli.__file__).resolve().parents[1]
        out = subprocess.run([sys.executable, "-c", NO_NUMPY_CLI, *argv, "--mode", "mc",
                              "--trials", "100"], cwd=tmp_path, capture_output=True,
                             text=True, timeout=120, env=dict(os.environ, PYTHONPATH=str(src)))
        assert out.returncode == 2, out.stderr
        assert out.stdout == "" and out.stderr.startswith("error:") and "numpy" in out.stderr
        assert "Traceback" not in out.stderr
        assert list(tmp_path.iterdir()) == []


class TestConfigFile:
    def test_precedence(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=42\ntheta=1/8\ntheta-prime=5/8\n")
        out_file = tmp_path / "run.json"
        code, _, _ = run_cli(
            ["stage1", "--p1", "0.1", "--p2", "0.01", "--f0", "0.8",
             "--config", str(cfg), "--out", str(out_file)], capsys
        )
        assert code == 0
        doc = json.loads(out_file.read_text())
        assert doc["seed"] == 42
        assert doc["params"]["theta"] == "1/8"
        # explicit flag wins over the file
        code, _, _ = run_cli(
            ["stage1", "--p1", "0.1", "--p2", "0.01", "--f0", "0.8",
             "--config", str(cfg), "--seed", "3", "--out", str(out_file)], capsys
        )
        assert code == 0
        assert json.loads(out_file.read_text())["seed"] == 3

    @pytest.mark.parametrize("argv", [
        ["stage1", "--p1", "0.1", "--p2", "0.01", "--f0", "0.8"],
        ["stage2", "--F", "0.8"],
        ["verify-branches"],
        ["sweep", "stage1", "--p1", "0.1", "--p2", "0.01", "--f0", "0.8"],
    ], ids=["stage1", "stage2", "verify-branches", "sweep"])
    @pytest.mark.parametrize("line", ["thetaprime=1/8", "p1=0.5"])
    def test_unknown_key_exits_2(self, capsys, tmp_path, argv, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"seed=1\n{line}\n")
        out_file, csv_file = tmp_path / "run.json", tmp_path / "rows.csv"
        extra = ((["--out", str(out_file)] if argv[0] in ("stage1", "stage2") else [])
                 + (["--csv", str(csv_file)] if argv[0] != "verify-branches" else []))
        code, out, err = run_cli(argv + ["--config", str(cfg)] + extra, capsys)
        assert code == 2
        assert err.startswith("error:") and repr(line.split("=")[0]) in err
        assert out == "" and not out_file.exists() and not csv_file.exists()

    @pytest.mark.parametrize("argv, lines", [
        (["stage2", "--F", "0.8"], ["theta=1/8", "variant=qnd3"]),
        (["verify-branches"], ["seed=1", "variant=qnd3"]),
        (["sweep", "stage2", "--F", "0.8", "--csv", "s.csv"], ["theta=1/8", "variant=qnd3"]),
    ], ids=["stage2", "verify-branches", "sweep-stage2"])
    def test_keys_without_a_flag_in_the_command_exit_2(self, capsys, tmp_path, monkeypatch,
                                                         argv, lines):
        # every key the command cannot read is named, not only the first
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("\n".join(lines) + "\n")
        code, out, err = run_cli(argv + ["--config", str(cfg)], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error:")
        assert all(repr(line.split("=")[0]) in err for line in lines)
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize("lines, word", [
        (["seed=1", "seed=2"], "repeated"),
        (["theta_prime=5/8", "theta=1/8", "theta-prime=3/8"], "repeated"),
        (["variant="], "empty"),
        (["seed = "], "empty"),
    ], ids=["seed-twice", "theta-prime-two-spellings", "empty-variant", "empty-seed"])
    def test_repeated_or_empty_key_exits_2_and_writes_nothing(self, capsys, tmp_path,
                                                             monkeypatch, lines, word):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("\n".join(lines) + "\n")
        code, out, err = run_cli(["stage1", "--p1", "0.1", "--p2", "0.01", "--f0", "0.8",
                                  "--config", str(cfg), "--out", "run.json",
                                  "--csv", "rows.csv"], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error:") and word in err
        assert list(tmp_path.iterdir()) == [cfg]

    def test_sweep_stage1_reads_the_file_under_its_flags(self, capsys, tmp_path):
        cfg, path = tmp_path / "run.cfg", tmp_path / "grid.csv"
        cfg.write_text("theta=1/8\ntheta_prime=5/8\nvariant=qnd3\nseed=5\n")
        argv = ["sweep", "stage1", "--p1", "0.1", "--p2", "0.01,0.02", "--f0", "0.8",
                "--mode", "mc", "--trials", "100", "--config", str(cfg), "--csv", str(path)]
        assert run_cli(argv, capsys)[0] == 0
        assert run_cli(argv + ["--seed", "3"], capsys)[0] == 0
        header, *rows = read_csv(path)
        assert [(row[header.index("variant")], row[header.index("seed")]) for row in rows] \
            == [("qnd3", "5")] * 2 + [("qnd3", "3")] * 2
        # the file's angles reach the detector: one it cannot build exits 2
        cfg.write_text("theta=1/8\ntheta_prime=1/0\n")
        code, _, err = run_cli(argv, capsys)
        assert code == 2 and "zero denominator" in err
        assert len(read_csv(path)) == 5

    def test_stage2_reads_its_seed(self, capsys, tmp_path):
        cfg, out_file = tmp_path / "run.cfg", tmp_path / "run.json"
        cfg.write_text("seed=3\n")
        code, _, _ = run_cli(["stage2", "--F", "0.8", "--mode", "mc", "--trials", "100",
                              "--config", str(cfg), "--out", str(out_file)], capsys)
        assert code == 0
        assert json.loads(out_file.read_text())["seed"] == 3

    def test_known_keys_are_read(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=5\nvariant=qnd3\ntheta=1/8\ntheta_prime=5/8\n")
        out_file = tmp_path / "run.json"
        code, _, _ = run_cli(["stage1", "--p1", "0.1", "--p2", "0.01", "--f0", "0.8",
                              "--config", str(cfg), "--out", str(out_file)], capsys)
        assert code == 0
        params = json.loads(out_file.read_text())["params"]
        assert (params["seed"], params["variant"], params["theta"], params["theta_prime"]) \
            == (5, "qnd3", "1/8", "5/8")

    def test_malformed_config_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("this is not key value\n")
        code, _, _ = run_cli(
            ["stage1", "--p1", "0.1", "--p2", "0.01", "--f0", "0.8",
             "--config", str(cfg)], capsys
        )
        assert code == 2


class TestParser:
    def test_built_once_and_left_as_it_was(self, capsys, tmp_path):
        # a cached parser must not carry one call's flags into the next
        assert cli.build_parser() is cli.build_parser()
        out_file = tmp_path / "run.json"
        argv = ["stage1", "--p1", "0.1", "--p2", "0.01", "--f0", "0.8", "--out", str(out_file)]
        assert run_cli(argv + ["--variant", "qnd3", "--theta", "1/8", "--theta-prime", "5/8",
                               "--mode", "mc", "--trials", "10", "--seed", "4"], capsys)[0] == 0
        assert run_cli(argv, capsys)[0] == 0
        params = json.loads(out_file.read_text())["params"]
        assert (params["variant"], params["theta"], params["mode"], params["seed"]) \
            == ("qnd1", "1/4", "exact", 0)


class TestZeroDenominatorAngles:
    @pytest.mark.parametrize("flag", ["--theta", "--theta-prime"])
    @pytest.mark.parametrize("argv", [
        ["verify-branches"],
        ["stage1", "--p1", "0.1", "--p2", "0.01", "--f0", "0.8"],
    ], ids=["verify-branches", "stage1"])
    def test_flag_exits_2(self, capsys, argv, flag):
        code, out, err = run_cli(argv + [flag, "1/0"], capsys)
        assert code == 2
        assert err.startswith("error:") and "zero denominator" in err
        assert "Traceback" not in out + err

    def test_config_value_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("theta-prime=1/0\n")
        code, _, err = run_cli(["stage1", "--p1", "0.1", "--p2", "0.01", "--f0", "0.8",
                                "--config", str(cfg)], capsys)
        assert code == 2
        assert err.startswith("error:") and "zero denominator" in err


class TestNonFiniteProbabilities:
    @pytest.mark.parametrize("flag", ["--p1", "--p2", "--f0"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_stage1_exits_2(self, capsys, tmp_path, flag, value):
        argv = ["stage1", "--p1", "0.1", "--p2", "0.01", "--f0", "0.8"]
        argv[argv.index(flag) + 1] = value
        out_file = tmp_path / "run.json"
        code, _, err = run_cli(argv + ["--out", str(out_file)], capsys)
        assert code == 2
        assert err.startswith("error:")
        assert not out_file.exists()

    @pytest.mark.parametrize("flag", ["--p1", "--p2", "--f0"])
    def test_sweep_writes_no_row(self, capsys, tmp_path, flag):
        grids = {"--p1": "0.1", "--p2": "0.01", "--f0": "0.8"}
        grids[flag] = "0.05,nan"
        path = tmp_path / "grid.csv"
        argv = ["sweep", "stage1", "--csv", str(path)]
        for name, grid in grids.items():
            argv += [name, grid]
        code, _, err = run_cli(argv, capsys)
        assert code == 2
        assert err.startswith("error:")
        assert not path.exists()


class TestOutOfRangePoints:
    # the library's parameter and config checks reach main as exit 2; each
    # point is the valid one with the given flags' values put in

    @pytest.mark.parametrize("flags", [
        ["--p1", "-0.1"],
        ["--p1", "0.6", "--p2", "0.6"],
        ["--p1", "0", "--p2", "0"],
        ["--f0", "1.5"],
    ], ids=["p1-negative", "sum-above-one", "sum-zero", "f0-above-one"])
    @pytest.mark.parametrize("command", [["stage1"], ["sweep", "stage1"]])
    def test_stage1_point_exits_2(self, capsys, tmp_path, command, flags):
        point = {"--p1": "0.1", "--p2": "0.01", "--f0": "0.8"}
        point.update(zip(flags[::2], flags[1::2]))
        argv = [x for pair in point.items() for x in pair]
        self.assert_rejected(capsys, tmp_path, command + argv)

    @pytest.mark.parametrize("F", ["0.5", "1.2", "nan"])
    @pytest.mark.parametrize("command", [["stage2"], ["sweep", "stage2"]])
    def test_stage2_point_exits_2(self, capsys, tmp_path, command, F):
        self.assert_rejected(capsys, tmp_path, command + ["--F", F, "--baseline"])

    def assert_rejected(self, capsys, tmp_path, argv):
        out_file, csv_file = tmp_path / "run.json", tmp_path / "rows.csv"
        argv = argv + ["--csv", str(csv_file)]
        if argv[0] != "sweep":
            argv += ["--out", str(out_file)]
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert err.startswith("error:") and "Traceback" not in out + err
        assert not out_file.exists() and not csv_file.exists()


class TestFlagsPerCommand:
    @pytest.mark.parametrize("argv", [
        ["verify-branches", "--out", "vb.json", "--seed", "5"],
        ["sweep", "stage1", "--p1", "0.1", "--p2", "0.01", "--f0", "0.8", "--csv", "s.csv",
         "--out", "s.json"],
        ["sweep", "stage2", "--F", "0.8", "--csv", "s.csv", "--variant", "qnd3",
         "--theta", "1/8", "--theta-prime", "5/8"],
    ], ids=["verify-branches", "sweep", "sweep-stage2"])
    def test_unread_flags_exit_2_and_write_nothing(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, flag", [
        (["sweep", "stage2", "--F", "0.6", "--F", "0.9", "--csv", "g.csv"], "--F"),
        (["stage1", "--p1", "0.1", "--p1", "0.3", "--p2", "0.01", "--f0", "0.8",
          "--out", "run.json"], "--p1"),
        (["stage2", "--F=0.8", "--F", "0.8", "--csv", "rows.csv"], "--F"),
        (["verify-branches", "--theta-p", "5/8", "--theta-prime", "5/8"], "--theta-prime"),
        (["stage2", "--F", "0.8", "--mode", "exact", "--mode", "exact"], "--mode"),
        (["stage2", "--F", "0.8", "--out", "a.json", "--out", "b.json"], "--out"),
        (["sweep", "stage1", "--p1", "0.1", "--p2", "0.01", "--f0", "0.8", "--csv", "a.csv",
          "--csv", "b.csv"], "--csv"),
    ], ids=["sweep-grid", "stage1-point", "joined-form", "abbreviation", "equal-values",
            "out", "csv"])
    def test_a_repeated_value_flag_exits_2_and_writes_nothing(self, capsys, tmp_path,
                                                               monkeypatch, argv, flag):
        # a second value would silently replace the first, as argparse's
        # store does: a --config file refuses a repeated key in the same way
        monkeypatch.chdir(tmp_path)
        out, err = refused(argv, capsys)
        assert out == "" and f"argument {flag}: given twice" in err
        assert list(tmp_path.iterdir()) == []


    @pytest.mark.parametrize("argv", [
        ["stage1", "--p1", "0.1", "--p2", "0.01", "--f0", "0.8", "--out", "run.json",
         "--csv", "rows.csv"],
        ["stage2", "--F", "0.8", "--rounds", "2", "--baseline", "--out", "run.json",
         "--csv", "rows.csv"],
        ["sweep", "stage1", "--p1", "0.1", "--p2", "0.01", "--f0", "0.8", "--csv", "rows.csv"],
        ["sweep", "stage2", "--F", "0.8", "--baseline", "--csv", "rows.csv"],
    ], ids=["stage1", "stage2", "sweep-stage1", "sweep-stage2"])
    @pytest.mark.parametrize("mode", [[], ["--mode", "exact"]], ids=["default", "exact"])
    def test_trials_without_mc_exits_2_and_writes_nothing(self, capsys, tmp_path, monkeypatch,
                                                           argv, mode):
        # exact mode reads no trial count, so a given one is an unread flag
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(argv + mode + ["--trials", "5"], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "--trials" in err and "--mode mc" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["stage1", "--p1", "0.1", "--p2", "0.01", "--f0", "0.8"],
        ["stage2", "--F", "0.8", "--baseline"],
    ], ids=["stage1", "stage2"])
    def test_mc_trials_default_to_100000(self, capsys, tmp_path, argv):
        default, given = tmp_path / "default.json", tmp_path / "given.json"
        mc = argv + ["--mode", "mc", "--seed", "3"]
        assert run_cli(mc + ["--out", str(default)], capsys)[0] == 0
        assert run_cli(mc + ["--trials", "100000", "--out", str(given)], capsys)[0] == 0
        assert default.read_bytes() == given.read_bytes()
        assert json.loads(default.read_text())["trials"] == 100_000


class TestOutFile:
    ARGS = ["stage2", "--F", "0.8"]

    def test_rewrite_replaces_the_file_and_leaves_no_temp(self, capsys, tmp_path):
        path = tmp_path / "run.json"
        path.write_text("old\n")
        assert run_cli(self.ARGS + ["--out", str(path)], capsys)[0] == 0
        assert json.loads(path.read_text())["pipeline"] == "stage2"
        assert [p.name for p in tmp_path.iterdir()] == ["run.json"]

    @pytest.mark.parametrize("failure", ["mid-write", "rename"])
    def test_failed_write_keeps_the_old_file_and_leaves_no_temp(self, capsys, tmp_path,
                                                              monkeypatch, failure):
        path = tmp_path / "run.json"
        path.write_text("old\n")
        if failure == "mid-write":
            write_text = cli.Path.write_text

            def killed(self, text, *args, **kwargs):
                write_text(self, text[:len(text) // 2], *args, **kwargs)
                raise OSError("killed mid-write")

            monkeypatch.setattr(cli.Path, "write_text", killed)
        else:
            def refuse(src, dst):
                raise OSError("rename refused")

            monkeypatch.setattr(cli.os, "replace", refuse)
        code, _, err = run_cli(self.ARGS + ["--out", str(path)], capsys)
        assert code == 2 and err.startswith("error:")
        assert path.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["run.json"]

    def test_rewrite_keeps_the_file_mode(self, capsys, tmp_path):
        path = tmp_path / "run.json"
        path.write_text("old\n")
        path.chmod(0o600)
        assert run_cli(self.ARGS + ["--out", str(path)], capsys)[0] == 0
        assert path.stat().st_mode & 0o777 == 0o600

    def test_symlink_is_written_through(self, capsys, tmp_path):
        target, link = tmp_path / "run.json", tmp_path / "link.json"
        target.write_text("old\n")
        link.symlink_to(target)
        assert run_cli(self.ARGS + ["--out", str(link)], capsys)[0] == 0
        assert link.is_symlink()
        assert json.loads(target.read_text())["pipeline"] == "stage2"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json", "run.json"]

    @pytest.mark.parametrize("argv", [
        ["stage1", "--p1", "0.1", "--p2", "0.01", "--f0", "0.8"],
        ["stage2", "--F", "0.8"],
    ], ids=["stage1", "stage2"])
    @pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
    def test_a_csv_of_other_columns_writes_no_out_file(self, capsys, tmp_path, argv,
                                                       existing):
        # the CSV header is checked before the JSON document is written
        out_file, csv_file = tmp_path / "run.json", tmp_path / "rows.csv"
        csv_file.write_text("a,b\n1,2\n")
        if existing:
            out_file.write_text("old\n")
        code, out, err = run_cli(argv + ["--out", str(out_file), "--csv", str(csv_file)],
                                 capsys)
        assert code == 2 and err.startswith("error:") and "CSV columns" in err
        assert out == ""  # a refused run prints no result line
        assert csv_file.read_text() == "a,b\n1,2\n"
        assert (out_file.read_text() == "old\n") if existing else not out_file.exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == (
            ["rows.csv", "run.json"] if existing else ["rows.csv"])

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_fifo_is_written_through(self, capsys, tmp_path):
        fifo, got = tmp_path / "pipe", []
        os.mkfifo(fifo)
        reader = threading.Thread(target=lambda: got.append(fifo.read_text()), daemon=True)
        reader.start()
        code = run_cli(self.ARGS + ["--out", str(fifo)], capsys)[0]
        reader.join(timeout=10)
        assert code == 0 and stat.S_ISFIFO(fifo.stat().st_mode)
        assert json.loads(got[0])["pipeline"] == "stage2"
        assert [p.name for p in tmp_path.iterdir()] == ["pipe"]


class TestUnusablePaths:
    @pytest.mark.parametrize("flag", ["--csv", "--out", "--config"])
    def test_missing_directory_or_file_exits_2(self, capsys, tmp_path, flag):
        path = tmp_path / "nodir" / "x.txt"
        code, out, err = run_cli(["stage2", "--F", "0.8", flag, str(path)], capsys)
        assert code == 2
        # the message names the path given, not the temp file --out writes first
        assert err.startswith("error:") and repr(str(path)) in err and ".tmp" not in err
        assert "Traceback" not in out + err
        assert not path.parent.exists()


def _snapshot(root) -> dict:
    """Every path under ``root``: a link's target, else its mode and a file's
    bytes (None for a directory)."""
    tree = {}
    for dirpath, dirnames, filenames in os.walk(root):
        for name in dirnames + filenames:
            path = os.path.join(dirpath, name)
            mode = os.lstat(path).st_mode
            if stat.S_ISLNK(mode):
                tree[path] = os.readlink(path)
            elif stat.S_ISDIR(mode):
                tree[path] = (mode, None)
            else:
                with open(path, "rb") as fh:
                    tree[path] = (mode, fh.read())
    return tree


class TestFailedRunWritesNothing:
    """A run that exits 2 leaves the directory it writes to byte for byte
    as it found it: the --csv path is opened and checked before --out."""

    STAGE1 = ["stage1", "--p1", "0.1", "--p2", "0.01", "--f0", "0.8"]
    STAGE2 = ["stage2", "--F", "0.8"]

    @pytest.mark.parametrize("argv", [STAGE1, STAGE2], ids=["stage1", "stage2"])
    @pytest.mark.parametrize("unusable", ["missing-dir", "directory"])
    @pytest.mark.parametrize("existing", [False, True], ids=["new-out", "existing-out"])
    def test_an_unusable_csv_path_writes_no_out_file(self, capsys, tmp_path, argv,
                                                     unusable, existing):
        (tmp_path / "d.csv").mkdir()
        if existing:
            (tmp_path / "o.json").write_text("old\n")
        csv_path = tmp_path / ("nodir/x.csv" if unusable == "missing-dir" else "d.csv")
        before = _snapshot(tmp_path)
        code, out, err = run_cli(argv + ["--out", str(tmp_path / "o.json"),
                                         "--csv", str(csv_path)], capsys)
        assert code == 2 and err.startswith("error:") and str(csv_path) in err and out == ""
        assert _snapshot(tmp_path) == before

    @pytest.mark.parametrize("argv", [STAGE1, STAGE2], ids=["stage1", "stage2"])
    @pytest.mark.parametrize("existing", [False, True], ids=["new-csv", "existing-csv"])
    def test_an_unwritable_out_path_leaves_the_csv(self, capsys, tmp_path, argv, existing):
        csv_path = tmp_path / "rows.csv"
        if existing:
            assert run_cli(argv + ["--csv", str(csv_path)], capsys)[0] == 0
        before = _snapshot(tmp_path)
        code, out, err = run_cli(argv + ["--out", str(tmp_path / "nodir" / "o.json"),
                                         "--csv", str(csv_path)], capsys)
        assert code == 2 and err.startswith("error:") and out == ""
        assert _snapshot(tmp_path) == before

    @pytest.mark.parametrize("argv", [STAGE1, STAGE2], ids=["stage1", "stage2"])
    @pytest.mark.parametrize("alias", ["new", "same-path", "symlink", "hardlink"])
    def test_out_and_csv_naming_one_file_exit_2(self, capsys, tmp_path, argv, alias):
        # the JSON would replace the file the CSV rows go to: refuse both
        rows, out = tmp_path / "rows.csv", tmp_path / "alias.csv"
        if alias == "new":
            out = rows
        else:
            for _ in range(2):
                assert run_cli(argv + ["--csv", str(rows)], capsys)[0] == 0
            assert len(read_csv(rows)) == 3
            if alias == "same-path":
                out = tmp_path / "." / "rows.csv"
            else:
                (out.symlink_to if alias == "symlink" else out.hardlink_to)(rows)
        before = _snapshot(tmp_path)
        code, stdout, err = run_cli(argv + ["--out", str(out), "--csv", str(rows)], capsys)
        assert code == 2 and err.startswith("error:") and "name one file" in err
        assert stdout == ""  # a refused run prints no result line
        assert _snapshot(tmp_path) == before


# The CLI contract over argv x file-system states: a command line is a
# command, optionally its valid base flags, then flags outside that base drawn
# with valid and invalid values (flags a command does not read included), so
# each flag is given once; a value flag given twice is drawn on its own.
COMMANDS = {
    ("verify-branches",): [],
    ("stage1",): ["--p1", "0.1", "--p2", "0.01", "--f0", "0.8"],
    ("stage2",): ["--F", "0.8"],
    ("sweep", "stage1"): ["--p1", "0.02,0.05", "--p2", "0.001", "--f0", "0.7,0.9",
                          "--csv", "grid.csv"],
    ("sweep", "stage2"): ["--F", "0.55,0.75", "--csv", "grid.csv"],
}
PATHS = ["rows.csv", "run.json", "cfg.txt", "adir", "link", "nodir/x.csv", "rows.csv/x", ""]
FLAG_VALUES = {
    "--p1": ["0.1", "0", "-0.1", "nan", "inf", "1.5", "abc", "0.02,0.05", ","],
    "--p2": ["0.01", "0", "0.95", "-1", "nan", "0.001,0.002"],
    "--f0": ["0.8", "0", "1", "1.1", "nan", "-inf", "0.7,,0.9"],
    "--F": ["0.8", "0.5", "1", "0", "1.01", "nan", "inf", "x", "", "0.55,0.75"],
    "--variant": ["qnd1", "qnd3", "qnd2", "qnd9"],
    "--theta": ["1/8", "3/16", "29/64", "1/2", "1/4", "1/0", "nan", "x/y", ""],
    "--theta-prime": ["5/8", "29/64", "3/16", "1", "3/4", "1/4", "2/0", "1e400"],
    "--mode": ["exact", "mc", "both"],
    "--trials": ["1", "500", "0", "-3", "1e3", "nan"],
    "--seed": ["0", "7", "-1", str(2**64 - 1), str(2**64), "1.5"],
    "--rounds": ["1", "3", "0", "-2", "x", "1000000000"],
    "--only": ["qnd1-double-clean", "", ",", "no-such-case"],
    "--baseline": None,
    "--out": PATHS,
    "--csv": PATHS,
    "--config": PATHS,
}
STAGE1_HEADER = ",".join(cli.STAGE1_CSV_HEADER)
STAGE1_ROW = "0.1,0.01,0.8,qnd1,exact,,0,0.99,0.99,0.9,0.9,0,0,0.1"
CSV_TEXTS = [f"{STAGE1_HEADER}\r\n{STAGE1_ROW}\r\n",
             f"{STAGE1_HEADER}\r\n{STAGE1_ROW}",  # its last line left open
             ",".join(cli.STAGE2_CSV_HEADER) + "\n", "a,b,c\n1,2,3\n", ""]
CONFIG_TEXTS = ["theta=1/8\ntheta-prime=5/8\n", "seed=3\n", "variant=qnd3\n", "variant=qnd2\n",
                "theta=1/2\ntheta_prime=1\n", "foo=1\n", "seed=1\nseed=2\n", "theta=\n",
                "seed=abc\n", "not a pair\n", "\xff\xfe"]


@st.composite
def command_lines(draw) -> list:
    command = draw(st.sampled_from(sorted(COMMANDS)))
    base = COMMANDS[command] if draw(st.booleans()) else []
    argv = list(command) + base
    extra = sorted(set(FLAG_VALUES) - set(base[::2]))
    for flag in draw(st.lists(st.sampled_from(extra), max_size=6, unique=True)):
        values = FLAG_VALUES[flag]
        argv += [flag] if values is None else [flag, draw(st.sampled_from(values))]
    return argv


# the flags that store one value: all but the switch --baseline and --only,
# which appends
STORE_FLAGS = sorted(flag for flag, values in FLAG_VALUES.items()
                     if values is not None and flag != "--only")


@st.composite
def repeated_flag_lines(draw) -> list:
    """A command line, then one store flag given twice, each time as
    ``--flag value`` or ``--flag=value``."""
    argv = draw(command_lines())
    flag = draw(st.sampled_from(STORE_FLAGS))
    for _ in range(2):
        value = draw(st.sampled_from(FLAG_VALUES[flag]))
        argv += draw(st.sampled_from([[flag, value], [f"{flag}={value}"]]))
    return argv


file_states = st.fixed_dictionaries({
    "rows.csv": st.none() | st.sampled_from(CSV_TEXTS),
    "read_only": st.booleans(),
    "run.json": st.none() | st.just("{}\n"),
    "cfg.txt": st.none() | st.sampled_from(CONFIG_TEXTS),
    "adir": st.booleans(),
    "link": st.none() | st.sampled_from(["run.json", "missing.csv", "adir"]),
})


def _make_files(root: str, state: dict) -> None:
    for name in ("rows.csv", "run.json", "cfg.txt"):
        if state[name] is not None:
            with open(os.path.join(root, name), "w", encoding="latin-1", newline="") as fh:
                fh.write(state[name])
    if state["adir"]:
        os.mkdir(os.path.join(root, "adir"))
    if state["link"] is not None:
        os.symlink(state["link"], os.path.join(root, "link"))
    if state["read_only"] and state["rows.csv"] is not None:
        os.chmod(os.path.join(root, "rows.csv"), 0o444)


@contextlib.contextmanager
def _ran_in(state: dict, argv: list):
    """Run ``argv`` in a temp dir laid out as ``state``; yield (exit code,
    stdout, stderr, the dir's snapshot before the run, the dir)."""
    with tempfile.TemporaryDirectory() as root:
        _make_files(root, state)
        before = _snapshot(root)
        out, err = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        os.chdir(root)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:  # argparse's usage errors
                    code = exc.code
        finally:
            os.chdir(cwd)
        yield code, out.getvalue(), err.getvalue(), before, root


def _appended_csv(root: str, name: str, before: dict) -> tuple:
    """(the header, the text a run appended) of the CSV ``name`` under
    ``root``, given the ``_snapshot`` taken before the run."""
    path = os.path.join(root, name)
    target = before.get(path)
    if isinstance(target, str):  # a link, by its target's name
        path = os.path.join(root, target)
    prior = before.get(path, (None, b""))[1]
    with open(path, "rb") as fh:
        data = fh.read()
    assert data.startswith(prior), (name, prior, data)
    return next(csv.reader(data.decode().splitlines()[:1])), data[len(prior):].decode()


class TestCliContract:
    """Whatever the command line and the files around it: the exit code is
    0, 1 or 2, stderr holds no traceback, a run that exits 2 prints nothing on
    stdout, a run that exits non-zero leaves every file byte for byte as it
    found it, and a stage run that exits 0 leaves its --out holding its JSON
    and its --csv starting with its header."""

    @settings(max_examples=300, deadline=None)
    @given(argv=command_lines(), state=file_states)
    # a --csv link to a missing file, then an --out that cannot be written:
    # the link's new target must go again
    @example(argv=["stage2", "--F", "0.8", "--csv", "link", "--out", "nodir/x.csv"],
             state={"rows.csv": None, "read_only": False, "run.json": None, "cfg.txt": None,
                    "adir": False, "link": "missing.csv"})
    # --out and --csv naming one file, the --out through a link: the JSON
    # would replace the CSV, so the run must refuse both
    @example(argv=["stage1", "--p1", "0.1", "--p2", "0.01", "--f0", "0.8",
                   "--out", "link", "--csv", "run.json"],
             state={"rows.csv": None, "read_only": False, "run.json": None, "cfg.txt": None,
                    "adir": False, "link": "run.json"})
    # a round count past the cap: refused before the first round, not run
    @example(argv=["stage2", "--F", "0.8", "--rounds", "1000000000", "--out", "run.json"],
             state={"rows.csv": None, "read_only": False, "run.json": None, "cfg.txt": None,
                    "adir": False, "link": None})
    def test_exit_code_stderr_and_files(self, argv, state):
        with _ran_in(state, argv) as (code, out, err, before, root):
            assert code in (0, 1, 2), (argv, code)
            assert "Traceback" not in err, argv
            if code == 2:
                assert out == "", (argv, out)
            if code != 0:
                assert _snapshot(root) == before, (argv, code, err)
            else:
                # a run that exits 0 leaves both outputs well formed
                given = {flag: argv[i + 1] for i, flag in enumerate(argv[:-1])
                         if flag in ("--out", "--csv")}
                if given.get("--out"):
                    with open(os.path.join(root, given["--out"])) as fh:
                        assert json.load(fh)["command"] == argv[0], argv
                if given.get("--csv"):
                    header, appended = _appended_csv(root, given["--csv"], before)
                    assert header[0] == ("p1" if "stage1" in argv[:2] else "F"), argv
                    # the appended bytes are csv.writer's rendering of what
                    # csv.reader reads back, so no cell needed quoting; the
                    # first line may be the line end of an open last line
                    lines = list(csv.reader(io.StringIO(appended, newline="")))
                    assert _writer_text(lines) == appended, (argv, appended)
                    assert len(lines[0]) in (0, len(header)), (argv, appended)
                    assert all(len(line) == len(header) for line in lines[1:]), argv

    @settings(max_examples=100, deadline=None)
    @given(argv=repeated_flag_lines(), state=file_states)
    @example(argv=["sweep", "stage2", "--F", "0.6", "--F", "0.9", "--csv", "grid.csv"],
             state={"rows.csv": None, "read_only": False, "run.json": None, "cfg.txt": None,
                    "adir": False, "link": None})
    def test_a_repeated_value_flag_exits_2(self, argv, state):
        # whatever else the command line holds, a value flag given twice is
        # refused: argv, like a --config file, gives each value once
        with _ran_in(state, argv) as (code, out, err, before, root):
            assert code == 2, (argv, code)
            assert out == "" and "Traceback" not in err, (argv, out, err)
            assert _snapshot(root) == before, (argv, err)


class TestSubnormalEmission:
    # p1 = 0 with a subnormal p2 is a valid point whose plain closed-form
    # denominator underflows to 0: the command must still report it

    def test_stage1_exits_0_with_a_finite_closed_form(self, tmp_path):
        src = Path(cli.__file__).resolve().parents[1]
        out = subprocess.run([sys.executable, "-m", "kerrpurify.cli", "stage1", "--p1", "0",
                              "--p2", "5e-324", "--f0", "0", "--out", "run.json"],
                             cwd=tmp_path, capture_output=True, text=True, timeout=120,
                             env=dict(os.environ, PYTHONPATH=str(src)))
        assert out.returncode == 0 and out.stderr == ""
        doc = json.loads((tmp_path / "run.json").read_text())
        assert math.isfinite(doc["closed_form_fidelity"])
        assert doc["closed_form_fidelity"] == doc["fidelity"] == 0.0
