"""The CLI's output files match checked-in golden copies, byte for byte.

``tests/golden/cli/`` holds every JSON and CSV file that ``COMMANDS``
writes: ``stage1`` under each stage-1 detector at a fresh angle pair,
``stage2`` with three rounds and the PBS baseline, both sweeps, and one
``--mode mc`` run of each command.  Each file is compared whole, CRLF
line ends included, so a float that moves by one ulp, a reordered key or
a changed line end fails the test.  To refresh the files after a
deliberate change to the outputs, run this module as a script from the
repository root: ``PYTHONPATH=src python tests/test_golden_cli.py``.
"""

import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path

import pytest

from kerrpurify import cli

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli"

STAGE1 = ["--p1", "0.1", "--p2", "0.01", "--f0", "0.8", "--theta", "3/16",
          "--theta-prime", "29/64"]
MC = ["--mode", "mc", "--trials", "20001", "--seed", "7"]

# each command line, run in order in one directory, and the files it writes
COMMANDS = (
    ["stage1", *STAGE1, "--variant", "qnd1", "--out", "stage1_qnd1.json",
     "--csv", "stage1_qnd1.csv"],
    ["stage1", *STAGE1, "--variant", "qnd3", "--out", "stage1_qnd3.json",
     "--csv", "stage1_qnd3.csv"],
    ["stage2", "--F", "0.8", "--rounds", "3", "--baseline", "--out", "stage2.json",
     "--csv", "stage2.csv"],
    ["sweep", "stage1", "--p1", "0.05,0.1", "--p2", "0.001,0.01", "--f0", "0.7,0.9",
     "--theta", "3/16", "--theta-prime", "29/64", "--csv", "sweep_stage1.csv"],
    ["sweep", "stage2", "--F", "0.6,0.8,0.95", "--rounds", "2", "--baseline",
     "--csv", "sweep_stage2.csv"],
    ["stage1", *STAGE1, *MC, "--out", "stage1_mc.json", "--csv", "stage1_mc.csv"],
    ["stage2", "--F", "0.8", "--rounds", "3", "--baseline", *MC, "--out", "stage2_mc.json",
     "--csv", "stage2_mc.csv"],
    ["sweep", "stage1", "--p1", "0.05,0.1", "--p2", "0.01", "--f0", "0.8", *MC,
     "--csv", "sweep_stage1_mc.csv"],
    ["sweep", "stage2", "--F", "0.7,0.9", "--baseline", *MC, "--csv", "sweep_stage2_mc.csv"],
)


# the files they write: each --out and --csv path
FILES = sorted(argv[i + 1] for argv in COMMANDS for i, flag in enumerate(argv)
               if flag in ("--out", "--csv"))


def run_commands(directory: Path) -> dict:
    """Run ``COMMANDS`` in ``directory``; the bytes of each file they wrote, by name."""
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        for argv in COMMANDS:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            assert code == 0, argv
    finally:
        os.chdir(cwd)
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


@pytest.fixture(scope="module")
def written(tmp_path_factory) -> dict:
    return run_commands(tmp_path_factory.mktemp("cli"))


def test_the_commands_write_their_files_and_no_other(written):
    assert sorted(written) == FILES == sorted(path.name for path in GOLDEN.iterdir())


@pytest.mark.parametrize("name", FILES)
def test_each_file_matches_its_golden_copy(written, name):
    assert written[name] == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for stale in GOLDEN.iterdir():
        stale.unlink()
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in run_commands(Path(tmp)).items():
            (GOLDEN / name).write_bytes(data)
    print(f"wrote {len(COMMANDS)} commands' files to {GOLDEN}", file=sys.stderr)
