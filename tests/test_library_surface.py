"""The library keeps no code that only tests call: every function and class
defined in ``src/kerrpurify`` is named by library, demo or perfbench code,
or pinned by name in the tracer's ``LAYERS``.  The check works at name
level, so a method that shares a name with a used function passes.
``src/`` stays within the seed's line count, and only Monte Carlo
imports numpy."""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(ROOT.glob("src/kerrpurify/*.py"))

# the functions only ``LAYERS`` names; deleting them is a benchmark change.  The
# stage-2 and PBS single runs are grids of one, so their ``*_records`` joined these.
PINNED_ONLY = {"create_photon", "trial_uniforms", "stage1_monte_carlo", "stage2_monte_carlo",
               "two_pair_components", "stage2_records", "pbs_records"}

SRC_LINE_CEILING = 2565  # the seed's src/: it may shrink, never grow past this


def _nodes(paths):
    for path in paths:
        yield from ast.walk(ast.parse(path.read_text(), str(path)))


def test_every_library_definition_has_a_caller_outside_tests():
    callers = SOURCES + sorted(ROOT.glob("demos/*.py")) + sorted(ROOT.glob("perfbench/*.py"))
    used = {n.id if isinstance(n, ast.Name) else n.attr for n in _nodes(callers)
            if isinstance(n, (ast.Name, ast.Attribute))} - {"__all__"}
    defined = {n.name for n in _nodes(SOURCES)
               if isinstance(n, (ast.FunctionDef, ast.ClassDef))
               and not (n.name.startswith("__") and n.name.endswith("__"))}
    [layers] = [ast.literal_eval(n.value) for n in _nodes([ROOT / "perfbench" / "tracer.py"])
                if isinstance(n, ast.Assign) and ast.unparse(n.targets[0]) == "LAYERS"]
    unused = defined - used
    stray = unused - {fn for fns in layers.values() for fn in fns}
    assert not stray, f"only tests call {sorted(stray)}"
    assert unused == PINNED_ONLY


def test_no_public_default_is_an_anonymous_object():
    # a default reads in a signature as what a caller may pass, so no public
    # callable's default is a sentinel that prints "<object object at 0x...>"
    anonymous = []
    for path in SOURCES:
        if path.stem == "__init__":  # it defines nothing: its names are the modules'
            continue
        module = importlib.import_module(f"kerrpurify.{path.stem}")
        for name, obj in vars(module).items():
            if (name.startswith("_") or not callable(obj)
                    or getattr(obj, "__module__", None) != module.__name__):
                continue
            try:
                params = inspect.signature(obj).parameters.values()
            except ValueError:  # a builtin with no signature
                continue
            anonymous += [f"{path.stem}.{name}({p.name}={p.default!r})" for p in params
                          if " object at 0x" in repr(p.default)]
    assert not anonymous, anonymous


def test_src_stays_within_the_seed_line_count():
    # counted as ``wc -l`` counts: the newline bytes of every src/**/*.py
    lines = sum(path.read_bytes().count(b"\n") for path in ROOT.glob("src/**/*.py"))
    assert lines <= SRC_LINE_CEILING, f"src/ has {lines} lines, over {SRC_LINE_CEILING}"


EXACT_RUNS_THEN_MC = """
import os, sys, tempfile
import kerrpurify as kp
from kerrpurify import cli

src, noise = kp.PdcSourceParams(0.1, 0.01), kp.NoiseParams(0.8)
kp.stage1_run(src, noise)
kp.stage1_run(src, noise, kp.Variant.QND3)
kp.stage2_run(0.8)
kp.pbs_baseline(0.8)
grid = [{"p1": 0.1, "p2": 0.01, "f0": f0} for f0 in (0.7, 0.8, 0.9)]
assert len(list(kp.exact_reports("stage1", grid))) == 3
with tempfile.TemporaryDirectory() as tmp:
    argv = ["sweep", "stage1", "--p1", "0.02,0.05", "--p2", "0.001", "--f0", "0.7,0.8",
            "--csv", os.path.join(tmp, "grid.csv")]
    assert cli.main(argv) == 0
    assert cli.main(["stage2", "--F", "0.8", "--rounds", "2", "--baseline"]) == 0
print("exact runs loaded numpy:", "numpy" in sys.modules)
kp.monte_carlo("stage1", grid[0], 1000, seed=1)
print("monte carlo loaded numpy:", "numpy" in sys.modules)
"""


def test_exact_runs_and_the_cli_leave_numpy_unimported():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", EXACT_RUNS_THEN_MC], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-2:] == ["exact runs loaded numpy: False",
                                            "monte carlo loaded numpy: True"]
