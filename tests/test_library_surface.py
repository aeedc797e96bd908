"""The library keeps no code that only tests call: every function and class
defined in ``src/kerrpurify`` is named by library, demo or perfbench code,
or pinned by name in the tracer's ``LAYERS``.  The check works at name
level, so a method that shares a name with a used function passes.  And
``src/`` stays within the seed's line count."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(ROOT.glob("src/kerrpurify/*.py"))

# the functions only ``LAYERS`` names; deleting them is a benchmark change
PINNED_ONLY = {"create_photon", "apply_kerr", "trial_uniforms", "stage1_monte_carlo",
               "stage2_monte_carlo", "two_pair_components"}

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


def test_src_stays_within_the_seed_line_count():
    # counted as ``wc -l`` counts: the newline bytes of every src/**/*.py
    lines = sum(path.read_bytes().count(b"\n") for path in ROOT.glob("src/**/*.py"))
    assert lines <= SRC_LINE_CEILING, f"src/ has {lines} lines, over {SRC_LINE_CEILING}"
