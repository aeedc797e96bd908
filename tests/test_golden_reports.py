"""Reports, grids, Monte Carlo runs and records match a checked-in golden file.

``tests/golden/reports.json`` holds, as JSON text, the ``to_dict()`` of
exact runs, exact grids and seeded Monte Carlo runs of every pipeline,
and one point's records of each, with probe tags as strings.  The text
is compared whole, so a float that moves by one ulp, or a count that
turns from int to float, fails the test.  To refresh the file after a
deliberate change to the numbers, run this module as a script from the
repository root: ``PYTHONPATH=src python tests/test_golden_reports.py``.
"""

import json
from pathlib import Path

from kerrpurify import (
    NoiseParams,
    PdcSourceParams,
    PhaseTag,
    QndConfig,
    Variant,
    exact_reports,
    monte_carlo,
    pbs_baseline,
    stage1_run,
    stage2_run,
)
from kerrpurify.protocol import pbs_records, stage1_records, stage2_records
from kerrpurify.qnd import default_config

GOLDEN = Path(__file__).resolve().parent / "golden" / "reports.json"

POINTS = ({"p1": 0.1, "p2": 0.01, "f0": 0.8},
          {"p1": 0.3, "p2": 0.05, "f0": 0.7},
          {"p1": 0.02, "p2": 0.2, "f0": 0.95})
FIDELITIES = (0.6, 0.8, 0.95)
MC_SEED, MC_TRIALS = 7, 20001


def configs() -> dict:
    """Each stage-1 detector at the default angles and at (29/64, 3/16)."""
    out = {}
    for variant in (Variant.QND1, Variant.QND3):
        out[f"{variant.value} default"] = default_config(variant)
        out[f"{variant.value} 29/64,3/16"] = QndConfig(variant, PhaseTag(29, 64),
                                                       PhaseTag(3, 16))
    return out


def record_dicts(records) -> list:
    return [{"probe_alice": None if r.probe_alice is None else repr(r.probe_alice),
             "probe_bob": None if r.probe_bob is None else repr(r.probe_bob),
             "verdict": r.verdict.value, "weight": r.weight, "fidelity": r.fidelity,
             "order": r.order, "kept_pairs": r.kept_pairs} for r in records]


def golden_reports() -> dict:
    stage1 = {}
    for label, cfg in configs().items():
        grid = [dict(p, variant=cfg.variant, cfg=cfg) for p in POINTS]
        runs = [(PdcSourceParams(p["p1"], p["p2"]), NoiseParams(p["f0"])) for p in POINTS]
        stage1[label] = {
            "runs": [stage1_run(src, noise, cfg.variant, cfg).to_dict() for src, noise in runs],
            "grid": [r.to_dict() for r in exact_reports("stage1", grid)],
            "mc": monte_carlo("stage1", grid[0], MC_TRIALS, MC_SEED).to_dict(),
            "records": record_dicts(stage1_records(*runs[0], cfg.variant, cfg)),
        }
    two_pair = {}
    for name, run, records in (("stage2", stage2_run, stage2_records),
                               ("pbs", pbs_baseline, pbs_records)):
        two_pair[name] = {
            "runs": [run(f).to_dict() for f in FIDELITIES],
            "grid": [r.to_dict() for r in exact_reports(name, [{"F": f} for f in FIDELITIES])],
            "mc": monte_carlo(name, {"F": FIDELITIES[1]}, MC_TRIALS, MC_SEED).to_dict(),
            "records": record_dicts(records(FIDELITIES[1])),
        }
    return {"stage1": stage1, **two_pair}


def golden_text() -> str:
    return json.dumps(golden_reports(), indent=1) + "\n"


def test_reports_records_and_mc_match_the_golden_file():
    assert golden_text() == GOLDEN.read_text()


if __name__ == "__main__":
    GOLDEN.write_text(golden_text())
