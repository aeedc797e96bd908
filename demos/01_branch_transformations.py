#!/usr/bin/env python3
"""Walk each QND detector through its characteristic inputs.

Prints the branch structure (occupation pattern, amplitude, probe
phases at the default angles) the detector produces for clean pairs, flipped pairs, and
double emissions, then runs the full reference-transformation suite.
"""

from kerrpurify import Party, run_branch_suite
from kerrpurify.branches import BRANCH_CASES
from kerrpurify.qnd import apply_qnd, default_config


def show_state(state, label, cfg):
    print(f"  {label}:")
    for b in state.branches:
        occ = " ".join(f"{m}:{n}" for m, n in b.occupations)
        alice, bob = (cfg.phase(b.probe[party]).value for party in Party)
        tags = f"(alice {alice}pi, bob {bob}pi)"
        print(f"    amp {b.amplitude.real:+.4f}  {occ:<34s} probes {tags}")


picks = ["qnd1-single-clean", "qnd1-single-flipped", "qnd1-double-clean",
         "qnd2-phi-phi", "qnd3-single-flipped", "qnd4-two-pair-parity"]

for case in BRANCH_CASES:
    if case.case_id not in picks:
        continue
    cfg = default_config(case.variant)
    print(f"\n== {case.case_id}: {case.description}")
    state = case.input_state()
    show_state(state, "input", cfg)
    show_state(apply_qnd(state, case.variant), "after detector", cfg)

print("\nFull transformation suite:")
for r in run_branch_suite():
    print(f"  {r.case_id:<26s} {'pass' if r.passed else 'FAIL: ' + r.detail}")
