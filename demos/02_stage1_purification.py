#!/usr/bin/env python3
"""First purification stage: exact enumeration against the closed form.

A down-conversion source emits one pair with weight p1 and two pairs
with weight p2.  Transmission flips each pair with probability 1-f0.
The detector's homodyne comparison keeps every single-pair event and
only the double emissions that both parties read as theta + theta',
which pushes the kept fidelity toward 1 as long as p2 << p1.
"""

from kerrpurify import (
    NoiseParams,
    PdcSourceParams,
    monte_carlo,
    stage1_fidelity_closed_form,
    stage1_run,
)

p1 = 0.1
print(f"p1 = {p1}; double emissions spoil the kept set when f0 < 1\n")
print(f"{'p2':>8} {'f0':>5} {'enumerated':>14} {'closed form':>14} {'yield':>8}")
for p2 in (p1**2, 10 * p1**2):
    for f0 in (0.55, 0.7, 0.85, 1.0):
        report = stage1_run(PdcSourceParams(p1, p2), NoiseParams(f0))
        closed = stage1_fidelity_closed_form(p1, p2, f0)
        print(f"{p2:8.4f} {f0:5.2f} {report.fidelity:14.10f} "
              f"{closed:14.10f} {report.yield_fraction:8.4f}")

print("\nThe enumerator also tallies double emissions where both parties "
      "read the same doubled shift")
report = stage1_run(PdcSourceParams(0.1, 0.05), NoiseParams(0.8))
for key, value in report.counts.items():
    print(f"  {key:<18s} {value:.6f}")
print(f"  kept pairs per emission event: "
      f"{report.extras['kept_pairs_per_event']:.6f}")

print("\nMonte Carlo cross-check (100k trials, seed 1):")
mc = monte_carlo("stage1", {"p1": 0.1, "p2": 0.05, "f0": 0.8}, 100_000, seed=1)
print(f"  sampled fidelity {mc.fidelity:.6f} +- {mc.fidelity_stderr:.6f} "
      f"(exact {report.fidelity:.6f})")
print(f"  sampled yield    {mc.yield_fraction:.6f} +- {mc.yield_stderr:.6f} "
      f"(exact {report.yield_fraction:.6f})")
