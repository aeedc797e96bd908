#!/usr/bin/env python3
"""Why the pi-shift parity detector beats the opposite-shift layout.

Both gadgets separate even polarization parity from odd.  The
opposite-shift layout tags the two odd branches +theta and -theta; an
X-quadrature readout cannot tell those apart, so keeping that outcome
class leaves a mixture.  The pi-shift layout tags both surviving
branches identically (0 mod 2pi) and keeps their superposition.
"""

from kerrpurify import (
    Party,
    Variant,
    ZERO_COUNTS,
    apply_qnd,
    default_config,
    inner,
    overlap,
    probe_outcomes,
    project_probe,
)
from kerrpurify.branches import HHHH, HHVV, VVHH, VVVV, operator_state

two_pairs = operator_state([(1, ((HHHH, VVVV, HHVV, VVHH),))])
odd_parity_target = operator_state([(1, ((HHVV, VVHH),))])

print("Opposite-shift layout + X-quadrature readout:")
cfg4 = default_config(Variant.QND4)
out = apply_qnd(two_pairs, Variant.QND4)
classes = {}  # |phase| -> Alice's probe counts that an X readout cannot tell apart
for counts, p in probe_outcomes(out, Party.ALICE).items():
    v = cfg4.phase(counts).value
    classes.setdefault(min(v, 2 - v), []).append((counts, p))
for v, members in sorted(classes.items()):
    print(f"  outcome |{v}pi|: probability {sum(p for _, p in members):.3f}, "
          f"{len(members)} mixture component(s)")

picked = classes[cfg4.theta.value]
p_class = sum(p for _, p in picked)
mixture = []  # (weight, pure state): the +theta and -theta branch groups decohere
for counts, p in picked:
    _, after_alice = project_probe(out, Party.ALICE, counts)
    for bob_counts in probe_outcomes(after_alice, Party.BOB):
        p_bob, comp = project_probe(after_alice, Party.BOB, bob_counts)
        mixture.append((p / p_class * p_bob, comp))
fid = sum(w * overlap(comp, odd_parity_target) for w, comp in mixture)
purity = sum(wi * wj * abs(inner(ci, cj)) ** 2 for wi, ci in mixture for wj, cj in mixture)
print(f"  kept odd-parity class: overlap with the target superposition = "
      f"{fid:.3f}, purity = {purity:.3f}")

print("\npi-shift parity layout + exact phase readout:")
out2 = apply_qnd(two_pairs, Variant.QND2)
_, after_alice = project_probe(out2, Party.ALICE, ZERO_COUNTS)
p_bob, kept = project_probe(after_alice, Party.BOB, ZERO_COUNTS)
print(f"  kept odd-parity class: overlap with the target superposition = "
      f"{overlap(kept, odd_parity_target):.3f} (pure state)")
