#!/usr/bin/env python3
"""Why the pi-shift parity detector beats the opposite-shift layout.

Both gadgets separate even polarization parity from odd.  The
opposite-shift layout tags the two odd branches +theta and -theta; an
X-quadrature readout cannot tell those apart, so keeping that outcome
class leaves a mixture.  The pi-shift layout tags both surviving
branches identically (0 mod 2pi) and keeps their superposition.
"""

from kerrpurify import (
    EnsembleState,
    Party,
    Variant,
    ZERO_COUNTS,
    apply_qnd,
    default_config,
    homodyne_x,
    overlap,
    project_probe,
)
from kerrpurify.branches import HHHH, HHVV, VVHH, VVVV, operator_state

two_pairs = operator_state([(1, ((HHHH, VVVV, HHVV, VVHH),))])
odd_parity_target = operator_state([(1, ((HHVV, VVHH),))])

print("Opposite-shift layout + X-quadrature readout:")
cfg4 = default_config(Variant.QND4)
out = apply_qnd(two_pairs, Variant.QND4)
for o in homodyne_x(out, Party.ALICE, cfg4):
    print(f"  outcome |{o.outcome.value}pi|: probability {o.probability:.3f}, "
          f"{len(o.post_state)} mixture component(s)")

picked = [o for o in homodyne_x(out, Party.ALICE, cfg4)
          if o.outcome == cfg4.theta.magnitude_class()][0]
final = []
for w, comp in picked.post_state.components:
    for ob in homodyne_x(comp, Party.BOB, cfg4):
        for w2, c2 in ob.post_state.components:
            final.append((w * ob.probability * w2, c2))
mixture = EnsembleState.of(final)
print(f"  kept odd-parity class: overlap with the target superposition = "
      f"{mixture.overlap(odd_parity_target):.3f}, purity = {mixture.purity():.3f}")

print("\npi-shift parity layout + exact phase readout:")
out2 = apply_qnd(two_pairs, Variant.QND2)
_, after_alice = project_probe(out2, Party.ALICE, ZERO_COUNTS)
p_bob, kept = project_probe(after_alice, Party.BOB, ZERO_COUNTS)
print(f"  kept odd-parity class: overlap with the target superposition = "
      f"{overlap(kept, odd_parity_target):.3f} (pure state)")
