"""Photon-pair sources and the noise the protocol purifies.

A down-conversion source emits one pair into a superposition of the
upper and lower mode pairs (four creation terms, equal weight), or two
pairs.  Stage 1 treats a double emission as two independent copies of
the single-pair superposition, the weighting its closed-form fidelity
assumes, and flips each pair independently.  Stage 2 and the PBS
baseline draw two pairs from one source, each phi+ or psi+.

Bit-flip noise acts on Bob's photon of a pair (convention; the mixed
states involved are symmetric under which side flips).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .fock import (
    ConfigError,
    ModeLabel,
    Party,
    Pol,
    PureState,
    Spatial,
    create_photon,
    product_state,
)


@dataclass(frozen=True)
class PdcSourceParams:
    """Relative weights of one-pair and two-pair emission events, checked
    when built."""

    p1: float
    p2: float

    def __post_init__(self):
        if not (math.isfinite(self.p1) and math.isfinite(self.p2)):
            raise ValueError("emission probabilities must be finite numbers")
        if self.p1 < 0 or self.p2 < 0:
            raise ValueError("emission probabilities must be non-negative")
        if self.p1 + self.p2 > 1 + 1e-12:
            raise ValueError("p1 + p2 must not exceed 1")


@dataclass(frozen=True)
class NoiseParams:
    """f0: probability that a pair crosses the channel without a bit flip,
    checked when built."""

    f0: float

    def __post_init__(self):
        if not 0.0 <= self.f0 <= 1.0:  # false for NaN too
            raise ValueError("f0 must lie in [0, 1]")


def pair_emission_terms(flipped: bool = False) -> list:
    """The four creation terms of one emitted pair.

    Each term is (Alice mode, Bob mode); ``flipped`` applies the bit
    flip on Bob's photon.
    """
    terms = []
    for spatial in (Spatial.UPPER, Spatial.LOWER):
        for pol in (Pol.H, Pol.V):
            bob_pol = pol if not flipped else (Pol.V if pol == Pol.H else Pol.H)
            terms.append((
                ModeLabel(Party.ALICE, spatial, pol),
                ModeLabel(Party.BOB, spatial, bob_pol),
            ))
    return terms


@functools.cache  # two values, immutable: every caller shares them
def single_pair_state(flipped: bool = False) -> PureState:
    """Normalized one-pair emission (four branches, amplitude 1/2)."""
    branches = []
    for term in pair_emission_terms(flipped):
        s = PureState.vacuum()
        for m in term:
            s = create_photon(s, m)
        branches.extend(s.branches)
    return PureState.of(branches).normalize()


BELL_KINDS = ("phi+", "phi-", "psi+", "psi-")


def bell_pair(kind: str, spatial: Spatial = Spatial.UPPER) -> PureState:
    """One of the four Bell pairs on (Alice, spatial) x (Bob, spatial)."""
    if kind not in BELL_KINDS:
        raise ValueError(f"unknown Bell state {kind!r}")
    same_pol = kind.startswith("phi")
    sign = 1.0 if kind.endswith("+") else -1.0
    branches = []
    for pol, amp in ((Pol.H, 1.0), (Pol.V, sign)):
        bob_pol = pol if same_pol else (Pol.V if pol == Pol.H else Pol.H)
        s = PureState.vacuum()
        s = create_photon(s, ModeLabel(Party.ALICE, spatial, pol))
        s = create_photon(s, ModeLabel(Party.BOB, spatial, bob_pol))
        branches.extend(b.with_amplitude(b.amplitude * amp) for b in s.branches)
    return PureState.of(branches).normalize()


TWO_PAIR_KINDS = (("phi+", "phi+"), ("phi+", "psi+"), ("psi+", "phi+"), ("psi+", "psi+"))


def two_pair_weights(fidelity: float) -> list:
    """The two-pair mixture drawn from one source, as Bell-kind weights.

    Each pair is phi+ with probability F and psi+ otherwise.  Returns the
    weight of each (kind1, kind2) of ``TWO_PAIR_KINDS``, in that order;
    kind1 is the upper pair.
    """
    if not 0.0 < fidelity <= 1.0:
        raise ConfigError("fidelity must lie in (0, 1]")
    single = {"phi+": fidelity, "psi+": 1.0 - fidelity}
    return [single[k1] * single[k2] for k1, k2 in TWO_PAIR_KINDS]


def two_pair_state(kind1: str, kind2: str) -> PureState:
    """Bell pair ``kind1`` on the upper ports times ``kind2`` on the lower ports."""
    return product_state(bell_pair(kind1, Spatial.UPPER), bell_pair(kind2, Spatial.LOWER))


def two_pair_components(fidelity: float) -> list:
    """The four-component mixture of two pairs drawn from the same source.

    Returns (weight, (kind1, kind2), joint state) triples, see
    ``two_pair_weights`` and ``two_pair_state``.
    """
    return [(w, kinds, two_pair_state(*kinds))
            for kinds, w in zip(TWO_PAIR_KINDS, two_pair_weights(fidelity)) if w != 0.0]
