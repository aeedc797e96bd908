"""Photon-pair sources and the noise the protocol purifies.

A down-conversion source emits one pair into a superposition of the
upper and lower mode pairs (four creation terms, equal weight), or two
pairs.  Stage 1 treats a double emission as two independent copies of
the single-pair superposition, the weighting its closed-form fidelity
assumes, and flips each pair independently.  Stage 2 and the PBS
baseline draw two pairs from one source, each phi+ or psi+.

Bit-flip noise acts on Bob's photon of a pair (convention; the mixed
states involved are symmetric under which side flips).

States are written as sums of products of creation-term groups; the
builder expands the polynomial and applies creation operators with
bosonic factors, so every source state and the reference branch table
share one convention.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from itertools import product as iproduct
from sys import float_info

from .fock import (
    BranchState,
    ConfigError,
    ModeLabel,
    Party,
    Pol,
    PureState,
    Spatial,
    ZERO_COUNTS,
    product_state,
)

A1H = ModeLabel(Party.ALICE, Spatial.UPPER, Pol.H)
A1V = ModeLabel(Party.ALICE, Spatial.UPPER, Pol.V)
A2H = ModeLabel(Party.ALICE, Spatial.LOWER, Pol.H)
A2V = ModeLabel(Party.ALICE, Spatial.LOWER, Pol.V)
B1H = ModeLabel(Party.BOB, Spatial.UPPER, Pol.H)
B1V = ModeLabel(Party.BOB, Spatial.UPPER, Pol.V)
B2H = ModeLabel(Party.BOB, Spatial.LOWER, Pol.H)
B2V = ModeLabel(Party.BOB, Spatial.LOWER, Pol.V)

# the four creation terms of one emitted pair, (Alice mode, Bob mode): clean
# (U*) and with Bob's photon flipped (F*)
U1, U2, U3, U4 = (A1H, B1H), (A1V, B1V), (A2H, B2H), (A2V, B2V)
F1, F2, F3, F4 = (A1V, B1H), (A1H, B1V), (A2V, B2H), (A2H, B2V)
CLEAN = (U1, U2, U3, U4)
FLIPPED = (F1, F2, F3, F4)


def _real(name: str, value):
    """``value`` if it is a ``numbers.Real`` but no bool, else a ConfigError naming ``name``."""
    if type(value) is not float and (type(value) is bool or not isinstance(value, numbers.Real)):
        raise ConfigError(f"{name} is a real number, not {type(value).__name__}")
    return value


def operator_state(entries) -> PureState:
    """Build sum_k coeff_k * prod(group sums) |0>, normalized.

    entries: (coeff, groups[, (counts_a, counts_b)]) with groups a
    sequence of term lists, every term a tuple of modes to create, and
    the optional probe counts of each party (see ``fock``).  Modes are
    created in order, each multiplying the amplitude by the bosonic
    sqrt(n+1), as a chain of ``create_photon`` calls would.
    """
    branches = []
    for entry in entries:
        coeff, groups = entry[0], entry[1]
        probe = tuple(entry[2]) if len(entry) > 2 else (ZERO_COUNTS, ZERO_COUNTS)
        for combo in iproduct(*groups):
            occ: dict = {}
            amplitude = complex(coeff)
            for term in combo:
                for m in term:
                    n = occ.get(m, 0)
                    occ[m] = n + 1
                    amplitude *= math.sqrt(n + 1)
            branches.append(BranchState(tuple(sorted(occ.items())), amplitude, probe))
    return PureState.of(branches).normalize()


@dataclass(frozen=True)
class PdcSourceParams:
    """Relative weights of one-pair and two-pair emission events, checked
    when built."""

    p1: float
    p2: float

    def __post_init__(self):
        p1, p2 = _real("p1", self.p1), _real("p2", self.p2)
        if not (abs(p1) <= float_info.max and abs(p2) <= float_info.max):  # 10**400
            raise ValueError("emission probabilities must be finite numbers")
        if p1 < 0 or p2 < 0:
            raise ValueError("emission probabilities must be non-negative")
        if p1 + p2 > 1 + 1e-12:
            raise ValueError("p1 + p2 must not exceed 1")


@dataclass(frozen=True)
class NoiseParams:
    """f0: probability that a pair crosses the channel without a bit flip, checked when built."""

    f0: float

    def __post_init__(self):
        if not 0.0 <= _real("f0", self.f0) <= 1.0:  # false for NaN too
            raise ValueError("f0 must lie in [0, 1]")


def single_pair_state(flipped: bool = False) -> PureState:
    """Normalized one-pair emission (four branches, amplitude 1/2)."""
    return operator_state([(1, (FLIPPED if flipped else CLEAN,))])


BELL_KINDS = ("phi+", "phi-", "psi+", "psi-")


def bell_pair(kind: str, spatial: Spatial = Spatial.UPPER) -> PureState:
    """One of the four Bell pairs on (Alice, spatial) x (Bob, spatial)."""
    if kind not in BELL_KINDS:
        raise ValueError(f"unknown Bell state {kind!r}")
    ah, av, bh, bv = (ModeLabel(party, spatial, pol) for party in Party for pol in Pol)
    first, second = ((ah, bh), (av, bv)) if kind.startswith("phi") else ((ah, bv), (av, bh))
    return operator_state([(1, ((first,),)), (1 if kind.endswith("+") else -1, ((second,),))])


TWO_PAIR_KINDS = (("phi+", "phi+"), ("phi+", "psi+"), ("psi+", "phi+"), ("psi+", "psi+"))


def two_pair_weights(fidelity: float) -> list:
    """The two-pair mixture drawn from one source, as Bell-kind weights.

    Each pair is phi+ with probability F and psi+ otherwise.  Returns the
    weight of each (kind1, kind2) of ``TWO_PAIR_KINDS``, in that order;
    kind1 is the upper pair.
    """
    if not 0.0 < _real("F", fidelity) <= 1.0:
        raise ConfigError("fidelity must lie in (0, 1]")
    flip = 1.0 - fidelity
    return [fidelity * fidelity, fidelity * flip, flip * fidelity, flip * flip]


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
