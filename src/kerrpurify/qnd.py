"""The four cross-Kerr QND detector gadgets.

A Kerr medium couples one signal mode to its own party's coherent probe:
n photons in the signal mode shift that probe's phase by n*theta and
leave the photons untouched; in the probe counts of ``fock`` a shift by
theta adds (1, 0) and one by theta' adds (0, 1).  Each detector
gadget is a fixed stack of Kerr couplings (plus an internal PBS for the
two-Kerr variant) whose end-to-end branch map is pinned down by the
transformation table in ``branches``; the internal layout below is one
realization of those maps, not the only possible one.

Couplings per party, one row of ``_COUPLINGS`` per detector (Alice
shown; Bob's media are the mirror image on his modes and his probe).
Each medium reads (spatial port, polarization) -> shift per photon:

  QND1  four media, no rerouting:
            (upper,H) -> +theta     (lower,V) -> +theta
            (upper,V) -> +theta'    (lower,H) -> +theta'
  QND2  two media, theta = pi, on the modes whose joint occupancy is
        the polarization parity of the party's two photons:
            (upper,H) -> +theta     (lower,V) -> +theta
  QND3  a PBS on the party's two ports first (V photons swap ports),
        then media on both polarizations of each output port:
            (upper,H) -> +theta     (upper,V) -> +theta
            (lower,H) -> +theta'    (lower,V) -> +theta'
  QND4  opposite shifts on the H components:
            (upper,H) -> +theta     (lower,H) -> -theta

QND2 and QND4 act on two single-photon pairs and reject any branch
without one photon in each of a party's two ports.

``apply_qnd(state, variant)`` runs ``apply_kerr`` once per medium of
the detector's row and party, Bob's on his own modes and probe; QND2's
theta is pi, so it then keeps its count mod 2, and QND4 keeps signed
counts.  No angle enters: a detector runs by its ``Variant``.
A ``QndConfig`` is read only where a phase leaves the library: its
``classes`` and ``phase`` read counts as a ``PhaseTag``, and it accepts
only angles at which the counts the protocol produces read distinct phases.

Each probe is read out by ``fock.project_probe``, on its exact counts.  An
X-quadrature readout cannot tell +phi from -phi, so it would keep QND4's
odd-parity branches as a mixture, where QND2's pi shift tags both alike and
keeps their superposition; demo 04 compares the two.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from enum import Enum
from types import MappingProxyType

from .elements import pbs
from .fock import (
    BranchState,
    ConfigError,
    ModeLabel,
    OccupancyViolationError,
    Party,
    PhaseTag,
    Pol,
    PureState,
    Spatial,
    PI,
    ZERO_COUNTS,
    ZERO_PHASE,
)


class Variant(Enum):
    __hash__ = object.__hash__  # an Enum equals only itself, so hash it by identity

    QND1 = "qnd1"
    QND2 = "qnd2"
    QND3 = "qnd3"
    QND4 = "qnd4"


def apply_kerr(state: PureState, mode: ModeLabel, counts: tuple) -> PureState:
    """Add n * counts to the probe of ``mode``'s party for the n photons in
    ``mode``: (1, 0) per photon for a shift by theta, (0, 1) for one by theta'."""
    party, (da, dc) = mode.party, counts

    def shift(b):
        n = b.occupation(mode)
        if not n:
            return b
        probe = list(b.probe)
        a, c = probe[party]
        probe[party] = (a + n * da, c + n * dc)
        return BranchState(b.occupations, b.amplitude, tuple(probe))

    return state.map_branches(shift)


@functools.lru_cache(maxsize=8)  # qnd1 and qnd3 at one angle pair share one check
def _check_phase_classes(t: PhaseTag, tp: PhaseTag) -> MappingProxyType:
    """The tag of each of the six count classes at (t, tp), read-only since
    the cache shares it, or ConfigError if two of them read one phase; a
    refusal is not cached, so it raises on every build."""
    if t == tp:
        raise ConfigError("theta and theta_prime must differ mod 2*pi")
    classes = {ZERO_COUNTS: ZERO_PHASE, (1, 0): t, (0, 1): tp, (2, 0): t * 2, (0, 2): tp * 2,
               (1, 1): t + tp}
    if len(set(classes.values())) != 6:
        raise ConfigError(
            "phase classes {0, t, t', 2t, 2t', t+t'} must be pairwise distinct mod 2*pi"
        )
    return MappingProxyType(classes)


@dataclass(frozen=True)
class QndConfig:
    """The angles at which a detector's probe counts read as phases.
    Building one checks it, so a QndConfig that exists is valid: each
    angle it reads is a ``PhaseTag``.  ``classes`` maps each count class
    its detector reads to its tag, a read-only mapping shared by the
    configs of one angle pair and read by exact runs."""

    variant: Variant
    theta: PhaseTag
    theta_prime: PhaseTag | None = None
    classes: MappingProxyType = field(init=False, repr=False, compare=False)  # counts -> tag

    def __post_init__(self):
        if not isinstance(self.variant, Variant):  # "qnd1" too: a Variant names a detector
            raise ConfigError(f"variant is a Variant, not {type(self.variant).__name__}")
        t, tp = self.theta, self.theta_prime
        reads_prime = self.variant in (Variant.QND1, Variant.QND3)
        if reads_prime and tp is None:
            raise ConfigError(f"{self.variant.value} needs theta_prime")
        if not reads_prime and tp is not None:
            raise ConfigError(f"{self.variant.value} reads no theta_prime")
        for angle in (t, tp)[:1 + reads_prime]:
            if not isinstance(angle, PhaseTag):
                raise ConfigError("an angle is a PhaseTag, an exact rational of pi, "
                                  f"not {type(angle).__name__}")
        if self.variant == Variant.QND2 and t != PI:
            raise ConfigError("qnd2 requires theta = pi exactly")
        if self.variant == Variant.QND4 and (t == ZERO_PHASE or t == PI):
            raise ConfigError("qnd4 requires theta with +theta != -theta mod 2*pi")
        object.__setattr__(self, "classes", _check_phase_classes(t, tp) if reads_prime
                           else MappingProxyType({ZERO_COUNTS: ZERO_PHASE, (1, 0): t}))

    def __reduce__(self):  # pickle and copy rebuild a config, and its classes, through the checks
        return QndConfig, (self.variant, self.theta, self.theta_prime)

    def phase(self, counts: tuple) -> PhaseTag:
        """The probe phase a*theta + b*theta' of the probe counts (a, b): the
        config's own tag of a count class it keeps, else a new tag."""
        tag = self.classes.get(counts)
        if tag is not None:
            return tag
        a, b = counts
        if not b:
            return self.theta * a
        if self.theta_prime is None:
            raise ConfigError(f"{self.variant.value} reads no theta_prime")
        return self.theta * a + self.theta_prime * b


@functools.lru_cache(maxsize=None)  # one immutable config per variant
def default_config(variant: Variant) -> QndConfig:
    """The default angles: theta = pi/4 and theta' = 3pi/4, pi for qnd2."""
    if variant == Variant.QND2:
        return QndConfig(variant, PI)
    theta_prime = PhaseTag(3, 4) if variant in (Variant.QND1, Variant.QND3) else None
    return QndConfig(variant, PhaseTag(1, 4), theta_prime)


# The module docstring's table: each party's media per detector, as
# (spatial port, polarization, probe counts per photon).  n photons in that
# mode add n * counts to the party's own probe: (1, 0) is +theta, (0, 1)
# is +theta' and (-1, 0) is -theta.
_COUPLINGS = {
    Variant.QND1: ((Spatial.UPPER, Pol.H, (1, 0)), (Spatial.LOWER, Pol.V, (1, 0)),
                   (Spatial.UPPER, Pol.V, (0, 1)), (Spatial.LOWER, Pol.H, (0, 1))),
    Variant.QND2: ((Spatial.UPPER, Pol.H, (1, 0)), (Spatial.LOWER, Pol.V, (1, 0))),
    Variant.QND3: ((Spatial.UPPER, Pol.H, (1, 0)), (Spatial.UPPER, Pol.V, (1, 0)),
                   (Spatial.LOWER, Pol.H, (0, 1)), (Spatial.LOWER, Pol.V, (0, 1))),
    Variant.QND4: ((Spatial.UPPER, Pol.H, (1, 0)), (Spatial.LOWER, Pol.H, (-1, 0))),
}


def apply_qnd(state: PureState, variant: Variant) -> PureState:
    """Run the detector ``variant``: one ``apply_kerr`` per medium of its
    ``_COUPLINGS`` row and party.  The probes gain counts, so no angle enters."""
    if not isinstance(variant, Variant):
        raise TypeError(f"apply_qnd runs a Variant, not {type(variant).__name__}")
    if variant in (Variant.QND2, Variant.QND4):
        if not all(b.one_photon_per_port() for b in state.branches):
            raise OccupancyViolationError(
                "detector expects one photon per spatial port of each party")
    if variant == Variant.QND3:
        for party in Party:
            state = pbs(state, party)
    for spatial, pol, counts in _COUPLINGS[variant]:
        for party in Party:  # each party's medium on its own mode, shifting its own probe
            state = apply_kerr(state, ModeLabel(party, spatial, pol), counts)
    if variant == Variant.QND2:  # theta = pi: two shifts are none
        state = state.map_branches(lambda b: BranchState(
            b.occupations, b.amplitude, tuple((a % 2, c) for a, c in b.probe)))
    return state
