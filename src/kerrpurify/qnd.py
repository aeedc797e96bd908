"""The four cross-Kerr QND detector gadgets and the probe homodyne readout.

A Kerr medium couples one signal mode to one party's coherent probe:
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

``apply_qnd`` adds each branch's signed photon counts per (party, angle)
from ``_SLOTS`` (compiled once per process) to its probe counts; QND2's
theta is pi, so it keeps its count mod 2, and QND4 keeps signed counts.
No angle enters, so a detector's output is the same at every config of
its variant.  ``QndConfig.phase`` reads counts as a ``PhaseTag``, and a
config accepts only angles at which the counts the protocol produces
read distinct phases.

Each probe is read out by homodyning it.  ``fock.project_probe`` is the
exact-phase readout (used with QND1-QND3), on the counts.
``homodyne_x`` is the X-quadrature readout, which cannot distinguish
+phi from -phi: the two phases fall in one outcome class, and
postselecting that class leaves a *mixture* of the +phi and -phi branch
groups, never their superposition.  That coarse-graining is what makes QND4 strictly
weaker than QND2 for keeping the odd-parity component.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum

from .elements import pbs
from .fock import (
    BranchState,
    ConfigError,
    EnsembleState,
    ModeLabel,
    OccupancyViolationError,
    Party,
    PhaseTag,
    Pol,
    PureState,
    Spatial,
    PI,
    ZERO_PHASE,
    probe_outcomes,
    project_probe,
)


class Variant(Enum):
    QND1 = "qnd1"
    QND2 = "qnd2"
    QND3 = "qnd3"
    QND4 = "qnd4"


@dataclass(frozen=True)
class KerrMedium:
    """One cross-Kerr coupling: signal mode -> probe counts per photon,
    (1, 0) for a shift by theta and (0, 1) for one by theta'."""

    signal_mode: ModeLabel
    counts_per_photon: tuple
    probe_party: Party


def apply_kerr(state: PureState, medium: KerrMedium) -> PureState:
    """Add n * counts to the probe for the n photons in the signal mode."""
    def shift(b):
        n = b.occupation(medium.signal_mode)
        if not n:
            return b
        probe = list(b.probe)
        (a, c), (da, dc) = probe[medium.probe_party], medium.counts_per_photon
        probe[medium.probe_party] = (a + n * da, c + n * dc)
        return BranchState(b.occupations, b.amplitude, tuple(probe))

    return state.map_branches(shift)


@dataclass(frozen=True)
class QndConfig:
    """A detector and its angles.  Building one checks it, so a QndConfig
    that exists is valid: each angle it reads is a ``PhaseTag``."""

    variant: Variant
    theta: PhaseTag
    theta_prime: PhaseTag | None = None

    def __post_init__(self):
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
        if reads_prime:
            if t == tp:
                raise ConfigError("theta and theta_prime must differ mod 2*pi")
            if len({ZERO_PHASE, t, tp, t * 2, tp * 2, t + tp}) != 6:
                raise ConfigError(
                    "phase classes {0, t, t', 2t, 2t', t+t'} must be pairwise distinct mod 2*pi"
                )
        elif self.variant == Variant.QND2:
            if t != PI:
                raise ConfigError("qnd2 requires theta = pi exactly")
        elif self.variant == Variant.QND4:
            if t == ZERO_PHASE or t == PI:
                raise ConfigError("qnd4 requires theta with +theta != -theta mod 2*pi")

    def phase(self, counts: tuple) -> PhaseTag:
        """The probe phase a*theta + b*theta' of the probe counts (a, b)."""
        a, b = counts
        if b and self.theta_prime is None:
            raise ConfigError(f"{self.variant.value} reads no theta_prime")
        return self.theta * a + self.theta_prime * b if b else self.theta * a


@functools.lru_cache(maxsize=None)  # one immutable config per variant
def default_config(variant: Variant) -> QndConfig:
    """The default angles: theta = pi/4 and theta' = 3pi/4, pi for qnd2."""
    if variant == Variant.QND2:
        return QndConfig(variant, PI)
    theta_prime = PhaseTag(3, 4) if variant in (Variant.QND1, Variant.QND3) else None
    return QndConfig(variant, PhaseTag(1, 4), theta_prime)


# The module docstring's table: each party's media per detector, as
# (spatial port, polarization, QndConfig angle, sign).  n photons in that
# mode shift the party's own probe by n * sign * angle.
_COUPLINGS = {
    Variant.QND1: ((Spatial.UPPER, Pol.H, "theta", 1), (Spatial.LOWER, Pol.V, "theta", 1),
                   (Spatial.UPPER, Pol.V, "theta_prime", 1),
                   (Spatial.LOWER, Pol.H, "theta_prime", 1)),
    Variant.QND2: ((Spatial.UPPER, Pol.H, "theta", 1), (Spatial.LOWER, Pol.V, "theta", 1)),
    Variant.QND3: ((Spatial.UPPER, Pol.H, "theta", 1), (Spatial.UPPER, Pol.V, "theta", 1),
                   (Spatial.LOWER, Pol.H, "theta_prime", 1),
                   (Spatial.LOWER, Pol.V, "theta_prime", 1)),
    Variant.QND4: ((Spatial.UPPER, Pol.H, "theta", 1), (Spatial.LOWER, Pol.H, "theta", -1)),
}

# _COUPLINGS compiled once per detector: signal mode -> (slot, sign), where
# slot 2 * party + (0 for theta, 1 for theta') counts the photons that
# shift that party's probe by sign * that angle.
_SLOTS = {v: {ModeLabel(party, spatial, pol): (2 * party + (angle == "theta_prime"), sign)
              for spatial, pol, angle, sign in row for party in Party}
          for v, row in _COUPLINGS.items()}


def apply_qnd(state: PureState, cfg: QndConfig) -> PureState:
    """Run the detector ``cfg`` names: its ``_COUPLINGS`` row for both parties.
    The probes gain counts, so every config of one variant gives one result."""
    if cfg.variant in (Variant.QND2, Variant.QND4):
        if not all(b.one_photon_per_port() for b in state.branches):
            raise OccupancyViolationError(
                "detector expects one photon per spatial port of each party")
    if cfg.variant == Variant.QND3:
        for party in Party:
            state = pbs(state, party)
    slots = _SLOTS[cfg.variant]
    period = 2 if cfg.variant == Variant.QND2 else 0  # theta = pi: two shifts are none

    def shift(b):
        counts = [0, 0, 0, 0]
        for m, n in b.occupations:
            slot, sign = slots.get(m, (0, 0))
            counts[slot] += sign * n
        probe = []
        for party, (a, c) in enumerate(b.probe):
            a, c = a + counts[2 * party], c + counts[2 * party + 1]
            probe.append((a % period if period else a, c))
        return BranchState(b.occupations, b.amplitude, tuple(probe))

    return state.map_branches(shift)


@dataclass(frozen=True)
class HomodyneOutcome:
    outcome: PhaseTag
    probability: float
    post_state: EnsembleState


def homodyne_x(state: PureState, party: Party, cfg: QndConfig) -> list:
    """Enumerate the X-quadrature outcome classes of one party's probe.

    The readout cannot tell +phi from -phi, so each outcome is a
    ``magnitude_class`` of the exact phases at ``cfg``'s angles.  Within a
    class the branch groups of different phases decohere: the post-state
    is an ensemble with one component per phase, the ``project_probe``
    state of its counts at weight p_phase / p_class.  The measured probe
    register resets to 0.  Two counts of one phase raise ConfigError: the
    angles would make the readout merge branch groups the counts keep apart.
    """
    classes: dict[PhaseTag, list] = {}
    phases = set()
    for counts, prob in probe_outcomes(state, party).items():
        tag = cfg.phase(counts)
        if tag in phases:
            raise ConfigError(f"two probe counts read the phase {tag} at these angles")
        phases.add(tag)
        classes.setdefault(tag.magnitude_class(), []).append((tag, counts, prob))
    outcomes = []
    for cls, members in sorted(classes.items()):
        cls_prob = sum(prob for *_, prob in members)
        comps = [(prob / cls_prob, project_probe(state, party, counts)[1])
                 for _, counts, prob in sorted(members)]
        outcomes.append(HomodyneOutcome(cls, cls_prob, EnsembleState.of(comps)))
    return outcomes

