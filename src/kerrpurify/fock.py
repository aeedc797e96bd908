"""Sparse multi-mode Fock states with exact probe-phase bookkeeping.

Core representation used by every other module:

- A state is a superposition of *branches*.  Each branch holds an
  occupation pattern (photon counts per optical mode), one complex
  amplitude, and one register per party for that party's coherent
  probe beam.
- A probe register holds integer *probe counts* (a, b): the probe's
  phase is a*theta + b*theta' at the detector's angles.  Postselection
  compares phases for *equality*, and at angles a ``QndConfig`` accepts
  the counts a detector produces are equal exactly when their phases
  are, so states never hold an angle: the branches are enumerated once
  per detector, and ``QndConfig.phase`` turns counts into a
  ``PhaseTag`` where a phase leaves the library.
- Probe phases are exact rationals of pi (``PhaseTag``), never floats.
  A tag holds its value modulo 2 as a reduced integer pair (num, den)
  with 0 <= num < 2*den: arithmetic is integer arithmetic plus one gcd,
  and equality compares the two ints.
- A branch has one key: its occupations and its probe counts, a tuple
  of ints.  ``PureState.of`` merges and sorts on it; ``inner`` matches
  on it.
- Optical modes are labeled by (party, spatial port, polarization), a
  tuple of three int enums; at most 12 distinct modes ever occur.

Amplitudes are ordinary complex floats: they are products of small
rationals and square roots of integers, so true zeros arise only from
exact cancellation and anything below ``PRUNE_TOL`` is round-off noise.

All values are immutable; operations return new states.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from enum import IntEnum
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple

PRUNE_TOL = 1e-12
NORM_TOL = 1e-10


class SimulationError(Exception):
    """Base class for simulator errors."""


class ZeroNormError(SimulationError):
    """State has no surviving branches (norm 0)."""


class OccupancyViolationError(SimulationError):
    """An operation's occupancy precondition is violated."""


class AmbiguousRoutingError(SimulationError):
    """A coupler input holds same-polarization photons in both spatial ports."""


class ConfigError(SimulationError):
    """Invalid or degenerate configuration."""


class Party(IntEnum):
    ALICE = 0
    BOB = 1


class Spatial(IntEnum):
    UPPER = 1
    LOWER = 2
    MERGED = 3


class Pol(IntEnum):
    H = 0
    V = 1


class ModeLabel(NamedTuple):
    """One optical mode: (party, spatial port, polarization).

    A tuple of three int enums, so a label hashes and compares as an int
    triple, in C.
    """

    party: Party
    spatial: Spatial
    pol: Pol

    def __repr__(self) -> str:
        p = "ab"[self.party]
        s = {Spatial.UPPER: "1", Spatial.LOWER: "2", Spatial.MERGED: "m"}[self.spatial]
        return f"{p}{s}{self.pol.name}"


class PhaseTag:
    """A phase (value)*pi with value an exact rational in [0, 2).

    The value is held as the reduced integer pair (num, den), den > 0 and
    0 <= num < 2*den.  Arithmetic is exact and taken modulo 2*pi, and two
    tags are equal when their pairs are, so equality is a float-free
    integer comparison.  ``PhaseTag(3, 4)`` is the phase 3*pi/4.
    """

    __slots__ = ("num", "den")

    def __init__(self, numerator=0, denominator=1):
        if type(numerator) is not int or type(denominator) is not int:
            if isinstance(numerator, float) or isinstance(denominator, float):
                raise TypeError("a phase is an exact rational of pi, not a float")
            f = Fraction(numerator, denominator)
            numerator, denominator = f.numerator, f.denominator
        elif denominator < 0:
            numerator, denominator = -numerator, -denominator
        g = math.gcd(numerator, denominator)
        den = denominator // g
        num = numerator // g % (2 * den)  # ZeroDivisionError for a zero denominator
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("PhaseTag is immutable")

    @property
    def value(self) -> Fraction:
        """Phase in units of pi, reduced, in [0, 2)."""
        return Fraction(self.num, self.den)

    def __add__(self, other: "PhaseTag") -> "PhaseTag":
        return PhaseTag(self.num * other.den + other.num * self.den, self.den * other.den)

    def __neg__(self) -> "PhaseTag":
        return PhaseTag(-self.num, self.den)

    def __mul__(self, n: int) -> "PhaseTag":
        return PhaseTag(self.num * n, self.den)

    def __eq__(self, other) -> bool:
        return (isinstance(other, PhaseTag)
                and self.num == other.num and self.den == other.den)

    def __lt__(self, other: "PhaseTag") -> bool:
        return self.num * other.den < other.num * self.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def magnitude_class(self) -> "PhaseTag":
        """Canonical representative of the {+phi, -phi} pair.

        An X-quadrature readout cannot tell +phi from -phi; both map to
        the same class, represented by min(phi, 2*pi - phi).
        """
        return self if self.num <= self.den else -self

    @classmethod
    def parse(cls, text: str) -> "PhaseTag":
        """Parse 'p/q' or 'p' as the phase (p/q)*pi."""
        try:
            return cls(Fraction(text.strip()))
        except ZeroDivisionError:
            raise ValueError(f"phase {text.strip()!r} has a zero denominator") from None

    def __repr__(self) -> str:
        return f"PhaseTag({self.value}*pi)"


ZERO_PHASE = PhaseTag(0)
PI = PhaseTag(1)

ZERO_COUNTS = (0, 0)  # the probe counts of an unshifted probe
_NO_PROBE = (ZERO_COUNTS, ZERO_COUNTS)


def _canonical_occupations(occupations) -> tuple:
    if isinstance(occupations, Mapping):
        items = occupations.items()
    else:
        items = occupations
    kept = [(m, int(n)) for m, n in items if n != 0]
    for m, n in kept:
        if n < 0:
            raise OccupancyViolationError(f"negative occupation on {m}")
    return tuple(sorted(kept))


@dataclass(frozen=True)
class BranchState:
    """One coherent branch: occupation pattern, amplitude, probe counts.

    ``occupations`` is a sorted tuple of (mode, count) pairs with all
    counts > 0; ``probe`` is indexed by ``Party`` and holds each party's
    probe counts (a, b), two ints.
    """

    occupations: tuple
    amplitude: complex
    probe: tuple = _NO_PROBE

    @staticmethod
    def of(occupations, amplitude, probe=_NO_PROBE) -> "BranchState":
        return BranchState(_canonical_occupations(occupations), complex(amplitude), tuple(probe))

    def key(self):
        """Occupations, then the probe counts: ints that hash and order in C."""
        return (self.occupations, self.probe)

    def occupation(self, m: ModeLabel) -> int:
        for mm, n in self.occupations:
            if mm == m:
                return n
        return 0

    def photons(self, party=None, spatial=None) -> int:
        """Count photons matching the given mode filters."""
        total = 0
        for m, n in self.occupations:
            if party is not None and m.party != party:
                continue
            if spatial is not None and m.spatial != spatial:
                continue
            total += n
        return total

    def with_amplitude(self, amplitude) -> "BranchState":
        return BranchState(self.occupations, complex(amplitude), self.probe)

    def with_probe(self, party: Party, counts: tuple) -> "BranchState":
        probe = list(self.probe)
        probe[party] = counts
        return BranchState(self.occupations, self.amplitude, tuple(probe))

    def one_photon_per_port(self) -> bool:
        """One photon in each party's upper and lower port: two single-photon pairs."""
        return all(self.photons(party=p, spatial=s) == 1
                   for p in Party for s in (Spatial.UPPER, Spatial.LOWER))

    def map_modes(self, fn: Callable[[ModeLabel], ModeLabel]) -> "BranchState":
        """Relabel modes; counts landing on the same label add."""
        new: dict[ModeLabel, int] = {}
        for m, n in self.occupations:
            nm = fn(m)
            new[nm] = new.get(nm, 0) + n
        return BranchState(_canonical_occupations(new), self.amplitude, self.probe)


@dataclass(frozen=True)
class PureState:
    """Superposition of branches, kept in canonical (merged, sorted) form."""

    branches: tuple

    @staticmethod
    def of(branches: Iterable[BranchState]) -> "PureState":
        merged: dict = {}
        for b in branches:
            k = b.key()
            old = merged.get(k)
            merged[k] = b if old is None else old.with_amplitude(old.amplitude + b.amplitude)
        return PureState(tuple(merged[k] for k in sorted(merged)
                               if abs(merged[k].amplitude) >= PRUNE_TOL))

    def norm_squared(self) -> float:
        return sum(abs(b.amplitude) ** 2 for b in self.branches)

    def scale(self, factor) -> "PureState":
        """Multiply every amplitude by ``factor``.

        Keys and their order do not change, so the result stays canonical
        with no merge or sort; amplitudes that fall below PRUNE_TOL drop.
        """
        scaled = (b.with_amplitude(b.amplitude * factor) for b in self.branches)
        return PureState(tuple(b for b in scaled if abs(b.amplitude) >= PRUNE_TOL))

    def normalize(self) -> "PureState":
        n2 = self.norm_squared()
        if n2 <= PRUNE_TOL**2 or not self.branches:
            raise ZeroNormError("state has zero norm")
        return self.scale(1.0 / math.sqrt(n2))

    def map_branches(self, fn) -> "PureState":
        """Apply fn, a map from branch to branch, to each branch."""
        return PureState.of(map(fn, self.branches))

    def __len__(self) -> int:
        return len(self.branches)


def create_photon(state: PureState, m: ModeLabel) -> PureState:
    """Apply the creation operator for mode ``m`` to every branch.

    Bosonic convention: a branch with n photons already in the mode
    picks up a factor sqrt(n+1).  The result is NOT renormalized; the
    caller normalizes once a full source term has been assembled.
    """
    def bump(b: BranchState) -> BranchState:
        n = b.occupation(m)
        occ = dict(b.occupations)
        occ[m] = n + 1
        return BranchState.of(occ, b.amplitude * math.sqrt(n + 1), b.probe)

    return state.map_branches(bump)


def product_state(a: PureState, b: PureState) -> PureState:
    """Tensor product of states living on disjoint mode sets.

    Probe counts add.  Raises if the two states share an occupied mode
    (a general bosonic product would need symmetrization there).
    """
    out = []
    for ba in a.branches:
        modes_a = {m for m, _ in ba.occupations}
        for bb in b.branches:
            if modes_a & {m for m, _ in bb.occupations}:
                raise OccupancyViolationError("product_state requires disjoint modes")
            occ = dict(ba.occupations)
            occ.update(bb.occupations)
            probe = tuple((a1 + a2, b1 + b2)
                          for (a1, b1), (a2, b2) in zip(ba.probe, bb.probe))
            out.append(BranchState.of(occ, ba.amplitude * bb.amplitude, probe))
    return PureState.of(out)


def probe_outcomes(state: PureState, party: Party) -> dict:
    """Probability of each distinct value of one party's probe counts."""
    dist: dict[tuple, float] = {}
    for b in state.branches:
        c = b.probe[party]
        dist[c] = dist.get(c, 0.0) + abs(b.amplitude) ** 2
    return dict(sorted(dist.items()))  # by counts: each occurs once


def project_probe(state: PureState, party: Party, outcome: tuple):
    """Project one party's probe register onto the probe counts ``outcome``.

    Returns (probability, post-measurement state); the measured
    register resets to 0.  Counts compare as ints, never as floats.
    """
    matching = [b for b in state.branches if b.probe[party] == outcome]
    prob = sum(abs(b.amplitude) ** 2 for b in matching)
    if not matching or prob <= PRUNE_TOL**2:
        raise ZeroNormError(f"probe outcome {outcome} has probability 0")
    post = PureState.of(b.with_probe(party, ZERO_COUNTS) for b in matching).normalize()
    return prob, post


def inner(a: PureState, b: PureState) -> complex:
    """<b|a> over canonical branches (occupations and probe counts both label the basis)."""
    amps_b = {br.key(): br.amplitude for br in b.branches}
    total = 0.0 + 0.0j
    for br in a.branches:
        other = amps_b.get(br.key())
        if other is not None:
            total += other.conjugate() * br.amplitude
    return total


def overlap(a: PureState, b: PureState) -> float:
    """|<b|a>|^2."""
    return abs(inner(a, b)) ** 2


@dataclass(frozen=True)
class EnsembleState:
    """Weighted mixture of pure states."""

    components: tuple

    @staticmethod
    def of(pairs) -> "EnsembleState":
        """Mixture of (weight, state) pairs; zero weights are dropped.

        A negative or NaN weight or a total other than 1 raises.
        """
        weighted = [(float(w), s) for w, s in pairs]
        if not all(w >= 0 for w, _ in weighted):
            raise ValueError("negative or NaN ensemble weight")
        comps = tuple((w, s) for w, s in weighted if w > 0.0)
        total = sum(w for w, _ in comps)
        if abs(total - 1.0) > NORM_TOL:
            raise ValueError(f"ensemble weights sum to {total}, not 1")
        return EnsembleState(comps)

    def overlap(self, target: PureState) -> float:
        """<target| rho |target>."""
        return sum(w * overlap(s, target) for w, s in self.components)

    def purity(self) -> float:
        """tr(rho^2), from the Gram matrix of the components."""
        total = 0.0
        for wi, si in self.components:
            for wj, sj in self.components:
                total += wi * wj * abs(inner(si, sj)) ** 2
        return total

    def __len__(self) -> int:
        return len(self.components)
